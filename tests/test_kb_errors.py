"""The reader's errors on malformed input, pinned by tests/golden/kb_errors.jsonl.

Each line of the golden is a JSON list `[surface, input, class, line, col,
message]`: `surface` is `kb` (read by `parse_kb`) or `hypothesis` (read by
`parse_hypothesis` against a fresh symbol table), and the rest is the error
that input raises.  There is at least one case per `raise` in the tokenizer,
the parser and the validation.  To add a case, append a line with its surface
and input and any placeholder fields, then rewrite every line's error from the
current reader with

    PYTHONPATH=src python tests/test_kb_errors.py

only when the errors are meant to change.
"""

import json
from pathlib import Path

import pytest

from nemus_icl import KbError, SymbolTable, parse_hypothesis, parse_kb

GOLDEN = Path(__file__).parent / "golden" / "kb_errors.jsonl"
CASES = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]


def error_of(surface: str, text: str) -> list:
    try:
        if surface == "kb":
            parse_kb(text)
        else:
            parse_hypothesis(text, SymbolTable())
    except KbError as exc:
        return [type(exc).__name__, exc.line, exc.col, exc.msg]
    raise AssertionError(f"{text!r} parsed without an error")


@pytest.mark.parametrize("case", CASES, ids=lambda case: f"{case[0]}:{case[1]!r}")
def test_reader_error_matches_golden(case):
    surface, text, *expected = case
    assert error_of(surface, text) == expected


if __name__ == "__main__":
    lines = [json.dumps([surface, text, *error_of(surface, text)], ensure_ascii=False)
             for surface, text, *_ in CASES]
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
