"""The corpus and enumerate capture that pins the learner's outputs.

`tests/golden/corpus.learn.sha256` holds one line per corpus seed
(`<seed> <number of sets> <digest>`, the digest covering the rendered sets,
the invented predicates and the stats), one per seed of
`corpus.BASE_RENUMBER_SEEDS` learned at max_body 4 (`learn4-<seed> ...`, the
same digest), and one per enumerated KB, the README KBs and two bias KBs
under `tests/golden/`, and the perfbench enumerate workload's streams
(`enumerate-<name> <number of sets> <digest>`, covering each enumerated set
with its verdict and failed example).  Regenerate it,
after a change that is meant to move an output, with

    PYTHONPATH=src python tests/capture.py > tests/golden/corpus.learn.sha256
"""

import functools
import hashlib
import itertools
import json
from dataclasses import asdict, replace
from pathlib import Path

from conftest import BRIDGE, COLLISION, FAMILY
from corpus import BASE_RENUMBER_SEEDS, CORPUS_SIZE, random_kb
from nemus_icl import EnumCaps, compile_kb, enumerate_hypotheses, learn, parse_kb, render_clause, render_ground_atom

GOLDEN = Path(__file__).parent / "golden"

# (name, KB text, caps, row limit or None).  The first five are small enough
# that the streams run in well under a second.  In invent_target_source the
# target is an invention source, and in invent_chain one bias reads another
# that reads the target: a bias definition the candidates reach must be
# verified with each candidate, not fired once.  The last three are the
# perfbench enumerate workload's streams at its caps and row limits, every
# failed example digested, where the benchmark checks only a sample
ENUM_CASES = (
    ("family", FAMILY, EnumCaps(max_body=2, max_clauses=3, max_vars=3), None),
    ("collision", COLLISION, EnumCaps(max_body=2, max_clauses=2, max_vars=2), None),
    ("bridge", BRIDGE, EnumCaps(max_body=2, max_clauses=2, max_vars=2), None),
    ("invent_target_source", (GOLDEN / "invent_target_source.kb").read_text(),
     EnumCaps(max_body=2, max_clauses=3, max_vars=3), None),
    ("invent_chain", (GOLDEN / "invent_chain.kb").read_text(), EnumCaps(max_body=2, max_clauses=4, max_vars=3), None),
    ("family-4-3-2", FAMILY, EnumCaps(max_body=2, max_clauses=4, max_vars=3), 6000),
    ("collision-2-3-2", COLLISION, EnumCaps(max_body=2, max_clauses=2, max_vars=3), 16000),
    ("bridge-2-4-2", BRIDGE, EnumCaps(max_body=2, max_clauses=2, max_vars=4), 16000),
)


@functools.cache
def learned_corpus() -> tuple:
    """(kb, learn result) per corpus seed, at the KB's own settings; learned
    once per process and shared by every test that reads it."""
    kbs = [parse_kb(random_kb(seed)) for seed in range(CORPUS_SIZE)]
    return tuple((kb, learn(compile_kb(kb), kb.task)) for kb in kbs)


@functools.cache
def learned_at_cap4() -> tuple:
    """(seed, kb, learn result at max_body 4) per seed of BASE_RENUMBER_SEEDS,
    learned once per process."""
    kbs = [(seed, parse_kb(random_kb(seed))) for seed in BASE_RENUMBER_SEEDS]
    return tuple((seed, kb, learn(compile_kb(kb), replace(kb.task, max_body=4))) for seed, kb in kbs)


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]


def _renderer(symbols):
    """Clause set -> list of rendered clauses, each clause rendered once."""
    text = functools.cache(lambda c: render_clause(c.head, c.body, symbols))
    return lambda clauses: [text(c) for c in clauses]


def _learn_line(name, kb, result) -> str:
    doc = (list(map(_renderer(kb.symbols), result.hypotheses)),
           [kb.symbols.render_sig(p) for p in result.invented], asdict(result.stats))
    return f"{name} {len(result.hypotheses)} {_digest(doc)}"


def capture_lines() -> list:
    lines = [_learn_line(seed, kb, result) for seed, (kb, result) in enumerate(learned_corpus())]
    lines += [_learn_line(f"learn4-{seed}", kb, result) for seed, kb, result in learned_at_cap4()]
    for name, text, caps, limit in ENUM_CASES:
        kb = parse_kb(text)
        rendered = _renderer(kb.symbols)
        stream = [(rendered(clauses), verdict.ok, verdict.failed and render_ground_atom(verdict.failed, kb.symbols))
                  for clauses, verdict in itertools.islice(
                      enumerate_hypotheses(kb.facts, kb.task, caps, kb.symbols), limit)]
        lines.append(f"enumerate-{name} {len(stream)} {_digest(stream)}")
    return lines


if __name__ == "__main__":
    print("\n".join(capture_lines()))
