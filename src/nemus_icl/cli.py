"""Command-line front door: learn, check, dump-nemus, enumerate.

Config resolution: file directives < flags; the effective values are echoed
in every output.  Exit codes: 0 = success with a result, 1 = no hypothesis /
verification fails, 2 = input errors (located message on stderr), 141 = the
reader closed stdout (128 + SIGPIPE, as a shell reports for `yes | head`).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, replace

from .engine import learn
from .kb import (
    KbError,
    LearnTask,
    parse_hypothesis,
    parse_kb,
    read_setting,
    render_clause,
    render_clause_atoms,
    render_ground_atom,
)
from .nemus import compile_kb, dump
from .oracle import EnumCaps, RangeRestrictionFault, enumerate_hypotheses, verify

PROG = "nemus-icl"


def _color_on(stream) -> bool:
    if os.environ.get("NEMUS_ICL_COLOR") == "0":
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _paint(text: str, code: str, enabled: bool) -> str:
    return f"\x1b[{code}m{text}\x1b[0m" if enabled else text


def _fail(message: str, path: str = "", line=None, col=None) -> int:
    loc = ""
    if line is not None:
        loc = f"{path or '<kb>'}:{line}:{col if col is not None else 0}: "
    print(f"{PROG}: error: {loc}{message}", file=sys.stderr)
    return 2


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise KbError(f"cannot read {path}: {exc}") from None


def _flag(args, name: str, default=None):
    """The flag's value, or the default when it is not given; the value is
    read and range-checked as the file directive is."""
    text = getattr(args, name, None)
    return default if text is None else read_setting(name, text)


def _effective_task(kb, args) -> LearnTask:
    task = kb.task
    if task is None:
        raise KbError("the KB file declares no learning task (missing target directive)")
    for name in ("max_body", "tau"):
        value = _flag(args, name)
        if value is not None:
            task = replace(task, **{name: value})
    return task


def _config_dict(command: str, kb_path: str, kb, task, args) -> dict:
    cfg = {"command": command, "kb": kb_path}
    if task is not None:
        cfg["target"] = kb.symbols.render_sig(task.target)
        cfg["max_body"] = task.max_body
        cfg["tau"] = task.tau
    cfg["seed"] = _flag(args, "seed")  # reserved; the search is deterministic
    cfg["output"] = "json" if getattr(args, "json", False) else "text"
    cfg["trace"] = bool(getattr(args, "trace", False))
    return cfg


def _config_line(cfg: dict) -> str:
    shown = [f"{k}={v}" for k, v in cfg.items() if k not in ("command", "kb", "output") and v is not None]
    return "config: " + " ".join(shown)


def _print_json(doc: dict):
    print(json.dumps(doc, indent=2))


def _indented(value, margin: str) -> str:
    """json.dumps(value, indent=2) as it reads nested at `margin`."""
    return json.dumps(value, indent=2).replace("\n", "\n" + margin)


def _json_list(items, margin: str) -> str:
    """json.dumps(values, indent=2) as it reads nested at `margin`, from the
    values already dumped at the margin two spaces deeper."""
    if not items:
        return "[]"
    return "[" + ",".join(f"\n{margin}  {item}" for item in items) + f"\n{margin}]"


def _clause_fragments(symbols):
    """A per-command memo: Clause -> its JSON object {"head": ..., "body":
    [...]} as json.dumps(..., indent=2) lays it out in hypotheses[i].clauses
    (learn) and candidates[i].clauses (enumerate), both at an 8-space margin.
    Each atom string is dumped on its own, which json encodes in C; with
    indent set, json.dumps of the whole object runs json's pure-Python
    encoder.  The kb renderer is looked up by its global name on a miss."""

    def fragment(clause) -> str:
        head, body = render_clause_atoms(clause.head, clause.body, symbols)
        return ('{\n          "head": ' + json.dumps(head) + ',\n          "body": '
                + _json_list([json.dumps(atom) for atom in body], " " * 10) + "\n        }")

    return functools.cache(fragment)


def _clauses_row(n: int, clauses, fragment) -> str:
    """The opening of row n (from 1) of the top-level list in the JSON
    document, up to its "clauses" value; the caller writes the rest of the
    row and its closing brace."""
    return (("," if n > 1 else "") + '\n    {\n      "clauses": '
            + _json_list([fragment(c) for c in clauses], "      "))


# --- subcommands -------------------------------------------------------------


def _cmd_learn(args) -> int:
    kb = parse_kb(_read(args.kb))
    task = _effective_task(kb, args)
    cfg = _config_dict("learn", args.kb, kb, task, args)  # reads --seed before any work
    nemus = compile_kb(kb)

    trace = None
    if args.trace:
        trace = lambda rec: print(json.dumps(rec), file=sys.stderr)

    result = learn(nemus, task, trace=trace)
    stats = asdict(result.stats)
    sym = kb.symbols

    if args.json:
        # written one hypothesis at a time, in the layout json.dumps(doc,
        # indent=2) gives {"hypotheses": ..., "invented": ..., "stats": ...,
        # "config": cfg}
        fragment = _clause_fragments(sym)
        sys.stdout.write('{\n  "hypotheses": [')
        for n, clauses in enumerate(result.hypotheses, 1):
            sys.stdout.write(_clauses_row(n, clauses, fragment) + "\n    }")
        sys.stdout.write(("\n  ]" if result.hypotheses else "]")
                         + ',\n  "invented": ' + _indented([sym.render_sig(p) for p in result.invented], "  ")
                         + ',\n  "stats": ' + _indented(stats, "  ")
                         + ',\n  "config": ' + _indented(cfg, "  ") + "\n}\n")
    else:
        color = _color_on(sys.stdout)
        if result.hypotheses:
            for n, clauses in enumerate(result.hypotheses, 1):
                print(_paint(f"hypothesis {n}:", "1", color))
                for c in clauses:
                    print("  " + render_clause(c.head, c.body, sym))
        else:
            print(_paint("no hypothesis.", "31", color))
        if result.invented:
            print("invented: " + ", ".join(sym.render_sig(p) for p in result.invented))
        print("stats: " + " ".join(f"{k}={v}" for k, v in stats.items()))
        print(_config_line(cfg))
    return 0 if result.hypotheses else 1


def _cmd_check(args) -> int:
    kb = parse_kb(_read(args.kb))
    task = _effective_task(kb, args)
    sym = kb.symbols
    try:
        clauses = parse_hypothesis(_read(args.hypothesis), sym)
        verdict = verify(kb.facts, clauses, task.positives, task.negatives)
    except KbError as exc:
        return _fail(exc.msg, args.hypothesis, exc.line, exc.col)
    except RangeRestrictionFault as exc:
        clause = exc.args[0]
        return _fail(f"{args.hypothesis}: clause is not range-restricted: "
                     + render_clause(clause.head, clause.body, sym))
    cfg = _config_dict("check", args.kb, kb, task, args)
    cfg["hypothesis"] = args.hypothesis

    failed = None if verdict.ok else render_ground_atom(verdict.failed, sym)
    if args.json:
        _print_json({"verdict": str(verdict), "failed": failed, "config": cfg})
    else:
        color = _color_on(sys.stdout)
        if verdict.ok:
            print(_paint("Verified", "32", color))
        else:
            print(_paint(f"Fails({failed})", "31", color))
        print(_config_line(cfg))
    return 0 if verdict.ok else 1


def _cmd_dump_nemus(args) -> int:
    kb = parse_kb(_read(args.kb))
    _print_json(dump(compile_kb(kb), kb.task.negatives if kb.task is not None else ()))
    return 0


def _cmd_enumerate(args) -> int:
    kb = parse_kb(_read(args.kb))
    task = _effective_task(kb, args)
    caps = EnumCaps(
        max_body=task.max_body,
        max_clauses=_flag(args, "max_clauses", EnumCaps().max_clauses),
        max_vars=_flag(args, "max_vars", EnumCaps().max_vars),
    )
    limit = _flag(args, "limit")
    sym = kb.symbols
    cfg = _config_dict("enumerate", args.kb, kb, task, args)
    cfg["max_body"] = caps.max_body
    cfg["max_clauses"] = caps.max_clauses
    cfg["max_vars"] = caps.max_vars
    cfg["limit"] = limit

    found = False
    color = _color_on(sys.stdout)
    failed_text = functools.cache(lambda atom: render_ground_atom(atom, sym))
    # per-command memos: a clause recurs in many candidate sets
    if args.json:
        fragment = _clause_fragments(sym)
    else:
        text = functools.cache(lambda c: render_clause(c.head, c.body, sym))
    # JSON rows are written as they come, in the layout json.dumps(doc,
    # indent=2) gives {"candidates": rows, "config": cfg}
    if args.json:
        sys.stdout.write('{\n  "candidates": [')
    n = 0
    for n, (clauses, verdict) in enumerate(enumerate_hypotheses(kb.facts, task, caps, sym), 1):
        failed = None if verdict.ok else failed_text(verdict.failed)
        if verdict.ok:
            found = True
        if args.json:
            sys.stdout.write(_clauses_row(n, clauses, fragment)
                             + ',\n      "verdict": ' + json.dumps(str(verdict))
                             + ',\n      "failed": ' + json.dumps(failed) + "\n    }")
        else:
            tag = _paint("Verified", "32", color) if verdict.ok else _paint(f"Fails({failed})", "31", color)
            sys.stdout.write(tag + "  " + " ".join(map(text, clauses)) + "\n")
        if limit is not None and n >= limit:
            break
    if args.json:
        sys.stdout.write(("\n  ]" if n else "]") + ',\n  "config": ' + _indented(cfg, "  ") + "\n}\n")
    else:
        print(_config_line(cfg))
    return 0 if found else 1


# --- argument parsing --------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parsing leaves it as it
    was, and help text reads the terminal width when it is formatted."""
    p = argparse.ArgumentParser(
        prog=PROG,
        description="Inductive clause learning over a shared multi-space index.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, tau_flag=True):
        sp.add_argument("kb", help="knowledge-base file (facts + directives)")
        sp.add_argument("--max-body", metavar="N",
                        help="body-literal cap; overrides the file directive")
        if tau_flag:
            sp.add_argument("--tau", metavar="R",
                            help="region-similarity threshold; overrides the file directive")
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("learn", help="search for verified clause sets")
    common(sp)
    sp.add_argument("--trace", action="store_true",
                    help="stream one JSON object per search event to stderr")
    sp.add_argument("--seed", metavar="N",
                    help="reserved; the search is deterministic and ignores it")
    sp.set_defaults(func=_cmd_learn)

    sp = sub.add_parser("check", help="verify a clause file against the KB's examples")
    common(sp)
    sp.add_argument("--hypothesis", required=True, metavar="PATH",
                    help="clause file to verify")
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("dump-nemus", help="print the compiled index as JSON")
    sp.add_argument("kb", help="knowledge-base file")
    sp.set_defaults(func=_cmd_dump_nemus)

    sp = sub.add_parser("enumerate", help="brute-force candidate stream with verdicts")
    common(sp, tau_flag=False)
    sp.add_argument("--max-clauses", metavar="N")
    sp.add_argument("--max-vars", metavar="N")
    sp.add_argument("--limit", metavar="N",
                    help="stop after N candidate sets")
    sp.set_defaults(func=_cmd_enumerate)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    kb_path = getattr(args, "kb", "")
    try:
        return args.func(args)
    except KbError as exc:
        return _fail(exc.msg, kb_path, exc.line, exc.col)
    except BrokenPipeError:
        # the reader has gone: nothing to report, and stdout now points at
        # devnull so the flush at shutdown cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except FileNotFoundError as exc:
        return _fail(f"cannot read {exc.filename}")
    except OSError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
