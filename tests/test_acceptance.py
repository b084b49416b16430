"""Acceptance gate: the six headline behaviors, one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
"""

import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import (
    BRIDGE, COLLISION, FAMILY, FAMILY_SOLUTION, assert_defines_what_it_reads, assert_index_invariants, render_set,
)
from capture import capture_lines, learned_corpus
from corpus import CORPUS_SIZE, random_kb
from nemus_icl import (
    EnumCaps,
    GroundAtom,
    compile_kb,
    enumerate_hypotheses,
    learn,
    parse_hypothesis,
    parse_kb,
    verify,
)


def _report(n: int, label: str, ok: bool, detail: str = ""):
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'} {label} {detail}".rstrip())


class _gate:
    """Prints the criterion line whether the body passes or raises."""

    def __init__(self, n, label):
        self.n, self.label, self.detail = n, label, ""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        _report(self.n, self.label, exc_type is None, self.detail)
        return False


def test_criterion_1_family_tree():
    with _gate(1, "family-tree reproduction") as g:
        t0 = time.perf_counter()
        kb = parse_kb(FAMILY)
        result = learn(compile_kb(kb), kb.task)
        elapsed = time.perf_counter() - t0
        assert len(result.hypotheses) == 1, "expected exactly one clause set"
        assert render_set(result.hypotheses[0], kb.symbols) == FAMILY_SOLUTION
        verdict = verify(kb.facts, result.hypotheses[0], kb.task.positives, kb.task.negatives)
        assert verdict.ok
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        g.detail = f"({elapsed * 1000:.0f} ms)"


def test_criterion_2_collision_pruning():
    with _gate(2, "momentum collision on the worked example") as g:
        kb = parse_kb(COLLISION)
        nemus = compile_kb(kb)
        trace = []
        result = learn(nemus, kb.task, trace=trace.append)

        inconsistent = [
            r for r in trace
            if r["imu"] == "inconsistent" and r["candidate"] == "qj(bj,a1)"
        ]
        assert inconsistent, "no recorded inconsistent verdict on the qj branch"
        assert result.stats.pruned >= 1
        assert [render_set(h, kb.symbols) for h in result.hypotheses] == [
            {"p(X) :- pk(Y,X), r1(Z0,Y), s1(Z0)."}
        ]

        # force-include hook: the pruned atom's generalization derives p(b)
        forced = parse_hypothesis("p(X) :- p1(X,Y), qj(Z,Y).\n", kb.symbols)
        verdict = verify(kb.facts, forced, kb.task.positives, kb.task.negatives)
        b = kb.symbols.constant_code("b")
        assert verdict.failed == GroundAtom(kb.task.target, (b,))

        # and the walk itself, with pruning bypassed, reaches the same refusal
        bypassed = learn(nemus, kb.task, include_pruned=True)
        assert any(failed == GroundAtom(kb.task.target, (b,)) for _, failed in bypassed.rejected)
        g.detail = f"(pruned={result.stats.pruned})"


def _corpus_kbs():
    return [parse_kb(random_kb(seed)) for seed in range(CORPUS_SIZE)]


def test_criterion_3_oracle_soundness_on_corpus():
    with _gate(3, f"oracle soundness over {CORPUS_SIZE} random KBs") as g:
        t0 = time.perf_counter()
        emitted = 0
        for kb, result in learned_corpus():
            for clauses in result.hypotheses:
                assert verify(kb.facts, clauses, kb.task.positives, kb.task.negatives).ok
                assert_defines_what_it_reads(clauses, kb)
                emitted += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        g.detail = f"({emitted} sets verified in {elapsed:.1f}s)"


def test_corpus_and_enumerate_outputs_match_the_capture():
    """Every corpus seed's learned sets, invented predicates and stats, and
    the enumerate streams of the README KBs, as digested in
    tests/golden/corpus.learn.sha256.  A change meant to move an output
    regenerates the file with
    `PYTHONPATH=src python tests/capture.py > tests/golden/corpus.learn.sha256`."""
    want = dict(line.split(" ", 1) for line in (Path(__file__).parent / "golden" / "corpus.learn.sha256")
                .read_text().splitlines())
    got = dict(line.split(" ", 1) for line in capture_lines())
    differ = [key for key in {**want, **got} if want.get(key) != got.get(key)]
    assert not differ, f"outputs differ from the capture for: {' '.join(differ)}"


def test_criterion_4_brute_force_parity():
    with _gate(4, "learn never misses what enumeration can verify") as g:
        t0 = time.perf_counter()
        checked = 0
        for kb in _corpus_kbs():
            task = replace(kb.task, max_body=min(kb.task.max_body, 2))
            result = learn(compile_kb(kb), task)
            if result.hypotheses:
                continue  # found something; parity cannot be violated
            checked += 1
            caps = EnumCaps(max_body=task.max_body, max_clauses=1, max_vars=4)
            for clauses, verdict in enumerate_hypotheses(kb.facts, task, caps, kb.symbols):
                assert not verdict.ok, (
                    f"enumeration verified a set learn missed: "
                    f"{render_set(clauses, kb.symbols)}"
                )
        elapsed = time.perf_counter() - t0
        g.detail = f"({checked} empty-learn KBs exhaustively cross-checked, {elapsed:.1f}s)"


def test_criterion_5_nemus_structural_invariants():
    with _gate(5, "index structural invariants on the corpus") as g:
        for kb in _corpus_kbs():
            assert_index_invariants(kb, compile_kb(kb))
        g.detail = f"({CORPUS_SIZE} KBs)"


def test_criterion_6_byte_identical_json(tmp_path):
    with _gate(6, "byte-identical JSON across repeated runs") as g:
        import os

        env = dict(os.environ)
        env["NEMUS_ICL_COLOR"] = "0"

        files = {
            "family.kb": FAMILY,
            "collision.kb": COLLISION,
            "bridge.kb": BRIDGE,
            "corpus17.kb": random_kb(17),
            "corpus30.kb": random_kb(30),
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        hyp = tmp_path / "learned.clauses"
        hyp.write_text("\n".join(sorted(FAMILY_SOLUTION)) + "\n")

        scenarios = [
            ["learn", str(tmp_path / "family.kb"), "--json"],
            ["learn", str(tmp_path / "family.kb"), "--json", "--max-body", "3"],
            ["learn", str(tmp_path / "collision.kb"), "--json"],
            ["learn", str(tmp_path / "bridge.kb"), "--json"],
            ["learn", str(tmp_path / "corpus17.kb"), "--json"],
            ["learn", str(tmp_path / "corpus30.kb"), "--json"],
            ["check", str(tmp_path / "family.kb"), "--hypothesis", str(hyp), "--json"],
            ["dump-nemus", str(tmp_path / "family.kb")],
            ["enumerate", str(tmp_path / "family.kb"), "--limit", "200", "--json"],
        ]
        for argv in scenarios:
            outs = [
                subprocess.run(
                    [sys.executable, "-m", "nemus_icl", *argv],
                    capture_output=True, env=env,
                ).stdout
                for _ in range(2)
            ]
            assert outs[0] == outs[1], f"nondeterministic output for {argv}"
            assert outs[0], f"empty output for {argv}"
        g.detail = f"({len(scenarios)} scenarios x 2 runs)"
