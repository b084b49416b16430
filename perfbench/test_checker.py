"""Tests of the independent checker against hand-computed models, and of the
input generators.  Run with ``python3 -m pytest perfbench``."""

import os
import sys

import pytest

import checker
import workloads

FAMILY_FACTS = [("father", ("jake", "alice")), ("mother", ("alice", "ted")),
                ("father", ("ted", "bob")), ("mother", ("matilda", "alice"))]
FAMILY_RULES = checker.parse_clauses(" ".join(sorted(workloads.FAMILY_SOLUTION)))


def _kb(name):
    return {kb.name: kb for kb in workloads.readme_kbs()}[name]


def test_family_ancestor_closure():
    model = checker.least_model(FAMILY_FACTS, FAMILY_RULES)
    ancestor = {args for pred, args in model if pred == "ancestor"}
    # parent edges jake->alice, alice->ted, ted->bob, matilda->alice, closed
    assert ancestor == {
        ("jake", "alice"), ("jake", "ted"), ("jake", "bob"),
        ("alice", "ted"), ("alice", "bob"), ("ted", "bob"),
        ("matilda", "alice"), ("matilda", "ted"), ("matilda", "bob"),
    }
    assert {args for pred, args in model if pred == "parent"} == {a for _, a in FAMILY_FACTS}
    assert len(model) == 4 + 4 + 9


def test_family_solution_verdicts():
    family = _kb("family")
    assert checker.verdict(family, FAMILY_RULES) is None
    base_only = [c for c in FAMILY_RULES if c[0][0] != "ancestor" or len(c[1]) == 1]
    assert checker.verdict(family, base_only) == ("ancestor", ("jake", "bob"))


def test_collision_negative_derived():
    collision = _kb("collision")
    sound = checker.parse_clauses("p(X) :- pk(Z0,X), r1(Z1,Z0), s1(Z1).")
    assert checker.least_model(collision.facts, sound) >= {("p", ("a",))}
    assert checker.verdict(collision, sound) is None
    loose = checker.parse_clauses("p(X) :- p1(X,Y).")
    assert checker.verdict(collision, loose) == ("p", ("b",))


def test_merge_fault_reproduction_fails():
    kb = workloads.merge_fault_kb()
    emitted = checker.parse_clauses("parent(X,Y) :- father(X,Y).")
    assert checker.verdict(kb, emitted) == ("parent", ("zed", "zoe"))


def test_parse_enumerate_row_with_unit_clause():
    clauses = checker.parse_clauses("tgt(c1). tgt(X) :- b0(X,Z0), u1(Z0).")
    assert clauses == [
        (("tgt", ("c1",)), ()),
        (("tgt", ("X",)), (("b0", ("X", "Z0")), ("u1", ("Z0",)))),
    ]
    assert checker.render(clauses) == {"tgt(c1).", "tgt(X) :- b0(X,Z0), u1(Z0)."}


def test_unit_clause_is_a_fact():
    assert checker.least_model([], checker.parse_clauses("q(a). p(X) :- q(X).")) == {
        ("q", ("a",)), ("p", ("a",))}


@pytest.mark.parametrize("text", ["p(X) :- q(Y).", "p(X).", "p(a) :- q(a)", "p(a) q(b)."])
def test_rejects_unsafe_or_malformed(text):
    with pytest.raises(checker.CheckError):
        checker.least_model([], checker.parse_clauses(text))


@pytest.mark.parametrize("kb", [workloads.chain_kb(20), workloads.grid_kb(4)],
                         ids=lambda kb: kb.name)
def test_graph_examples_follow_reachability(kb):
    edge_preds = sorted({p for p, _ in kb.facts})
    rules = []
    for p in edge_preds:
        rules += [(("r", ("X", "Y")), ((p, ("X", "Y")),)),
                  (("r", ("X", "Y")), ((p, ("X", "Z")), ("r", ("Z", "Y"))))]
    reach = {a for p, a in checker.least_model(kb.facts, rules) if p == "r"}
    assert all(tuple(e) in reach for e in kb.positives)
    assert not any(tuple(e) in reach for e in kb.negatives)


def test_corpus_matches_tier1_corpus():
    tests_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests")
    if not os.path.isfile(os.path.join(tests_dir, "corpus.py")):
        pytest.skip("tests/corpus.py is not in this checkout")
    sys.path.insert(0, tests_dir)
    try:
        from corpus import random_kb
    finally:
        sys.path.remove(tests_dir)
    for seed in range(workloads.CORPUS_SIZE):
        assert workloads.corpus_kb(seed).text() == random_kb(seed)


def test_tasks_depend_on_seed_only_through_order():
    for name in workloads.WORKLOADS:
        a, b = workloads.tasks(name, 1), workloads.tasks(name, 2)
        assert sorted(t.kb.text() for t in a) == sorted(t.kb.text() for t in b)
        assert [t.kb.text() for t in a] == [t.kb.text() for t in workloads.tasks(name, 1)]
