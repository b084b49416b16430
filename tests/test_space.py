"""Compiled KB structure: beta, atom_of, similarity, and the spaces of dump."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_index_invariants
from corpus import random_kb
from nemus_icl import (
    ArityError,
    GroundAtom,
    UnknownCode,
    UnknownInstance,
    atom_of,
    beta,
    compile_kb,
    dump,
    parse_kb,
    region_similarity,
)


def _binding(h, c, i, a, k):
    return {"t": [h, c, i, a], "w": 1.0, "k": k}


def test_beta_alice_golden(family_kb, family_nemus):
    # alice: arg 2 of father#1, arg 1 of mother#1, arg 2 of mother#2
    father, mother = 0, 1
    jake, alice, ted, matilda = 0, 1, 2, 4
    assert beta(family_nemus, alice) == (
        GroundAtom(father, (jake, alice)),
        GroundAtom(mother, (alice, ted)),
        GroundAtom(mother, (matilda, alice)),
    )
    assert dump(family_nemus)["constants"][alice]["bindings"] == [
        _binding(3, father, 1, 2, alice),
        _binding(3, mother, 1, 1, alice),
        _binding(3, mother, 2, 2, alice),
    ]
    assert_index_invariants(family_kb, family_nemus)


def test_beta_endpoints(family_nemus):
    assert beta(family_nemus, 0) == (GroundAtom(0, (0, 1)),)  # jake: father(jake, alice)
    assert beta(family_nemus, 3) == (GroundAtom(0, (2, 3)),)  # bob: father(ted, bob)


def test_beta_example_only_constant():
    kb = parse_kb("q(a, b).\n#target t/1.\n#positive t(c).\n")
    nemus = compile_kb(kb)
    c = kb.symbols.constant_code("c")
    assert beta(nemus, c) == ()


def test_beta_out_of_range(family_nemus):
    with pytest.raises(UnknownCode):
        beta(family_nemus, 99)


def test_repeated_constant_positions():
    kb = parse_kb("p(a, b).\np(b, a).\np(a, a).\n")
    nemus = compile_kb(kb)
    ab, ba, aa = kb.facts
    # a occurs at arg 1 of instance 1, arg 2 of instance 2, and twice in
    # instance 3, which beta lists once per occurrence
    assert beta(nemus, 0) == (ab, ba, aa, aa)
    doc = dump(nemus)
    assert doc["constants"][0]["bindings"] == [
        _binding(3, 0, 1, 1, 0),
        _binding(3, 0, 2, 2, 0),
        _binding(3, 0, 3, 1, 0),
        _binding(3, 0, 3, 2, 0),
    ]
    # occurrence counters climb per constant across the whole fact list
    assert [x["args"] for x in doc["predicates"]["positive"][0]["instances"]] == [
        [[1, 0, 1, 1], [1, 1, 1, 2]],
        [[1, 1, 2, 1], [1, 0, 2, 2]],
        [[1, 0, 3, 1], [1, 0, 4, 2]],
    ]
    assert_index_invariants(kb, nemus)


def test_atom_of_round_trip(family_kb, family_nemus):
    doc = dump(family_nemus)
    for j, fact in enumerate(family_kb.facts):
        h, c, i, a = doc["clauses"][j]["instances"][0]["args"][0]
        assert atom_of(family_nemus, c, i) == fact


def test_atom_of_unknown_instance(family_nemus):
    with pytest.raises(UnknownInstance):
        atom_of(family_nemus, 0, 3)  # father has 2 instances
    with pytest.raises(UnknownInstance):
        atom_of(family_nemus, 99, 1)


def test_negative_examples_live_in_their_own_space(collision_kb, collision_nemus):
    p = collision_kb.task.target
    negative = dump(collision_nemus, collision_kb.task.negatives)["predicates"]["negative"]
    assert len(negative[p]["instances"]) == 1
    b = collision_kb.symbols.constant_code("b")
    assert negative[p]["instances"][0]["args"] == [[1, b, 1, 1]]
    # and they contribute nothing to beta
    assert len(beta(collision_nemus, b)) == 1  # only p1(b, b1)


def test_region_similarity_family(family_nemus):
    # father+mother as parent: cols {jake,ted,alice,matilda} vs {alice,bob,ted}
    assert region_similarity(family_nemus, 3, sources=(0, 1)) == pytest.approx(0.4)
    assert region_similarity(family_nemus, 0) == 0.0  # father's columns are disjoint


def test_region_similarity_reflexive_and_errors():
    nemus = compile_kb(parse_kb("p(a, a).\nu(a).\n"))
    assert region_similarity(nemus, 0) == 1.0
    with pytest.raises(ArityError):
        region_similarity(nemus, 1)  # unary predicate has no column pair


def test_region_similarity_empty_predicate():
    kb = parse_kb("q(a, b).\n#target t/2.\n#positive t(a, b).\n")
    assert region_similarity(compile_kb(kb), kb.task.target) == 0.0


def test_dump_is_json_and_cross_referenced(family_nemus):
    doc = dump(family_nemus)
    assert list(doc) == ["variables", "constants", "predicates", "clauses"]
    text = json.dumps(doc)
    assert json.loads(text) == doc
    assert doc["constants"][1]["name"] == "alice"
    assert doc["constants"][1]["bindings"][0] == {"t": [3, 0, 1, 2], "w": 1.0, "k": 1}
    # every constant binding resolves to an instance carrying that constant
    for entry in doc["constants"]:
        for b in entry["bindings"]:
            h, c, i, a = b["t"]
            assert h == 3
            atom = atom_of(family_nemus, c, i)
            assert atom.args[a - 1] == entry["code"]


@given(st.integers(0, 499))
@settings(max_examples=80, deadline=None)
def test_corpus_structural_invariants(seed):
    kb = parse_kb(random_kb(seed))
    assert_index_invariants(kb, compile_kb(kb))


@given(st.integers(0, 499))
@settings(max_examples=40, deadline=None)
def test_corpus_compile_deterministic(seed):
    text = random_kb(seed)
    a = dump(compile_kb(parse_kb(text)))
    b = dump(compile_kb(parse_kb(text)))
    assert json.dumps(a) == json.dumps(b)
