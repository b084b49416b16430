"""Least-model evaluation, verification, and the brute-force enumerator."""

import contextlib
import dataclasses
import itertools
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BRIDGE, COLLISION, FAMILY, FAMILY_SOLUTION, render_set
from nemus_icl import oracle
from nemus_icl import (
    Atom,
    Bk,
    Clause,
    EnumCaps,
    GroundAtom,
    RangeRestrictionFault,
    Var,
    SymbolTable,
    Verdict,
    clause_key,
    compile_kb,
    enumerate_hypotheses,
    learn,
    least_model,
    parse_hypothesis,
    parse_kb,
    render_clause,
    verify,
)


def family_with_solution():
    kb = parse_kb(FAMILY)
    clauses = parse_hypothesis(
        "parent(X,Y) :- father(X,Y).\n"
        "parent(X,Y) :- mother(X,Y).\n"
        "ancestor(X,Y) :- parent(X,Y).\n"
        "ancestor(X,Y) :- parent(X,Z0), ancestor(Z0,Y).\n",
        kb.symbols,
    )
    return kb, clauses


def test_family_least_model_golden():
    kb, clauses = family_with_solution()
    model = least_model(kb.facts, clauses)
    assert len(model) == 17  # 4 facts + 4 parent + 9 ancestor
    sym = kb.symbols
    name = lambda *cs: tuple(sym.constant_code(c) for c in cs)
    anc = {atom.args for atom in model if atom.pred == sym.predicate_code("ancestor", 2)}
    assert anc == {
        name("jake", "alice"), name("alice", "ted"), name("ted", "bob"),
        name("matilda", "alice"), name("jake", "ted"), name("jake", "bob"),
        name("alice", "bob"), name("matilda", "ted"), name("matilda", "bob"),
    }


def test_facts_only_model():
    facts = [GroundAtom(0, (0, 1)), GroundAtom(1, (1,))]
    assert least_model(facts, []) == frozenset(facts)


def test_self_recursive_rule_terminates():
    # p(X) :- p(X) adds nothing and must not loop
    rule = Clause(Atom(1, (Var(0),)), (Atom(1, (Var(0),)),))
    model = least_model([GroundAtom(0, (0,))], [rule])
    assert model == frozenset({GroundAtom(0, (0,))})


def test_range_restriction_fault():
    bad = Clause(Atom(1, (Var(0), Var(1))), (Atom(0, (Var(0), Var(0))),))
    with pytest.raises(RangeRestrictionFault):
        least_model([GroundAtom(0, (0, 0))], [bad])
    with pytest.raises(RangeRestrictionFault):
        verify([GroundAtom(0, (0, 0))], [Clause(Atom(1, (Var(0),)), ())], [], [])


def test_verify_family():
    kb, clauses = family_with_solution()
    verdict = verify(kb.facts, clauses, kb.task.positives, kb.task.negatives)
    assert verdict.ok and verdict.failed is None
    assert str(verdict) == "Verified"


def test_verify_reports_first_failure():
    kb, clauses = family_with_solution()
    missing = GroundAtom(kb.task.target, (3, 0))  # ancestor(bob, jake)
    verdict = verify(kb.facts, clauses, (missing,), ())
    assert not verdict.ok and verdict.failed == missing
    assert str(verdict) == "Fails"


def test_verify_unsound_collision_hypothesis():
    """The generalization the pruned branch would have produced derives the
    negative example."""
    kb = parse_kb(COLLISION)
    clauses = parse_hypothesis("p(X) :- p1(X,Y), qj(Z,Y).\n", kb.symbols)
    verdict = verify(kb.facts, clauses, kb.task.positives, kb.task.negatives)
    b = kb.symbols.constant_code("b")
    assert verdict.failed == GroundAtom(kb.task.target, (b,))


def test_verify_empty_hypothesis_fails_on_positive():
    kb = parse_kb(COLLISION)
    verdict = verify(kb.facts, [], kb.task.positives, kb.task.negatives)
    assert verdict.failed == kb.task.positives[0]


def test_verify_ground_units_act_as_facts():
    kb = parse_kb("q(a, b).\n#target t/2.\n#positive t(a, b).\n")
    unit = Clause(Atom(kb.task.target, (0, 1)), ())
    assert verify(kb.facts, [unit], kb.task.positives, ()).ok


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_model_monotone_in_facts(data):
    """Adding facts never removes derived atoms."""
    consts = st.integers(0, 3)
    fact = st.tuples(st.integers(0, 1), st.tuples(consts, consts)).map(
        lambda t: GroundAtom(t[0], t[1])
    )
    base = data.draw(st.lists(fact, max_size=8))
    extra = data.draw(st.lists(fact, max_size=3))
    rules = [
        # t(X,Y) :- p0(X,Z), p1(Z,Y)
        Clause(Atom(2, (Var(0), Var(1))), (Atom(0, (Var(0), Var(2))), Atom(1, (Var(2), Var(1))))),
        # t(X,Y) :- p0(X,Y)
        Clause(Atom(2, (Var(0), Var(1))), (Atom(0, (Var(0), Var(1))),)),
    ]
    small = least_model(base, rules)
    big = least_model(base + extra, rules)
    assert small <= big


# --- the compiled evaluator against a naive fixpoint ---------------------------

ARITY = {0: 2, 1: 2, 2: 1, 3: 2}  # predicate code -> arity
CONSTANTS = st.integers(0, 3)
TERMS = st.one_of(st.builds(Var, st.integers(0, 2)), CONSTANTS)


def _atoms(terms):
    return st.sampled_from(sorted(ARITY)).flatmap(
        lambda p: st.tuples(*[terms] * ARITY[p]).map(lambda args: Atom(p, args))
    )


GROUND = _atoms(CONSTANTS).map(lambda a: GroundAtom(a.pred, a.args))


BODY = st.lists(_atoms(TERMS), min_size=1, max_size=3).map(tuple)


def _head(draw, pred, body) -> Atom:
    """A range-restricted head: body terms and constants."""
    bound = st.one_of(st.sampled_from([t for atom in body for t in atom.args]), CONSTANTS)
    return Atom(pred, tuple(draw(bound) for _ in range(ARITY[pred])))


@st.composite
def _rule(draw):
    """Variables may repeat in one atom, bodies may hold constants, and the
    head predicate may also have facts or occur in the body (recursion)."""
    body = draw(BODY)
    head_pred = draw(st.sampled_from(sorted(ARITY)) | st.sampled_from([atom.pred for atom in body]))
    return Clause(_head(draw, head_pred, body), body)


UNIT = GROUND.map(lambda g: Clause(Atom(g.pred, g.args), ()))


def _nested_loop_join(rule: Clause, atoms) -> set:
    """The head argument tuples of every match of the rule's body in the
    ground atoms: one loop per body atom, in body order, over every atom."""

    def match(atom, args, subst):
        out = dict(subst)
        for term, value in zip(atom.args, args):
            if not isinstance(term, Var):
                if term != value:
                    return None
            elif out.setdefault(term.code, value) != value:
                return None
        return out

    substs = [{}]
    for atom in rule.body:
        substs = [ext for s in substs for f in atoms if f.pred == atom.pred
                  for ext in [match(atom, f.args, s)] if ext is not None]
    return {tuple(s[t.code] if isinstance(t, Var) else t for t in rule.head.args) for s in substs}


def _naive_model(facts, clauses) -> frozenset:
    """Every rule over the whole model each round: no index, no delta."""
    model = set(facts) | {GroundAtom(c.head.pred, c.head.args) for c in clauses if not c.body}
    while True:
        new = {GroundAtom(rule.head.pred, args) for rule in clauses if rule.body
               for args in _nested_loop_join(rule, model)}
        if new <= model:
            return frozenset(model)
        model |= new


def _naive_verdict(model, positives, negatives) -> Verdict:
    failed = [e for e in positives if e not in model] + [e for e in negatives if e in model]
    return Verdict(False, failed[0]) if failed else Verdict(True, None)


@given(
    st.lists(GROUND, max_size=10),
    st.lists(st.one_of(_rule(), UNIT), min_size=1, max_size=4),
    st.lists(GROUND, max_size=3),
    st.lists(GROUND, max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_compiled_model_and_verdict_match_naive_fixpoint(facts, clauses, positives, negatives):
    expected = _naive_model(facts, clauses)
    bk = Bk(facts)
    # twice over one Bk: a fixpoint must leave the compiled BK as it found it
    assert least_model(bk, clauses) == expected
    assert least_model(bk, clauses) == expected
    assert least_model(facts, clauses) == expected
    assert bk.relations == Bk(facts).relations and bk.index == Bk(facts).index

    want = _naive_verdict(expected, positives, negatives)
    assert verify(bk, clauses, positives, negatives) == want
    assert verify(facts, clauses, positives, negatives) == want
    # the magic-set rewrite, which verify evaluates on BKs of DEMAND_MIN_CONSTANTS constants
    assert _verify_by_demand(bk, clauses, positives, negatives)[0] == want
    assert _verify_by_demand(bk, clauses, positives, negatives)[0] == want
    assert bk.relations == Bk(facts).relations and bk.index == Bk(facts).index


@contextlib.contextmanager
def _least_model_calls(**patches):
    """The (bk, clauses, model) of every least_model call made in the block,
    with the oracle's module attributes patched as given."""
    calls = []
    real = oracle.least_model

    def spy(bk, clauses):
        calls.append((bk, clauses, real(bk, clauses)))
        return calls[-1][2]

    with mock.patch.multiple(oracle, least_model=spy, **patches):
        yield calls


def _verify_by_demand(bk, clauses, positives, negatives) -> tuple:
    """(verdict, calls): verify with the demand gate lowered to every BK, and
    its least_model calls."""
    with _least_model_calls(DEMAND_MIN_CONSTANTS=0) as calls:
        return verify(bk, clauses, positives, negatives), calls


@given(
    st.lists(GROUND, max_size=10),
    st.lists(st.one_of(_rule(), UNIT), min_size=1, max_size=4),
    st.lists(GROUND, max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_magic_rewrite_derives_only_atoms_of_the_whole_model(facts, clauses, examples):
    """Soundness of the rewrite: an atom of an original predicate in the
    rewritten program's model is in the whole least model, and so is an
    adorned atom read under its predicate.  Magic atoms record demand, not
    truth, and are not checked."""
    whole = _naive_model(facts, clauses)
    _, [(_, _, model)] = _verify_by_demand(Bk(facts), clauses, examples, [])
    for atom in model:
        if isinstance(atom.pred, int):
            assert atom in whole
        elif atom.pred[0] == "a":
            assert GroundAtom(atom.pred[1], atom.args) in whole


@st.composite
def _apart(draw):
    """A rule whose head predicate is not among its body's: flat in any
    program that derives none of them."""
    body = draw(BODY)
    head_pred = draw(st.sampled_from(sorted(set(ARITY) - {atom.pred for atom in body})))
    return Clause(_head(draw, head_pred, body), body)


@st.composite
def _deriving(draw, preds):
    """A unit or a rule whose head predicate is one of preds."""
    pred = draw(st.sampled_from(sorted(preds)))
    if draw(st.booleans()):
        return Clause(Atom(pred, draw(st.tuples(*[CONSTANTS] * ARITY[pred]))), ())
    body = draw(BODY)
    return Clause(_head(draw, pred, body), body)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_programs_sharing_clauses_over_one_bk_match_naive_fixpoint(data):
    """The first shared rule reads a predicate the second program derives,
    through a rule or a ground unit, and is flat in the first program unless
    its other clauses derive one too.  Neither order of evaluation over one
    Bk may leak one program's atoms into the other."""
    facts = data.draw(st.lists(GROUND, max_size=10))
    shared = [data.draw(_apart())] + data.draw(st.lists(_rule(), max_size=1))
    others = st.lists(st.one_of(_rule(), UNIT), max_size=1)
    programs = [shared + data.draw(others),
                data.draw(others) + [data.draw(_deriving({atom.pred for atom in shared[0].body}))] + shared]
    if data.draw(st.booleans()):
        programs.reverse()
    positives, negatives = data.draw(st.lists(GROUND, max_size=3)), data.draw(st.lists(GROUND, max_size=3))
    bk = Bk(facts)
    for clauses in programs + programs:
        expected = _naive_model(facts, clauses)
        assert least_model(bk, clauses) == expected
        # the rewritten clauses compiled on the Bk are each program's own
        want = _naive_verdict(expected, positives, negatives)
        assert _verify_by_demand(bk, clauses, positives, negatives)[0] == want
    assert bk.relations == Bk(facts).relations and bk.index == Bk(facts).index


EDGE, PATH = 0, 1
PATH_RULES = [
    Clause(Atom(PATH, (Var(0), Var(1))), (Atom(EDGE, (Var(0), Var(1))),)),
    Clause(Atom(PATH, (Var(0), Var(1))), (Atom(EDGE, (Var(0), Var(2))), Atom(PATH, (Var(2), Var(1))))),
]


def _chain(n: int) -> list:
    return [GroundAtom(EDGE, (i, i + 1)) for i in range(n - 1)]


def test_verify_on_a_large_bk_answers_by_demand():
    bk = Bk(_chain(200))
    path = lambda a, b: GroundAtom(PATH, (a, b))
    with _least_model_calls() as calls:
        assert verify(bk, PATH_RULES, [path(0, 199), path(150, 160)], [path(199, 0)]) == Verdict(True, None)
        assert verify(bk, PATH_RULES, [path(0, 199), path(5, 3), path(7, 6)], []) == Verdict(False, path(5, 3))
        assert verify(bk, PATH_RULES, [path(3, 9)], [path(9, 3), path(2, 120), path(0, 1)]) == \
            Verdict(False, path(2, 120))
        assert verify(bk, PATH_RULES[:1], [path(0, 1)], [path(0, 2)]) == Verdict(True, None)
    assert len(calls) == 4
    flat = {path(i, i + 1) for i in range(199)}
    for called_bk, clauses, model in calls:
        # the magic program in place of the recursive rule: the model holds
        # the flat rule's path atoms and no recursively derived one
        assert called_bk is bk and PATH_RULES[1] not in clauses
        assert {atom for atom in model if atom.pred == PATH} == flat


def test_verify_below_the_gate_builds_the_whole_model():
    examples = [GroundAtom(PATH, (0, 30))], [GroundAtom(PATH, (30, 0))]
    bk = Bk(_chain(oracle.DEMAND_MIN_CONSTANTS - 1))
    assert len(bk.constants) == 31
    with _least_model_calls() as calls:
        assert verify(bk, PATH_RULES, *examples).ok
        assert [clauses for _, clauses, _ in calls] == [PATH_RULES]
        assert verify(Bk(_chain(oracle.DEMAND_MIN_CONSTANTS)), PATH_RULES, *examples).ok
    assert len(calls) == 2 and PATH_RULES[1] not in calls[1][1]


def test_rule_flat_in_one_program_reads_derived_in_the_next():
    kb = parse_kb("q(b).\nr(c).\n#target t/1.\n#positive t(b).\n")
    t, q = kb.task.target, kb.symbols.predicate_code("q", 1)
    a, b, c = (kb.symbols.intern_constant(name) for name in "abc")
    rules = parse_hypothesis("t(X) :- q(X).\nq(X) :- r(X).\n", kb.symbols)
    unit = Clause(Atom(q, (a,)), ())
    bk = Bk(kb.facts)
    derived = lambda clauses: least_model(bk, clauses) - bk.atoms
    assert derived(rules[:1]) == {GroundAtom(t, (b,))}
    assert derived([rules[0], unit]) == {GroundAtom(q, (a,)), GroundAtom(t, (a,)), GroundAtom(t, (b,))}
    assert derived(rules) == {GroundAtom(q, (c,)), GroundAtom(t, (b,)), GroundAtom(t, (c,))}
    assert derived(rules[:1]) == {GroundAtom(t, (b,))}
    # every clause compiles to a _Rule; the unit's has no body and fires its head
    assert list(bk._rules) == [rules[0], unit, rules[1]]
    assert all(isinstance(rule, oracle._Rule) for rule in bk._rules.values())
    assert (bk.compiled(unit).preds, bk.compiled(unit).skeleton.joins) == ((), [])
    assert bk.compiled(unit).bk_consequences(bk) == {GroundAtom(q, (a,))}


def test_flat_rule_joins_the_bk_once_per_compiled_bk(monkeypatch):
    """Counts runs of the skeletons' generated joins."""
    joins = []
    real = oracle._Skeleton.join

    def counted(skeleton, first):
        join = real(skeleton, first)
        return lambda *args: joins.append(1) or join(*args)

    monkeypatch.setattr(oracle._Skeleton, "join", counted)
    kb = parse_kb(COLLISION)
    clauses = parse_hypothesis("p(X) :- p1(X,Y), qj(Z,Y).\n", kb.symbols)
    bk = Bk(kb.facts)
    args = (clauses, kb.task.positives, kb.task.negatives)
    assert not verify(bk, *args).ok
    once = len(joins)
    assert once > 0
    for _ in range(3):
        assert not verify(bk, *args).ok
    assert len(joins) == once
    assert not verify(Bk(kb.facts), *args).ok
    assert len(joins) == 2 * once


def _relabelled(clause: Clause, preds: dict, consts: dict) -> Clause:
    """The clause with its predicates and constants renamed; variables kept."""
    rename = lambda atom: Atom(preds[atom.pred], tuple(t if isinstance(t, Var) else consts[t] for t in atom.args))
    return Clause(rename(clause.head), tuple(map(rename, clause.body)))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_rules_sharing_a_variable_pattern_over_two_bks_match_naive_fixpoint(data):
    """A renaming that keeps arities and keeps distinct constants distinct
    keeps a rule's variable pattern, so the second program compiles onto the
    skeletons the first one left; each still gets its own model."""
    clauses = data.draw(st.lists(st.one_of(_rule(), UNIT), min_size=1, max_size=4))
    binary = sorted(p for p, arity in ARITY.items() if arity == 2)
    preds = dict(zip(binary, data.draw(st.permutations(binary)))) | {2: 2}
    consts = dict(enumerate(data.draw(st.permutations(range(4)))))
    relabelled = [_relabelled(c, preds, consts) for c in clauses]
    facts = [data.draw(st.lists(GROUND, max_size=10)) for _ in range(2)]
    positives, negatives = data.draw(st.lists(GROUND, max_size=3)), data.draw(st.lists(GROUND, max_size=3))
    for program, bk_facts in [(clauses, facts[0]), (relabelled, facts[1]), (clauses, facts[1])]:
        bk = Bk(bk_facts)
        expected = _naive_model(bk_facts, program)
        assert least_model(bk, program) == expected
        assert verify(bk, program, positives, negatives) == _naive_verdict(expected, positives, negatives)
    for clause, twin in zip(clauses, relabelled):
        assert oracle._Rule(clause).skeleton is oracle._Rule(twin).skeleton


def test_rule_not_range_restricted_raises_in_every_bk_after_its_pattern_is_cached():
    # t(X, Y) :- q(X, X) and its renaming u(X, Y) :- r(X, X) share one pattern
    bad = Clause(Atom(3, (Var(0), Var(1))), (Atom(0, (Var(0), Var(0))),))
    twin = _relabelled(bad, {0: 1, 3: 0}, {})
    facts = [GroundAtom(0, (0, 0)), GroundAtom(1, (1, 1))]
    for clause in (bad, bad, twin):
        with pytest.raises(RangeRestrictionFault):
            least_model(Bk(facts), [clause])
    assert oracle._Rule(bad).skeleton is oracle._Rule(twin).skeleton
    assert not oracle._Rule(twin).skeleton.range_restricted
    assert oracle._Rule(twin).skeleton.joins == [None]


# up to five body atoms, as a walk clause at the largest cap plus a magic
# guard has, over enough variables that an atom may share none; and BKs that
# hold each ground atom over the body's constants at even odds, dense enough
# for a long body to match
JOIN_CONSTANTS = range(3)
JOIN_BODY = st.lists(_atoms(st.one_of(st.builds(Var, st.integers(0, 4)), st.sampled_from(JOIN_CONSTANTS))),
                     min_size=1, max_size=5).map(tuple)
DENSE = [GroundAtom(p, args) for p in sorted(ARITY) for args in itertools.product(JOIN_CONSTANTS, repeat=ARITY[p])]
DENSE_BK = st.lists(st.booleans(), min_size=len(DENSE), max_size=len(DENSE)).map(
    lambda picks: Bk(itertools.compress(DENSE, picks)))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_generated_joins_match_a_nested_loop_join(data):
    """Every generated join of a rule, fed the whole relation of the body
    atom it starts from, adds the head tuples of a nested-loop join.  A twin
    with other predicates and constants shares the rule's variable pattern,
    so it gets the same functions, and its own tuples over its own BK."""
    body = data.draw(JOIN_BODY)
    rule = Clause(_head(data.draw, data.draw(st.sampled_from(sorted(ARITY))), body), body)
    twin = _relabelled(rule, {0: 1, 1: 3, 3: 0, 2: 2}, {0: 1, 1: 2, 2: 0, 3: 3})
    for clause in (rule, twin):
        bk = data.draw(DENSE_BK)
        compiled = oracle._Rule(clause)
        want = _nested_loop_join(clause, bk.atoms)
        for first, pred in enumerate(compiled.preds):
            out = set()
            join = compiled.skeleton.join(first)
            join(bk.relations.get(pred, ()), compiled.env, compiled.preds, bk.relations, bk.index, out)
            assert out == want
    skeletons = [oracle._Rule(clause).skeleton for clause in (rule, twin)]
    assert all(skeletons[0].join(i) is skeletons[1].join(i) for i in range(len(body)))


# q(X, Y) :- p(X) leaves Y unbound; the unit q(X, a) is not ground
LOOSE_RULE = Clause(Atom(1, (Var(0), Var(1))), (Atom(0, (Var(0),)),))
LOOSE_UNIT = Clause(Atom(1, (Var(0), 0)), ())
SOUND_RULE = Clause(Atom(1, (Var(0), Var(0))), (Atom(0, (Var(0),)),))


@pytest.mark.parametrize("gate", [None, 0], ids=["gate-as-is", "gate-0"])
@pytest.mark.parametrize("program, first", [
    ([LOOSE_RULE], LOOSE_RULE),
    ([LOOSE_UNIT], LOOSE_UNIT),
    ([SOUND_RULE, LOOSE_RULE, LOOSE_UNIT], LOOSE_RULE),
    ([SOUND_RULE, LOOSE_UNIT, LOOSE_RULE], LOOSE_UNIT),
], ids=["rule", "unit", "rule-then-unit", "unit-then-rule"])
def test_range_restriction_fault_names_the_first_offending_clause(monkeypatch, gate, program, first):
    """Every clause by its pattern, which accepts a unit only when it is
    ground, checked once, in program order, by least_model and by verify on
    both sides of the demand gate."""
    if gate is not None:
        monkeypatch.setattr(oracle, "DEMAND_MIN_CONSTANTS", gate)
    facts = [GroundAtom(0, (0,)), GroundAtom(0, (1,))]
    calls = [lambda: least_model(Bk(facts), program),
             lambda: verify(Bk(facts), program, [GroundAtom(1, (0, 0))], [GroundAtom(1, (1, 0))])]
    for call in calls:
        with pytest.raises(RangeRestrictionFault) as fault:
            call()
        assert fault.value.args == (first,)


def test_units_compile_once_per_bk_and_a_non_ground_unit_raises_on_every_call():
    """A ground unit is kept with the Bk it was compiled for; a non-ground
    one is never kept, so it raises again after ground units of its
    predicate are."""
    facts = [GroundAtom(0, (0,)), GroundAtom(0, (1,))]
    bk = Bk(facts)
    ground = Clause(Atom(1, (0, 1)), ())
    models = [least_model(bk, [ground]) for _ in range(2)]
    assert models[0] == models[1] == frozenset(facts) | {GroundAtom(1, (0, 1))}
    for _ in range(2):
        assert verify(bk, [ground], [GroundAtom(1, (0, 1))], [GroundAtom(1, (1, 0))]).ok
    for _ in range(2):
        for call in (lambda: least_model(bk, [ground, LOOSE_UNIT]),
                     lambda: verify(bk, [ground, LOOSE_UNIT], [GroundAtom(1, (0, 1))], [])):
            with pytest.raises(RangeRestrictionFault) as fault:
                call()
            assert fault.value.args == (LOOSE_UNIT,)


@pytest.mark.parametrize("n_nodes, rounds", [(3, 2), (4, 3)])
def test_herbrand_bound_is_computed_at_round_3_and_still_trips(monkeypatch, n_nodes, rounds):
    """path over a chain of n nodes needs n - 1 fixpoint rounds.  A bound of
    1 allows two, and the bound is not computed before a third."""
    calls = []
    monkeypatch.setattr(oracle, "_hb_size", lambda *args: calls.append(args) or 1)
    bk = Bk(_chain(n_nodes))
    if rounds < 3:
        assert GroundAtom(PATH, (0, n_nodes - 1)) in least_model(bk, PATH_RULES)
        assert calls == []
    else:
        with pytest.raises(RuntimeError, match="Herbrand-base bound"):
            least_model(bk, PATH_RULES)
        assert len(calls) == 1


def test_model_minimality_spot_check():
    kb, clauses = family_with_solution()
    model = least_model(kb.facts, clauses)
    sym = kb.symbols
    anc = sym.predicate_code("ancestor", 2)
    bob, jake = sym.constant_code("bob"), sym.constant_code("jake")
    assert GroundAtom(anc, (bob, jake)) not in model
    assert GroundAtom(anc, (bob, bob)) not in model


# --- enumerator ---------------------------------------------------------------


def test_enumerate_contains_family_solution():
    kb = parse_kb(FAMILY)
    caps = EnumCaps(max_body=2, max_clauses=4, max_vars=3)
    for clauses, verdict in enumerate_hypotheses(kb.facts, kb.task, caps, kb.symbols):
        if verdict.ok and render_set(clauses, kb.symbols) == FAMILY_SOLUTION:
            return
    pytest.fail("family solution not in the enumeration stream")


def test_enumerate_unit_stratum_excludes_positive():
    kb = parse_kb("q(a, b).\n#target t/2.\n#positive t(a, b).\n")
    caps = EnumCaps(max_body=1, max_clauses=1, max_vars=2)
    seen = []
    for clauses, verdict in enumerate_hypotheses(kb.facts, kb.task, caps, kb.symbols):
        assert len(clauses) == 1
        seen.append(render_clause(clauses[0].head, clauses[0].body, kb.symbols))
        if not clauses[0].body:
            assert not verdict.ok  # a unit other than the example cannot cover it
    assert "t(a,b)." not in seen
    assert "t(X,Y) :- q(X,Y)." in seen


def test_enumerate_bodies_are_connected_and_range_restricted():
    kb = parse_kb("q(a, b).\nr(b, c).\n#target t/2.\n#positive t(a, c).\n")
    caps = EnumCaps(max_body=2, max_clauses=1, max_vars=4)
    for clauses, _ in itertools.islice(enumerate_hypotheses(kb.facts, kb.task, caps, kb.symbols), 400):
        for cl in clauses:
            if not cl.body:
                continue
            head_vars = {t.code for t in cl.head.args if isinstance(t, Var)}
            body_vars = {t.code for a in cl.body for t in a.args if isinstance(t, Var)}
            assert head_vars <= body_vars
            # connectivity: flood from head vars over shared-var edges
            reached = set(head_vars)
            frontier = True
            while frontier:
                frontier = False
                for a in cl.body:
                    vs = {t.code for t in a.args if isinstance(t, Var)}
                    if vs & reached and not vs <= reached:
                        reached |= vs
                        frontier = True
            assert body_vars <= reached


def test_enumerate_finds_two_atom_chain():
    kb = parse_kb("q(a, b).\nr(b, c).\n#target t/2.\n#positive t(a, c).\n")
    caps = EnumCaps(max_body=2, max_clauses=1, max_vars=4)
    for clauses, verdict in enumerate_hypotheses(kb.facts, kb.task, caps, kb.symbols):
        if verdict.ok:
            assert render_set(clauses, kb.symbols) == {"t(X,Y) :- q(X,Z0), r(Z0,Y)."}
            return
    pytest.fail("chain solution not found")


def test_enumerate_no_facts():
    # without facts, only unit tricks remain, and the negative blocks them
    kb = parse_kb("#target t/2.\n#positive t(a, b).\n#negative t(b, a).\n")
    caps = EnumCaps(max_body=2, max_clauses=2, max_vars=3)
    stream = list(enumerate_hypotheses(kb.facts, kb.task, caps, kb.symbols))
    assert stream
    assert all(not verdict.ok for _, verdict in stream)


def test_enumerate_unit_plus_swap_rule_when_unconstrained():
    """With no negative example the enumerator may verify a unit plus a swap
    rule; the oracle has no grounds to refuse it."""
    kb = parse_kb("#target t/2.\n#positive t(a, b).\n")
    caps = EnumCaps(max_body=2, max_clauses=2, max_vars=3)
    assert any(v.ok for _, v in enumerate_hypotheses(kb.facts, kb.task, caps, kb.symbols))


def test_enumerate_deterministic_stream():
    kb1 = parse_kb(FAMILY)
    kb2 = parse_kb(FAMILY)
    caps = EnumCaps(max_body=2, max_clauses=3, max_vars=3)
    take = lambda kb: [
        tuple(render_clause(c.head, c.body, kb.symbols) for c in clauses)
        for clauses, _ in itertools.islice(
            enumerate_hypotheses(kb.facts, kb.task, caps, kb.symbols), 200
        )
    ]
    assert take(kb1) == take(kb2)


FAMILY_ENGLISH = FAMILY.replace(
    "#positive ancestor(jake, bob).\n#invent parent/2 from father/2, mother/2.\n",
    "consider induction on ancestor/2 knowing ancestor(jake, bob)\n"
    "    assuming father/2 or father/2 or mother/2 defines parent/2.\n").replace("#target ancestor/2.\n", "")


@pytest.mark.parametrize("kb_text", [
    FAMILY.replace("from father/2, mother/2.", "from father/2, father/2, mother/2."),
    FAMILY.replace("from father/2, mother/2.", "from father/2, mother/2, father/2, mother/2."),
    FAMILY_ENGLISH,
], ids=["invent", "invent-twice-each", "english"])
def test_repeated_invent_source_leaves_the_enumerate_stream_as_it_is(kb_text):
    """A repeated source adds no bias definition, so the prelude and the
    clause cap left after it are the same as without the repeat."""
    caps = EnumCaps(max_body=2, max_clauses=3, max_vars=3)

    def stream(text):
        kb = parse_kb(text)
        return [(tuple(render_clause(c.head, c.body, kb.symbols) for c in clauses), verdict.ok)
                for clauses, verdict in enumerate_hypotheses(kb.facts, kb.task, caps, kb.symbols)]

    want = stream(FAMILY)
    assert len(want) == 240
    assert stream(kb_text) == want


@st.composite
def _invent_kb(draw) -> str:
    """A KB over e/2 and f/2, each with facts, the target t/2, with or without
    facts, and zero, one or two biases.  A source may be the target, with or
    without facts, and the second bias may read the first, so an invented
    predicate may read the target through another."""
    pairs = [(x, y) for x in "abc" for y in "abc"]
    rows = {p: draw(st.lists(st.sampled_from(pairs), min_size=p != "t", max_size=3, unique=True)) for p in "eft"}
    examples = draw(st.lists(st.sampled_from([xy for xy in pairs if xy not in rows["t"]]),
                             min_size=1, max_size=3, unique=True))
    n_pos = draw(st.integers(1, len(examples)))
    sources = lambda preds: ", ".join(f"{p}/2" for p in draw(
        st.lists(st.sampled_from(preds), min_size=1, max_size=len(preds), unique=True)))
    lines = [f"{p}({x},{y})." for p, xys in rows.items() for x, y in xys]
    lines += ["#target t/2."] + [f"#positive t({x},{y})." for x, y in examples[:n_pos]]
    lines += [f"#negative t({x},{y})." for x, y in examples[n_pos:]]
    n_biases = draw(st.integers(0, 2))
    if n_biases:
        lines.append(f"#invent p/2 from {sources('eft')}.")
    if n_biases == 2:
        lines.append(f"#invent q/2 from {sources('eftp')}.")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("gate", [oracle.DEMAND_MIN_CONSTANTS, 0], ids=["gate-as-is", "gate-0"])
@given(kb_text=_invent_kb(), budget=st.integers(1, 2))
@settings(max_examples=100, deadline=None)
def test_enumerate_verdicts_match_verify_over_the_plain_facts(gate, kb_text, budget):
    """The stream verifies its candidates against a base with the bias
    definitions no candidate reaches fired into it; each row's verdict is
    still that of the whole row over the facts, on both sides of the demand
    gate."""
    kb = parse_kb(kb_text)
    task = kb.task
    prelude = sum(len(b.sources) for b in task.biases)
    caps = EnumCaps(max_body=1, max_clauses=prelude + budget, max_vars=2)
    with mock.patch.object(oracle, "DEMAND_MIN_CONSTANTS", gate):
        rows = list(enumerate_hypotheses(kb.facts, task, caps, kb.symbols))
        assert rows
        for clauses, verdict in rows:
            assert verdict == verify(kb.facts, clauses, task.positives, task.negatives)


def _rows_and_verify_calls(kb, caps, limit=None) -> list:
    """(clauses, verdict, verify calls the enumerator made for the row) for
    each row of the stream."""
    calls, out = [], []
    with mock.patch.object(oracle, "verify", lambda *args: calls.append(args) or verify(*args)):
        for clauses, verdict in itertools.islice(enumerate_hypotheses(kb.facts, kb.task, caps, kb.symbols), limit):
            out.append((clauses, verdict, len(calls)))
            calls.clear()
    return out


@pytest.mark.parametrize("kb_text, caps, limit, n_calls", [
    (FAMILY, EnumCaps(max_body=2, max_clauses=4, max_vars=3), 6000, 2303),
    (COLLISION, EnumCaps(max_body=2, max_clauses=2, max_vars=3), 16000, 522),
    (BRIDGE, EnumCaps(max_body=2, max_clauses=2, max_vars=4), 16000, 4176),
], ids=["family", "collision", "bridge"])
def test_enumerate_verifies_only_the_rows_that_need_a_fixpoint(kb_text, caps, limit, n_calls):
    """At the perfbench enumerate workload's caps and row limits, a row gets
    its verdict from its clauses' coverage when its clauses are all flat,
    reading neither the target nor a reached invented predicate, or when
    neither the BK nor its flat clauses hold an atom its looped clauses could
    read; only the others call verify, once each."""
    kb = parse_kb(kb_text)
    rows = _rows_and_verify_calls(kb, caps, limit)
    assert len(rows) == limit
    assert sum(n for _, _, n in rows) == n_calls
    assert {n for _, _, n in rows} == {0, 1}


def test_a_row_reading_neither_the_target_nor_a_reached_head_makes_no_verify_call():
    """In invent_target_source.kb, p/2 reads the target, so its definition
    from t/2 stays in every verified program.  A row whose candidate clauses
    read neither t/2 nor p/2 makes no verify call, and its verdict is that of
    verify over the plain facts; every other row makes one, since the BK
    holds a t/2 fact for its looped clauses to read."""
    kb = parse_kb((Path(__file__).parent / "golden" / "invent_target_source.kb").read_text())
    task = kb.task
    prelude = sum(len(b.sources) for b in task.biases)
    read = {task.target, task.biases[0].invented}
    flat = 0
    for clauses, verdict, n in _rows_and_verify_calls(kb, EnumCaps(max_body=2, max_clauses=3, max_vars=3)):
        reads = {a.pred for c in clauses[prelude:] for a in c.body}
        assert n == (0 if read.isdisjoint(reads) else 1), clauses
        flat += n == 0
        assert verdict == verify(kb.facts, clauses, task.positives, task.negatives)
    assert flat


@pytest.mark.parametrize("kb_text", [
    "f(a, b).\ng(a).\n#target p/1.\n#positive p(a).\n#invent q/1 from p/1.\n",
    "e(a,a). #target t/2. #positive t(a,a). #invent p/2 from t/2.\n",
], ids=["unary", "binary"])
def test_a_target_without_facts_is_an_invent_source(kb_text):
    """A target with no facts may be an #invent source: the KB parses, its
    bias reads the target, learn finds a set, and every enumerate verdict is
    verify's over the plain facts."""
    kb = parse_kb(kb_text)
    task = kb.task
    assert task.biases[0].sources == (task.target,)
    assert task.target not in {f.pred for f in kb.facts}
    assert learn(compile_kb(kb), task).hypotheses
    rows = list(enumerate_hypotheses(kb.facts, task, EnumCaps(max_body=2, max_clauses=3, max_vars=2), kb.symbols))
    assert any(verdict.ok for _, verdict in rows)
    for clauses, verdict in rows:
        assert verdict == verify(kb.facts, clauses, task.positives, task.negatives)


@pytest.mark.parametrize("as_negative", [False, True], ids=["positive", "negative"])
def test_a_bk_fact_taken_as_an_example_counts_in_every_coverage_verdict(as_negative):
    """The parser rejects an example that is a fact, but a LearnTask built
    directly may hold one: the BK's own target facts then decide it in every
    row, the flat rows' coverage verdicts as well as the verified ones."""
    kb = parse_kb("e(a, b).\ne(b, c).\nt(c, a).\n#target t/2.\n#positive t(a, b).\n")
    fact = next(f for f in kb.facts if f.pred == kb.task.target)
    if as_negative:
        task = dataclasses.replace(kb.task, negatives=(fact,))
    else:
        task = dataclasses.replace(kb.task, positives=(*kb.task.positives, fact))
    caps = EnumCaps(max_body=2, max_clauses=2, max_vars=2)
    rows = list(enumerate_hypotheses(kb.facts, task, caps, kb.symbols))
    for clauses, verdict in rows:
        assert verdict == verify(kb.facts, clauses, task.positives, task.negatives)
    assert any(verdict.ok for _, verdict in rows) != as_negative


def _vars(atom) -> set:
    return {t.code for t in atom.args if isinstance(t, Var)}


def _range_restricted_and_connected(head, body) -> bool:
    reached = _vars(head)
    if not reached <= set().union(*map(_vars, body)):
        return False
    left = list(body)
    while left:
        nxt = [a for a in left if _vars(a) & reached]
        if not nxt:
            return False
        for a in nxt:
            reached |= _vars(a)
            left.remove(a)
    return True


def _product_order_pool(kb, caps) -> list:
    """The enumerator's clause pool under a budget of two clauses besides the
    bias prelude, its bodies walked in itertools.product order, each kept at
    the first ordering whose least key over all its orderings is new."""
    task, sym = kb.task, kb.symbols
    arity = lambda p: sym.predicate_sig(p)[1]
    head = Atom(task.target, tuple(Var(i) for i in range(arity(task.target))))
    preds = sorted({f.pred for f in kb.facts}) + [b.invented for b in task.biases]
    if task.target not in preds:  # two clauses can bottom a recursion out
        preds.append(task.target)
    pool = [Clause(Atom(task.target, args), ())
            for args in itertools.product(range(sym.n_constants), repeat=arity(task.target))
            if GroundAtom(task.target, args) not in task.positives]
    variables = [Var(i) for i in range(caps.max_vars)]
    atoms = [Atom(p, args) for p in preds for args in itertools.product(variables, repeat=arity(p))]
    least = {}  # the least key over a multiset's orderings, one computation per multiset
    seen = set()
    for size in range(1, caps.max_body + 1):
        for idx in itertools.product(range(len(atoms)), repeat=size):
            multiset = tuple(sorted(idx))
            if multiset not in least:
                least[multiset] = min(clause_key(Clause(head, tuple(atoms[i] for i in order)))
                                      for order in itertools.permutations(idx))
            if least[multiset] in seen:
                continue
            seen.add(least[multiset])
            body = tuple(atoms[i] for i in idx)
            if _range_restricted_and_connected(head, body):
                pool.append(Clause(head, body))
    return pool


@pytest.mark.parametrize("kb_text", [FAMILY, COLLISION, BRIDGE], ids=["family", "collision", "bridge"])
@pytest.mark.parametrize("max_body, max_vars", [(1, 4), (2, 4), (3, 3)])
def test_enumerate_pool_in_product_order(monkeypatch, kb_text, max_body, max_vars):
    """The single clauses after the bias prelude are the pool, in order; the
    two-clause budget puts the target among the body predicates.  Verdicts
    are not compared, so verify is stubbed."""
    monkeypatch.setattr(oracle, "verify", lambda *args: Verdict(True, None))
    kb = parse_kb(kb_text)
    prelude = sum(len(b.sources) for b in kb.task.biases)
    caps = EnumCaps(max_body=max_body, max_clauses=prelude + 2, max_vars=max_vars)
    want = _product_order_pool(kb, caps)
    stream = enumerate_hypotheses(kb.facts, kb.task, caps, kb.symbols)
    rows = [clauses for clauses, _ in itertools.islice(stream, len(want) + 1)]
    assert [clauses[prelude:] for clauses in rows[:len(want)]] == [(c,) for c in want]
    assert len(rows[-1]) == prelude + 2  # the pool is exhausted: pairs follow


# --- the canonical clause key ----------------------------------------------------

KEY_SYMBOLS = SymbolTable()
KEY_ARITY = {KEY_SYMBOLS.intern_predicate(name, arity): arity
             for name, arity in (("p", 1), ("p", 2), ("q", 2), ("r", 0))}
for _name in ("a", "b", "c"):
    KEY_SYMBOLS.intern_constant(_name)
KEY_TERMS = st.one_of(st.builds(Var, st.integers(0, 5)), st.integers(0, 2))


def _key_atom(terms):
    return st.sampled_from(sorted(KEY_ARITY)).flatmap(
        lambda p: st.tuples(*[terms] * KEY_ARITY[p]).map(lambda args: Atom(p, args))
    )


KEY_CLAUSE = st.builds(Clause, _key_atom(KEY_TERMS), st.lists(_key_atom(KEY_TERMS), max_size=3).map(tuple))


def _renamed(clause, codes):
    """The clause with variable i renamed to Var(codes[i])."""
    def atom(a):
        return Atom(a.pred, tuple(Var(codes[t.code]) if isinstance(t, Var) else t for t in a.args))
    return Clause(atom(clause.head), tuple(atom(b) for b in clause.body))


def _shown(clause):
    return render_clause(clause.head, clause.body, KEY_SYMBOLS)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_clause_key_equal_exactly_when_rendered_text_equal(data):
    """Shared and repeated variables, constants, same-name predicates of two
    arities; renamed copies, renamed copies with one term changed, and
    unrelated clauses."""
    a = data.draw(KEY_CLAUSE)
    renamed = _renamed(a, data.draw(st.permutations(range(10, 16))))
    assert clause_key(renamed) == clause_key(a)
    atoms = (renamed.head, *renamed.body)
    i = data.draw(st.integers(0, len(atoms) - 1))
    if atoms[i].args:
        j = data.draw(st.integers(0, len(atoms[i].args) - 1))
        args = list(atoms[i].args)
        args[j] = data.draw(st.one_of(st.builds(Var, st.integers(10, 16)), st.integers(0, 2)))
        atoms = atoms[:i] + (Atom(atoms[i].pred, tuple(args)),) + atoms[i + 1:]
    changed = Clause(atoms[0], atoms[1:])
    for b in (renamed, changed, data.draw(KEY_CLAUSE)):
        assert (clause_key(a) == clause_key(b)) == (_shown(a) == _shown(b))
