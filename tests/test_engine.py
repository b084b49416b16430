"""The learner's primitives and full walks on the worked scenarios."""

import json
import math
from dataclasses import replace
from itertools import chain, islice, product
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import BRIDGE, COLLISION, FAMILY, FAMILY_SOLUTION, assert_defines_what_it_reads, render_set
from corpus import CORPUS_SIZE, multi_positive_kb, random_kb
from nemus_icl import engine, oracle
from nemus_icl import (
    AntiSubstitution,
    Atom,
    Clause,
    GroundAtom,
    Hypothesis,
    InventionBias,
    LearnTask,
    PreconditionFault,
    Var,
    anti_unify,
    apply_bias,
    compile_kb,
    inductive_momentum,
    invent_auto,
    learn,
    parse_kb,
    render_clause,
    render_ground_atom,
    try_recursion,
    verify,
)


def test_inductive_momentum_table():
    l_plus = GroundAtom(1, (4, 1))   # qj(bj, a1)
    l_minus = GroundAtom(1, (4, 3))  # qj(bj, b1)
    assert inductive_momentum(l_plus, l_minus, 1, 3) == "inconsistent"
    # same predicate, different positions: consistent
    assert inductive_momentum(GroundAtom(1, (1, 4)), l_minus, 1, 3) == "consistent"
    # different predicates: always consistent
    assert inductive_momentum(GroundAtom(0, (1, 9)), l_minus, 1, 3) == "consistent"


def test_inductive_momentum_preconditions():
    l_plus = GroundAtom(1, (4, 1))
    l_minus = GroundAtom(1, (4, 3))
    with pytest.raises(PreconditionFault):
        inductive_momentum(l_plus, l_minus, 9, 3)
    with pytest.raises(PreconditionFault):
        inductive_momentum(l_plus, l_minus, 1, 9)


def test_anti_unify_extends_theta():
    theta = AntiSubstitution()
    atom, theta2, fresh = anti_unify(GroundAtom(0, (0, 1)), theta, 0)
    assert atom == Atom(0, (Var(0), Var(1)))
    assert fresh == 2
    assert len(theta) == 0  # input untouched
    # second atom through the extended map reuses the binding for constant 1
    atom2, theta3, fresh2 = anti_unify(GroundAtom(1, (1, 5)), theta2, fresh)
    assert atom2 == Atom(1, (Var(1), Var(2)))
    assert fresh2 == 3
    assert theta3.get(5) == Var(2)


def test_anti_unify_repeated_constant():
    atom, theta, fresh = anti_unify(GroundAtom(0, (7, 7)), AntiSubstitution(), 0)
    assert atom == Atom(0, (Var(0), Var(0)))
    assert fresh == 1


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 9), st.integers(0, 9)), max_size=8))
@settings(max_examples=200)
def test_anti_substitution_stays_injective(chain):
    theta = AntiSubstitution()
    fresh = 0
    for pred, a, b in chain:
        _, theta, fresh = anti_unify(GroundAtom(pred, (a, b)), theta, fresh)
    vals = list(theta.mapping.values())
    assert len(vals) == len(set(vals))


def test_anti_substitution_bind_guards():
    theta = AntiSubstitution()
    theta.bind(3, Var(0))
    with pytest.raises(PreconditionFault):
        theta.bind(3, Var(1))  # constant already mapped
    with pytest.raises(PreconditionFault):
        theta.bind(4, Var(0))  # variable already used


def test_apply_bias_rewrites_to_the_invented_predicate():
    biases = (InventionBias(3, (0, 1)), InventionBias(4, (1,)))
    assert apply_bias(GroundAtom(0, (0, 1)), biases) == GroundAtom(3, (0, 1))
    # the first bias naming the source wins, every time
    assert apply_bias(GroundAtom(1, (4, 1)), biases) == GroundAtom(3, (4, 1))
    assert apply_bias(GroundAtom(1, (4, 1)), biases) == GroundAtom(3, (4, 1))
    # unrelated predicate passes through
    assert apply_bias(GroundAtom(2, (0, 1)), biases) == GroundAtom(2, (0, 1))


def test_bias_definitions_one_clause_per_source():
    x, y = Var(0), Var(1)
    assert InventionBias(3, (0, 1)).definitions(2) == (
        Clause(Atom(3, (x, y)), (Atom(0, (x, y)),)),
        Clause(Atom(3, (x, y)), (Atom(1, (x, y)),)),
    )
    assert InventionBias(5, (2,)).definitions(1) == (Clause(Atom(5, (x,)), (Atom(2, (x,)),)),)
    # a repeated source gives its clause once, where it first occurs
    assert InventionBias(3, (1, 0, 1, 0)).definitions(2) == InventionBias(3, (1, 0)).definitions(2)


def _open_hyp():
    theta = AntiSubstitution({10: Var(0), 11: Var(1), 12: Var(2)})
    return Hypothesis(
        head=Atom(5, (Var(0), Var(1))),
        body=(Atom(0, (Var(0), Var(2))),),
        theta_inv=theta,
        frontier=(12,),
    )


def test_invent_auto_bridges_frontier_to_y():
    # the stalled frontier constant 12 is Z0 (Var(2)); the head's Y is Var(1)
    assert invent_auto(_open_hyp(), lambda: 9) == Atom(9, (Var(2), Var(1)))


def test_invent_auto_preconditions():
    hyp = _open_hyp()
    closed = replace(hyp, body=hyp.body + (invent_auto(hyp, lambda: 9),))
    with pytest.raises(PreconditionFault):
        invent_auto(closed, lambda: 9)  # the bridge links Y
    linked = Hypothesis(
        head=hyp.head,
        body=(Atom(0, (Var(0), Var(1))),),  # Y already reached
        theta_inv=hyp.theta_inv,
        frontier=(12,),
    )
    with pytest.raises(PreconditionFault):
        invent_auto(linked, lambda: 9)
    with pytest.raises(PreconditionFault):
        invent_auto(
            Hypothesis(hyp.head, hyp.body, hyp.theta_inv, frontier=()), lambda: 9
        )


def test_try_recursion_family_pair(family_kb, family_nemus):
    sym = family_kb.symbols
    parent = sym.predicate_code("parent", 2)
    alice = sym.constant_code("alice")
    theta = AntiSubstitution({0: Var(0), 3: Var(1), alice: Var(2)})  # jake, bob, alice
    state = Hypothesis(
        head=Atom(sym.predicate_code("ancestor", 2), (Var(0), Var(1))),
        body=(Atom(parent, (Var(0), Var(2))),),
        theta_inv=theta,
        frontier=(alice,),
    )
    pair = try_recursion(
        state, Atom(parent, (Var(2), Var(3))), family_nemus, 0.2,
        hook=alice, sources_of={parent: (0, 1)},
    )
    assert pair is not None
    base, rec = pair
    assert render_clause(base.head, base.body, sym) == "ancestor(X,Y) :- parent(X,Y)."
    assert render_clause(rec.head, rec.body, sym) == "ancestor(X,Y) :- parent(X,Z0), ancestor(Z0,Y)."
    # a stricter threshold refuses (similarity is exactly 0.4)
    assert try_recursion(
        state, Atom(parent, (Var(2), Var(3))), family_nemus, 0.5,
        hook=alice, sources_of={parent: (0, 1)},
    ) is None


def test_try_recursion_guards(family_kb, family_nemus):
    sym = family_kb.symbols
    parent = sym.predicate_code("parent", 2)
    state = _open_hyp()
    with pytest.raises(PreconditionFault):
        try_recursion(
            Hypothesis(state.head, (), state.theta_inv), Atom(0, (Var(0), Var(1))),
            family_nemus, 0.2,
        )
    with pytest.raises(PreconditionFault):
        # candidate predicate differs from the last body atom's
        try_recursion(state, Atom(7, (Var(2), Var(3))), family_nemus, 0.2, hook=12)
    # the walk looped back to a head constant: no chain tip, not an error
    loop = Hypothesis(
        head=Atom(parent, (Var(0), Var(1))),
        body=(Atom(0, (Var(0), Var(2))), Atom(0, (Var(2), Var(0))),),
        theta_inv=AntiSubstitution({20: Var(0), 21: Var(1), 22: Var(2)}),
        frontier=(20,),
    )
    assert try_recursion(
        loop, Atom(0, (Var(0), Var(3))), family_nemus, 0.0, hook=20,
        sources_of={0: (0,)},
    ) is None


# --- full walks ---------------------------------------------------------------


def test_learn_family_exact(family_kb, family_nemus):
    result = learn(family_nemus, family_kb.task)
    assert len(result.hypotheses) == 1
    assert render_set(result.hypotheses[0], family_kb.symbols) == FAMILY_SOLUTION
    assert result.invented == (family_kb.symbols.predicate_code("parent", 2),)
    assert result.stats.candidates == 4
    assert result.stats.pruned == 0
    assert result.rejected == ()


def test_learn_collision(collision_kb, collision_nemus):
    trace = []
    result = learn(collision_nemus, collision_kb.task, trace=trace.append)
    sym = collision_kb.symbols
    assert [render_set(h, sym) for h in result.hypotheses] == [
        {"p(X) :- pk(Y,X), r1(Z0,Y), s1(Z0)."}
    ]
    assert result.stats.pruned == 1
    pruned = [r for r in trace if r["action"] == "prune"]
    assert pruned == [
        {"phase": 1, "frontier": "a1", "candidate": "qj(bj,a1)",
         "imu": "inconsistent", "action": "prune"}
    ]
    # the over-general 1-literal branch was emitted, failed the oracle, recorded
    b = sym.constant_code("b")
    assert [(render_set(cs, sym), failed) for cs, failed in result.rejected] == [
        ({"p(X) :- p1(X,Y)."}, GroundAtom(collision_kb.task.target, (b,)))
    ]


def test_learn_collision_force_include(collision_kb, collision_nemus):
    """With pruning bypassed, the qj branch closes and the oracle rejects it."""
    result = learn(collision_nemus, collision_kb.task, include_pruned=True)
    sym = collision_kb.symbols
    assert [render_set(h, sym) for h in result.hypotheses] == [
        {"p(X) :- pk(Y,X), r1(Z0,Y), s1(Z0)."}
    ]
    b = sym.constant_code("b")
    qj_sets = [
        (cs, failed) for cs, failed in result.rejected
        if any("qj" in render_clause(c.head, c.body, sym) for c in cs)
    ]
    assert qj_sets, "bypassed branch never reached the oracle"
    assert all(failed == GroundAtom(collision_kb.task.target, (b,)) for _, failed in qj_sets)


def test_learn_collision_include_pruned_matches_golden(collision_kb, collision_nemus):
    """With pruning bypassed, the pruned qj(bj,a1) extends and the negative
    walk is lockstepped along its collider, which pairs bj with bj and makes
    qj(bj,b1) collide in turn; no CLI run reaches this path.  The golden
    holds the trace records, then one line per rejected set."""
    records = []
    result = learn(collision_nemus, collision_kb.task, trace=records.append, include_pruned=True)
    sym = collision_kb.symbols
    lines = [json.dumps(rec) for rec in records]
    lines += [json.dumps({"rejected": [render_clause(c.head, c.body, sym) for c in cs],
                          "failed": render_ground_atom(failed, sym)})
              for cs, failed in result.rejected]
    golden = Path(__file__).parent / "golden" / "collision.include_pruned.trace.jsonl"
    assert "\n".join(lines) + "\n" == golden.read_text()


def test_learn_bridge_invents():
    kb = parse_kb(BRIDGE)
    result = learn(compile_kb(kb), kb.task)
    sym = kb.symbols
    assert [render_set(h, sym) for h in result.hypotheses] == [
        {"t(X,Y) :- q1(X,Z0), inv_0(Z0,Y).", "inv_0(X,Y) :- r(X,Z0), u(Z0,Y)."}
    ]
    assert [sym.render_sig(p) for p in result.invented] == ["inv_0/2"]


# s reads r, an earlier invented predicate; the hypothesis names only s
CHAINED_BIAS = (
    "q(x, y).\nw(a, c).\n#invent r/2 from q/2.\n#invent s/2 from r/2, w/2.\n"
    "#target p/2.\n#positive p(a, c).\n#max_body 2.\n"
)


def test_learn_attaches_the_definitions_a_chained_bias_reaches():
    kb = parse_kb(CHAINED_BIAS)
    result = learn(compile_kb(kb), kb.task)
    sym = kb.symbols
    assert [[render_clause(c.head, c.body, sym) for c in h] for h in result.hypotheses] == [[
        "r(X,Y) :- q(X,Y).", "s(X,Y) :- r(X,Y).", "s(X,Y) :- w(X,Y).", "p(X,Y) :- s(X,Y).",
    ]]
    assert [sym.render_sig(p) for p in result.invented] == ["r/2", "s/2"]


@pytest.mark.parametrize("kb_text", [
    pytest.param(FAMILY, id="family"),
    pytest.param(COLLISION, id="collision"),
    pytest.param(BRIDGE, id="bridge"),
    pytest.param(CHAINED_BIAS, id="chained-bias"),
    # the hypothesis names r, the earlier invented predicate, itself
    pytest.param(CHAINED_BIAS.replace("q(x, y).\nw(a, c).", "q(a, c).\nw(x, y)."), id="chained-bias-direct"),
])
def test_emitted_sets_define_every_invented_predicate_they_read(kb_text):
    kb = parse_kb(kb_text)
    result = learn(compile_kb(kb), kb.task)
    assert result.hypotheses
    for clauses in result.hypotheses:
        assert_defines_what_it_reads(clauses, kb)


def test_learn_unreachable_example_is_empty_with_zero_candidates():
    kb = parse_kb("q(a, b).\n#target t/2.\n#positive t(c, d).\n")
    result = learn(compile_kb(kb), kb.task)
    assert result.hypotheses == ()
    assert result.stats.candidates == 0


def test_learn_single_fact_link():
    kb = parse_kb("f(a, b).\nf(c, d).\n#target t/2.\n#positive t(a, b).\n")
    result = learn(compile_kb(kb), kb.task)
    assert {"t(X,Y) :- f(X,Y)."} in [render_set(h, kb.symbols) for h in result.hypotheses]


def test_learn_monadic_closure_narrative():
    # s(X) closes immediately on the unary fact at its example constant
    kb = parse_kb(COLLISION.replace("#target p/1.", "#target s/1.")
                  .replace("#positive p(a).", "#positive s(c1).")
                  .replace("#negative p(b).", ""))
    result = learn(compile_kb(kb), kb.task)
    sets = [render_set(h, kb.symbols) for h in result.hypotheses]
    assert {"s(X) :- s1(X)."} in sets


def test_learn_two_positives_merge():
    kb = parse_kb(
        "f(a, b).\nf(c, d).\n#target t/2.\n#positive t(a, b).\n#positive t(c, d).\n"
    )
    result = learn(compile_kb(kb), kb.task)
    assert result.hypotheses, "no merged hypothesis"
    merged = [render_set(h, kb.symbols) for h in result.hypotheses]
    assert {"t(X,Y) :- f(X,Y)."} in merged
    for clauses in result.hypotheses:
        assert verify(kb.facts, clauses, kb.task.positives, kb.task.negatives).ok


def test_learn_one_covered_positive_is_rechecked_against_all():
    """Only the first positive yields sets; they cannot cover the second, so
    nothing is emitted and the dropped set names the uncovered positive."""
    kb = parse_kb(
        "father(jake, alice).\n#target parent/2.\n"
        "#positive parent(jake, alice).\n#positive parent(zed, zoe).\n#max_body 2.\n"
    )
    result = learn(compile_kb(kb), kb.task)
    assert result.hypotheses == ()
    assert result.rejected[-1][1] == kb.task.positives[1]


REFERENCE_MERGE_CAP = 2000  # unions the reference re-verifies, one oracle call each


def reference_learn(nemus, task, include_pruned):
    """learn() with the merge re-verifying every union against every example."""
    walk = engine._Walk(nemus, task, None, include_pruned)
    per_example = []
    for e_pos in task.positives:
        per_example.append(list(walk.learn_positive(e_pos, task.target, task.negatives))
                           or list(walk.witness_walk(e_pos)))
    nonempty = [sets for sets in per_example if sets]
    assume(math.prod(map(len, nonempty)) <= REFERENCE_MERGE_CAP)
    hypotheses = {}
    for combo in product(*nonempty) if nonempty else ():
        merged = tuple(dict.fromkeys(chain.from_iterable(combo)))
        verdict = walk.verdict(merged, task.positives, task.negatives)
        if verdict.ok:
            hypotheses.setdefault(walk.set_key(merged), merged)
        else:
            walk.stats.dropped += 1
            walk.rejected.append((merged, verdict.failed))
    invented = []
    for clauses in hypotheses.values():
        for p in sorted(engine._clause_preds(clauses)):
            if p not in nemus.bk.relations and p != task.target and p not in invented:
                invented.append(p)
    return tuple(hypotheses.values()), tuple(invented), walk.stats, tuple(walk.rejected)


@given(st.integers(0, 10**6), st.sampled_from([2, 3]), st.booleans(), st.booleans())
@example(440, 2, False, False)  # two covering sets that together derive a negative
@settings(max_examples=80, deadline=None)
def test_merge_verifies_only_unions_that_can_fail(seed, n_positives, unsupported, include_pruned):
    """Skipping the re-verification of unions that monotonicity settles
    changes no hypothesis, invented predicate, counter or rejection."""
    kb = parse_kb(multi_positive_kb(seed, n_positives, unsupported))
    expected = reference_learn(compile_kb(kb), kb.task, include_pruned)
    kb = parse_kb(multi_positive_kb(seed, n_positives, unsupported))
    result = learn(compile_kb(kb), kb.task, include_pruned=include_pruned)
    assert (result.hypotheses, result.invented, result.stats, result.rejected) == expected


def test_a_prefix_of_the_walk_stream_makes_only_the_verify_calls_it_needed(monkeypatch):
    """Reading the first k sets of a positive's stream makes exactly the verify
    calls the full read had made when it yielded its k-th set, on every corpus
    KB's first positive and for every k; each set is yielded right after the
    verify call that accepted it."""
    calls = []
    real = engine.verify
    monkeypatch.setattr(engine, "verify",
                        lambda bk, clauses, *examples: calls.append(clauses) or real(bk, clauses, *examples))
    for seed in range(CORPUS_SIZE):
        kb = parse_kb(random_kb(seed))
        nemus = compile_kb(kb)

        def stream():
            calls.clear()
            walk = engine._Walk(nemus, kb.task, None, False)
            return walk.learn_positive(kb.task.positives[0], kb.task.target, kb.task.negatives)

        at_set = []
        for clauses in stream():
            assert calls[-1] == clauses, seed
            at_set.append(len(calls))
        if seed == 347:
            assert (at_set[0], len(calls)) == (1, 320)
        for k, needed in enumerate(at_set, 1):
            assert sum(1 for _ in islice(stream(), k)) == k
            assert len(calls) == needed, (seed, k)


def test_merge_without_negatives_calls_the_oracle_only_per_positive(monkeypatch):
    """Three covered positives and no negatives: every union derives every
    positive, so the merge makes no verify call of its own."""
    kb = parse_kb(
        "f(a, b).\ng(a, b).\nf(c, d).\ng(c, d).\nf(e, h).\n#target t/2.\n"
        "#positive t(a, b).\n#positive t(c, d).\n#positive t(e, h).\n#max_body 2.\n"
    )
    calls = []
    real = engine.verify
    monkeypatch.setattr(engine, "verify",
                        lambda bk, clauses, pos, neg: calls.append(pos) or real(bk, clauses, pos, neg))
    result = learn(compile_kb(kb), kb.task)
    assert calls and all(len(positives) == 1 for positives in calls)
    shown = [render_set(h, kb.symbols) for h in result.hypotheses]
    assert {"t(X,Y) :- f(X,Y).", "t(X,Y) :- g(X,Y)."} in shown  # a union larger than its sets
    for clauses in result.hypotheses:
        assert verify(kb.facts, clauses, kb.task.positives, kb.task.negatives).ok


def test_merge_rechecks_a_union_that_can_derive_a_negative():
    """The recursive pair of t(a, c) and the clause of t(p, q) each derive
    no negative, but together they chain e(m, p) and g(p, q) into t(m, q)."""
    kb = parse_kb(
        "e(a, b).\ne(b, c).\ne(m, p).\ng(p, q).\n#target t/2.\n"
        "#positive t(a, c).\n#positive t(p, q).\n#negative t(m, q).\n#max_body 2.\n"
    )
    result = learn(compile_kb(kb), kb.task)
    recursive = {"t(X,Y) :- e(X,Y).", "t(X,Y) :- e(X,Z0), t(Z0,Y)."}
    negative = kb.task.negatives[0]
    assert any(recursive <= render_set(h, kb.symbols) and failed == negative for h, failed in result.rejected)
    assert result.hypotheses
    assert not any(recursive <= render_set(h, kb.symbols) for h in result.hypotheses)


def test_learn_walks_a_repeated_positive_once():
    text = random_kb(347)
    repeated = text.replace("#positive tgt(c1).\n", "#positive tgt(c1).\n" * 2)
    assert repeated != text
    once, twice = parse_kb(text), parse_kb(repeated)
    a, b = learn(compile_kb(once), once.task), learn(compile_kb(twice), twice.task)
    assert len(a.hypotheses) == 320
    assert (b.hypotheses, b.invented, b.stats, b.rejected) == (a.hypotheses, a.invented, a.stats, a.rejected)


def test_learn_calls_share_no_verdicts():
    """Two KBs with the same codes where t(X,Y) :- e(X,Y) derives the
    negative only in the first: each learn sees its own BK's verdicts."""
    derives_negative = parse_kb(
        "e(a, b).\ne(b, b).\n#target t/2.\n#positive t(a, b).\n#negative t(b, b).\n"
    )
    clean = parse_kb(
        "e(a, b).\ne(a, a).\n#target t/2.\n#positive t(a, b).\n#negative t(b, b).\n"
    )
    shown = lambda kb: [render_set(h, kb.symbols) for h in learn(compile_kb(kb), kb.task).hypotheses]
    for _ in range(2):
        assert {"t(X,Y) :- e(X,Y)."} not in shown(derives_negative)
        assert {"t(X,Y) :- e(X,Y)."} in shown(clean)


def test_learn_momentum_overprune_recovered_by_witness_pass():
    """Same-predicate same-position collision prunes the only narrow route;
    the exhaustive pass still finds the sound specific clause."""
    kb = parse_kb(
        "q(a, c).\nq(b, d).\nu(c, e).\nu(d, e2).\nm(e).\n"
        "#target p/1.\n#positive p(a).\n#negative p(b).\n#max_body 3.\n"
    )
    trace = []
    result = learn(compile_kb(kb), kb.task, trace=trace.append)
    assert [render_set(h, kb.symbols) for h in result.hypotheses] == [
        {"p(X) :- q(X,Y), u(Y,Z0), m(Z0)."}
    ]
    assert any(r["phase"] == 2 for r in trace)
    assert result.stats.pruned >= 1


def test_learn_trace_records_are_well_formed(collision_kb, collision_nemus):
    trace = []
    learn(collision_nemus, collision_kb.task, trace=trace.append)
    assert trace
    for rec in trace:
        assert set(rec) == {"phase", "frontier", "candidate", "imu", "action"}
        assert rec["imu"] in ("consistent", "inconsistent", "n/a")
        assert rec["action"] in (
            "extend", "prune", "close", "recurse", "invent",
            "duplicate", "dead-end", "verified", "dropped",
        )


def test_learn_deterministic_across_fresh_parses():
    for seed in (3, 30, 77):
        text = random_kb(seed)
        runs = []
        for _ in range(2):
            kb = parse_kb(text)
            res = learn(compile_kb(kb), kb.task)
            runs.append([
                sorted(render_set(h, kb.symbols)) for h in res.hypotheses
            ])
        assert runs[0] == runs[1]


@given(st.integers(0, 499))
@settings(max_examples=60, deadline=None)
def test_learn_emissions_are_verified_connected_clauses(seed):
    kb = parse_kb(random_kb(seed))
    result = learn(compile_kb(kb), kb.task)
    for clauses in result.hypotheses:
        assert verify(kb.facts, clauses, kb.task.positives, kb.task.negatives).ok
        for cl in clauses:
            head_vars = {t.code for t in cl.head.args if isinstance(t, Var)}
            body_vars = {t.code for a in cl.body for t in a.args if isinstance(t, Var)}
            if cl.body:
                assert head_vars <= body_vars
            reached = set(head_vars)
            moved = True
            while moved:
                moved = False
                for a in cl.body:
                    vs = {t.code for t in a.args if isinstance(t, Var)}
                    if vs & reached and not vs <= reached:
                        reached |= vs
                        moved = True
            assert body_vars <= reached


def test_untraced_learn_renders_nothing(monkeypatch):
    """Trace labels are rendered only for a trace; dedup keys are structural."""
    calls = []
    for name in ("render_clause", "render_ground_atom"):
        real = getattr(engine, name)
        monkeypatch.setattr(engine, name, lambda *args, real=real: calls.append(args) or real(*args))
    kb = parse_kb(COLLISION)
    result = learn(compile_kb(kb), kb.task)
    assert result.hypotheses
    assert calls == []
    learn(compile_kb(kb), kb.task, trace=lambda rec: None)
    assert calls  # the patched names are the ones a traced walk renders through


@pytest.mark.parametrize("kb_text", [
    pytest.param(BRIDGE, id="bridge"),
    pytest.param(random_kb(312), id="corpus-312"),  # invents under negatives, then phase 2
])
def test_learn_walks_the_compiled_kb_in_one_context(monkeypatch, kb_text):
    """learn reads the Bk and beta that compile_kb built: it compiles no
    second Bk, decodes no fact with atom_of, and its invention sub-walk is a
    call on the one _Walk it builds."""
    kb = parse_kb(kb_text)
    nemus = compile_kb(kb)
    walks = []
    real_init = engine._Walk.__init__
    monkeypatch.setattr(engine._Walk, "__init__",
                        lambda self, *args: walks.append(self) or real_init(self, *args))

    def forbidden(*args):
        raise AssertionError("called during learn")

    monkeypatch.setattr(engine, "atom_of", forbidden)
    monkeypatch.setattr(oracle.Bk, "__init__", forbidden)
    records = []
    learn(nemus, kb.task, trace=records.append)
    assert len(walks) == 1
    assert any(rec["action"] == "invent" for rec in records)


@pytest.mark.parametrize("kb_text", [
    pytest.param(BRIDGE, id="bridge"),
    *[pytest.param(random_kb(seed), id=f"corpus-{seed}") for seed in range(0, 500, 10)],
])
def test_structural_set_keys_merge_as_rendered_text(monkeypatch, kb_text):
    """The walk's clause-set keys, key memo included, merge exactly the sets
    whose rendered clause sets are equal."""
    kb = parse_kb(kb_text)
    structural = learn(compile_kb(kb), kb.task).hypotheses
    monkeypatch.setattr(engine._Walk, "set_key", lambda self, clauses: frozenset(
        render_clause(c.head, c.body, self.sym) for c in clauses))
    kb = parse_kb(kb_text)
    assert learn(compile_kb(kb), kb.task).hypotheses == structural


# the graphs benchmark's chain40 KB: a 40-node path, a positive that needs
# recursion (no body of 2 literals reaches n35 from n0), and two negatives
# that point back along the path
CHAIN40 = ("".join(f"edge(n{i}, n{i + 1}).\n" for i in range(39))
           + "#target path/2.\n#positive path(n0, n35).\n#negative path(n21, n13).\n#negative path(n36, n34).\n")


@pytest.mark.parametrize("max_body", [
    2,
    # open fault: at cap 3 momentum prunes every depth-1 candidate of the
    # main walk, invention fires only at depth max_body - 1, and the witness
    # walk cannot express recursion, so the set found at cap 2 is lost
    pytest.param(3, marks=pytest.mark.xfail(strict=True, reason="a larger body cap loses the recursive set")),
])
def test_chain40_learns_the_recursive_set_at_each_body_cap(max_body):
    kb = parse_kb(CHAIN40)
    task = replace(kb.task, max_body=max_body)
    assert len(learn(compile_kb(kb), task).hypotheses) == 1
