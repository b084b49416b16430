"""Parser, validation, and rendering for the KB file language."""

import re
import sys
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import COLLISION, FAMILY
from corpus import random_kb
from nemus_icl import (
    GroundAtom,
    KbError,
    ParseError,
    UnknownCode,
    ValidationError,
    Atom,
    Clause,
    Var,
    parse_hypothesis,
    parse_kb,
    render_clause,
    render_kb,
)
from nemus_icl.kb import _WORD


def test_family_interning_order():
    kb = parse_kb(FAMILY)
    sym = kb.symbols
    assert [sym.constant_name(i) for i in range(sym.n_constants)] == [
        "jake", "alice", "ted", "bob", "matilda",
    ]
    assert sym.predicate_code("father", 2) == 0
    assert sym.predicate_code("mother", 2) == 1
    assert sym.predicate_code("ancestor", 2) == 2
    assert sym.predicate_code("parent", 2) == 3
    assert sym.render_sig(3) == "parent/2"


def test_family_task():
    kb = parse_kb(FAMILY)
    assert len(kb.facts) == 4
    assert kb.facts[0] == GroundAtom(0, (0, 1))  # father(jake, alice)
    task = kb.task
    assert task.target == 2
    assert task.positives == (GroundAtom(2, (0, 3)),)
    assert task.negatives == ()
    assert task.biases == ((3, (0, 1)),)
    assert task.max_body == 2
    assert task.tau == 0.2  # default


def test_collision_task():
    kb = parse_kb(COLLISION)
    assert len(kb.facts) == 7
    assert kb.task.negatives == (GroundAtom(5, (2,)),)
    assert kb.task.max_body == 3


def test_english_long_form_equivalent():
    eng = (
        "father(jake, alice).\nmother(alice, ted).\nfather(ted, bob).\n"
        "mother(matilda, alice).\n"
        "consider induction on ancestor/2 knowing ancestor(jake, bob) "
        "assuming father/2 or mother/2 defines parent/2.\n"
        "#max_body 2.\n"
    )
    a, b = parse_kb(eng), parse_kb(FAMILY)
    assert a.task == b.task
    assert a.facts == b.facts


@pytest.mark.parametrize("separator", ["or", "OR", "Or", ","])
def test_invent_sources_separated_by_or_in_any_case(separator):
    """'or' is a keyword of #invent, like 'from': any case reads the same."""
    kb = parse_kb(FAMILY.replace("from father/2, mother/2.", f"From father/2 {separator} mother/2."))
    assert kb.task == parse_kb(FAMILY).task


def test_english_negative_examples():
    kb = parse_kb("p1(a, a1).\nconsider induction on p/1 knowing p(a) and not p(b).\n")
    assert kb.task.positives == (GroundAtom(1, (0,)),)
    assert kb.task.negatives == (GroundAtom(1, (2,)),)


def test_comments_and_crlf():
    kb = parse_kb("% header\r\nfather(jake, alice). % trailing\r\n#target t/2.\r\n#positive t(jake, alice2).\r\n")
    assert len(kb.facts) == 1


def test_facts_only_file_has_no_task():
    kb = parse_kb("father(jake, alice).\n")
    assert kb.task is None


def test_variable_in_fact_rejected():
    with pytest.raises(KbError):
        parse_kb("father(X, alice).\n")


def test_arity_three_rejected():
    with pytest.raises(ParseError):
        parse_kb("triple(a, b, c).\n")


def test_zero_arity_rejected():
    with pytest.raises(KbError):
        parse_kb("nothing().\n")


def test_examples_without_target():
    with pytest.raises(ValidationError):
        parse_kb("f(a, b).\n#positive t(a, b).\n")


def test_duplicate_target():
    with pytest.raises(ValidationError):
        parse_kb("f(a, b).\n#target t/2.\n#target s/2.\n#positive t(a, b).\n")


def test_example_predicate_must_match_target():
    with pytest.raises(ValidationError):
        parse_kb("f(a, b).\n#target t/2.\n#positive f(a, b).\n")


def test_positive_already_a_fact():
    with pytest.raises(ValidationError) as exc:
        parse_kb("t(a, b).\n#target t/2.\n#positive t(a, b).\n")
    assert (exc.value.msg, exc.value.line) == ("positive example t(a,b) already appears as a fact", 3)


@pytest.mark.parametrize("text, line, msg", [
    pytest.param("t(a, b).\n#target t/2.\n#positive t(b, a).\n#negative t(a, b).\n", 4,
                 "negative example t(a,b) already appears as a fact", id="negative-fact"),
    pytest.param("q(a, b).\n#target t/2.\n#positive t(a, b).\n#negative t(a, b).\n", 4,
                 "example t(a,b) is both positive and negative", id="positive-then-negative"),
    pytest.param("q(a, b).\n#target t/2.\n#negative t(a, b).\n#positive t(b, a).\n#positive t(a, b).\n", 5,
                 "example t(a,b) is both positive and negative", id="negative-then-positive"),
])
def test_contradictory_example_rejected_at_its_directive(text, line, msg):
    """No hypothesis satisfies an example that contradicts a fact or another
    example; the directive that makes the contradiction is the one named."""
    with pytest.raises(ValidationError) as exc:
        parse_kb(text)
    assert (exc.value.msg, exc.value.line) == (msg, line)


def test_missing_positive():
    with pytest.raises(ValidationError):
        parse_kb("f(a, b).\n#target t/2.\n")


def test_invent_source_must_exist():
    with pytest.raises(ValidationError):
        parse_kb("f(a, b).\n#target t/2.\n#positive t(a, b).\n#invent p/2 from nosuch/2.\n")


def test_invent_cannot_shadow_fact_predicate():
    with pytest.raises(ValidationError):
        parse_kb("f(a, b).\n#target t/2.\n#positive t(a, b).\n#invent f/2 from f/2.\n")


def test_parse_error_is_located():
    with pytest.raises(ParseError) as exc:
        parse_kb("father(jake alice).\n")
    assert exc.value.line == 1
    assert exc.value.col is not None


@pytest.mark.parametrize("setting, message", [
    ({"max_body": 0}, "max_body must be >= 1"),
    ({"max_body": -1}, "max_body must be >= 1"),
    ({"tau": 5.0}, "tau must be in [0, 1]"),
    ({"tau": float("nan")}, "tau must be in [0, 1]"),
])
def test_learn_task_rejects_what_the_directives_reject(setting, message):
    """A LearnTask built in the library is range-checked as #max_body/#tau are:
    at max_body 0 the collision KB's walk would emit a body over the cap."""
    task = parse_kb(COLLISION).task
    with pytest.raises(ValueError, match=re.escape(message)):
        replace(task, **setting)


def test_identifier_pattern_is_isalnum_or_underscore():
    """The tokenizer scans an identifier's tail with \\w; every code point is
    checked, since each Python version ships its own Unicode database."""
    assert [cp for cp in range(sys.maxunicode + 1)
            if bool(_WORD.fullmatch(chr(cp))) != (chr(cp).isalnum() or chr(cp) == "_")] == []


def test_unknown_code():
    kb = parse_kb(FAMILY)
    with pytest.raises(UnknownCode):
        kb.symbols.constant_name(99)


def test_render_clause_goldens():
    kb = parse_kb(FAMILY)
    sym = kb.symbols
    head = Atom(2, (Var(0), Var(1)))
    body = (Atom(3, (Var(0), Var(2))), Atom(2, (Var(2), Var(1))))
    assert render_clause(head, body, sym) == "ancestor(X,Y) :- parent(X,Z0), ancestor(Z0,Y)."
    assert render_clause(Atom(3, (Var(0), Var(1))), (Atom(0, (Var(0), Var(1))),), sym) \
        == "parent(X,Y) :- father(X,Y)."
    # facts render with constants and no body
    assert render_clause(Atom(0, (0, 1)), (), sym) == "father(jake,alice)."


def test_render_names_follow_first_use():
    kb = parse_kb(FAMILY)
    # head variable codes need not start at 0; display names do
    clause = render_clause(Atom(2, (Var(7), Var(3))), (Atom(0, (Var(3), Var(7))),), kb.symbols)
    assert clause == "ancestor(X,Y) :- father(Y,X)."


def test_parse_hypothesis_file():
    kb = parse_kb(FAMILY)
    clauses = parse_hypothesis(
        "parent(X,Y) :- father(X,Y).\nancestor(X,Y) :- parent(X,Z0), ancestor(Z0,Y).\n",
        kb.symbols,
    )
    assert len(clauses) == 2
    assert clauses[0] == Clause(Atom(3, (Var(0), Var(1))), (Atom(0, (Var(0), Var(1))),))
    # renders back to the same text
    assert render_clause(clauses[1].head, clauses[1].body, kb.symbols) \
        == "ancestor(X,Y) :- parent(X,Z0), ancestor(Z0,Y)."
    # variables are clause-local: each parse numbers its own in first-use order
    (again,) = parse_hypothesis("parent(Y,W) :- mother(Y,W).\n", kb.symbols)
    assert again == Clause(Atom(3, (Var(0), Var(1))), (Atom(1, (Var(0), Var(1))),))


@given(st.integers(0, 499))
@settings(max_examples=60, deadline=None)
def test_render_parse_round_trip(seed):
    kb = parse_kb(random_kb(seed))
    kb2 = parse_kb(render_kb(kb))
    named = lambda k: [
        (k.symbols.predicate_sig(f.pred), tuple(k.symbols.constant_name(c) for c in f.args))
        for f in k.facts
    ]
    assert named(kb) == named(kb2)
    assert (kb.task is None) == (kb2.task is None)
    if kb.task is not None:
        assert kb.task.max_body == kb2.task.max_body
        assert len(kb.task.positives) == len(kb2.task.positives)
        assert len(kb.task.negatives) == len(kb2.task.negatives)


@given(st.floats(0, 1))
@example(0.00001)  # repr 1e-05: the directive's grammar has no exponent
@settings(max_examples=300, deadline=None)
def test_render_parse_round_trip_keeps_tau(tau):
    """render_kb writes tau in the directive's number grammar, which has no
    exponent, and keeps the exact float."""
    kb = parse_kb("q(a).\n#target p/1.\n#positive p(a).\n#tau 0.5.\n")
    kb.directives = [replace(d, payload=tau) if d.kind == "tau" else d for d in kb.directives]
    assert parse_kb(render_kb(kb)).task.tau == tau


def test_consider_is_a_predicate_name_when_an_argument_list_follows():
    kb = parse_kb("consider(a).\nconsider(b, c).\n"
                  "consider induction on p/1 knowing p(a) and not p(b).\n")
    sym = kb.symbols
    assert [(sym.predicate_sig(f.pred), tuple(map(sym.constant_name, f.args))) for f in kb.facts] == [
        (("consider", 1), ("a",)), (("consider", 2), ("b", "c")),
    ]
    assert sym.render_sig(kb.task.target) == "p/1"
    assert [sym.constant_name(e.args[0]) for e in (*kb.task.positives, *kb.task.negatives)] == ["a", "b"]
    english = parse_kb("Consider induction on p/1 knowing p(a).\n")
    assert (english.facts, english.symbols.render_sig(english.task.target)) == ([], "p/1")


@given(st.text(max_size=200))
@settings(max_examples=300, deadline=None)
def test_parser_total_on_garbage(text):
    """Any input either parses or raises a located KbError; nothing leaks."""
    try:
        parse_kb(text)
    except ParseError as exc:
        assert exc.line is not None and exc.line >= 1
    except KbError:
        pass


@given(st.text(alphabet="abXY(),.:-#% \n01", max_size=80))
@settings(max_examples=300, deadline=None)
def test_parser_total_on_near_miss_input(text):
    # denser soup of the language's own characters
    try:
        parse_kb(text)
    except KbError:
        pass
