import pytest

from nemus_icl import atom_of, beta, compile_kb, dump, parse_kb, render_clause

FAMILY = """\
father(jake, alice).
mother(alice, ted).
father(ted, bob).
mother(matilda, alice).

#target ancestor/2.
#positive ancestor(jake, bob).
#invent parent/2 from father/2, mother/2.
#max_body 2.
"""

# one positive chain a ->p1 a1, a dead qj region shared with the negative's
# chain, and the sound pk/r1/s1 route
COLLISION = """\
p1(a, a1).
p1(b, b1).
qj(bj, a1).
qj(bj, b1).
pk(ak, a).
r1(c1, ak).
s1(c1).

#target p/1.
#positive p(a).
#negative p(b).
#max_body 3.
"""

# closable only by inventing a bridge predicate within max_body 2
BRIDGE = """\
q1(a, c).
r(c, d).
u(d, b).

#target t/2.
#positive t(a, b).
#max_body 2.
"""

FAMILY_SOLUTION = {
    "parent(X,Y) :- father(X,Y).",
    "parent(X,Y) :- mother(X,Y).",
    "ancestor(X,Y) :- parent(X,Y).",
    "ancestor(X,Y) :- parent(X,Z0), ancestor(Z0,Y).",
}


def render_set(clauses, symbols):
    return {render_clause(c.head, c.body, symbols) for c in clauses}


def assert_defines_what_it_reads(clauses, kb):
    """Every predicate a body reads that has no facts and is not the target
    (so was invented) is the head of a clause in the set."""
    fact_preds = {f.pred for f in kb.facts}
    heads = {c.head.pred for c in clauses}
    for c in clauses:
        for atom in c.body:
            if atom.pred not in fact_preds and atom.pred != kb.task.target:
                assert atom.pred in heads, render_clause(c.head, c.body, kb.symbols)


def assert_index_invariants(kb, nemus):
    """The spaces of dump(nemus) agree with the facts, and beta with them."""
    doc = dump(nemus)
    # one binding per argument slot of the fact list
    assert sum(len(entry["bindings"]) for entry in doc["constants"]) == sum(len(f.args) for f in kb.facts)
    for c, entry in enumerate(doc["constants"]):
        assert len(entry["bindings"]) == sum(f.args.count(c) for f in kb.facts)
        pointed = []
        for b in entry["bindings"]:
            assert b["k"] == c
            h, pred, i, a = b["t"]
            assert h == 3  # the predicate space
            atom = atom_of(nemus, pred, i)
            assert atom.args[a - 1] == c
            pointed.append(atom)
        # beta lists the facts the bindings point at, in binding order
        assert beta(nemus, c) == tuple(pointed)
    # the clause space decodes back to the facts, in file order
    rebuilt = []
    for cspace in doc["clauses"]:
        h, pred, i, a = cspace["instances"][0]["args"][0]
        rebuilt.append(atom_of(nemus, pred, i))
    assert rebuilt == list(kb.facts)


@pytest.fixture
def family_kb():
    return parse_kb(FAMILY)


@pytest.fixture
def family_nemus(family_kb):
    return compile_kb(family_kb)


@pytest.fixture
def collision_kb():
    return parse_kb(COLLISION)


@pytest.fixture
def collision_nemus(collision_kb):
    return compile_kb(collision_kb)
