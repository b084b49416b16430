"""The ground-truth side of the learner: models, verification, enumeration.

Everything the walk emits is checked against the least Herbrand model of
BK plus hypothesis: every positive example must be derivable, no negative
may be.  The same machinery drives an exhaustive hypothesis enumerator,
which is slow but complete — handy as a parity check on the walk.
"""

from nemus_icl import (
    EnumCaps,
    compile_kb,
    enumerate_hypotheses,
    least_model,
    parse_hypothesis,
    parse_kb,
    render_clause,
    render_ground_atom,
    verify,
)

KB = """\
father(jake, alice).
mother(alice, ted).
father(ted, bob).
mother(matilda, alice).

#target ancestor/2.
#positive ancestor(jake, bob).
#invent parent/2 from father/2, mother/2.
#max_body 2.
"""

HYPOTHESIS = """\
parent(X, Y) :- father(X, Y).
parent(X, Y) :- mother(X, Y).
ancestor(X, Y) :- parent(X, Y).
ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
"""

kb = parse_kb(KB)
clauses = parse_hypothesis(HYPOTHESIS, kb.symbols)

# the fixpoint: 4 facts close to 17 atoms, 9 of them ancestor pairs
model = least_model(kb.facts, clauses)
print(f"least model has {len(model)} atoms:")
for atom in sorted(model):
    print("  " + render_ground_atom(atom, kb.symbols))

verdict = verify(kb.facts, clauses, kb.task.positives, kb.task.negatives)
print("\nverify:", verdict)

# the enumerator streams (clause set, verdict) pairs in a fixed order;
# budget 4 = the two parent definitions plus two searched clauses.  With a
# single example and no negatives, the first verified set it stumbles on is
# a degenerate one — brute force has no taste, only a verifier.
print("\nfirst verified set found by brute force:")
caps = EnumCaps(max_body=2, max_clauses=4, max_vars=3)
for clause_set, v in enumerate_hypotheses(kb.facts, kb.task, caps, kb.symbols):
    if v.ok:
        for c in clause_set:
            print("  " + render_clause(c.head, c.body, kb.symbols))
        break
