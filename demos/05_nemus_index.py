"""Poke at the compiled KB that the learner walks.

beta(c) answers "which facts does this constant occur in" in file order,
once per argument occurrence — that one query drives the whole
chain-building walk.  dump lays the same facts out as the paper's spaces:
constants, predicates and clauses, tied together by T-Nodes (space, code,
occurrence, argument position).  region_similarity compares a binary
predicate's two argument columns (used to gate recursive hypotheses).
"""

import json

from nemus_icl import beta, compile_kb, dump, parse_kb, region_similarity, render_ground_atom

KB = """\
father(jake, alice).
mother(alice, ted).
father(ted, bob).
mother(matilda, alice).

#target ancestor/2.
#positive ancestor(jake, bob).
#invent parent/2 from father/2, mother/2.
"""

kb = parse_kb(KB)
nemus = compile_kb(kb)
sym = kb.symbols

alice = sym.constant_code("alice")
print(f"beta(alice):  # code {alice}")
for fact in beta(nemus, alice):
    print("  " + render_ground_atom(fact, sym))

# the same occurrences as T-Nodes of the predicate space: (h, c, i, a)
doc = dump(nemus, kb.task.negatives)
print("alice's T-Nodes in the dump:")
for binding in doc["constants"][alice]["bindings"]:
    h, c, i, a = binding["t"]
    print(f"  {tuple(binding['t'])}: {sym.predicate_sig(c)[0]} instance {i}, argument {a}")

father = sym.predicate_code("father", 2)
mother = sym.predicate_code("mother", 2)
print("region_similarity(father):", region_similarity(nemus, father))
print("region_similarity(father+mother):", region_similarity(nemus, father, sources=(father, mother)))

print("\nfull dump:")
print(json.dumps(doc, indent=2)[:400] + " ...")
