"""Shared NeMuS: the compiled KB the learner walks.

compile_kb builds it once per KB: the oracle's Bk of the facts, and beta(c),
the facts that constant c occurs in, one entry per argument occurrence in
file order.  beta is what the learner walks.

The paper's weighted multi-space layout is a view built on demand by dump:
spaces numbered 0=variables, 1=constants, 3=predicates, 4=clauses (space 2,
functions, is absent by design), where a T-Node (h, c, i, a) addresses
occurrence i of object c in space h at attribute position a.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kb import GroundAtom, KnowledgeBase, SymbolTable, UnknownCode
from .oracle import Bk

VAR_SPACE, CONST_SPACE, PRED_SPACE, CLAUSE_SPACE = 0, 1, 3, 4

# every binding of the view carries this weight; nothing reads it, and
# region_similarity uses set overlap only
DEFAULT_WEIGHT = 1.0


class UnknownInstance(Exception):
    pass


class ArityError(Exception):
    pass


@dataclass(frozen=True)
class SharedNeMuS:
    """The compiled KB; share freely across learn tasks.  Its facts and
    occurrences never change; learn interns the inv_N predicates it mints
    into the shared symbol table."""

    bk: Bk  # the facts, compiled for the oracle and the witness walk
    occurrences: tuple  # per constant code: the facts it occurs in, once per argument occurrence
    symbols: SymbolTable


def compile_kb(kb: KnowledgeBase) -> SharedNeMuS:
    """Compile the facts once; occurrences follow fact order in the file."""
    occurrences = [[] for _ in range(kb.symbols.n_constants)]
    for fact in kb.facts:
        for c in fact.args:
            occurrences[c].append(fact)
    return SharedNeMuS(Bk(kb.facts), tuple(map(tuple, occurrences)), kb.symbols)


def beta(nemus: SharedNeMuS, c: int) -> tuple:
    """The facts constant c occurs in, once per argument occurrence, in file
    order; empty if c never occurs in facts."""
    if not 0 <= c < len(nemus.occurrences):
        raise UnknownCode(c)
    return nemus.occurrences[c]


def atom_of(nemus: SharedNeMuS, pred: int, instance: int) -> GroundAtom:
    """The fact that is instance `instance` (from 1, file order) of `pred`."""
    insts = [f for f in nemus.bk.facts if f.pred == pred]
    if not 1 <= instance <= len(insts):
        raise UnknownInstance((pred, instance))
    return insts[instance - 1]


def region_similarity(nemus: SharedNeMuS, pred: int, sources=None) -> float:
    """Jaccard overlap of the argument-position constant sets of a binary
    predicate.  For an invented predicate pass its sources; the similarity is
    computed over the union of their instances."""
    preds = list(sources) if sources else [pred]
    first, second = set(), set()
    for p in preds:
        _, arity = nemus.symbols.predicate_sig(p)
        if arity != 2:
            raise ArityError(nemus.symbols.render_sig(p))
        for a, b in nemus.bk.relations.get(p, ()):
            first.add(a)
            second.add(b)
    union = first | second
    if not union:
        return 0.0
    return len(first & second) / len(union)


# --- the multi-space view ----------------------------------------------------


def _binding(h: int, c: int, i: int, a: int, k: int) -> dict:
    return {"t": [h, c, i, a], "w": DEFAULT_WEIGHT, "k": k}


def dump(nemus: SharedNeMuS, negatives=()) -> dict:
    """The spaces <V, S, P, C> as a JSON-shaped dict with stable key order,
    for `dump-nemus` and diffing.  The negative predicate space holds the
    task's negative examples; occurrence indices follow file order, counted
    per constant and numbered separately for each polarity."""
    sym = nemus.symbols
    n_const = len(nemus.occurrences)
    bindings = [[] for _ in range(n_const)]
    positive = [[] for _ in range(sym.n_predicates)]
    clauses = []
    occ = [0] * n_const
    for code, fact in enumerate(nemus.bk.facts):
        inst = len(positive[fact.pred]) + 1
        args = []
        for pos, c in enumerate(fact.args, start=1):
            occ[c] += 1
            args.append([CONST_SPACE, c, occ[c], pos])
            bindings[c].append(_binding(PRED_SPACE, fact.pred, inst, pos, c))
        positive[fact.pred].append({"args": args, "bindings": [_binding(CLAUSE_SPACE, code, 1, 1, code)]})
        clauses.append({"code": code, "instances": [{"args": [[PRED_SPACE, fact.pred, inst, 1]], "bindings": []}]})

    negative = [[] for _ in range(sym.n_predicates)]
    occ = [0] * n_const
    for atom in negatives:
        args = []
        for pos, c in enumerate(atom.args, start=1):
            occ[c] += 1
            args.append([CONST_SPACE, c, occ[c], pos])
        negative[atom.pred].append({"args": args, "bindings": []})

    def space(instances) -> list:
        return [
            {"code": code, "name": sym.predicate_sig(code)[0], "arity": sym.predicate_sig(code)[1],
             "instances": insts}
            for code, insts in enumerate(instances)
        ]

    return {
        "variables": [],  # a ground BK binds no variable
        "constants": [
            {"code": code, "name": sym.constant_name(code), "bindings": bs}
            for code, bs in enumerate(bindings)
        ],
        "predicates": {"positive": space(positive), "negative": space(negative)},
        "clauses": clauses,
    }
