"""Inductive clause learning over a shared multi-space index.

The package splits into four layers:

* :mod:`nemus_icl.kb` — the KB file language: interning, parsing, rendering,
  and the task types it builds (``LearnTask``, ``InventionBias``);
* :mod:`nemus_icl.nemus` — the compiled KB the learner walks (beta returns
  a constant's facts; dump is the view of the paper's spaces);
* :mod:`nemus_icl.engine` — the learner (momentum pruning, anti-unification,
  recursion, predicate invention);
* :mod:`nemus_icl.oracle` — least-Herbrand-model verification and the
  brute-force enumerator used to cross-check the learner.
"""

from .engine import (
    Hypothesis,
    LearnResult,
    PreconditionFault,
    Stats,
    anti_unify,
    apply_bias,
    inductive_momentum,
    invent_auto,
    learn,
    try_recursion,
)
from .kb import (
    Atom,
    Clause,
    Directive,
    GroundAtom,
    InventionBias,
    KbError,
    KnowledgeBase,
    LearnTask,
    ParseError,
    SymbolTable,
    UnknownCode,
    ValidationError,
    Var,
    parse_hypothesis,
    parse_kb,
    render_clause,
    render_ground_atom,
    render_kb,
)
from .nemus import (
    ArityError,
    SharedNeMuS,
    UnknownInstance,
    atom_of,
    beta,
    compile_kb,
    dump,
    region_similarity,
)
from .oracle import (
    Bk,
    EnumCaps,
    RangeRestrictionFault,
    Verdict,
    clause_key,
    enumerate_hypotheses,
    least_model,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "ArityError", "Atom", "Bk", "Clause", "Directive", "EnumCaps",
    "GroundAtom", "Hypothesis", "InventionBias", "KbError",
    "KnowledgeBase", "LearnResult", "LearnTask", "ParseError",
    "PreconditionFault", "RangeRestrictionFault",
    "SharedNeMuS", "Stats", "SymbolTable", "UnknownCode",
    "UnknownInstance", "ValidationError", "Var",
    "Verdict", "anti_unify", "apply_bias", "atom_of",
    "beta", "clause_key", "compile_kb", "dump", "enumerate_hypotheses",
    "inductive_momentum", "invent_auto", "learn", "least_model",
    "parse_hypothesis", "parse_kb", "region_similarity", "render_clause",
    "render_ground_atom", "render_kb", "try_recursion", "verify",
]
