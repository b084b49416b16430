"""Bottom-up Herbrand oracle: least models, hypothesis verification, and a
brute-force hypothesis enumerator for equivalence testing.

The language is function-free, so the least Herbrand model is the finite
fixpoint of forward chaining.  A hypothesis set passes iff every positive
example lands in the model of BK plus the set and no negative does.

The BK is compiled once into a `Bk` (relations, a join index, the Herbrand
base's constants and arities) and shared by every least model computed over
it.  A rule whose body reads no predicate the program derives is flat: its
consequences depend on the BK alone (the splitting-set theorem, Lifschitz &
Turner, ICLP 1994), so it fires once per compiled BK and keeps its head
atoms.  Only the rules that read a derived predicate enter semi-naive
evaluation (Bancilhon & Ramakrishnan 1986), whose joins fetch each atom after
the delta atom through the index, as in Souffle (Jordan et al., CAV 2016).
Every clause compiles to one _Rule; a ground unit is a rule with an empty
body, flat by definition, whose one head atom is its consequence.  A clause's
pattern numbers its terms as slots by first occurrence; with its predicates
it is the clause's key up to variable renaming (clause_key).  Join plans and
the range-restriction check depend only on the pattern, so they are compiled
once per pattern and shared by every rule of that pattern, over every BK;
the check accepts a unit only when it is ground.  The plan from each body
position is generated, the first time it runs, as a Python function of
nested for loops over local variables, as Souffle generates C++ for its
relational plans (Scholz et al., CC 2016).  A plan names body positions,
slots and argument positions only; the function takes the rule's body
predicates and constants as arguments, so no predicate or constant enters
the generated source.  A Bk keeps the _Rule of each clause it has compiled,
so a clause that recurs over one BK is compiled once.

The examples are ground, so a verdict needs only the atoms they demand.  On a
BK with at least DEMAND_MIN_CONSTANTS constants, verify replaces the looped
rules with their generalized magic-set rewrite (Bancilhon, Maier, Sagiv &
Ullman, PODS 1986; Beeri & Ramakrishnan, JLP 1991), a program of ordinary
clauses seeded with one magic unit per example, and least_model evaluates it
like any other.  On smaller BKs the rewrite costs more than the whole model
saves, and verify evaluates the program as given.  Either way, verify calls
least_model once.

The enumerator judges many candidate sets after one prelude of bias
definitions (see enumerate_hypotheses): the definitions no candidate can
extend are fired into one base Bk per stream, the examples each flat pool
clause covers are found once per stream, and only a candidate whose looped
clauses have a derived atom to read needs a fixpoint and calls verify.
"""

from __future__ import annotations

import collections
import functools
import itertools
from typing import Iterator, NamedTuple, Optional

from .kb import Atom, Clause, GroundAtom, Var, atom_vars


class RangeRestrictionFault(Exception):
    """A rule head variable that never occurs in the body."""


class Bk:
    """Background knowledge compiled once for many least-model calls.

    Holds the relations (pred -> set of argument tuples), a per-predicate
    join index ((position, constant) -> argument tuples), and the constants
    and arities that feed the Herbrand-base bound.  The facts are never
    written after construction: a fixpoint copies the relations it derives
    into.  Clauses are compiled on first use and kept for the next call,
    each as its _Rule with the head atoms it fires over the BK alone.
    """

    def __init__(self, facts):
        self.facts = tuple(facts)  # input order; the witness walk indexes it
        self.relations: dict = {}
        self.arities: dict = {}
        for f in self.facts:
            self.relations.setdefault(f.pred, set()).add(f.args)
            self.arities[f.pred] = len(f.args)
        self.index: dict = {}
        _extend(self.relations, self.index, self.relations)  # indexes every fact
        self.constants = frozenset(c for rows in self.relations.values() for args in rows for c in args)
        self.atoms = frozenset(GroundAtom(p, args) for p, rows in self.relations.items() for args in rows)
        self._rules: dict = {}  # Clause -> _Rule

    def compiled(self, clause: Clause) -> _Rule:
        """The clause's _Rule, a ground unit's with an empty body; range
        restriction is checked by the rule's skeleton on first use.  A faulty
        clause is never kept, so it raises on every call."""
        rule = self._rules.get(clause)
        if rule is None:
            rule = _Rule(clause)
            if not rule.skeleton.range_restricted:
                raise RangeRestrictionFault(clause)
            self._rules[clause] = rule
        return rule


def _compiled(bk) -> Bk:
    """bk itself when already compiled, else the Bk of a fact iterable."""
    return bk if isinstance(bk, Bk) else Bk(bk)


class Verdict(NamedTuple):
    ok: bool
    failed: Optional[GroundAtom]  # the example that broke verification

    def __str__(self):
        return "Verified" if self.ok else "Fails"


VERIFIED = Verdict(True, None)


def _range_restricted(head, body) -> bool:
    return atom_vars(head) <= set().union(*map(atom_vars, body))


# GroundAtom(pred, args) from a (pred, args) pair by tuple.__new__, which runs
# in C; a NamedTuple's own __new__ is a Python function, and least_model and
# _Rule.bk_consequences build one atom per derived fact
_ground_atom = functools.partial(tuple.__new__, GroundAtom)


def clause_key(clause: Clause) -> tuple:
    """The clause up to variable renaming: its predicates, head first, its
    pattern, and a (slot, constant) pair per constant.  The pattern numbers
    the clause's terms as slots by first occurrence and holds each atom's
    slot tuple; a _Rule is compiled from this key.  Two clauses get the same
    key exactly when they are alphabetic variants (Plotkin 1970), which is
    exactly when render_clause gives them the same text."""
    slot: dict = {}
    preds, pattern, constants = [], [], []
    # plain loops: the enumerator keys every ordering of every body, and
    # nested comprehensions took 1.6x as long per key on Python 3.11
    for atom in (clause.head, *clause.body):
        preds.append(atom.pred)
        args = []
        for t in atom.args:
            s = slot.get(t)
            if s is None:
                s = slot[t] = len(slot)
                if not isinstance(t, Var):
                    constants.append((s, t))
            args.append(s)
        pattern.append(tuple(args))
    return tuple(preds), tuple(pattern), tuple(constants)


class _Skeleton:
    """What every rule with one variable pattern shares: its range
    restriction and its generated joins, one per body position.  The
    variable pattern is the pattern of clause_key, each atom's slot tuple,
    head first, plus the slots that hold constants.  A join is generated the
    first time it runs, so a flat rule, which only ever joins from its first
    body atom, generates one, and a rule that is not range-restricted, which
    never runs, generates none; nor does a ground unit, which has no body."""

    def __init__(self, atoms: tuple, constant_slots: tuple):
        self.atoms = atoms
        self.constant_slots = constant_slots
        self.range_restricted = set().union(*atoms[1:]).issuperset(set(atoms[0]).difference(constant_slots))
        self.joins: list = [None] * (len(atoms) - 1)

    def join(self, first: int):
        """join(rows, env, preds, relations, index, out), shared by every rule
        of the pattern over every BK: adds to `out` the head tuple of every
        match of the body, body atom `first` drawing its argument tuples from
        `rows`.  env holds the rule's constants at their slots and preds its
        body predicates by position."""
        join = self.joins[first]
        if join is None:
            join = self.joins[first] = _generate(self.atoms, self.constant_slots, first)
        return join


def _plan(body, constant_slots, first: int) -> tuple:
    """The steps that join `body` from body atom `first`.  A step is (body
    position, key, binds, tests), each a (position, slot) pair or tuple of
    them: the index lookup (None scans the relation), a variable's first
    occurrence, and an argument that must equal its bound slot.  Each atom
    after the first is the first remaining one with a bound argument,
    fetched through the index on that argument."""
    bound = set(constant_slots)
    remaining = [j for j in range(len(body)) if j != first]
    steps = []
    j = first
    while True:
        key = None
        if steps:
            key = next(((pos, s) for pos, s in enumerate(body[j]) if s in bound), None)
        binds, tests = [], []
        for pos, s in enumerate(body[j]):
            if s not in bound:
                binds.append((pos, s))
                bound.add(s)
            elif (pos, s) != key:
                tests.append((pos, s))
        steps.append((j, key, tuple(binds), tuple(tests)))
        if not remaining:
            return tuple(steps)
        j = next((j for j in remaining if any(s in bound for s in body[j])), remaining[0])
        remaining.remove(j)


_NO_INDEX: dict = {}


def _tuple(names) -> str:
    """The source of a tuple of the names: a for target or a head."""
    names = list(names)
    return f"({', '.join(names)}{',' if len(names) == 1 else ''})"


def _generate(atoms: tuple, constant_slots: tuple, first: int):
    """The plan from body atom `first` as a Python function of nested for
    loops, one per step, with slot s in the local s<s>.  On entry it reads the
    constants' slots from env, and each later step's relation, or index when
    the step has a key, through preds.  Each step unpacks an argument tuple,
    which binds its new variables and puts each tested argument in a local
    t<step>_<position>, then runs its tests; the key argument, which the
    lookup matched, is not read.  Only plan integers (slots, body and
    argument positions) enter the source; no predicate or constant does."""
    head, body = atoms[0], atoms[1:]
    steps = _plan(body, constant_slots, first)
    entry = [f"s{s} = env[{s}]" for s in constant_slots] + ["add = out.add"]
    loops = []
    for k, (j, key, binds, tests) in enumerate(steps):
        pad = "    " * (k + 1)
        if not k:
            rows = "rows"
        elif key is None:
            entry.append(f"r{k} = relations.get(preds[{j}], ())")
            rows = f"r{k}"
        else:
            entry.append(f"x{k} = index.get(preds[{j}], _NO_INDEX)")
            rows = f"x{k}.get(({key[0]}, s{key[1]}), ())"
        names = ["_"] * len(body[j])
        for pos, s in binds:
            names[pos] = f"s{s}"
        for pos, _ in tests:
            names[pos] = f"t{k}_{pos}"
        loops.append(f"{pad}for {_tuple(names)} in {rows}:")
        if tests:
            loops.append(f"{pad}    if {' or '.join(f't{k}_{pos} != s{s}' for pos, s in tests)}:")
            loops.append(f"{pad}        continue")
    loops.append("    " * (len(steps) + 1) + f"add({_tuple(f's{s}' for s in head)})")
    source = "\n".join(["def join(rows, env, preds, relations, index, out):", *("    " + line for line in entry), *loops])
    namespace = {"_NO_INDEX": _NO_INDEX}
    exec(source, namespace)
    return namespace["join"]


# variable pattern -> _Skeleton; bounded by the distinct patterns of the
# rules compiled in this process
_SKELETONS: dict = {}


class _Rule:
    """A clause compiled: its constants by slot (the environment), its body
    predicates by position, and the _Skeleton every clause of its pattern
    shares, whose joins it runs with its environment and predicates.  A
    ground unit is a rule with an empty body.  The rule keeps its head atoms
    over the BK it is compiled for, on first use."""

    def __init__(self, rule: Clause):
        self.clause = rule
        preds, pattern, constants = clause_key(rule)
        self.pred, self.preds = preds[0], preds[1:]
        self.env = dict(constants)
        self.body_preds = frozenset(self.preds)
        key = (pattern, tuple(self.env))
        skeleton = _SKELETONS.get(key)
        if skeleton is None:
            skeleton = _SKELETONS[key] = _Skeleton(*key)
        self.skeleton = skeleton
        self.fired: Optional[frozenset] = None  # see bk_consequences

    def bk_consequences(self, bk: Bk) -> frozenset:
        """The head atoms of every match over the BK alone: all the rule adds
        to a program that derives none of its body predicates.  A _Rule
        belongs to one Bk, and so does this cache."""
        if self.fired is None:
            if self.preds:
                out: set = set()
                rows = bk.relations.get(self.preds[0], ())
                self.skeleton.join(0)(rows, self.env, self.preds, bk.relations, bk.index, out)
            else:  # a ground unit
                out = {self.clause.head.args}
            self.fired = frozenset(map(_ground_atom, zip(itertools.repeat(self.pred), out)))
        return self.fired


def _extend(relations, index, fresh: dict):
    """Add the fresh argument tuples to the relations and the index."""
    for p, rows in fresh.items():
        relations[p] |= rows
        entries = index.setdefault(p, {})
        for args in rows:
            for key in enumerate(args):
                entries.setdefault(key, []).append(args)


def _split(bk: Bk, clauses) -> tuple:
    """(rules, derived predicates, flat atoms, looped rules) of a program
    over the compiled BK.  The clauses are compiled in program order, so a
    RangeRestrictionFault names the first offending clause.  A flat rule,
    whose body reads no predicate that the program derives, contributes its
    kept matches over the BK, a ground unit its head; only the looped rules
    need a fixpoint."""
    rules = [bk.compiled(clause) for clause in clauses]
    derived_preds = {rule.pred for rule in rules}
    fired, looped = [], []
    for rule in rules:
        if rule.body_preds.isdisjoint(derived_preds):
            fired.append(rule.bk_consequences(bk))
        else:
            looped.append(rule)
    return rules, derived_preds, fired, looped


def _hb_size(bk: Bk, atoms) -> int:
    """Size of the Herbrand base of the BK and the atoms of a program's
    clauses.  The fixpoint's rounds are bounded by it; the cap is a
    tripwire, not a knob, and counts every rule, the flat ones too."""
    arities = dict(bk.arities)
    constants = set()
    for atom in atoms:
        arities[atom.pred] = len(atom.args)
        constants.update(t for t in atom.args if not isinstance(t, Var))
    n_constants = len(bk.constants) + len(constants - bk.constants)
    return sum(max(1, n_constants) ** a for a in arities.values())


def _seeded(bk: Bk, derived_preds, atoms) -> tuple:
    """(relations, index) of the BK plus the atoms.  Copy-on-write: only the
    derived predicates get their own relation and index; every other one is
    the BK's, shared and never written."""
    relations = dict(bk.relations)
    index = dict(bk.index)
    for p in derived_preds:
        relations[p] = set(bk.relations.get(p, ()))
        index[p] = {key: list(rows) for key, rows in bk.index.get(p, _NO_INDEX).items()}
    fresh: dict = {}
    for atom in atoms:
        if atom.args not in relations[atom.pred]:
            fresh.setdefault(atom.pred, set()).add(atom.args)
    _extend(relations, index, fresh)
    return relations, index


def _fixpoint(looped, relations, index, hb_size):
    """Semi-naive (delta-driven) evaluation of the looped rules over the
    relations and index, which it extends in place.  hb_size() is the
    Herbrand-base bound on the rounds, computed when a fixpoint first reaches
    round 3: a looped program has an arity, so the bound is at least 1 and
    the first two rounds cannot exceed it."""
    delta = None  # the first round applies every looped rule to the whole model
    rounds, max_rounds = 0, 2
    while True:
        rounds += 1
        if rounds == 3:
            max_rounds = hb_size() + 1
        if rounds > max_rounds:
            raise RuntimeError("fixpoint exceeded the Herbrand-base bound")
        derived: dict = {}
        for rule in looped:
            out = derived.setdefault(rule.pred, set())
            for i, pred in enumerate(rule.preds):
                if delta is None:
                    if i:
                        break
                    rows = relations.get(pred, ())
                else:
                    rows = delta.get(pred)
                    if not rows:
                        continue
                rule.skeleton.join(i)(rows, rule.env, rule.preds, relations, index, out)
        delta = {}
        for p, rows in derived.items():
            rows -= relations[p]
            if rows:
                delta[p] = rows
        if not delta:
            break
        _extend(relations, index, delta)


def least_model(bk, clauses) -> frozenset:
    """Least fixpoint of the immediate-consequence step over the compiled BK.

    bk is a compiled Bk or an iterable of facts.  Every head variable of a
    rule must occur in its body, so a unit clause is ground and counts as a
    fact.  The flat rules, the units among them, add their kept atoms.  Only
    the looped rules run the semi-naive loop with indexed joins, seeded with
    the flat rules' atoms; without them no fixpoint runs."""
    bk = _compiled(bk)
    rules, derived_preds, fired, looped = _split(bk, clauses)
    if not looped:
        return bk.atoms.union(*fired)
    relations, index = _seeded(bk, derived_preds, itertools.chain(*fired))
    _fixpoint(looped, relations, index, lambda: _hb_size(bk, itertools.chain.from_iterable(
        (rule.clause.head, *rule.clause.body) for rule in rules)))
    return bk.atoms.union(*(map(_ground_atom, zip(itertools.repeat(p), relations[p])) for p in derived_preds))


# verify answers a BK with at least this many constants by demand.  On small
# recursive programs the rewrite costs more than the whole model saves:
# ungated, an in-process pass over the corpus benchmark workload's KBs took
# 1.2x the CPU and one over the enumerate workload's 3.0x.  For a recursive
# path program the two break even at 16-20 constants on chains and at 20-28
# on random digraphs of 1.5 edges per node; the gate keeps a margin.
DEMAND_MIN_CONSTANTS = 32


def _magic_rewrite(looped, demanded) -> list:
    """Generalized magic sets (Bancilhon, Maier, Sagiv & Ullman, PODS 1986;
    Beeri & Ramakrishnan, JLP 1991) over the looped clauses, adorned from the
    demanded examples, all bound, and passing bindings left to right.

    Returns the clauses that take the looped ones' place: a ground magic unit
    per demanded example, and for each (predicate, adornment) pair reached,
    the magic and adorned rules of the predicate's clauses plus a copy clause
    ("a", p, adornment)(V...) :- ("m", p, adornment)(bound V...), p(V...),
    which brings in the demanded atoms of p that the BK and the rest of the
    program hold.  The adorned predicate of p is ("a", p, adornment) and its
    magic predicate ("m", p, adornment): tuples, which never equal an int
    predicate code.  The magic guard goes last in the magic and adorned
    rules, so a join plan reaches it as an indexed test, and first in a copy
    clause, so p, which the loop never extends, is read through the index at
    the demanded bindings."""
    by_head: dict = {}
    for clause in looped:
        by_head.setdefault(clause.head.pred, []).append(clause)
    out = [Clause(Atom(("m", e.pred, "b" * len(e.args)), e.args), ()) for e in demanded]
    adorned = list(dict.fromkeys((e.pred, "b" * len(e.args)) for e in demanded))
    for p, adornment in adorned:  # grows as new adornments are met
        copy = tuple(Var(i) for i in range(len(adornment)))
        guard = Atom(("m", p, adornment), tuple(v for v, a in zip(copy, adornment) if a == "b"))
        out.append(Clause(Atom(("a", p, adornment), copy), (guard, Atom(p, copy))))
        for clause in by_head[p]:
            head = clause.head
            guard = Atom(("m", p, adornment), tuple(t for t, a in zip(head.args, adornment) if a == "b"))
            bound = {t.code for t in guard.args if isinstance(t, Var)}
            body = []
            for atom in clause.body:
                if atom.pred in by_head:
                    pattern = "".join("f" if isinstance(t, Var) and t.code not in bound else "b"
                                      for t in atom.args)
                    demand = tuple(t for t, a in zip(atom.args, pattern) if a == "b")
                    out.append(Clause(Atom(("m", atom.pred, pattern), demand), (*body, guard)))
                    if (atom.pred, pattern) not in adorned:
                        adorned.append((atom.pred, pattern))
                    atom = Atom(("a", atom.pred, pattern), atom.args)
                body.append(atom)
                bound |= atom_vars(atom)
            out.append(Clause(Atom(("a", p, adornment), head.args), (*body, guard)))
    return out


def _verdict(holds, positives, negatives) -> Verdict:
    """The first positive that does not hold, else the first negative that
    does, else VERIFIED."""
    for e in positives:
        if not holds(e):
            return Verdict(False, e)
    for e in negatives:
        if holds(e):
            return Verdict(False, e)
    return VERIFIED


def verify(bk, hypothesis, positives, negatives) -> Verdict:
    """Verified iff every positive is in least_model(bk + hypothesis) and no
    negative is.  bk is a compiled Bk or an iterable of facts; ground unit
    clauses in the hypothesis count as facts.  On a BK with at least
    DEMAND_MIN_CONSTANTS constants, the looped rules are replaced by their
    magic-set rewrite, and an example they define is read from its adorned
    all-bound predicate in the model of the rewritten program.  Either way
    a RangeRestrictionFault names the first offending clause in order."""
    clauses = list(hypothesis)
    bk = _compiled(bk)
    heads = ()
    if len(bk.constants) >= DEMAND_MIN_CONSTANTS:
        looped = [rule.clause for rule in _split(bk, clauses)[-1]]
        heads = {clause.head.pred for clause in looped}
        demanded = [e for e in (*positives, *negatives) if e.pred in heads]
        clauses = [c for c in clauses if c not in looped] + _magic_rewrite(looped, demanded)
    model = least_model(bk, clauses)
    return _verdict(lambda e: (GroundAtom(("a", e.pred, "b" * len(e.args)), e.args) if e.pred in heads else e)
                    in model, positives, negatives)


# --- brute-force enumeration ------------------------------------------------


class EnumCaps(NamedTuple):
    max_body: int = 2
    max_clauses: int = 2
    max_vars: int = 4


def _connected(head, body) -> bool:
    """Every body atom reachable from the head through shared variables."""
    remaining = list(body)
    reached = atom_vars(head)
    while remaining:
        for atom in remaining:
            if atom_vars(atom) & reached:
                reached |= atom_vars(atom)
                remaining.remove(atom)
                break
        else:
            return False
    return True


def _body_pool(preds_with_arity, variables):
    for pred, arity in preds_with_arity:
        for args in itertools.product(variables, repeat=arity):
            yield Atom(pred, args)


def _base(bk: Bk, target, definitions) -> tuple:
    """(base, reached): the BK with every bias definition that no candidate
    can reach fired into it, and the definitions that stay in each verified
    program.  definitions holds one tuple per bias, in bias order.  A
    definition fires when its source is settled: not the target, and not the
    head of a definition that is reached or still to come, so neither a
    candidate nor a reached definition can add to what it reads.  The fired
    definitions of one bias join the BK built so far, whose facts their
    consequences then extend."""
    unsettled = collections.Counter(d.head.pred for defs in definitions for d in defs)
    unsettled[target] += 1
    base, reached = bk, []
    for defs in definitions:
        fired = [d for d in defs if not unsettled[d.body[0].pred]]
        reached += [d for d in defs if unsettled[d.body[0].pred]]
        if fired:
            base = Bk(itertools.chain(base.facts, *(base.compiled(d).bk_consequences(base) for d in fired)))
            unsettled.subtract(d.head.pred for d in fired)
    return base, tuple(reached)


def enumerate_hypotheses(bk, task, caps: EnumCaps, symbols) -> Iterator:
    """Exhaustive, deterministic stream of (clause set, verdict) within caps.

    The clause language is the anti-unified one the learner emits: target-head
    clauses with variable-only connected, range-restricted bodies, plus ground
    unit target clauses as the body-0 stratum (positives excluded: the example
    itself is a vacuous hypothesis).  Bias definition clauses, when present,
    are a fixed prelude counted against the clause cap.

    Every candidate derives only the target, so a bias definition whose
    source reads neither the target nor, through other biases, an invented
    predicate that does, has the same consequences in every candidate's
    program (the splitting-set theorem, Lifschitz & Turner, ICLP 1994).
    Those definitions are fired into one base Bk for the stream; the rest,
    reached, stay in each candidate's program.  By the same theorem a pool
    clause reading neither the target nor a reached head adds the same atoms
    to every program; its coverage, the examples among them, is found on
    first need, once per stream (Progol's cover sets, Muggleton 1995).  Every
    other clause, and every reached definition, reads a predicate the
    candidate derives, so none fires unless the base or a flat clause holds
    an atom of one; a reached definition derives no example.  A candidate is
    verified only when it holds such a clause and there is such an atom; any
    other is judged by the union of its clauses' coverage and the base's.
    Each row still lists the whole prelude.
    """
    _, target_arity = symbols.predicate_sig(task.target)
    head = Atom(task.target, tuple(Var(i) for i in range(target_arity)))
    variables = [Var(i) for i in range(caps.max_vars)]

    definitions = [bias.definitions(symbols.predicate_sig(bias.invented)[1]) for bias in task.biases]
    prelude = tuple(itertools.chain.from_iterable(definitions))
    budget = caps.max_clauses - len(prelude)
    if budget <= 0:
        return

    bk = _compiled(bk)
    body_preds = sorted(bk.relations)
    for bias in task.biases:
        if bias.invented not in body_preds:
            body_preds.append(bias.invented)
    # a target atom in a body is satisfiable only with target facts around
    # (then the target is in body_preds already) or a second clause to bottom
    # the recursion out
    if task.target not in body_preds and budget >= 2:
        body_preds.append(task.target)
    preds_with_arity = [(p, symbols.predicate_sig(p)[1]) for p in body_preds]

    pool = []
    for args in itertools.product(range(symbols.n_constants), repeat=target_arity):
        if GroundAtom(task.target, args) not in task.positives:
            pool.append(Clause(Atom(task.target, args), ()))

    atoms = list(_body_pool(preds_with_arity, variables))
    seen = set()
    for size in range(1, caps.max_body + 1):
        # one body per multiset of atoms, in the order itertools.product first
        # meets it: at its sorted index tuple, the least of its permutations.
        # The filters come first: the renamings the key quotients by fix the
        # head's variables, so neither filter changes within one key.
        for body in itertools.combinations_with_replacement(atoms, size):
            if not (_range_restricted(head, body) and _connected(head, body)):
                continue
            canon = min(clause_key(Clause(head, p)) for p in itertools.permutations(body))
            if canon in seen:
                continue
            seen.add(canon)
            pool.append(Clause(head, tuple(body)))

    base, reached = _base(bk, task.target, definitions)
    derived = {task.target, *(d.head.pred for d in reached)}
    bits = {e: 1 << i for i, e in enumerate((*task.positives, *task.negatives))}
    # two bits past the examples: an atom of a derived predicate, and a looped
    # clause.  A flat clause's mask is -1 until a row needs it, so a --limit
    # stream joins no more clauses than verify would
    feeds = 1 << len(task.positives) + len(task.negatives)
    fixpoint = feeds | feeds << 1

    def covered(atoms, derives: bool) -> int:
        return sum(bit for e, bit in bits.items() if e in atoms) | (feeds if derives else 0)

    masks = [-1 if derived.isdisjoint([a.pred for a in c.body]) else feeds << 1 for c in pool]
    base_mask = covered(base.atoms, not derived.isdisjoint(base.relations))
    by_coverage = functools.cache(lambda mask: _verdict(lambda e: mask & bits[e], task.positives, task.negatives))
    for size in range(1, budget + 1):
        for picked in itertools.combinations(range(len(pool)), size):
            combo = tuple([pool[i] for i in picked])
            mask = base_mask
            for i in picked:
                if masks[i] < 0:
                    atoms = base.compiled(pool[i]).bk_consequences(base)
                    masks[i] = covered(atoms, bool(atoms))
                mask |= masks[i]
            if mask & fixpoint == fixpoint:
                yield prelude + combo, verify(base, reached + combo, task.positives, task.negatives)
            else:
                yield prelude + combo, by_coverage(mask)
