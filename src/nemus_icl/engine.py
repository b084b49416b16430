"""The learner: a breadth-first walk over constant bindings from the positive
example, pruned by inductive momentum against the negative example's walk,
generalized by anti-unification, and closed directly, by recursion, or by
predicate invention.

Search discipline, per state (one open hypothesis branch):
  * candidates come from beta(c) for each frontier constant c, in binding
    order (file order of facts);
  * a candidate already used on this branch is skipped (theta_inv is
    injective, so ground identity is the right duplicate test);
  * inductive momentum collides the candidate against every binding of the
    paired negative-walk constants; candidates hooked directly at a head
    example constant are exempt (the momentum pairing starts at the mates);
  * survivors are bias-rewritten, anti-unified, then closed or extended.

A second exhaustive pass over connected ground witnesses runs only when the
narrow walk's stream of verified sets ends empty; it guarantees that any
single connected range-restricted clause solution within the body cap is found.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from itertools import chain, product
from typing import Callable, Optional

from .kb import Atom, Clause, GroundAtom, LearnTask, Var, atom_vars, render_clause, render_ground_atom
# atom_of is unused here; perfbench/tracer.py wraps it by the name engine.atom_of
from .nemus import SharedNeMuS, atom_of, beta, region_similarity
from .oracle import Verdict, clause_key, verify

CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"
NOT_APPLIED = "n/a"


class PreconditionFault(Exception):
    pass


class AntiSubstitution:
    """Injective constant->variable map (theta inverse), injective both ways."""

    def __init__(self, mapping: Optional[dict] = None):
        self.mapping = dict(mapping) if mapping else {}
        self.inverse = {v: c for c, v in self.mapping.items()}

    def get(self, const: int) -> Optional[Var]:
        return self.mapping.get(const)

    def bind(self, const: int, var: Var):
        if const in self.mapping or var in self.inverse:
            raise PreconditionFault(f"binding {const}->{var} breaks injectivity")
        self.mapping[const] = var
        self.inverse[var] = const

    def copy(self) -> "AntiSubstitution":
        return AntiSubstitution(self.mapping)

    def __contains__(self, const: int) -> bool:
        return const in self.mapping

    def __len__(self):
        return len(self.mapping)


@dataclass
class Hypothesis:
    """An open hypothesis branch with its walk bookkeeping."""

    head: Atom
    body: tuple
    theta_inv: AntiSubstitution
    frontier: tuple = ()  # constants whose bindings extend this branch next
    pairs: dict = field(default_factory=dict)  # positive const -> negative counterparts
    used: frozenset = frozenset()  # ground atoms consumed on this branch
    fresh: int = 0  # next variable code

    def body_vars(self) -> set:
        return set().union(*map(atom_vars, self.body))


@dataclass
class Stats:
    candidates: int = 0
    pruned: int = 0
    dropped: int = 0
    frontier_peak: int = 0


@dataclass
class LearnResult:
    hypotheses: tuple  # of clause tuples; every set passes the oracle on the task
    invented: tuple  # predicate codes created and used by the hypotheses
    stats: Stats
    rejected: tuple = ()  # (clause tuple, failing example) for dropped emissions


# --- walk primitives: momentum, generalization, bias, invention, recursion ----


def inductive_momentum(l_plus, l_minus, k: int, m: int) -> str:
    """Inconsistent exactly when both atoms carry the same predicate and the
    walk constants k and m sit at the same (first) argument index."""
    if k not in l_plus.args:
        raise PreconditionFault(f"constant {k} does not occur in the positive atom")
    if m not in l_minus.args:
        raise PreconditionFault(f"constant {m} does not occur in the negative atom")
    if l_plus.pred == l_minus.pred and l_plus.args.index(k) == l_minus.args.index(m):
        return INCONSISTENT
    return CONSISTENT


def anti_unify(atom, theta_inv: AntiSubstitution, fresh: int):
    """Replace constants by their mapped variables, minting fresh ones for
    unseen constants.  Returns (generalized atom, extended theta, next fresh);
    the input theta is never mutated."""
    out = theta_inv
    terms = []
    for c in atom.args:
        v = out.get(c)
        if v is None:
            if out is theta_inv:
                out = theta_inv.copy()
            v = Var(fresh)
            fresh += 1
            out.bind(c, v)
        terms.append(v)
    return Atom(atom.pred, tuple(terms)), out, fresh


def apply_bias(atom, biases):
    """The atom with its predicate rewritten to the one the first bias naming
    it as a source invents; the atom itself when no bias names it."""
    for bias in biases:
        if atom.pred in bias.sources:
            return type(atom)(bias.invented, atom.args)
    return atom


def invent_auto(open_hyp: Hypothesis, fresh_pred: Callable[[], int]) -> Atom:
    """The atom inv(Z, Y) that closes an at-cap open hypothesis: a fresh
    predicate bridging the variable Z of its first frontier constant to the
    head's Y.  A hypothesis it closed links Y, so it is refused here."""
    if len(open_hyp.head.args) != 2:
        raise PreconditionFault("invention bridges binary targets only")
    y = open_hyp.head.args[1]
    if y.code in open_hyp.body_vars():
        raise PreconditionFault("head argument Y already linked")
    if not open_hyp.frontier:
        raise PreconditionFault("no frontier constant to bridge from")
    return Atom(fresh_pred(), (open_hyp.theta_inv.get(open_hyp.frontier[0]), y))


def try_recursion(open_hyp: Hypothesis, next_atom, nemus: SharedNeMuS, tau: float,
                  hook: Optional[int] = None, sources_of: Optional[dict] = None):
    """When the walk meets the last body atom's predicate again and that
    predicate's argument regions overlap (similarity >= tau), return the
    (base, recursive) clause pair; None means keep chaining."""
    if not open_hyp.body:
        raise PreconditionFault("recursion needs a nonempty body")
    pred = next_atom.pred
    if pred != open_hyp.body[-1].pred:
        raise PreconditionFault("candidate is not in the same concept region")
    if len(open_hyp.head.args) != 2 or len(next_atom.args) != 2:
        return None
    sources = (sources_of or {}).get(pred)
    if region_similarity(nemus, pred, sources) < tau:
        return None
    y = open_hyp.head.args[1]
    anchor = hook if hook is not None else open_hyp.frontier[0]
    z_last = open_hyp.theta_inv.get(anchor)
    if z_last is None or z_last in open_hyp.head.args:
        return None  # the walk looped back onto a head constant; no chain tip to close
    base_body = tuple(
        Atom(a.pred, tuple(y if t == z_last else t for t in a.args)) for a in open_hyp.body
    )
    base = Clause(open_hyp.head, base_body)
    recursive = Clause(open_hyp.head, open_hyp.body + (Atom(open_hyp.head.pred, (z_last, y)),))
    return base, recursive


# --- the learner -------------------------------------------------------------


def _head(pred: int, example: GroundAtom):
    """The example anti-unified as a head of `pred`: its constants become X,
    Y, ... in first-use order.  Returns (head atom, theta inverse, next fresh)."""
    return anti_unify(GroundAtom(pred, example.args), AntiSubstitution(), 0)


def _lockstep(pairs: dict, pos_atom, neg_atoms, skip=None) -> dict:
    """Pair each constant of the positive-walk atom with the constant at the
    same position of each negative-walk atom, the skip constant excepted;
    counterparts keep first-seen order.  The input map is never mutated."""
    out = pairs
    for neg in neg_atoms:
        for cp, cm in zip(pos_atom.args, neg.args):
            if cp != skip and cm not in out.get(cp, ()):
                if out is pairs:
                    out = dict(pairs)
                out[cp] = out.get(cp, ()) + (cm,)
    return out


def _clause_preds(clauses) -> set:
    out = set()
    for cl in clauses:
        out.add(cl.head.pred)
        out.update(a.pred for a in cl.body)
    return out


class _Walk:
    """Search state shared across one learn() call, the invention sub-walks
    included: counters, memos, rejections, taken predicates."""

    def __init__(self, nemus: SharedNeMuS, task: LearnTask, trace, include_pruned: bool):
        self.nemus = nemus
        self.task = task
        self.verdicts: dict = {}  # (clause set, positives, negatives) -> Verdict
        self.keys: dict = {}  # Clause -> clause_key
        self.sym = nemus.symbols
        self.trace = trace
        self.include_pruned = include_pruned
        self.stats = Stats()
        self.rejected = []
        self.sources_of = {b.invented: b.sources for b in task.biases}
        # codes an auto-invented predicate must not collide with; re-running
        # learn on the same symbol table reuses inv_N names deterministically
        self.inv_taken = set(nemus.bk.relations)
        self.inv_taken.add(task.target)
        for b in task.biases:
            self.inv_taken.add(b.invented)
            self.inv_taken.update(b.sources)

    # -- plumbing --

    def emit_trace(self, frontier, candidate, imu, action, phase=1):
        """Send one record to the trace; the candidate (a GroundAtom, a Clause
        or a label) is rendered only when there is a trace to read it."""
        if self.trace is not None:
            if isinstance(candidate, GroundAtom):
                candidate = render_ground_atom(candidate, self.sym)
            elif isinstance(candidate, Clause):
                candidate = render_clause(candidate.head, candidate.body, self.sym)
            rec = {
                "phase": phase,
                "frontier": None if frontier is None else self.sym.constant_name(frontier),
                "candidate": candidate,
                "imu": imu,
                "action": action,
            }
            self.trace(rec)

    def fresh_pred(self) -> int:
        i = 0
        while True:
            code = self.sym.intern_predicate(f"inv_{i}", 2)
            i += 1
            if code not in self.inv_taken:
                self.inv_taken.add(code)
                return code

    def verdict(self, clauses, positives, negatives) -> Verdict:
        """The oracle's verdict on the clause set; the walk meets many sets
        more than once, so it is memoised."""
        key = (frozenset(clauses), positives, negatives)
        verdict = self.verdicts.get(key)
        if verdict is None:
            verdict = self.verdicts[key] = verify(self.nemus.bk, clauses, positives, negatives)
        return verdict

    def set_key(self, clauses) -> frozenset:
        """The clause set up to variable renaming of each clause: equal
        exactly when the rendered clause sets are equal.  Verified sets
        repeat their clauses, so each clause's key is memoised."""
        keys = self.keys
        for c in clauses:
            if c not in keys:
                keys[c] = clause_key(c)
        return frozenset([keys[c] for c in clauses])

    def attach_defs(self, clauses) -> tuple:
        """The clauses after the definitions of every bias-invented predicate
        they read, directly or through another definition, in bias order.  A
        bias's sources name only earlier biases, so one backward pass closes
        the set."""
        used = _clause_preds(clauses)
        reached = []
        for bias in reversed(self.task.biases):
            if bias.invented in used:
                used.update(bias.sources)
                reached.append(bias.definitions(self.sym.predicate_sig(bias.invented)[1]))
        return tuple(chain.from_iterable(reversed(reached))) + tuple(clauses)

    def colliders(self, cand, hook: int, pairs: dict):
        """The negative-walk atoms the candidate collides with at its hook:
        the bindings of the hook's negative counterparts that inductive
        momentum finds inconsistent with it, in pairing then binding order."""
        for m in pairs.get(hook, ()):
            for l_minus in beta(self.nemus, m):
                if inductive_momentum(cand, l_minus, hook, m) == INCONSISTENT:
                    yield l_minus

    # -- one positive example --

    def learn_positive(self, e_pos: GroundAtom, target: int, negatives: tuple, allow_invention=True):
        """Narrow walk for one positive example of `target` against the
        negatives; yields each newly verified set, in discovery order."""
        seen = set()  # set_key of every set yielded

        head, theta, fresh = _head(target, e_pos)
        head_vars = atom_vars(head)
        head_consts = set(e_pos.args)
        binary = len(e_pos.args) == 2
        root = Hypothesis(
            head=head,
            body=(),
            theta_inv=theta,
            frontier=(e_pos.args[0],),
            pairs=_lockstep({}, e_pos, negatives),
            fresh=fresh,
        )

        def record(clauses, shown: Clause):
            full = tuple(dict.fromkeys(self.attach_defs(clauses)))
            verdict = self.verdict(full, (e_pos,), negatives)
            if not verdict.ok:
                self.stats.dropped += 1
                self.rejected.append((full, verdict.failed))
            self.emit_trace(None, shown, NOT_APPLIED, "verified" if verdict.ok else "dropped")
            if verdict.ok and (key := self.set_key(full)) not in seen:
                seen.add(key)
                yield full

        queue = deque([root])
        while queue:
            self.stats.frontier_peak = max(self.stats.frontier_peak, len(queue))
            state = queue.popleft()
            body_vars = state.body_vars()
            at_cap = len(state.body) + 1 >= self.task.max_body
            emitted_here = False
            extensions = []

            for hook in state.frontier:
                for cand in beta(self.nemus, hook):
                    self.stats.candidates += 1
                    if cand in state.used:
                        self.emit_trace(hook, cand, NOT_APPLIED, "duplicate")
                        continue
                    if hook in head_consts:
                        verdict = NOT_APPLIED  # seeds are exempt; pairing starts at the mates
                    elif any(self.colliders(cand, hook, state.pairs)):
                        verdict = INCONSISTENT
                        self.stats.pruned += 1
                        if not self.include_pruned:
                            self.emit_trace(hook, cand, verdict, "prune")
                            continue
                    else:
                        verdict = CONSISTENT
                    rewritten = apply_bias(cand, self.task.biases)
                    gen, theta2, fresh2 = anti_unify(rewritten, state.theta_inv, state.fresh)
                    mates = tuple(dict.fromkeys(c for c in cand.args if c != hook))

                    closes = head_vars <= body_vars | atom_vars(gen) if binary else not mates or at_cap
                    recursion = None
                    if binary and state.body and rewritten.pred == state.body[-1].pred:
                        recursion = try_recursion(
                            state, gen, self.nemus, self.task.tau, hook=hook, sources_of=self.sources_of
                        )

                    if closes:
                        emitted_here = True
                        self.emit_trace(hook, cand, verdict, "close")
                        clause = Clause(head, state.body + (gen,))
                        yield from record((clause,), clause)
                    if recursion is not None:
                        emitted_here = True
                        self.emit_trace(hook, cand, verdict, "recurse")
                        yield from record(recursion, recursion[1])
                    if closes or recursion is not None:
                        continue

                    if at_cap or not mates:
                        self.emit_trace(hook, cand, verdict, "dead-end")
                        continue
                    self.emit_trace(hook, cand, verdict, "extend")
                    # a consistent candidate has no colliders to lockstep along
                    pairs = state.pairs if verdict == CONSISTENT else \
                        _lockstep(state.pairs, cand, self.colliders(cand, hook, state.pairs), skip=hook)
                    extensions.append(
                        replace(
                            state,
                            body=state.body + (gen,),
                            theta_inv=theta2,
                            fresh=fresh2,
                            frontier=mates,
                            pairs=pairs,
                            used=state.used | {cand},
                        )
                    )

            if not binary and not emitted_here and not extensions and state.body:
                # frontier exhausted: a monadic chain closes as-is
                clause = Clause(head, state.body)
                yield from record((clause,), clause)
                emitted_here = True

            if (
                binary
                and allow_invention
                and not emitted_here
                and len(state.body) == self.task.max_body - 1
                and state.frontier
                and head.args[1].code not in body_vars
            ):
                yield from self._invent(state, head, e_pos, record)

            queue.extend(extensions)

    def _invent(self, state: Hypothesis, head, e_pos, record):
        closing = invent_auto(state, self.fresh_pred)
        inv_pred = closing.pred
        self.emit_trace(state.frontier[0], self.sym.render_sig(inv_pred), NOT_APPLIED, "invent")
        bridge = GroundAtom(inv_pred, (state.frontier[0], e_pos.args[1]))
        # read to the end first: a lazy read interleaves the sub-walk's trace
        # records with this walk's (tests/golden/corpus424.trace.jsonl)
        sub_sets = list(self.learn_positive(bridge, inv_pred, (), allow_invention=False))
        main = Clause(head, state.body + (closing,))
        for sub_clauses in sub_sets:
            yield from record((main,) + sub_clauses, main)

    # -- phase 2: exhaustive connected-witness fallback --

    def witness_walk(self, e_pos: GroundAtom):
        """Grow connected ground witnesses and anti-unify them; complete for
        single-clause solutions within max_body.  Yields at most one set: it
        stops at the first verified one.  No momentum, no bias, no invention
        here."""
        facts = self.nemus.bk.facts
        head_consts = set(e_pos.args)
        head, theta0, fresh0 = _head(self.task.target, e_pos)

        seeds = [(idx,) for idx, f in enumerate(facts) if set(f.args) & head_consts]
        queue = deque(seeds)
        seen = {frozenset(s) for s in seeds}

        while queue:
            self.stats.frontier_peak = max(self.stats.frontier_peak, len(queue))
            state = queue.popleft()
            consts = set()
            for i in state:
                consts.update(facts[i].args)

            if head_consts <= consts:
                theta, fresh, body = theta0, fresh0, []
                for i in state:
                    atom, theta, fresh = anti_unify(facts[i], theta, fresh)
                    body.append(atom)
                clause = Clause(head, tuple(body))
                verdict = self.verdict((clause,), (e_pos,), self.task.negatives)
                self.emit_trace(None, clause, NOT_APPLIED, "verified" if verdict.ok else "dropped", phase=2)
                if verdict.ok:
                    yield (clause,)
                    return
                self.stats.dropped += 1
                self.rejected.append(((clause,), verdict.failed))

            if len(state) >= self.task.max_body:
                continue
            reach = consts | head_consts
            for j, f in enumerate(facts):
                if j in state or not (set(f.args) & reach):
                    continue
                self.stats.candidates += 1
                nxt = state + (j,)
                fs = frozenset(nxt)
                if fs in seen:
                    continue
                seen.add(fs)
                queue.append(nxt)


def learn(nemus: SharedNeMuS, task: LearnTask, *, trace=None, include_pruned: bool = False) -> LearnResult:
    """Run the full search for each distinct positive example and merge the
    results.

    Every returned clause set passes the oracle on the whole task; an
    unreachable target yields an empty result with stats rather than an error.
    """
    walk = _Walk(nemus, task, trace, include_pruned)
    per_example = []
    for e_pos in dict.fromkeys(task.positives):  # a repeated positive is walked once
        per_example.append(list(walk.learn_positive(e_pos, task.target, task.negatives))
                           or list(walk.witness_walk(e_pos)))

    nonempty = [sets for sets in per_example if sets]
    uncovered = len(nonempty) < len(per_example)
    hypotheses: dict = {}
    if nonempty:
        # one choice per example, union.  Each set was verified against its
        # own positive and every negative, and the least model is monotone in
        # the program: the union derives each positive one of its sets derives,
        # and a union equal to one of its sets derives no negative.  So it is
        # re-verified only when a positive has no set, or when two sets
        # together might derive a negative.
        for combo in product(*nonempty):
            merged = tuple(dict.fromkeys(chain.from_iterable(combo)))
            if uncovered or (task.negatives and len(merged) > max(map(len, combo))):
                verdict = walk.verdict(merged, task.positives, task.negatives)
                if not verdict.ok:
                    walk.stats.dropped += 1
                    walk.rejected.append((merged, verdict.failed))
                    continue
            hypotheses.setdefault(walk.set_key(merged), merged)

    # a hypothesis predicate with no facts that is not the target was invented,
    # by a bias or by the walk
    bk_preds = nemus.bk.relations
    invented = []
    for clauses in hypotheses.values():
        for p in sorted(_clause_preds(clauses)):
            if p not in bk_preds and p != task.target and p not in invented:
                invented.append(p)

    return LearnResult(
        hypotheses=tuple(hypotheses.values()),
        invented=tuple(invented),
        stats=walk.stats,
        rejected=tuple(walk.rejected),
    )
