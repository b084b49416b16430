"""Input generators for the four benchmark workloads.

Every KB is built as a structure first (facts, target, examples) and only
then rendered to the KB file language, so the independent checker reads the
structure and never needs the program's parser.

The populations are fixed by their own generator seeds; ``--seed`` orders the
tasks of a pass and picks the sample of enumerate verdicts that is checked.
A fixed population keeps the cost of a pass, and the share of operations that
fail, the same on every seed.

Regenerate the KB files of a workload with

    python3 perfbench/workloads.py --workload corpus --seed 1 --out inputs/
"""

from __future__ import annotations

import argparse
import os
import random
from collections import deque
from dataclasses import dataclass, field

CORPUS_SIZE = 500  # the KBs of tests/corpus.py, seeds 0..499
MULTI_POS_SEEDS = range(24)  # population of two-positive KBs
CHAIN_SIZES = (20, 40, 60, 80)  # edge/2 chains, nodes per chain
GRID_SIZES = (4, 5, 6, 7, 8)  # right/down grids, nodes per side
GRAPH_MIN_DIST = 3  # positives need recursion: no 2-literal body reaches them
GRAPH_NEGATIVES = 2
# (kb, --max-clauses, --max-vars, --max-body, --limit); one pass takes a few seconds
ENUMERATE_CAPS = (
    ("family", 4, 3, 2, 6000),
    ("collision", 2, 3, 2, 16000),
    ("bridge", 2, 4, 2, 16000),
)


@dataclass
class Kb:
    name: str
    facts: list  # (pred, args) with args a tuple of constant names
    target: tuple  # (pred, arity)
    positives: list  # argument tuples of the target
    negatives: list = field(default_factory=list)
    invent: tuple = ()  # (pred/arity, [pred/arity, ...]) bias directive
    max_body: int = 3
    comment: str = ""

    def text(self) -> str:
        lines = [f"% {self.comment}"] if self.comment else []
        lines += [f"{p}({', '.join(a)})." for p, a in self.facts]
        pred, arity = self.target
        lines.append(f"#target {pred}/{arity}.")
        lines += [f"#positive {pred}({', '.join(e)})." for e in self.positives]
        lines += [f"#negative {pred}({', '.join(e)})." for e in self.negatives]
        if self.invent:
            invented, sources = self.invent
            lines.append(f"#invent {invented} from {', '.join(sources)}.")
        lines.append(f"#max_body {self.max_body}.")
        return "\n".join(lines) + "\n"


@dataclass
class Task:
    """One operation: learn a KB, or learn and brute-force enumerate it."""

    kb: Kb
    enumerate_args: tuple = ()  # extra enumerate flags; empty for learn-only


# --- the README KBs ----------------------------------------------------------


def readme_kbs() -> list:
    family = Kb(
        "family",
        [("father", ("jake", "alice")), ("mother", ("alice", "ted")),
         ("father", ("ted", "bob")), ("mother", ("matilda", "alice"))],
        ("ancestor", 2), [("jake", "bob")],
        invent=("parent/2", ["father/2", "mother/2"]), max_body=2,
    )
    collision = Kb(
        "collision",
        [("p1", ("a", "a1")), ("p1", ("b", "b1")), ("qj", ("bj", "a1")),
         ("qj", ("bj", "b1")), ("pk", ("ak", "a")), ("r1", ("c1", "ak")),
         ("s1", ("c1",))],
        ("p", 1), [("a",)], [("b",)], max_body=3,
    )
    bridge = Kb(
        "bridge",
        [("q1", ("a", "c")), ("r", ("c", "d")), ("u", ("d", "b"))],
        ("t", 2), [("a", "b")], max_body=2,
    )
    return [family, collision, bridge]


FAMILY_SOLUTION = frozenset({
    "parent(X,Y) :- father(X,Y).",
    "parent(X,Y) :- mother(X,Y).",
    "ancestor(X,Y) :- parent(X,Y).",
    "ancestor(X,Y) :- parent(X,Z0), ancestor(Z0,Y).",
})


# --- corpus-shaped KBs -------------------------------------------------------


def _corpus_facts(rng: random.Random):
    consts = [f"c{i}" for i in range(rng.randint(2, 8))]
    binary = [f"b{i}" for i in range(rng.randint(1, 5))]
    unary = [f"u{i}" for i in range(rng.randint(0, 3))]
    facts = []
    for _ in range(rng.randint(1, 30)):
        if unary and rng.random() < 0.3:
            facts.append((rng.choice(unary), (rng.choice(consts),)))
        else:
            facts.append((rng.choice(binary), (rng.choice(consts), rng.choice(consts))))
    return consts, facts


def corpus_kb(seed: int) -> Kb:
    """The tier-1 corpus KB of this seed; its text equals tests/corpus.py's."""
    rng = random.Random(seed)
    consts, facts = _corpus_facts(rng)
    fact_consts = [c for _, args in facts for c in args]

    def example_const():
        if fact_consts and rng.random() < 0.9:
            return rng.choice(fact_consts)
        return rng.choice(consts)

    arity = rng.choice([1, 2])
    pos = tuple(example_const() for _ in range(arity))
    negs = []
    for _ in range(rng.randint(0, 2)):
        neg = tuple(example_const() for _ in range(arity))
        if neg != pos:
            negs.append(neg)
    max_body = 2 if rng.random() < 0.85 else 3
    return Kb(f"corpus{seed}", facts, ("tgt", arity), [pos], negs,
              max_body=max_body, comment=f"corpus kb seed={seed}")


def multi_pos_kb(seed: int) -> Kb:
    """Corpus-shaped KB with two positives, both taken from its own facts."""
    rng = random.Random(f"multi_pos:{seed}")
    while True:
        consts, facts = _corpus_facts(rng)
        arity = rng.choice([1, 2])
        if arity == 2:
            pool = sorted({args for _, args in facts if len(args) == 2})
        else:
            pool = sorted({(c,) for _, args in facts for c in args})
        if len(pool) >= 2:
            break
    positives = rng.sample(pool, 2)
    fact_consts = [c for _, args in facts for c in args]
    negs = []
    for _ in range(rng.randint(0, 2)):
        neg = tuple(rng.choice(fact_consts) for _ in range(arity))
        if neg not in positives and neg not in negs:
            negs.append(neg)
    max_body = 2 if rng.random() < 0.85 else 3
    return Kb(f"multi{seed}", facts, ("tgt", arity), positives, negs,
              max_body=max_body, comment=f"multi_pos kb seed={seed}")


def merge_fault_kb() -> Kb:
    """learn returns the only non-empty per-positive result without checking
    it against the other positive; parent(X,Y) :- father(X,Y) is emitted."""
    return Kb("merge_fault", [("father", ("jake", "alice"))], ("parent", 2),
              [("jake", "alice"), ("zed", "zoe")], max_body=2)


# --- graphs --------------------------------------------------------------------


def _bfs(succ: dict, start) -> dict:
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in succ.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _graph_examples(name: str, nodes: list, facts: list, pos=None):
    """One positive at BFS distance >= GRAPH_MIN_DIST, drawn unless given,
    and negatives drawn from the unreachable pairs.  The draw depends on the
    graph alone: which examples are drawn changes the cost of a graph by up
    to tenfold."""
    rng = random.Random(f"graphs:{name}")
    succ: dict = {}
    for _, (a, b) in facts:
        succ.setdefault(a, []).append(b)
    reach = {u: _bfs(succ, u) for u in nodes}
    if pos is None:
        far = [(u, v) for u in nodes for v, d in reach[u].items() if d >= GRAPH_MIN_DIST]
        pos = rng.choice(far)
    elif reach[pos[0]].get(pos[1], 0) < GRAPH_MIN_DIST:
        raise ValueError(f"positive {pos} is not reachable at distance {GRAPH_MIN_DIST}")
    unreachable = [(u, v) for u in nodes for v in nodes if u != v and v not in reach[u]]
    return [pos], rng.sample(unreachable, GRAPH_NEGATIVES)


def chain_kb(n: int) -> Kb:
    nodes = [f"n{i}" for i in range(n)]
    facts = [("edge", (nodes[i], nodes[i + 1])) for i in range(n - 1)]
    pos, negs = _graph_examples(f"chain{n}", nodes, facts)
    return Kb(f"chain{n}", facts, ("path", 2), pos, negs, max_body=2)


def grid_kb(w: int) -> Kb:
    nodes = [f"g{x}_{y}" for y in range(w) for x in range(w)]
    facts = []
    for y in range(w):
        for x in range(w):
            if x + 1 < w:
                facts.append(("right", (f"g{x}_{y}", f"g{x + 1}_{y}")))
            if y + 1 < w:
                facts.append(("down", (f"g{x}_{y}", f"g{x}_{y + 1}")))
    pos, negs = _graph_examples(f"grid{w}", nodes, facts, (nodes[0], nodes[-1]))
    return Kb(f"grid{w}", facts, ("reach", 2), pos, negs,
              invent=("step/2", ["right/2", "down/2"]), max_body=2)


# --- workloads -----------------------------------------------------------------

WORKLOADS = ("corpus", "multi_pos", "graphs", "enumerate")


def tasks(workload: str, seed: int) -> list:
    """The tasks of one pass, in the order the seed gives them."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corpus":
        out = [Task(kb) for kb in readme_kbs()]
        out += [Task(corpus_kb(s)) for s in range(CORPUS_SIZE)]
    elif workload == "multi_pos":
        out = [Task(merge_fault_kb())] + [Task(multi_pos_kb(s)) for s in MULTI_POS_SEEDS]
    elif workload == "graphs":
        out = [Task(chain_kb(n)) for n in CHAIN_SIZES]
        out += [Task(grid_kb(w)) for w in GRID_SIZES]
    elif workload == "enumerate":
        kbs = {kb.name: kb for kb in readme_kbs()}
        out = [
            Task(kbs[name], ("--max-clauses", str(c), "--max-vars", str(v),
                             "--max-body", str(b), "--limit", str(limit)))
            for name, c, v, b, limit in ENUMERATE_CAPS
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(out)
    return out


def write_inputs(task_list: list, out_dir: str) -> list:
    """Write one KB file per task; returns the paths in task order."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, task in enumerate(task_list):
        path = os.path.join(out_dir, f"{i:04d}_{task.kb.name}.kb")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(task.kb.text())
        paths.append(path)
    return paths


def main():
    ap = argparse.ArgumentParser(description="write the KB files of a workload")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory for the KB files")
    args = ap.parse_args()
    task_list = tasks(args.workload, args.seed)
    for task, path in zip(task_list, write_inputs(task_list, args.out)):
        extra = " ".join(task.enumerate_args)
        print(f"{path}{'  enumerate ' + extra if extra else ''}")


if __name__ == "__main__":
    main()
