"""Randomized KB corpus shared by the property and acceptance suites.

Shape per KB: up to 30 facts over at most 8 constants, 5 binary and 3 unary
predicates; one positive example (constants biased toward ones that occur in
facts) and 0-2 negatives; no facts for the target predicate; max_body mostly 2.
"""

import random


def _random_facts(rng: random.Random, max_facts: int) -> tuple:
    """(constants, facts) with each fact a (pred, args) pair."""
    consts = [f"c{i}" for i in range(rng.randint(2, 8))]
    binary = [f"b{i}" for i in range(rng.randint(1, 5))]
    unary = [f"u{i}" for i in range(rng.randint(0, 3))]
    facts = []
    for _ in range(rng.randint(1, max_facts)):
        if unary and rng.random() < 0.3:
            facts.append((rng.choice(unary), (rng.choice(consts),)))
        else:
            facts.append((rng.choice(binary), (rng.choice(consts), rng.choice(consts))))
    return consts, facts


def _fact_lines(facts) -> list:
    return [f"{pred}({', '.join(args)})." for pred, args in facts]


def random_kb(seed: int) -> str:
    rng = random.Random(seed)
    consts, facts = _random_facts(rng, 30)
    lines = [f"% corpus kb seed={seed}"] + _fact_lines(facts)
    fact_consts = [c for _, args in facts for c in args]

    def example_const():
        # usually a constant that actually occurs somewhere
        if fact_consts and rng.random() < 0.9:
            return rng.choice(fact_consts)
        return rng.choice(consts)

    arity = rng.choice([1, 2])
    e_pos = tuple(example_const() for _ in range(arity))
    lines.append(f"#target tgt/{arity}.")
    lines.append(f"#positive tgt({', '.join(e_pos)}).")
    for _ in range(rng.randint(0, 2)):
        e_neg = tuple(example_const() for _ in range(arity))
        if e_neg != e_pos:
            lines.append(f"#negative tgt({', '.join(e_neg)}).")
    max_body = 2 if rng.random() < 0.85 else 3
    lines.append(f"#max_body {max_body}.")
    return "\n".join(lines) + "\n"


def multi_positive_kb(seed: int, n_positives: int, unsupported: bool, max_body: int = 2,
                      invent: bool = False) -> str:
    """A corpus-shaped KB with n_positives positives taken from its own facts
    (fewer when the facts have too few), plus one on a constant no fact
    mentions when `unsupported` or when fewer than two were taken; 0-2
    negatives; up to 12 facts and max_body 2 by default, so the merge stays
    small.  With `invent`, a bias `#invent q/N from ...` over some of the
    KB's predicates of the target's arity, the target sometimes among them."""
    rng = random.Random(f"multi_positive:{seed}")
    _, facts = _random_facts(rng, 12)
    arity = rng.choice([1, 2])
    if arity == 2:
        pool = sorted({args for _, args in facts if len(args) == 2})
    else:
        pool = sorted({(c,) for _, args in facts for c in args})
    positives = rng.sample(pool, min(n_positives, len(pool)))
    if unsupported or len(positives) < 2:
        positives.append(("z",) * arity)
    fact_consts = [c for _, args in facts for c in args]
    negatives = []
    for _ in range(rng.randint(0, 2)):
        neg = tuple(rng.choice(fact_consts) for _ in range(arity))
        if neg not in positives and neg not in negatives:
            negatives.append(neg)
    lines = _fact_lines(facts) + [f"#target tgt/{arity}."]
    lines += [f"#positive tgt({', '.join(e)})." for e in positives]
    lines += [f"#negative tgt({', '.join(e)})." for e in negatives]
    if invent:
        preds = sorted({pred for pred, args in facts if len(args) == arity}) + ["tgt"]
        sources = rng.sample(preds, rng.randint(1, len(preds)))
        lines.append(f"#invent q/{arity} from {', '.join(f'{p}/{arity}' for p in sources)}.")
    lines.append(f"#max_body {max_body}.")
    return "\n".join(lines) + "\n"


def dense_kb() -> str:
    """A dense binary KB: 200 distinct facts over 4 predicates and 25
    constants, about 16 per constant, so the walk branches widely; target
    tgt/2 with the one positive tgt(c0, c1), no negatives and no body cap of
    its own.  At max_body 3 learn emits 1,248 sets, 1,143 of them through an
    invented predicate."""
    rng = random.Random(7)
    facts = set()
    while len(facts) < 200:
        facts.add((f"p{rng.randrange(4)}", (f"c{rng.randrange(25)}", f"c{rng.randrange(25)}")))
    return "\n".join(_fact_lines(sorted(facts)) + ["#target tgt/2.", "#positive tgt(c0, c1)."]) + "\n"


CORPUS_SIZE = 500

# the corpus seeds whose walk at max_body 4, main or invention sub-walk,
# builds a recursion base clause in which the head's Y replaces a variable
# bound before the last one, so the variables after it move down by one
BASE_RENUMBER_SEEDS = (20, 33, 48, 61, 62, 98, 130, 134, 136, 196, 199, 225, 248, 263, 265, 325, 387, 390, 392,
                       402, 408, 415, 439, 459, 478)


def corpus():
    return [random_kb(seed) for seed in range(CORPUS_SIZE)]
