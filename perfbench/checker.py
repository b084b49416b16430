"""Independent checker for the benchmark's outputs.

Written from the definitions and sharing no code with the program: a naive
bottom-up least-model evaluator (apply every rule to the whole model until
nothing new is derived) and a parser for the rendered clause strings the
program prints.  A clause set passes when the least model of the facts plus
the set holds every positive example and no negative one.
"""

from __future__ import annotations

import re

_ATOM = re.compile(r"\s*([a-z][A-Za-z0-9_]*)\(([^()]*)\)\s*")


class CheckError(Exception):
    """Output the checker cannot read, or a clause that is not range-restricted."""


def is_var(term: str) -> bool:
    return term[:1].isupper()


def parse_atom(text: str) -> tuple:
    """``name(a,B)`` -> ("name", ("a", "B"))."""
    m = _ATOM.fullmatch(text)
    if m is None:
        raise CheckError(f"not an atom: {text!r}")
    args = tuple(a.strip() for a in m.group(2).split(",")) if m.group(2).strip() else ()
    return m.group(1), args


def parse_clauses(text: str) -> list:
    """Rendered clauses, ``h :- b1, b2. h2.``, as (head, body) pairs."""
    clauses = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _ATOM.match(text, pos)
        if m is None:
            raise CheckError(f"no clause at {text[pos:]!r}")
        head = parse_atom(m.group(0))
        pos = m.end()
        body = []
        if text.startswith(":-", pos):
            pos += 2
            while True:
                m = _ATOM.match(text, pos)
                if m is None:
                    raise CheckError(f"no body atom at {text[pos:]!r}")
                body.append(parse_atom(m.group(0)))
                pos = m.end()
                if not text.startswith(",", pos):
                    break
                pos += 1
        if not text.startswith(".", pos):
            raise CheckError(f"clause not closed at {text[pos:]!r}")
        clauses.append((head, tuple(body)))
        pos += 1
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return clauses


def clause_from_json(doc: dict) -> tuple:
    """One clause of ``learn --json`` output: {"head": str, "body": [str]}."""
    return parse_atom(doc["head"]), tuple(parse_atom(b) for b in doc["body"])


def _solutions(body, index, binding):
    """Bindings that satisfy every body atom in the model.  ``index`` maps
    (pred, None, None) to all argument tuples of pred and (pred, i, value) to
    those whose argument i is value."""
    if not body:
        yield binding
        return
    pred, args = body[0]
    key = (pred, None, None)
    for i, term in enumerate(args):
        value = binding.get(term) if is_var(term) else term
        if value is not None:
            key = (pred, i, value)
            break
    for fact in index.get(key, ()):
        if len(fact) != len(args):
            continue
        ext = dict(binding)
        for term, value in zip(args, fact):
            if is_var(term):
                if ext.setdefault(term, value) != value:
                    break
            elif term != value:
                break
        else:
            yield from _solutions(body[1:], index, ext)


def least_model(facts, clauses) -> set:
    """Naive bottom-up fixpoint of facts plus clauses: a set of (pred, args).

    Every round applies every rule to the whole model; only the joins are
    indexed."""
    rules = []
    model = {(p, tuple(a)) for p, a in facts}
    for head, body in clauses:
        body_vars = {t for _, args in body for t in args if is_var(t)}
        head_vars = {t for t in head[1] if is_var(t)}
        if not head_vars <= body_vars:
            raise CheckError(f"head variables {sorted(head_vars - body_vars)} unbound")
        if body:
            rules.append((head, body))
        else:
            model.add(head)
    index: dict = {}

    def add(atom):
        p, a = atom
        index.setdefault((p, None, None), []).append(a)
        for i, value in enumerate(a):
            index.setdefault((p, i, value), []).append(a)

    for atom in model:
        add(atom)
    while True:
        derived = set()
        for (hp, hargs), body in rules:
            for b in _solutions(body, index, {}):
                derived.add((hp, tuple(b[t] if is_var(t) else t for t in hargs)))
        derived -= model
        if not derived:
            return model
        model |= derived
        for atom in derived:
            add(atom)


def verdict(kb, clauses):
    """None when the set derives every positive and no negative, else the
    first failing example, positives first, as (pred, args)."""
    model = least_model(kb.facts, clauses)
    pred = kb.target[0]
    for e in kb.positives:
        if (pred, tuple(e)) not in model:
            return pred, tuple(e)
    for e in kb.negatives:
        if (pred, tuple(e)) in model:
            return pred, tuple(e)
    return None


def render(clauses) -> frozenset:
    """The clause set as the program renders it, for comparing with listings."""
    def atom(a):
        return f"{a[0]}({','.join(a[1])})"

    return frozenset(
        f"{atom(h)} :- {', '.join(atom(b) for b in body)}." if body else f"{atom(h)}."
        for h, body in clauses
    )
