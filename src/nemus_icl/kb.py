"""Knowledge-base language: symbol interning, parsing, validation, rendering.

A KB file holds ground facts plus ``#`` directives describing a learning task:

    father(jake, alice).
    #target ancestor/2.
    #positive ancestor(jake, bob).
    #invent parent/2 from father/2, mother/2.

Identifiers starting lowercase are constants/predicates, uppercase are
variables (legal only in hypothesis files).  ``%`` comments to end of line.
Only arities 1 and 2 are accepted.  A signature is ``name/arity`` or a shaped
atom such as ``ancestor(X, Y)``; ``#invent`` sources are separated by ``,`` or
``or``.  The long English form ``consider induction on T knowing E assuming P1
or P2 defines NewP.`` is parsed as the equivalent of the ``#`` directives, and
separates sources with ``or`` only.  Keywords (``from``, ``or`` and the English
form's words) are case-insensitive.
``LearnTask`` raises ``ValueError`` on a ``max_body`` or ``tau`` out of range.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from decimal import Decimal
from typing import NamedTuple, Optional


class KbError(Exception):
    """Base for located KB-file errors."""

    def __init__(self, msg: str, line: Optional[int] = None, col: Optional[int] = None):
        self.msg = msg
        self.line = line
        self.col = col
        where = f"line {line}, col {col}: " if line is not None else ""
        super().__init__(where + msg)


class ParseError(KbError):
    """Syntax fault; always carries line/col."""


class ValidationError(KbError):
    """Well-formed syntax with bad semantics (arity clash, missing target, ...)."""


class UnknownCode(Exception):
    """A symbol code with no entry in the table."""


class _Interner:
    # names list + reverse dict; add() returns the existing id for a known key
    def __init__(self):
        self.names: list = []
        self.ids: dict = {}

    def add(self, key) -> int:
        code = self.ids.get(key)
        if code is None:
            code = len(self.names)
            self.ids[key] = code
            self.names.append(key)
        return code

    def get(self, key) -> Optional[int]:
        return self.ids.get(key)

    def name(self, code: int):
        if not 0 <= code < len(self.names):
            raise UnknownCode(code)
        return self.names[code]

    def __len__(self) -> int:
        return len(self.names)


class SymbolTable:
    """Bijective name<->code registries for constants and predicates.

    Predicate identity includes arity: p/1 and p/2 intern to distinct codes.
    Variables are not registered here: each parse numbers its own.
    """

    def __init__(self):
        self._constants = _Interner()
        self._predicates = _Interner()  # keyed by (name, arity)

    def intern_constant(self, name: str) -> int:
        return self._constants.add(name)

    def intern_predicate(self, name: str, arity: int) -> int:
        return self._predicates.add((name, arity))

    def constant_code(self, name: str) -> Optional[int]:
        return self._constants.get(name)

    def predicate_code(self, name: str, arity: int) -> Optional[int]:
        return self._predicates.get((name, arity))

    def constant_name(self, code: int) -> str:
        return self._constants.name(code)

    def predicate_sig(self, code: int) -> tuple:
        return self._predicates.name(code)

    @property
    def n_constants(self) -> int:
        return len(self._constants)

    @property
    def n_predicates(self) -> int:
        return len(self._predicates)

    def render_sig(self, code: int) -> str:
        name, arity = self.predicate_sig(code)
        return f"{name}/{arity}"


class Var(NamedTuple):
    """A clause-local variable; codes are meaningful only within one clause."""

    code: int


class GroundAtom(NamedTuple):
    pred: int
    args: tuple  # constant codes


class Atom(NamedTuple):
    """Possibly-generalized atom; args mix constant codes and Vars."""

    pred: int
    args: tuple


class Clause(NamedTuple):
    head: Atom
    body: tuple  # of Atom


def is_ground(atom) -> bool:
    return not any(isinstance(t, Var) for t in atom.args)


def atom_vars(atom) -> set:
    """The codes of the atom's variables."""
    return {t.code for t in atom.args if isinstance(t, Var)}


def setting_error(name: str, value) -> Optional[str]:
    """Why a setting's value is out of range, or None when it is in range;
    the file directives and the command-line flags both ask here."""
    if name in ("max_body", "max_clauses", "max_vars", "limit") and value < 1:
        return f"{name} must be >= 1"
    if name == "tau" and not 0.0 <= value <= 1.0:
        return "tau must be in [0, 1]"
    return None


def read_setting(name: str, text: str):
    """A setting's command-line value, read with the number grammar of its
    directive (ASCII digits; for tau, a fraction after a dot too) and
    range-checked as the directive is.  The grammar has no sign; a signed
    number is read only to report that it is out of range."""
    flag = f"--{name.replace('_', '-')} {text}"
    number = _NUMBER.fullmatch(text.removeprefix("-"))
    if number is None or (number[1] and name != "tau"):
        raise KbError(f"{flag}: expected {'a number' if name == 'tau' else 'an integer'}")
    value = (float if name == "tau" else int)(text)
    problem = setting_error(name, value) or ("a number has no sign" if text.startswith("-") else None)
    if problem:
        raise KbError(f"{flag}: {problem}")
    return value


class InventionBias(NamedTuple):
    invented: int
    sources: tuple  # predicate codes sharing the invented predicate's arity

    def definitions(self, arity: int) -> tuple:
        """invented(X, ...) :- source(X, ...), one clause per distinct source,
        in first-seen order."""
        head = Atom(self.invented, tuple(Var(i) for i in range(arity)))
        return tuple(Clause(head, (Atom(src, head.args),)) for src in dict.fromkeys(self.sources))


@dataclass(frozen=True)
class LearnTask:
    target: int
    positives: tuple
    negatives: tuple = ()
    biases: tuple = ()  # of InventionBias, in directive order
    max_body: int = 3
    tau: float = 0.2

    def __post_init__(self):
        problem = setting_error("max_body", self.max_body) or setting_error("tau", self.tau)
        if problem:
            raise ValueError(problem)


@dataclass
class Directive:
    kind: str  # target | positive | negative | invent | max_body | tau
    payload: object
    line: int = 0


@dataclass
class KnowledgeBase:
    facts: list
    task: Optional[LearnTask]  # None for task-less (facts-only) files
    symbols: SymbolTable
    directives: list = field(default_factory=list)


# --- tokenizer -------------------------------------------------------------

_PUNCT = {"(", ")", ",", ".", "/", "#"}
# ASCII digits only (int() takes e.g. Arabic-Indic ones); a real only when
# digits follow the dot, since a bare dot ends the statement
_NUMBER = re.compile(r"[0-9]+(\.[0-9]+)?")
# matches exactly the characters where ch.isalnum() or ch == "_"
_WORD = re.compile(r"\w+")


class _Tok(NamedTuple):
    kind: str  # name | var | int | real | punct | eof
    value: object
    line: int
    col: int


def _tokenize(text: str) -> list:
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in _PUNCT:  # the commonest first: the branches exclude each other
            toks.append(_Tok("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch == "%":  # takes no column: end of input right after it reports at the '%'
            i = text.find("\n", i)
            if i < 0:
                i = n
            continue
        if ch == ":":
            if not text.startswith(":-", i):
                raise ParseError("expected ':-'", line, col)
            word = ":-"
            toks.append(_Tok("punct", word, line, col))
        elif "0" <= ch <= "9":
            word = _NUMBER.match(text, i)[0]
            kind, read = ("real", float) if "." in word else ("int", int)
            toks.append(_Tok(kind, read(word), line, col))
        elif ch.isalpha() or ch == "_":
            word = _WORD.match(text, i)[0]
            toks.append(_Tok("name" if ch.islower() else "var", word, line, col))
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        i += len(word)
        col += len(word)
    toks.append(_Tok("eof", None, line, col))
    return toks


# --- parser ----------------------------------------------------------------

class _Parser:
    def __init__(self, text: str, symbols: Optional[SymbolTable] = None):
        self.toks = _tokenize(text)
        self.pos = 0
        self.symbols = symbols if symbols is not None else SymbolTable()
        self.variables: dict = {}  # name -> code, in order of first occurrence

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str, value=None) -> _Tok:
        t = self.peek()
        if t.kind != kind or (value is not None and t.value != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {self._show(t)}", t.line, t.col)
        return self.next()

    @staticmethod
    def _show(t: _Tok) -> str:
        return "end of input" if t.kind == "eof" else repr(t.value)

    def keyword(self, word: str) -> bool:
        t = self.peek()
        if t.kind in ("name", "var") and str(t.value).lower() == word:
            self.next()
            return True
        return False

    def expect_keyword(self, word: str):
        t = self.peek()
        if not self.keyword(word):
            raise ParseError(f"expected {word!r}, found {self._show(t)}", t.line, t.col)

    # -- lists, terms, atoms and signatures --

    def parse_list(self, item) -> list:
        """item(), then item() again after each ','."""
        items = [item()]
        while self.peek().value == ",":
            self.next()
            items.append(item())
        return items

    def parse_sources(self, comma: bool) -> list:
        """Signatures separated by the keyword 'or', in any case, and by ',' when comma."""
        sources = [self.parse_signature()]
        while (comma and self.peek().value == "," and self.next()) or self.keyword("or"):  # a _Tok is truthy
            sources.append(self.parse_signature())
        return sources

    def parse_args(self, name_tok: _Tok, term) -> list:
        """The parenthesised arguments after a predicate name, each read by term."""
        self.expect("punct", "(")
        args = self.parse_list(term)
        self.expect("punct", ")")
        self.arity(name_tok, len(args))
        return args

    @staticmethod
    def arity(name_tok: _Tok, n: int) -> int:
        if n not in (1, 2):
            raise ParseError(f"arity {n} not supported (only 1 and 2)", name_tok.line, name_tok.col)
        return n

    def shape(self) -> _Tok:
        """A term's token, not interned: a signature's shape gives only its arity."""
        a = self.next()
        if a.kind not in ("name", "var"):
            raise ParseError(f"expected a term, found {self._show(a)}", a.line, a.col)
        return a

    def term(self):
        a = self.next()  # not through shape(): one more call per term slowed the parser ~10%
        if a.kind == "name":
            return self.symbols.intern_constant(a.value)
        if a.kind == "var":
            return Var(self.variables.setdefault(a.value, len(self.variables)))
        raise ParseError(f"expected a term, found {self._show(a)}", a.line, a.col)

    def ground_term(self) -> int:
        a = self.peek()
        if a.kind == "var":
            raise ValidationError(f"variable {a.value!r} in a ground context", a.line, a.col)
        return self.term()

    def parse_signature(self) -> tuple:
        """name/arity, or a shaped atom like ancestor(X,Y) (arity from arg count)."""
        t = self.expect("name")
        if self.peek().value == "/":
            self.next()
            arity = self.arity(t, self.expect("int").value)
        else:
            arity = len(self.parse_args(t, self.shape))
        return t.value, arity, t.line, t.col

    def parse_atom(self, ground: bool = False) -> Atom:
        """Parse name(term, ...) and intern it."""
        t = self.expect("name")
        args = self.parse_args(t, self.ground_term if ground else self.term)
        return Atom(self.symbols.intern_predicate(t.value, len(args)), tuple(args))

    def parse_ground_atom(self) -> GroundAtom:
        return GroundAtom(*self.parse_atom(ground=True))

    # -- statements --

    def parse_kb_statements(self):
        facts, directives = [], []
        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind == "punct" and t.value == "#":
                self.next()
                directives.append(self.parse_directive())
            elif (t.kind in ("name", "var") and str(t.value).lower() == "consider"
                  and self.toks[self.pos + 1].value != "("):  # consider(a). is a fact
                directives.extend(self.parse_english_directive())
            elif t.kind == "name":
                atom = self.parse_atom()
                if not is_ground(atom):
                    raise ValidationError("facts must be ground", t.line, t.col)
                self.expect("punct", ".")
                facts.append(GroundAtom(*atom))
            else:
                raise ParseError(f"expected a fact or directive, found {self._show(t)}", t.line, t.col)
        return facts, directives

    def parse_directive(self) -> Directive:
        t = self.expect("name")
        kind = t.value
        if kind == "target":
            name, arity, _, _ = self.parse_signature()
            payload = self.symbols.intern_predicate(name, arity)
        elif kind in ("positive", "negative"):
            payload = self.parse_ground_atom()
        elif kind == "invent":
            name, arity, _, _ = self.parse_signature()
            invented = self.symbols.intern_predicate(name, arity)
            self.expect_keyword("from")
            payload = (invented, tuple(self.parse_sources(comma=True)))
        elif kind == "max_body":
            v = self.expect("int")
            payload = v.value
        elif kind == "tau":
            v = self.peek()
            if v.kind not in ("real", "int"):
                raise ParseError(f"expected a number, found {self._show(v)}", v.line, v.col)
            self.next()
            payload = float(v.value)
        else:
            raise ParseError(f"unknown directive #{kind}", t.line, t.col)
        if kind in ("max_body", "tau"):
            problem = setting_error(kind, payload)
            if problem:
                raise ValidationError(problem, v.line, v.col)
        self.expect("punct", ".")
        return Directive(kind, payload, t.line)

    def parse_english_directive(self) -> list:
        """consider induction on T knowing E [and [not] E'...]
        [assuming P1 [or P2...] defines NewP]."""
        t = self.peek()
        self.expect_keyword("consider")
        self.expect_keyword("induction")
        self.expect_keyword("on")
        name, arity, _, _ = self.parse_signature()
        out = [Directive("target", self.symbols.intern_predicate(name, arity), t.line)]
        self.expect_keyword("knowing")
        while True:
            neg = self.keyword("not")
            out.append(Directive("negative" if neg else "positive", self.parse_ground_atom(), t.line))
            if not self.keyword("and"):
                break
        if self.keyword("assuming"):
            sources = self.parse_sources(comma=False)
            self.expect_keyword("defines")
            iname, iarity, _, _ = self.parse_signature()
            invented = self.symbols.intern_predicate(iname, iarity)
            out.append(Directive("invent", (invented, tuple(sources)), t.line))
        self.expect("punct", ".")
        return out

    def parse_clauses(self):
        """Hypothesis-file syntax: `h(X,Y) :- b1(...), b2(...).` or bare facts."""
        clauses = []
        while self.peek().kind != "eof":
            head = self.parse_atom()
            body = ()
            if self.peek().value == ":-":
                self.next()
                body = self.parse_list(self.parse_atom)
            self.expect("punct", ".")
            clauses.append(Clause(head, tuple(body)))
        return tuple(clauses)


# --- validation ------------------------------------------------------------


def _validate(facts, directives, symbols: SymbolTable):
    targets = [d for d in directives if d.kind == "target"]
    if len(targets) > 1:
        raise ValidationError("more than one #target", targets[1].line)
    if not targets:
        if directives:
            d = directives[0]
            raise ValidationError("task directives without a #target", d.line)
        return None  # facts-only file: fine for indexing/dumping

    target = targets[0].payload
    tname, tarity = symbols.predicate_sig(target)

    fact_preds = {f.pred for f in facts}
    fact_set = set(facts)
    positives, negatives, biases = [], [], []
    settings = {}  # the last #max_body/#tau each; LearnTask holds the defaults
    invented_codes = set()
    for d in directives:
        if d.kind in ("positive", "negative"):
            atom = d.payload
            if atom.pred != target:
                raise ValidationError(
                    f"example predicate {symbols.render_sig(atom.pred)} does not match "
                    f"target {tname}/{tarity}",
                    d.line,
                )
            # no hypothesis can satisfy either contradiction
            if atom in fact_set:
                raise ValidationError(
                    f"{d.kind} example {render_ground_atom(atom, symbols)} already appears as a fact", d.line
                )
            if atom in (negatives if d.kind == "positive" else positives):
                raise ValidationError(
                    f"example {render_ground_atom(atom, symbols)} is both positive and negative", d.line
                )
            (positives if d.kind == "positive" else negatives).append(atom)
        elif d.kind == "invent":
            invented, source_sigs = d.payload
            iname, iarity = symbols.predicate_sig(invented)
            if invented in fact_preds:
                raise ValidationError(f"invented predicate {iname}/{iarity} already defined by facts", d.line)
            if invented == target or invented in invented_codes:
                raise ValidationError(f"invented predicate {iname}/{iarity} is not new", d.line)
            sources = []
            for sname, sarity, line, col in source_sigs:
                code = symbols.predicate_code(sname, sarity)
                # the target may be a source with or without facts
                if code is None or (code not in fact_preds and code not in invented_codes and code != target):
                    raise ValidationError(f"unknown predicate {sname}/{sarity} in #invent", line, col)
                if sarity != iarity:
                    raise ValidationError(
                        f"source {sname}/{sarity} does not share arity with {iname}/{iarity}", line, col
                    )
                sources.append(code)
            invented_codes.add(invented)
            biases.append(InventionBias(invented, tuple(sources)))
        elif d.kind in ("max_body", "tau"):
            settings[d.kind] = d.payload

    if not positives:
        raise ValidationError("no #positive example for the target", targets[0].line)
    return LearnTask(
        target=target,
        positives=tuple(positives),
        negatives=tuple(negatives),
        biases=tuple(biases),
        **settings,
    )


def parse_kb(text: str) -> KnowledgeBase:
    """Parse and validate a KB file; facts keep file order (occurrence indices
    in the compiled index depend on it)."""
    p = _Parser(text)
    facts, directives = p.parse_kb_statements()
    task = _validate(facts, directives, p.symbols)
    return KnowledgeBase(facts=facts, task=task, symbols=p.symbols, directives=directives)


def parse_hypothesis(text: str, symbols: SymbolTable):
    """Parse a clause file against an existing symbol table (new names intern)."""
    return _Parser(text, symbols).parse_clauses()


# --- rendering -------------------------------------------------------------


def _display_name(index: int) -> str:
    return ("X", "Y")[index] if index < 2 else f"Z{index - 2}"


def render_clause_atoms(head, body, symbols: SymbolTable):
    """Per-atom strings sharing one first-use variable naming (X, Y, Z0, ...)."""
    names: dict = {}

    def term(t) -> str:
        if isinstance(t, Var):
            if t.code not in names:
                names[t.code] = _display_name(len(names))
            return names[t.code]
        return symbols.constant_name(t)

    def atom(a) -> str:
        name, _ = symbols.predicate_sig(a.pred)
        return f"{name}({','.join(term(t) for t in a.args)})"

    return atom(head), [atom(b) for b in body]


def render_clause(head, body, symbols: SymbolTable) -> str:
    """Deterministic text; variables become X, Y, Z0, Z1... in first-use order."""
    h, bs = render_clause_atoms(head, body, symbols)
    if not bs:
        return h + "."
    return f"{h} :- {', '.join(bs)}."


def render_ground_atom(atom, symbols: SymbolTable) -> str:
    name, _ = symbols.predicate_sig(atom.pred)
    return f"{name}({','.join(symbols.constant_name(c) for c in atom.args)})"


def render_kb(kb: KnowledgeBase) -> str:
    """Serialize facts and directives back out; parse(render(kb)) preserves
    fact multiset and directives by name."""
    sym = kb.symbols
    lines = [render_ground_atom(f, sym) + "." for f in kb.facts]
    for d in kb.directives:
        if d.kind == "target":
            lines.append(f"#target {sym.render_sig(d.payload)}.")
        elif d.kind in ("positive", "negative"):
            lines.append(f"#{d.kind} {render_ground_atom(d.payload, sym)}.")
        elif d.kind == "invent":
            invented, sources = d.payload
            srcs = ", ".join(f"{n}/{a}" for n, a, _, _ in sources)
            lines.append(f"#invent {sym.render_sig(invented)} from {srcs}.")
        elif d.kind == "max_body":
            lines.append(f"#max_body {d.payload}.")
        elif d.kind == "tau":
            # the directive's grammar has no exponent: 1e-05 is written 0.00001
            lines.append(f"#tau {format(Decimal(repr(d.payload)), 'f')}.")
    return "\n".join(lines) + "\n"
