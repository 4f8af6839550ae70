"""Surface syntax: lexing, parsing, desugaring, and formula utilities.

Grammar (loosest to tightest binding):

    formula := iff
    iff     := impl ("<->" impl)*
    impl    := disj ("->" impl)?          right associative
    disj    := conj ("|" conj)*
    conj    := unary ("&" unary)*
    unary   := "~" unary
             | ("exists" | "forall" | "exists1") VAR "." formula
             | atom
             | "(" formula ")"
    atom    := PRED "(" term ("," term)* ")" | PRED | term "==" term
             | "true" | "false"
    term    := VAR | CONST | "#" IDENT
             | "<<" formula ">>" "_{" varlist? "}" ("^{" varlist? "}")?

Quantifier scope extends as far right as possible.  Derived connectives
(|, ->, <->, forall, exists1, false) are desugared during parsing, so a
parsed formula only ever contains Atom, Conj, Neg and Exists nodes.

Variables are identifiers starting with x, y or z, plus anything a
signature declares with `var`.  `#name` denotes the domain element with
that name; `==` is the reserved identity predicate and `true` the
reserved tautology.

An abstraction term `<< f >>_{alpha}^{beta}` binds the alpha variables
of f and leaves the beta variables free in the enclosing formula.
alpha may list any distinct subset of f's free variables in any order;
beta must be exactly the remaining free variables in f's own
left-to-right order, and may be omitted when that remainder is empty.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

from .errors import IntlogError
from .relalg import ConceptHandle, DomainElement, Particular, element_name


class LexError(IntlogError):
    pass


class ParseError(IntlogError):
    pass


class ArityError(ParseError):
    """A predicate is applied to the wrong number of arguments."""


class AbstractionError(ParseError):
    """alpha/beta lists do not partition the body's free variables."""


class CaptureError(IntlogError):
    """A substitution would capture a free variable of the payload."""


class AssignmentError(IntlogError):
    """An assignment is missing a required variable."""


class SignatureError(IntlogError):
    pass


# ---------------------------------------------------------------------------
# symbols and AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PredicateSymbol:
    name: str
    arity: int

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


#: Reserved identity predicate (surface form `t1 == t2`).
ID_PRED = PredicateSymbol("==", 2)
#: Reserved tautology (surface form `true`; `false` is sugar for `~true`).
TRUE_PRED = PredicateSymbol("true", 0)

RESERVED_WORDS = frozenset({"exists", "forall", "exists1", "true", "false"})

_VAR_RE = re.compile(r"[xyz][A-Za-z0-9_]*\Z")
_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Variable:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Constant:
    """A signature constant, denoting a domain element via a world's
    constant map."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ElemTerm:
    """A literal domain element, written `#name`.

    The resolved element may be carried alongside (grounding produces
    that); it does not take part in equality, so a reparsed formula
    compares equal to the one that was printed.
    """

    name: str
    elem: Optional[DomainElement] = field(default=None, compare=False)

    def __str__(self) -> str:
        return f"#{self.name}"


@dataclass(frozen=True)
class Abstraction:
    """Term form of a formula: binds alpha, exposes beta."""

    body: "Formula"
    alpha: Tuple[str, ...]
    beta: Tuple[str, ...]

    def __str__(self) -> str:
        return format_term(self)


Term = Union[Variable, Constant, ElemTerm, Abstraction]


@dataclass(frozen=True)
class Atom:
    pred: PredicateSymbol
    args: Tuple[Term, ...] = ()

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Conj:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Neg:
    sub: "Formula"

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Exists:
    var: str
    sub: "Formula"

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Box:
    """Necessity wrapper: true at w iff true at every world of w's set.
    Not part of the surface grammar; built programmatically."""

    sub: "Formula"


@dataclass(frozen=True)
class Diamond:
    """Possibility wrapper: true at w iff true at some world of w's set."""

    sub: "Formula"


#: The parser only produces Atom, Conj, Neg and Exists; the modal
#: wrappers are understood by free_vars and the reference evaluator.
Formula = Union[Atom, Conj, Neg, Exists, Box, Diamond]


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Signature:
    """Declared predicate symbols, constants and extra variable names.

    Predicates are identified by (name, arity) pairs, so p/1 and p/2
    can coexist.  Constants and predicates must not collide with each
    other, with reserved words, or with the variable lexical class.
    """

    preds: frozenset = frozenset()
    consts: frozenset = frozenset()
    declared_vars: frozenset = frozenset()

    def has_pred(self, name: str, arity: int) -> bool:
        return (name, arity) in self.preds

    def pred_arities(self, name: str) -> list:
        return sorted(a for n, a in self.preds if n == name)

    def is_const(self, name: str) -> bool:
        return name in self.consts

    def is_var(self, name: str) -> bool:
        return name in self.declared_vars or bool(_VAR_RE.match(name))


def make_signature(
    preds: Iterable[Tuple[str, int]] = (),
    consts: Iterable[str] = (),
    declared_vars: Iterable[str] = (),
) -> Signature:
    preds = frozenset(preds)
    consts = frozenset(consts)
    declared_vars = frozenset(declared_vars)
    for name, arity in preds:
        _check_decl(name, "predicate")
        if arity < 0:
            raise SignatureError(f"negative arity for predicate {name}")
    for name in consts:
        _check_decl(name, "constant")
    for name in declared_vars:
        if not _IDENT_RE.match(name) or name in RESERVED_WORDS:
            raise SignatureError(f"bad variable name {name!r}")
    overlap = consts & {n for n, _ in preds}
    if overlap:
        raise SignatureError(
            f"names declared both constant and predicate: {sorted(overlap)}"
        )
    shadowed = declared_vars & (consts | {n for n, _ in preds})
    if shadowed:
        raise SignatureError(f"variable names shadow other symbols: {sorted(shadowed)}")
    return Signature(preds, consts, declared_vars)


def _check_decl(name: str, kind: str) -> None:
    if not _IDENT_RE.match(name):
        raise SignatureError(f"bad {kind} name {name!r}")
    if name in RESERVED_WORDS:
        raise SignatureError(f"{name!r} is reserved and cannot be a {kind}")
    if _VAR_RE.match(name):
        raise SignatureError(
            f"{kind} name {name!r} falls in the variable lexical class"
        )


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT, ELEM, PUNCT, EOF
    value: str
    pos: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<elem>\#[A-Za-z][A-Za-z0-9_]*)
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
      | (?P<punct><->|->|<<|>>|==|_\{|\^\{|[}().,~&|])
    """,
    re.VERBOSE,
)


def _lex(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise LexError(f"unexpected character {text[pos]!r} at position {pos}")
        if m.lastgroup == "ident":
            tokens.append(_Token("IDENT", m.group(), pos))
        elif m.lastgroup == "elem":
            tokens.append(_Token("ELEM", m.group()[1:], pos))
        elif m.lastgroup == "punct":
            tokens.append(_Token("PUNCT", m.group(), pos))
        pos = m.end()
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# derived connectives
# ---------------------------------------------------------------------------

def mk_or(a: Formula, b: Formula) -> Formula:
    return Neg(Conj(Neg(a), Neg(b)))


def mk_implies(a: Formula, b: Formula) -> Formula:
    return Neg(Conj(a, Neg(b)))


def mk_iff(a: Formula, b: Formula) -> Formula:
    return Conj(mk_implies(a, b), mk_implies(b, a))


def mk_forall(var: str, f: Formula) -> Formula:
    return Neg(Exists(var, Neg(f)))


def mk_exists_unique(var: str, f: Formula) -> Formula:
    """exists1 x . f  expands to
    (exists x) f  &  (forall x)(forall y)(f & f[x/y] -> x == y)
    with y replaced by a variable not occurring in f."""
    taken = all_var_names(f) | {var}
    fresh = None
    for cand in ("y", "y1", "y2", "y3", "y4", "y5"):
        if cand not in taken:
            fresh = cand
            break
    if fresh is None:  # pragmatic fallback, never hit with sane inputs
        i = 6
        while f"y{i}" in taken:
            i += 1
        fresh = f"y{i}"
    copy = substitute(f, var, Variable(fresh))
    uniq = mk_forall(
        var,
        mk_forall(
            fresh,
            mk_implies(Conj(f, copy), Atom(ID_PRED, (Variable(var), Variable(fresh)))),
        ),
    )
    return Conj(Exists(var, f), uniq)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list, sig: Signature):
        self.tokens = tokens
        self.pos = 0
        self.sig = sig

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str) -> _Token:
        tok = self.next()
        if tok.value != value:
            raise ParseError(
                f"expected {value!r} but found {tok.value or 'end of input'!r}"
                f" at position {tok.pos}"
            )
        return tok

    def at(self, value: str) -> bool:
        return self.peek().value == value

    # formula levels -------------------------------------------------

    def formula(self) -> Formula:
        f = self.iff()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected {tok.value!r} at position {tok.pos}")
        return f

    def iff(self) -> Formula:
        f = self.impl()
        while self.at("<->"):
            self.next()
            f = mk_iff(f, self.impl())
        return f

    def impl(self) -> Formula:
        f = self.disj()
        if self.at("->"):
            self.next()
            return mk_implies(f, self.impl())
        return f

    def disj(self) -> Formula:
        f = self.conj()
        while self.at("|"):
            self.next()
            f = mk_or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.at("&"):
            self.next()
            f = Conj(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.value == "~":
            self.next()
            return Neg(self.unary())
        if tok.value in ("exists", "forall", "exists1"):
            self.next()
            var = self.next()
            if var.kind != "IDENT" or not self.sig.is_var(var.value):
                raise ParseError(
                    f"quantifier needs a variable, found {var.value!r}"
                    f" at position {var.pos}"
                )
            self.expect(".")
            body = self.iff()  # maximal scope
            if tok.value == "exists":
                return Exists(var.value, body)
            if tok.value == "forall":
                return mk_forall(var.value, body)
            return mk_exists_unique(var.value, body)
        if tok.value == "(":
            self.next()
            f = self.iff()
            self.expect(")")
            return f
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.value == "true":
            self.next()
            return Atom(TRUE_PRED, ())
        if tok.value == "false":
            self.next()
            return Neg(Atom(TRUE_PRED, ()))
        if tok.kind == "IDENT":
            nxt = self.tokens[self.pos + 1]
            if nxt.value == "(" and not self.sig.is_var(tok.value) \
                    and not self.sig.is_const(tok.value):
                return self.application()
            if nxt.value == "==":
                return self.identity()
            name = self.next().value
            if self.sig.has_pred(name, 0):
                return Atom(PredicateSymbol(name, 0), ())
            arities = self.sig.pred_arities(name)
            if arities:
                raise ArityError(
                    f"predicate {name} used with 0 arguments, declared {arities}"
                )
            raise ParseError(f"unknown identifier {name!r} at position {tok.pos}")
        if tok.kind == "ELEM" or tok.value == "<<":
            return self.identity()
        raise ParseError(
            f"expected a formula, found {tok.value or 'end of input'!r}"
            f" at position {tok.pos}"
        )

    def application(self) -> Formula:
        name_tok = self.next()
        name = name_tok.value
        self.expect("(")
        args = [self.term()]
        while self.at(","):
            self.next()
            args.append(self.term())
        self.expect(")")
        if not self.sig.has_pred(name, len(args)):
            arities = self.sig.pred_arities(name)
            if arities:
                raise ArityError(
                    f"predicate {name} used with {len(args)} arguments,"
                    f" declared {arities}"
                )
            raise ParseError(f"unknown predicate {name!r} at position {name_tok.pos}")
        return Atom(PredicateSymbol(name, len(args)), tuple(args))

    def identity(self) -> Formula:
        t1 = self.term()
        self.expect("==")
        t2 = self.term()
        if isinstance(t1, Abstraction) or isinstance(t2, Abstraction):
            raise ParseError("abstraction terms cannot be compared with ==")
        return Atom(ID_PRED, (t1, t2))

    # terms ----------------------------------------------------------

    def term(self) -> Term:
        tok = self.peek()
        if tok.kind == "ELEM":
            self.next()
            return ElemTerm(tok.value)
        if tok.value == "<<":
            return self.abstraction()
        if tok.kind == "IDENT":
            self.next()
            if tok.value in RESERVED_WORDS:
                raise ParseError(f"{tok.value!r} cannot be a term")
            if self.sig.is_var(tok.value):
                return Variable(tok.value)
            if self.sig.is_const(tok.value):
                return Constant(tok.value)
            raise ParseError(
                f"unknown term identifier {tok.value!r} at position {tok.pos}"
            )
        raise ParseError(
            f"expected a term, found {tok.value or 'end of input'!r}"
            f" at position {tok.pos}"
        )

    def abstraction(self) -> Abstraction:
        self.expect("<<")
        body = self.iff()
        self.expect(">>")
        self.expect("_{")
        alpha = self.varlist()
        self.expect("}")
        beta = None
        if self.at("^{"):
            self.next()
            beta = self.varlist()
            self.expect("}")
        return make_abstraction(body, alpha, beta)

    def varlist(self) -> Tuple[str, ...]:
        names = []
        if self.at("}"):
            return ()
        while True:
            tok = self.next()
            if tok.kind != "IDENT" or not self.sig.is_var(tok.value):
                raise ParseError(
                    f"expected a variable, found {tok.value!r} at position {tok.pos}"
                )
            names.append(tok.value)
            if not self.at(","):
                return tuple(names)
            self.next()


def make_abstraction(
    body: Formula,
    alpha: Sequence[str],
    beta: Optional[Sequence[str]] = None,
) -> Abstraction:
    """Build an abstraction term, validating alpha and computing or
    checking beta.

    Raises:
        AbstractionError: if alpha repeats a name or is not a subset of
            the body's free variables, or an explicit beta is not
            exactly the remaining free variables in body order.
    """
    alpha = tuple(alpha)
    if len(set(alpha)) != len(alpha):
        raise AbstractionError(f"alpha repeats a variable: {alpha}")
    fv = free_vars(body)
    extra = [v for v in alpha if v not in fv]
    if extra:
        raise AbstractionError(
            f"alpha lists {extra[0]!r} which is not free in the body"
        )
    remainder = tuple(v for v in fv if v not in alpha)
    if beta is None:
        if remainder:
            raise AbstractionError(
                f"beta omitted but free variables {remainder} remain"
            )
        beta = ()
    else:
        beta = tuple(beta)
        if beta != remainder:
            raise AbstractionError(
                f"beta inconsistent: expected {remainder}, got {beta}"
            )
    return Abstraction(body, alpha, beta)


def validate_abstraction(t: Abstraction) -> None:
    """Re-check a possibly hand-built abstraction term."""
    rebuilt = make_abstraction(t.body, t.alpha, t.beta)
    if rebuilt != t:
        raise AbstractionError(f"inconsistent abstraction term {t}")


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse and desugar a formula."""
    try:
        return _Parser(_lex(text), sig).formula()
    except RecursionError:
        raise ParseError("formula nested too deeply") from None


def parse_term(text: str, sig: Signature) -> Term:
    """Parse a single term (the whole text must be one term)."""
    p = _Parser(_lex(text), sig)
    try:
        t = p.term()
    except RecursionError:
        raise ParseError("formula nested too deeply") from None
    tok = p.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected {tok.value!r} at position {tok.pos}")
    return t


# ---------------------------------------------------------------------------
# free variables
# ---------------------------------------------------------------------------

def term_free_vars(t: Term) -> Tuple[str, ...]:
    if isinstance(t, Variable):
        return (t.name,)
    if isinstance(t, Abstraction):
        return t.beta
    return ()


@lru_cache(maxsize=None)
def free_vars(f: Formula) -> Tuple[str, ...]:
    """Free variables in order of first occurrence, left to right.

    Inside an abstraction term the alpha variables are bound; its beta
    variables are free in the enclosing formula.
    """
    if isinstance(f, Atom):
        out = []
        for arg in f.args:
            for v in term_free_vars(arg):
                if v not in out:
                    out.append(v)
        return tuple(out)
    if isinstance(f, Conj):
        out = list(free_vars(f.left))
        for v in free_vars(f.right):
            if v not in out:
                out.append(v)
        return tuple(out)
    if isinstance(f, Neg):
        return free_vars(f.sub)
    if isinstance(f, Exists):
        return tuple(v for v in free_vars(f.sub) if v != f.var)
    if isinstance(f, (Box, Diamond)):
        return free_vars(f.sub)
    raise IntlogError(f"not a formula: {f!r}")


def all_var_names(f: Formula) -> set:
    """Every variable name occurring in f, free or bound."""
    names = set()

    def walk_term(t: Term):
        if isinstance(t, Variable):
            names.add(t.name)
        elif isinstance(t, Abstraction):
            names.update(t.alpha)
            walk(t.body)

    def walk(g: Formula):
        if isinstance(g, Atom):
            for a in g.args:
                walk_term(a)
        elif isinstance(g, Conj):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, Neg):
            walk(g.sub)
        elif isinstance(g, Exists):
            names.add(g.var)
            walk(g.sub)

    walk(f)
    return names


# ---------------------------------------------------------------------------
# substitution and grounding
# ---------------------------------------------------------------------------

def substitute(f: Formula, var: str, t: Term) -> Formula:
    """Replace every free occurrence of var in f by t.

    Raises:
        CaptureError: if a free variable of t would fall under a binder
            of f (no automatic renaming is attempted).
    """
    payload_fv = set(term_free_vars(t))

    def sub_formula(g: Formula) -> Formula:
        if var not in free_vars(g):
            return g
        if isinstance(g, Atom):
            return Atom(g.pred, tuple(sub_term(a) for a in g.args))
        if isinstance(g, Conj):
            return Conj(sub_formula(g.left), sub_formula(g.right))
        if isinstance(g, Neg):
            return Neg(sub_formula(g.sub))
        if isinstance(g, Exists):
            if g.var == var:
                return g
            if g.var in payload_fv:
                raise CaptureError(
                    f"substituting {t} for {var} would capture {g.var}"
                )
            return Exists(g.var, sub_formula(g.sub))
        raise IntlogError(f"not a formula: {g!r}")

    def sub_term(a: Term) -> Term:
        if isinstance(a, Variable):
            return t if a.name == var else a
        if isinstance(a, Abstraction):
            if var not in a.beta:
                return a
            captured = payload_fv & set(a.alpha)
            if captured:
                raise CaptureError(
                    f"substituting {t} for {var} would capture {sorted(captured)[0]}"
                )
            new_body = sub_formula(a.body)
            # beta is recomputed: the substitution may remove var and
            # introduce new free variables at its position
            new_beta = tuple(v for v in free_vars(new_body) if v not in a.alpha)
            return Abstraction(new_body, a.alpha, new_beta)
        return a

    return sub_formula(f)


def elem_term(e: DomainElement) -> ElemTerm:
    """A literal term denoting the given domain element."""
    return ElemTerm(element_name(e), e)


def ground(f: Formula, g: Mapping[str, DomainElement]) -> Formula:
    """Instantiate every free variable of f by its g-value, embedded as
    a `#name` literal.

    Raises:
        AssignmentError: if g misses a free variable of f.
    """
    out = f
    for v in free_vars(f):
        if v not in g:
            raise AssignmentError(f"assignment does not cover {v!r}")
        out = substitute(out, v, elem_term(g[v]))
    return out


def ground_term(t: Term, g: Mapping[str, DomainElement]) -> Term:
    """Instantiate the free (beta) variables of a term."""
    if isinstance(t, Variable):
        if t.name not in g:
            raise AssignmentError(f"assignment does not cover {t.name!r}")
        return elem_term(g[t.name])
    if isinstance(t, Abstraction):
        ab = t
        for v in t.beta:
            if v not in g:
                raise AssignmentError(f"assignment does not cover {v!r}")
            body = substitute(ab.body, v, elem_term(g[v]))
            beta = tuple(b for b in ab.beta if b != v)
            ab = Abstraction(body, ab.alpha, beta)
        return ab
    return t


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def format_term(t: Term) -> str:
    if isinstance(t, Variable) or isinstance(t, Constant):
        return t.name
    if isinstance(t, ElemTerm):
        if not _IDENT_RE.match(t.name):
            raise IntlogError(f"element {t.name!r} has no printable literal form")
        return f"#{t.name}"
    if isinstance(t, Abstraction):
        out = f"<< {format_formula(t.body)} >>_{{{','.join(t.alpha)}}}"
        if t.beta:
            out += f"^{{{','.join(t.beta)}}}"
        return out
    raise IntlogError(f"not a term: {t!r}")


def format_formula(f: Formula) -> str:
    """Render a core formula; parse_formula inverts this exactly."""
    if isinstance(f, Atom):
        if f.pred == ID_PRED:
            return f"{format_term(f.args[0])} == {format_term(f.args[1])}"
        if f.pred == TRUE_PRED:
            return "true"
        if not f.args:
            return f.pred.name
        return f"{f.pred.name}({', '.join(format_term(a) for a in f.args)})"
    if isinstance(f, Conj):
        return f"({format_formula(f.left)} & {format_formula(f.right)})"
    if isinstance(f, Neg):
        return f"~{format_formula(f.sub)}"
    if isinstance(f, Exists):
        return f"(exists {f.var} . {format_formula(f.sub)})"
    raise IntlogError(f"not a formula: {f!r}")
