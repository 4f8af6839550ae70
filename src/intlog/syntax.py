"""Surface syntax: lexing, parsing, desugaring, and formula utilities.

Grammar:

    formula := unary (BINOP unary)*
    unary   := ("~" | "[]") unary
             | ("exists" | "forall" | "exists1") VAR "." formula
             | atom
             | "(" formula ")"
    atom    := PRED ("(" term ("," term)* ")")? | term "==" term
             | "true" | "false"
    term    := VAR | CONST | "#" IDENT
             | "<<" formula ">>" "_{" varlist? "}" ("^{" varlist? "}")?

BINOP ranges over one precedence table, loosest to tightest binding:
`<->`, `->`, `|`, `&`; `->` is right associative, the others left
associative.  Quantifier scope extends as far right as possible.
Derived connectives (|, ->, <->, forall, exists1, false) are desugared
during parsing, so a parsed formula only ever contains Atom, Conj, Neg,
Exists and Box nodes.  Box, written `[]`, is the one modal node;
`Diamond(f)` builds its dual `~[]~f`, as `mk_or` builds `|`.
The parser rejects a formula whose desugared tree is deeper than
MAX_DEPTH, so every recursive walk over a parsed formula fits in the
interpreter's stack.

Variables are identifiers starting with x, y or z, plus anything a
signature declares with `var`.  `#name` denotes the domain element with
that name; `==` is the reserved identity predicate and `true` the
reserved tautology.  A bare `PRED` is an application with no arguments,
so one rule resolves every predicate against the signature.

Every node carries its free variables, in order of first occurrence
left to right, as `fv`, derived from its children when it is built.
An abstraction term `<< f >>_{alpha}^{beta}` binds the alpha variables
of f and leaves the beta variables free in the enclosing formula.
alpha may list any distinct subset of f's free variables in any order;
beta, the term's `fv`, is the remaining free variables in f's own
order; a written `^{...}` must list exactly those, and may be omitted
when there are none.

`substitute` and `ground` rewrite a formula or a term in one walk, which
rewrites a conjunction that desugaring shares (`a <-> b` holds a and b
twice) once per mapping, so the result shares it too.

Formula nodes and abstraction terms all print through the printer:
`str` is `format_formula`, or `format_term` for an abstraction.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, NoReturn, Optional, Sequence, Tuple, Union

from .errors import IntlogError
from .relalg import DomainElement, element_name


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
    """A bad signature; names are the declared names it is about."""

    def __init__(self, message: str, names: Iterable[str] = ()):
        super().__init__(message)
        self.names = tuple(names)


# ---------------------------------------------------------------------------
# symbols and AST
# ---------------------------------------------------------------------------

class PredicateSymbol(NamedTuple):
    """A predicate name with its arity.  A plain (name, arity) tuple, so
    it hashes and compares in C, equals its pair, and sorts by name,
    then arity."""

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


def _merge(left: Tuple[str, ...], right: Tuple[str, ...]) -> Tuple[str, ...]:
    """left, then the names of right that left lacks."""
    if not right:
        return left
    if not left:
        return right
    return left + tuple([v for v in right if v not in left])


# Sets a frozen node's `fv`, an attribute and not a dataclass field, so
# equality, hashing and repr see only the node's parts; the alias saves a
# lookup per node built.
_setattr = object.__setattr__


class _Printed:
    """A formula node or an abstraction term, printed by the printer."""

    def __str__(self) -> str:
        return format_term(self) if isinstance(self, Abstraction) else format_formula(self)


class _SameAsSub(_Printed):
    """A node whose free variables are its sub's."""

    def __post_init__(self) -> None:
        _setattr(self, "fv", self.sub.fv)


@dataclass(frozen=True)
class Variable:
    name: str

    @property
    def fv(self) -> Tuple[str, ...]:
        return (self.name,)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Constant:
    """A signature constant, denoting a domain element via a world's
    constant map."""

    name: str
    fv = ()

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ElemTerm:
    """A literal domain element, written `#name`.  It is only its name,
    which the world it is evaluated in resolves."""

    name: str
    fv = ()

    def __str__(self) -> str:
        return f"#{self.name}"


@dataclass(frozen=True)
class Abstraction(_Printed):
    """Term form of a formula: binds alpha, exposes beta (its `fv`).

    Raises:
        AbstractionError: if alpha repeats a name or is not a subset of
            the body's free variables.
    """

    body: "Formula"
    alpha: Tuple[str, ...]

    def __post_init__(self) -> None:
        alpha, fv = self.alpha, self.body.fv
        if len(set(alpha)) != len(alpha):
            raise AbstractionError(f"alpha repeats a variable: {alpha}")
        extra = [v for v in alpha if v not in fv]
        if extra:
            raise AbstractionError(
                f"alpha lists {extra[0]!r} which is not free in the body"
            )
        _setattr(self, "fv", tuple(v for v in fv if v not in alpha))

    @property
    def beta(self) -> Tuple[str, ...]:
        return self.fv


Term = Union[Variable, Constant, ElemTerm, Abstraction]


@dataclass(frozen=True)
class Atom(_Printed):
    pred: PredicateSymbol
    args: Tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        fv = ()
        for a in self.args:
            fv = _merge(fv, a.fv)
        _setattr(self, "fv", fv)


@dataclass(frozen=True)
class Conj(_Printed):
    left: "Formula"
    right: "Formula"

    def __post_init__(self) -> None:
        _setattr(self, "fv", _merge(self.left.fv, self.right.fv))


@dataclass(frozen=True)
class Neg(_SameAsSub):
    sub: "Formula"


@dataclass(frozen=True)
class Exists(_Printed):
    var: str
    sub: "Formula"

    def __post_init__(self) -> None:
        _setattr(self, "fv", tuple([v for v in self.sub.fv if v != self.var]))


@dataclass(frozen=True)
class Box(_SameAsSub):
    """Necessity, written `[]`: true at w iff true at every world of
    w's set."""

    sub: "Formula"


def Diamond(sub: Formula) -> Formula:
    """Possibility, the dual of necessity: `~Box~sub`, true at w iff sub
    is true at some world of w's set."""
    return Neg(Box(Neg(sub)))


Formula = Union[Atom, Conj, Neg, Exists, Box]


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
            raise SignatureError(f"negative arity for predicate {name}", [name])
    for name in consts:
        _check_decl(name, "constant")
    for name in declared_vars:
        if not _IDENT_RE.match(name) or name in RESERVED_WORDS:
            raise SignatureError(f"bad variable name {name!r}", [name])
    overlap = sorted(consts & {n for n, _ in preds})
    if overlap:
        raise SignatureError(f"names declared both constant and predicate: {overlap}", overlap)
    shadowed = sorted(declared_vars & (consts | {n for n, _ in preds}))
    if shadowed:
        raise SignatureError(f"variable names shadow other symbols: {shadowed}", shadowed)
    return Signature(preds, consts, declared_vars)


def check_element_name(name: str, error: type = IntlogError) -> str:
    """The name, if a `#name` literal can spell it; otherwise raise
    error.  Every element name that enters as text is checked here."""
    if not _IDENT_RE.match(name):
        raise error(f"bad element name {name!r}: not a letter followed by letters, digits or _")
    return name


def _check_decl(name: str, kind: str) -> None:
    if not _IDENT_RE.match(name):
        raise SignatureError(f"bad {kind} name {name!r}", [name])
    if name in RESERVED_WORDS:
        raise SignatureError(f"{name!r} is reserved and cannot be a {kind}", [name])
    if _VAR_RE.match(name):
        raise SignatureError(f"{kind} name {name!r} falls in the variable lexical class", [name])


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
      | (?P<punct><->|->|<<|>>|==|_\{|\^\{|\[\]|[}().,~&|])
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
    with y replaced by the first of y, y1, y2, ... not occurring in f."""
    taken = all_var_names(f) | {var}
    fresh, i = "y", 0
    while fresh in taken:
        i += 1
        fresh = f"y{i}"
    copy = substitute(f, {var: Variable(fresh)})
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

#: Binary connectives: token -> (precedence, lowest precedence the right
#: operand may contain, builder).  A floor one above the operator's own
#: precedence makes it left associative; `->` takes its own as the floor,
#: so it is right associative.
_BINARY = {
    "<->": (1, 2, mk_iff),
    "->": (2, 2, mk_implies),
    "|": (3, 4, mk_or),
    "&": (4, 5, Conj),
}

_PREFIX = {"~": Neg, "[]": Box}

_QUANTIFIERS = {"exists": Exists, "forall": mk_forall, "exists1": mk_exists_unique}


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

    def fail(self, what: str, tok: _Token) -> NoReturn:
        """Raise the one error for an unexpected token."""
        found = tok.value or "end of input"
        raise ParseError(f"expected {what}, found {found!r} at position {tok.pos}")

    def expect(self, value: str) -> _Token:
        tok = self.next()
        if tok.value != value:
            self.fail(repr(value), tok)
        return tok

    def at(self, value: str) -> bool:
        return self.peek().value == value

    # formulas -------------------------------------------------------

    def formula(self, lowest: int = 1) -> Formula:
        """Precedence climbing: fold binary operators that bind at
        least as tightly as `lowest`."""
        f = self.unary()
        while True:
            op = _BINARY.get(self.peek().value)
            if op is None or op[0] < lowest:
                return f
            self.next()
            f = op[2](f, self.formula(op[1]))

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.value in _PREFIX:
            self.next()
            return _PREFIX[tok.value](self.unary())
        if tok.kind == "IDENT" and tok.value in _QUANTIFIERS:
            self.next()
            var = self.variable()
            self.expect(".")
            return _QUANTIFIERS[tok.value](var, self.formula())  # maximal scope
        if tok.value == "(":
            self.next()
            f = self.formula()
            self.expect(")")
            return f
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "ELEM" or tok.value == "<<":
            return self.identity()
        if tok.value == "true":
            self.next()
            return Atom(TRUE_PRED, ())
        if tok.value == "false":
            self.next()
            return Neg(Atom(TRUE_PRED, ()))
        if tok.kind == "IDENT":
            if self.tokens[self.pos + 1].value == "==":
                return self.identity()
            return self.application()
        self.fail("a formula", tok)

    def application(self) -> Formula:
        """PRED, then its arguments unless the name is a term's."""
        tok = self.next()
        name, args = tok.value, ()
        if self.at("(") and not self.sig.is_var(name) and not self.sig.is_const(name):
            self.next()
            args = self.items(self.term)
            self.expect(")")
        if not self.sig.has_pred(name, len(args)):
            arities = self.sig.pred_arities(name)
            if arities:
                raise ArityError(
                    f"predicate {name} used with {len(args)} arguments,"
                    f" declared {arities}"
                )
            kind = "predicate" if args else "identifier"
            raise ParseError(f"unknown {kind} {name!r} at position {tok.pos}")
        return Atom(PredicateSymbol(name, len(args)), args)

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
        if tok.kind == "IDENT" and tok.value not in RESERVED_WORDS:
            self.next()
            if self.sig.is_var(tok.value):
                return Variable(tok.value)
            if self.sig.is_const(tok.value):
                return Constant(tok.value)
            raise ParseError(
                f"unknown term identifier {tok.value!r} at position {tok.pos}"
            )
        self.fail("a term", tok)

    def abstraction(self) -> Abstraction:
        self.expect("<<")
        body = self.formula()
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
        return () if self.at("}") else self.items(self.variable)

    def variable(self) -> str:
        tok = self.next()
        if tok.kind != "IDENT" or not self.sig.is_var(tok.value):
            self.fail("a variable", tok)
        return tok.value

    def items(self, item) -> tuple:
        """One or more items, separated by commas."""
        out = [item()]
        while self.at(","):
            self.next()
            out.append(item())
        return tuple(out)


def make_abstraction(
    body: Formula,
    alpha: Sequence[str],
    beta: Optional[Sequence[str]] = None,
) -> Abstraction:
    """Build an abstraction term; a written beta must equal the derived
    one, and an omitted beta must be empty.

    Raises:
        AbstractionError: as `Abstraction` does, or if beta differs
            from the derived one.
    """
    t = Abstraction(body, tuple(alpha))
    if beta is None and t.beta:
        raise AbstractionError(f"beta omitted but free variables {t.beta} remain")
    if beta is not None and tuple(beta) != t.beta:
        raise AbstractionError(f"beta inconsistent: expected {t.beta}, got {tuple(beta)}")
    return t


#: The deepest desugared formula the parser accepts, in nodes from the
#: root to the deepest leaf, abstraction bodies included.  The
#: recursive walks (interpret, substitute, the reference evaluator) take
#: up to two interpreter frames per level; at 500 levels the reference
#: evaluator already exceeds Python's default recursion limit of 1,000.
MAX_DEPTH = 300


def _children(node) -> tuple:
    if isinstance(node, Conj):
        return (node.left, node.right)
    if isinstance(node, (Neg, Exists, Box)):
        return (node.sub,)
    if isinstance(node, Atom):
        return node.args
    if isinstance(node, Abstraction):
        return (node.body,)
    return ()


def _depth(root) -> int:
    """Nodes on the longest root-to-leaf path, without recursion.
    Desugaring shares subtrees (`a <-> b` holds a and b twice), so each
    node is measured once, by identity."""
    depth = {}
    stack = [root]
    while stack:
        node = stack[-1]
        kids = _children(node)
        todo = [k for k in kids if id(k) not in depth]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        depth[id(node)] = 1 + max((depth[id(k)] for k in kids), default=0)
    return depth[id(root)]


def _checked_depth(x, n_tokens: int):
    # no token adds more than four nodes to a root-to-leaf path of the
    # desugared tree (`a <-> b` adds four above b, `exists1 x .` ten
    # over three tokens), so only long texts need measuring
    if 4 * n_tokens > MAX_DEPTH and _depth(x) > MAX_DEPTH:
        raise ParseError("formula nested too deeply")
    return x


def _parse(text: str, sig: Signature, rule):
    """Run one parser rule over the whole text."""
    tokens = _lex(text)
    p = _Parser(tokens, sig)
    try:
        x = rule(p)
    except RecursionError:
        raise ParseError("formula nested too deeply") from None
    if p.peek().kind != "EOF":
        p.fail("end of input", p.peek())
    return _checked_depth(x, len(tokens))


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse and desugar a formula.

    Raises:
        ParseError: also when the formula is nested deeper than
            MAX_DEPTH.
    """
    return _parse(text, sig, _Parser.formula)


def parse_term(text: str, sig: Signature) -> Term:
    """Parse a single term (the whole text must be one term).

    Raises:
        ParseError: also when the term is nested deeper than MAX_DEPTH.
    """
    return _parse(text, sig, _Parser.term)


# ---------------------------------------------------------------------------
# free variables
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def free_vars(f: Formula) -> Tuple[str, ...]:
    """f's free variables, the `fv` it derived when it was built.  The
    cache hashes the whole tree, so the library reads `fv` instead."""
    if not isinstance(f, (Atom, Conj, Neg, Exists, Box)):
        raise IntlogError(f"not a formula: {f!r}")
    return f.fv


def all_var_names(f: Formula) -> set:
    """Every variable name occurring in f, free or bound.  A subtree
    that desugaring shares is visited once."""
    names = set()
    seen = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Variable):
            names.add(node.name)
        elif isinstance(node, Exists):
            names.add(node.var)
        elif isinstance(node, Abstraction):
            names.update(node.alpha)
        stack.extend(_children(node))
    return names


# ---------------------------------------------------------------------------
# substitution and grounding
# ---------------------------------------------------------------------------

def substitute(x: Union[Formula, Term], m: Mapping[str, Term]) -> Union[Formula, Term]:
    """Replace every free occurrence of each variable of m in x, a
    formula or a term, by its term, all at once, in one walk.  A binder
    (an `Exists`, or an abstraction, which binds its alpha) keeps only
    the variables free in it, and a node reached with an empty mapping
    is returned unchanged.  Each `Conj` is rewritten once per mapping,
    so a subformula that desugaring shares (`mk_iff`,
    `mk_exists_unique`) stays shared and a `<->` chain costs time linear
    in its links.

    Raises:
        CaptureError: if a free variable of a replacing term would fall
            under a binder of x (no automatic renaming is attempted).
    """
    if not m:
        return x
    # only a binder of one of these names can capture anything
    capturable = {v for t in m.values() for v in t.fv}

    def sub(x, m: dict, done: dict):
        # done maps the id of a Conj of the input (which outlives the walk,
        # so no id is reused) to its rewrite under m: one table per
        # mapping.  A binder passes both on unless it drops a name, so
        # the table also serves below a binder reached twice
        if isinstance(x, Variable):
            return m.get(x.name, x)
        if isinstance(x, Atom):
            return Atom(x.pred, tuple([sub(a, m, done) for a in x.args]))
        if isinstance(x, Conj):
            out = done.get(id(x))
            if out is None:
                out = done[id(x)] = Conj(sub(x.left, m, done), sub(x.right, m, done))
            return out
        if isinstance(x, (Neg, Box)):
            return type(x)(sub(x.sub, m, done))
        if isinstance(x, (Constant, ElemTerm)):
            return x
        if not isinstance(x, (Exists, Abstraction)):
            raise IntlogError(f"not a formula: {x!r}")
        if not m.keys() <= set(x.fv):
            m, done = {v: t for v, t in m.items() if v in x.fv}, {}
            if not m:
                return x
        bound = (x.var,) if isinstance(x, Exists) else x.alpha
        if not capturable.isdisjoint(bound):
            for var, t in m.items():
                captured = sorted(set(bound).intersection(t.fv))
                if captured:
                    raise CaptureError(f"substituting {t} for {var} would capture {captured[0]}")
        if isinstance(x, Exists):
            return Exists(x.var, sub(x.sub, m, done))
        return Abstraction(sub(x.body, m, done), x.alpha)

    return sub(x, dict(m), {})


def elem_term(e: DomainElement) -> ElemTerm:
    """The literal of a domain element: its name, which the element's
    world resolves back to it."""
    return ElemTerm(element_name(e))


def ground(x: Union[Formula, Term], g: Mapping[str, DomainElement]) -> Union[Formula, Term]:
    """Instantiate every free variable of x, a formula or a term, by its
    g-value, embedded as a `#name` literal, in one `substitute` call: a
    variable becomes its literal, and an abstraction's beta variables
    are replaced in its body, leaving beta empty.  A closed x comes
    back as itself.

    Raises:
        AssignmentError: if g misses a free variable of x.
    """
    missing = [v for v in x.fv if v not in g]
    if missing:
        raise AssignmentError(f"assignment does not cover {missing[0]!r}")
    return substitute(x, {v: elem_term(g[v]) for v in x.fv})


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def format_term(t: Term) -> str:
    if isinstance(t, Variable) or isinstance(t, Constant):
        return t.name
    if isinstance(t, ElemTerm):
        return f"#{check_element_name(t.name)}"
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
    if isinstance(f, Box):
        return f"[]{format_formula(f.sub)}"
    if isinstance(f, Exists):
        return f"(exists {f.var} . {format_formula(f.sub)})"
    raise IntlogError(f"not a formula: {f!r}")
