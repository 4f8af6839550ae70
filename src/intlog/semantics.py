"""The two-step semantics and its brute-force reference evaluator.

Step one is world-independent: `interpret` compiles a formula to a
concept, homomorphically (conjunction goes to a join-style conj whose
index pairs come from the two free-variable tuples, negation to neg,
an existential to exists_n where n is the position of the variable
in the body's free tuple, or 0 when it is not free, and Box to necess;
Diamond is `~Box~`, so it reaches neg(necess(neg))).  Step two is
`extensionalize`: each world maps concepts to relations through the
relational algebra.  A concept's extension depends only on the
world's relations for the predicates it reads (and the domain), so the
memo is keyed by concept id and those relations' tuple sets.  A world
set keeps the one memo that lasts across calls, for all its members;
otherwise a memo lives for one call, so each shared subconcept is
evaluated once per walk.

`tarski_eval` is the independent reference: it enumerates assignments
and decides satisfaction recursively, never touching the relational
algebra, and `assignment_extend` resolves constants and element
literals itself, not through the compiled route's `_term_element`.  So
`check_diagram` compares two separate evaluators.  The reference walk's
value is a bitmask of worlds: one bit for the world asked about, and
one bit per member of its set (a lone world is a set of one) below a
Box, whose body is walked once over the whole set from tables the set
gives for that check alone, never from the compiled route's tables.
Besides the syntax layer, the reference calls `interpret` only to name
the concept that an abstraction argument reifies.

Abstraction terms: `interpret` is one map from formulas and
abstraction terms alike to concepts.  It maps << f >>_{a}^{b} to the
union (built by the union law from conj and neg), over all
instantiations of the beta variables by domain elements, of the
interpretation of the instantiated body; with empty beta it is just
the interpretation of the body.  When an abstraction
occurs as an argument inside a formula, `interpret` embeds its concept
as a single reified element, while the reference evaluator resolves
the term per assignment.  The two agree only on beta-closed arguments:
an open beta variable is free in the formula but would vanish from the
compiled concept, so `interpret` rejects such an argument with an
AbstractionError.  Grounding closes it (`ground`, of the formula or of
the term alone, instantiates the beta variables), and
`assignment_extend` resolves it per assignment.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Union

from .concepts import (
    Concept,
    atom_concept,
    conj,
    exists,
    necess,
    neg,
    union_concepts,
)
from .errors import IntlogError
from .relalg import (
    ConceptHandle,
    DomainElement,
    Particular,
    Relation,
    TRUE,
    complement,
    element_key,
    element_name,
    identity_relation,
    natural_join,
    project_out,
    tuple_key,
)
from .syntax import (
    Abstraction,
    AbstractionError,
    AssignmentError,
    Atom,
    Box,
    Conj,
    Constant,
    ElemTerm,
    Exists,
    Formula,
    ID_PRED,
    Neg,
    PredicateSymbol,
    TRUE_PRED,
    Term,
    Variable,
    format_formula,
    ground,
)


class SemanticsError(IntlogError):
    pass


class WorldError(IntlogError):
    """A world or world-set file is malformed or inconsistent."""


Assignment = Mapping[str, DomainElement]


#: The predicates whose relations every world carries itself, by name.
RESERVED_PREDS = {ID_PRED: "identity", TRUE_PRED: "tautology"}


class World:
    """A finite interpretation: domain, constant denotations, and one
    relation per predicate symbol.

    The world carries the relations of the reserved predicates itself,
    and neither can be declared: the identity relation on its domain for
    `==` and TRUE for `true`.  It derives its table of element names,
    `element_names`, from the domain too.  Worlds are
    immutable after construction apart from the back reference to the
    one WorldSet that adopts the world, which holds the extension memo.
    A member of an enumerated set is a view the set builds when it is
    asked for: changing it changes neither the set nor the next view of
    the same member.
    """

    def __init__(
        self,
        name: str,
        domain: Iterable[DomainElement],
        const_map: Optional[Dict[str, DomainElement]] = None,
        pred_map: Optional[Dict[PredicateSymbol, Relation]] = None,
    ):
        self.name = name
        self.domain = frozenset(domain)
        if not self.domain:
            raise WorldError("a world needs a non-empty domain")
        self.const_map = dict(const_map or {})
        self.pred_map = dict(pred_map or {})
        self._sorted = sorted(self.domain, key=element_key)
        self.element_names: Dict[str, DomainElement] = {}
        for e in self._sorted:
            n = element_name(e)
            if n in self.element_names:
                raise WorldError(f"duplicate element name {n!r}")
            self.element_names[n] = e
        for c, e in self.const_map.items():
            if e not in self.domain:
                raise WorldError(f"constant {c} denotes {element_name(e)}, not in domain")
        for p, r in self.pred_map.items():
            if p in RESERVED_PREDS:
                raise WorldError(f"the {RESERVED_PREDS[p]} relation cannot be declared")
            if r.arity != p.arity:
                raise WorldError(f"relation for {p} has arity {r.arity}")
            for t in r.tuples:
                for e in t:
                    if e not in self.domain:
                        raise WorldError(
                            f"tuple element {element_name(e)} of {p} not in domain"
                        )
        self.pred_map[ID_PRED] = identity_relation(self._sorted)
        self.pred_map[TRUE_PRED] = TRUE
        self._relations = {p: r.tuples for p, r in self.pred_map.items()}
        self.world_set = None  # set once, when a WorldSet adopts this world

    def sorted_domain(self) -> list:
        return self._sorted

    def clear_memo(self) -> None:
        """Empty its set's extension memo; a lone world keeps none."""
        if self.world_set is not None:
            self.world_set.extensions.clear()

    def __repr__(self) -> str:
        return f"<world {self.name}: |D|={len(self.domain)}>"


# ---------------------------------------------------------------------------
# step one: formulas to concepts
# ---------------------------------------------------------------------------

def _term_element(t: Term, w: Optional[World]) -> DomainElement:
    """Resolve a ground term position to a domain element; with no
    world, #a is Particular("a"), even where a world reifies the name a."""
    if isinstance(t, Constant):
        if w is None:
            raise SemanticsError(f"constant {t.name} needs a world to resolve")
        if t.name not in w.const_map:
            raise SemanticsError(f"constant {t.name} has no denotation in {w.name}")
        return w.const_map[t.name]
    if isinstance(t, ElemTerm):
        if w is None:
            return Particular(t.name)
        if t.name not in w.element_names:
            raise SemanticsError(f"unknown element #{t.name} in world {w.name}")
        return w.element_names[t.name]
    if isinstance(t, Abstraction):
        if t.beta:
            raise AbstractionError(
                f"abstraction argument {t} has open beta variables"
                f" {', '.join(t.beta)}"
            )
        return ConceptHandle(interpret(t, w).cid)
    raise SemanticsError(f"not a ground term: {t}")


def interpret(x: Union[Formula, Abstraction], w: Optional[World] = None) -> Concept:
    """Compile a desugared formula or an abstraction term to its concept
    (the fixed interpretation).  A term with empty beta gives its body's
    concept, otherwise the union over every instantiation of beta by w's
    domain of the instantiated body's concept.  A world gives those
    instantiations and resolves constants, element literals and
    abstraction arguments; the concept is world-independent, as constants
    are rigid across a set.  With no world, #a compiles to
    Particular("a"), wrong in any world that reifies the name a."""
    if not isinstance(x, Abstraction):
        return _compile(x, w, {})
    if not x.beta:
        return interpret(x.body, w)
    if w is None:
        raise SemanticsError("instantiating beta variables needs a world")
    return union_concepts([
        interpret(ground(x, dict(zip(x.beta, combo))).body, w)
        for combo in itertools.product(w.sorted_domain(), repeat=len(x.beta))
    ])


def _compile(f: Formula, w: Optional[World], done: dict) -> Concept:
    """f's concept, memoized in done by node identity for one `interpret`
    call; slots, join pairs and projected positions come from `fv`."""
    found = done.get(id(f))
    if found is not None:
        return found
    if isinstance(f, Atom):
        cargs = [
            f.fv.index(t.name) + 1 if isinstance(t, Variable) else _term_element(t, w)
            for t in f.args
        ]
        out = atom_concept(f.pred, cargs)
    elif isinstance(f, Conj):
        lf, rf = f.left.fv, f.right.fv
        s = {(lf.index(v) + 1, i + 1) for i, v in enumerate(rf) if v in lf}
        out = conj(s, _compile(f.left, w, done), _compile(f.right, w, done))
    elif isinstance(f, Neg):
        out = neg(_compile(f.sub, w, done))
    elif isinstance(f, Exists):
        fv = f.sub.fv
        out = exists(fv.index(f.var) + 1 if f.var in fv else 0, _compile(f.sub, w, done))
    elif isinstance(f, Box):
        out = necess(_compile(f.sub, w, done))
    else:
        raise SemanticsError(f"not a formula: {f!r}")
    done[id(f)] = out
    return out


def assignment_extend(t: Term, g: Assignment, w: World) -> DomainElement:
    """The canonical extension of an assignment from variables to all
    terms: variables through g, constants through the world's constant
    map, element literals through the world's element names, and
    abstraction terms as reified concepts with their beta variables
    instantiated by g.  It resolves every term itself, not through
    the compiled route's `_term_element`."""
    if isinstance(t, Variable):
        if t.name not in g:
            raise AssignmentError(f"assignment does not cover {t.name!r}")
        return g[t.name]
    if isinstance(t, Constant):
        if t.name not in w.const_map:
            raise SemanticsError(f"constant {t.name} has no denotation in {w.name}")
        return w.const_map[t.name]
    if isinstance(t, ElemTerm):
        if t.name not in w.element_names:
            raise SemanticsError(f"unknown element #{t.name} in world {w.name}")
        return w.element_names[t.name]
    if isinstance(t, Abstraction):
        return ConceptHandle(interpret(ground(t, g), w).cid)
    raise SemanticsError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# step two: concepts to relations, per world
# ---------------------------------------------------------------------------

def atom_row(u: Concept, row: tuple) -> Optional[tuple]:
    """The tuple a base-relation row contributes to an atom concept's
    extension: the row's values at the slots, in slot order.  None when
    the row does not match the pattern (an element differs from a fixed
    argument, or a repeated slot sees two elements)."""
    if u.pattern is None:
        return row
    pick, same, fixed = u.pattern
    for i, j in same:
        if row[i] != row[j]:
            return None
    for i, e in fixed:
        if row[i] != e:
            return None
    return tuple([row[i] for i in pick])


def no_relation_error(pred: PredicateSymbol, w: World) -> SemanticsError:
    return SemanticsError(f"predicate {pred} has no relation in world {w.name}")


def _ext(u: Concept, w: World, memo: Dict[tuple, Relation]) -> Relation:
    """u's extension in w through memo, keyed by the concept id and the
    tuple sets of the relations u reads.  A necess is the box of its
    body, from the set's bitmask tables; a lone world's is its body's."""
    try:
        key = (u.cid, u.relation_key(w._relations))
    except KeyError:
        missing = next(p for p in u.reads if p not in w._relations)
        raise no_relation_error(missing, w) from None
    cached = memo.get(key)
    if cached is not None:
        return cached
    kind = u.kind
    if kind == "atom":
        rows = w.pred_map[u.pred].tuples
        if u.pattern is not None:
            rows = frozenset({atom_row(u, row) for row in rows} - {None})
        r = Relation(u.degree, rows)
    elif kind == "conj":
        r = natural_join(_ext(u.subs[0], w, memo), _ext(u.subs[1], w, memo), u.s)
    elif kind == "neg":
        r = complement(_ext(u.subs[0], w, memo), w.domain)
    elif kind == "exists":
        r = project_out(_ext(u.subs[0], w, memo), u.n)
    elif kind == "necess":
        ws = w.world_set
        r = _ext(u.subs[0], w, memo) if ws is None else ws.box_extension(u.subs[0])
    else:
        raise SemanticsError(f"unknown concept kind {kind!r}")
    memo[key] = r
    return r


def extensionalize(u: Concept, w: World) -> Relation:
    """The extension of a concept in a world; arity equals the degree.
    A member of a world set evaluates through the set's memo, so
    members that hold equal relations share one result, and a necess
    concept (which reads none) is taken once per set from the set's
    bitmask tables.  A lone world memoizes for the one call."""
    ws = w.world_set
    return _ext(u, w, {} if ws is None else ws.extensions)


def extensionalize_nomemo(u: Concept, w: World) -> Relation:
    """Same result, bypassing the set's extension memo, though a necess
    fills its set's bitmask tables (cache-transparency checks, ground
    formulas)."""
    return _ext(u, w, {})


# ---------------------------------------------------------------------------
# the reference evaluator
# ---------------------------------------------------------------------------

def tarski_satisfied(f: Formula, g: Assignment, w: World) -> bool:
    """Direct recursive satisfaction, independent of the concept and
    relational machinery (atoms are decided by tuple membership; `==` is
    element equality and `true` holds, whatever relations w carries).

    Box ranges over every world of w's world set (total
    accessibility), and a lone world is a set of one; Diamond is
    `~Box~`.  A Box is one walk of its body over the whole set at once,
    from tables the set gives for this check alone
    (`WorldSet.membership`).
    """
    return _holds(f, g, w, 1, {}) == 1


def _holds(f: Formula, g: Assignment, w: World, sel: int, tables: dict) -> int:
    """The reference walk: the bitmask of the worlds in sel where f
    holds under g.  sel is 1, the world w alone, whose own relations
    decide an atom; or the bitmask of every member of w's set (a Box
    body), whose shared domain and rigid constants are read off w and
    where an atom reads its predicate's (row -> member bitmask) table,
    asked of the set once per check and kept in tables.  A Box holds in
    all of sel if its body holds in every member, else in none; Diamond
    is `~Box~`, so it needs no case of its own.  A lone world is a set
    of one, as is a set of one member: its Box body walks with sel 1."""
    if isinstance(f, Atom):
        if f.pred == TRUE_PRED:
            return sel
        if f.pred == ID_PRED:
            same = assignment_extend(f.args[0], g, w) == assignment_extend(f.args[1], g, w)
            return sel if same else 0
        row = tuple(assignment_extend(t, g, w) for t in f.args)
        if sel == 1:
            base = w.pred_map.get(f.pred)
            if base is None:
                raise no_relation_error(f.pred, w)
            return row in base.tuples  # a bool is the one-bit mask
        table = tables.get(f.pred)
        if table is None:
            table = tables[f.pred] = w.world_set.membership(f.pred)
        return table.get(row, 0)
    if isinstance(f, Conj):
        m = _holds(f.left, g, w, sel, tables)
        return m and m & _holds(f.right, g, w, sel, tables)
    if isinstance(f, Neg):
        return sel & ~_holds(f.sub, g, w, sel, tables)
    if isinstance(f, Exists):
        out = 0
        base = dict(g)
        for d in w.sorted_domain():
            base[f.var] = d
            out |= _holds(f.sub, base, w, sel, tables)
            if out == sel:
                break
        return out
    if isinstance(f, Box):
        full = 1 if w.world_set is None else w.world_set.all_mask
        return sel if _holds(f.sub, g, w, full, tables) == full else 0
    raise SemanticsError(f"not a formula: {f!r}")


def tarski_eval(f: Formula, w: World) -> Relation:
    """Brute-force evaluation: enumerate assignments over the free
    variables and collect the satisfying tuples.  Closed formulas give
    an arity-0 truth value.  The assignments are one check, so a Box
    asks the set for each table once."""
    fv = f.fv
    rows = set()
    tables: dict = {}
    for combo in itertools.product(w.sorted_domain(), repeat=len(fv)):
        if _holds(f, dict(zip(fv, combo)), w, 1, tables):
            rows.add(combo)
    return Relation(len(fv), frozenset(rows), fv or None)


# ---------------------------------------------------------------------------
# evaluation helpers and the checkers
# ---------------------------------------------------------------------------

def eval_formula(x: Union[Formula, Abstraction], w: World) -> Relation:
    """Extension of a formula or an abstraction term in w through the
    two-step route, labeled by the formula's free variables or the
    term's alpha variables in body order, unless a fault in the route
    changed the arity."""
    r = extensionalize(interpret(x, w), w)
    labels = tuple(v for v in x.body.fv if v in x.alpha) if isinstance(x, Abstraction) else x.fv
    return r.with_attrs(labels or None) if r.arity == len(labels) else r


@dataclass(frozen=True)
class DiagramReport:
    """Result of comparing the two evaluation routes on one formula in
    one world."""

    ok: bool
    formula: Formula
    world: str
    witness: Optional[tuple] = None

    def __str__(self) -> str:
        head = "ok" if self.ok else "MISMATCH"
        out = f"{head}: {format_formula(self.formula)} @ {self.world}"
        if not self.ok and self.witness is not None:
            out += f" witness ({', '.join(element_name(e) for e in self.witness)})"
        return out


def check_diagram(f: Formula, w: World) -> DiagramReport:
    """Evaluate f by both routes in w and compare."""
    r1 = tarski_eval(f, w)
    r2 = eval_formula(f, w)
    if r1.arity != r2.arity:
        return DiagramReport(False, f, w.name)
    ok = r1.tuples == r2.tuples
    witness = None
    if not ok:
        witness = min(r1.tuples ^ r2.tuples, key=tuple_key)
    return DiagramReport(ok, f, w.name, witness)


def check_tarski_constraint(f: Formula, g: Assignment, w: World) -> bool:
    """The grounding constraint: the grounded formula is true exactly
    when the tuple of assigned values lies in the formula's extension."""
    fg = ground(f, g)
    lhs = extensionalize_nomemo(interpret(fg, w), w).as_bool()
    row = tuple(g[v] for v in f.fv)
    rhs = row in extensionalize(interpret(f, w), w).tuples
    return lhs == rhs
