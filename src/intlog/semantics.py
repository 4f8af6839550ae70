"""The two-step semantics and its brute-force reference evaluator.

Step one is world-independent: `interpret` compiles a formula to a
concept, homomorphically (conjunction goes to a join-style conj whose
index pairs come from the two free-variable tuples, negation to neg,
and an existential to exists_n where n is the position of the variable
in the body's free tuple, or 0 when it is not free).  Step two is
`extensionalize`: each world maps concepts to relations through the
relational algebra.

`tarski_eval` is the independent reference: it enumerates assignments
and decides satisfaction recursively, never touching the relational
algebra, so `check_diagram` compares two genuinely separate evaluators.

Abstraction terms: `interpret_abstraction` maps << f >>_{a}^{b} to the
union, over all instantiations of the beta variables by domain
elements, of the interpretation of the instantiated body; with empty
beta it is just the interpretation of the body.  When an abstraction
occurs as an argument inside a formula, `interpret` embeds its concept
as a single reified element, while the reference evaluator resolves
the term per assignment.  The two agree only on beta-closed arguments:
an open beta variable is free in the formula but would vanish from the
compiled concept, so `interpret` rejects such an argument with an
AbstractionError.  Grounding closes it (`ground` instantiates the beta
variables), and `assignment_extend` resolves it per assignment.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional

from .concepts import (
    Concept,
    TRUTH_CONCEPT,
    atom_concept,
    conj,
    exists,
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
    Diamond,
    ElemTerm,
    Exists,
    Formula,
    ID_PRED,
    Neg,
    PredicateSymbol,
    TRUE_PRED,
    Term,
    Variable,
    free_vars,
    ground,
    ground_term,
    validate_abstraction,
)


class SemanticsError(IntlogError):
    pass


class WorldError(IntlogError):
    """A world or world-set file is malformed or inconsistent."""


Assignment = Mapping[str, DomainElement]


class World:
    """A finite interpretation: domain, constant denotations, and one
    relation per predicate symbol.

    The identity predicate is populated automatically and cannot be
    overridden.  Worlds are immutable after construction apart from the
    extension memo, which caches extensionalize results per concept id,
    and the back reference to the one WorldSet that adopts the world.
    """

    def __init__(
        self,
        name: str,
        domain: Iterable[DomainElement],
        const_map: Optional[Dict[str, DomainElement]] = None,
        pred_map: Optional[Dict[PredicateSymbol, Relation]] = None,
        element_names: Optional[Dict[str, DomainElement]] = None,
    ):
        self.name = name
        self.domain = frozenset(domain)
        if not self.domain:
            raise WorldError("a world needs a non-empty domain")
        self.const_map = dict(const_map or {})
        self.pred_map = dict(pred_map or {})
        if element_names is None:
            element_names = {}
            for e in self.domain:
                n = element_name(e)
                if n in element_names:
                    raise WorldError(f"duplicate element name {n!r}")
                element_names[n] = e
        self.element_names = element_names
        for c, e in self.const_map.items():
            if e not in self.domain:
                raise WorldError(f"constant {c} denotes {element_name(e)}, not in domain")
        for p, r in self.pred_map.items():
            if p == ID_PRED:
                raise WorldError("the identity relation cannot be declared")
            if r.arity != p.arity:
                raise WorldError(f"relation for {p} has arity {r.arity}")
            for t in r.tuples:
                for e in t:
                    if e not in self.domain:
                        raise WorldError(
                            f"tuple element {element_name(e)} of {p} not in domain"
                        )
        self.pred_map[ID_PRED] = identity_relation(self.domain)
        self.world_set = None  # set once, when a WorldSet adopts this world
        self._memo: Dict[int, Relation] = {}
        self._sorted = sorted(self.domain, key=element_key)

    def sorted_domain(self) -> list:
        return self._sorted

    def clear_memo(self) -> None:
        self._memo.clear()

    def __repr__(self) -> str:
        return f"<world {self.name}: |D|={len(self.domain)}>"


# ---------------------------------------------------------------------------
# step one: formulas to concepts
# ---------------------------------------------------------------------------

def _term_element(t: Term, w: Optional[World]) -> DomainElement:
    """Resolve a ground term position to a domain element."""
    if isinstance(t, Constant):
        if w is None:
            raise SemanticsError(f"constant {t.name} needs a world to resolve")
        if t.name not in w.const_map:
            raise SemanticsError(f"constant {t.name} has no denotation in {w.name}")
        return w.const_map[t.name]
    if isinstance(t, ElemTerm):
        if t.elem is not None:
            return t.elem
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
        return ConceptHandle(interpret_abstraction(t, w).cid)
    raise SemanticsError(f"not a ground term: {t}")


def interpret(f: Formula, w: Optional[World] = None) -> Concept:
    """Compile a desugared formula to its concept (the fixed
    interpretation).  A world is only needed to resolve constants,
    element literals and abstraction arguments; the resulting concept
    is world-independent because constants are rigid across a set."""
    if isinstance(f, Atom):
        if f.pred == TRUE_PRED:
            return TRUTH_CONCEPT
        slots: Dict[str, int] = {}
        cargs = []
        for t in f.args:
            if isinstance(t, Variable):
                if t.name not in slots:
                    slots[t.name] = len(slots) + 1
                cargs.append(slots[t.name])
            else:
                cargs.append(_term_element(t, w))
        return atom_concept(f.pred, cargs)
    if isinstance(f, Conj):
        lf, rf = free_vars(f.left), free_vars(f.right)
        s = {
            (lf.index(v) + 1, i + 1)
            for i, v in enumerate(rf)
            if v in lf
        }
        return conj(s, interpret(f.left, w), interpret(f.right, w))
    if isinstance(f, Neg):
        return neg(interpret(f.sub, w))
    if isinstance(f, Exists):
        fv = free_vars(f.sub)
        n = fv.index(f.var) + 1 if f.var in fv else 0
        return exists(n, interpret(f.sub, w))
    raise SemanticsError(f"not a formula: {f!r}")


def interpret_abstraction(t: Abstraction, w: Optional[World] = None) -> Concept:
    """Interpret an abstraction term as a degree-|alpha| concept.

    With empty beta this is the interpretation of the body; otherwise
    it is the union over all beta instantiations by elements of the
    world's domain.

    Raises:
        AbstractionError: if alpha and beta do not partition the body's
            free variables (a malformed term denotes nothing useful, so
            it is rejected rather than given a junk value).
    """
    validate_abstraction(t)
    if not t.beta:
        return interpret(t.body, w)
    if w is None:
        raise SemanticsError("instantiating beta variables needs a world")
    members = []
    for combo in itertools.product(w.sorted_domain(), repeat=len(t.beta)):
        g = dict(zip(t.beta, combo))
        members.append(interpret(ground_term(t, g).body, w))
    return union_concepts(members)


def assignment_extend(t: Term, g: Assignment, w: World) -> DomainElement:
    """The canonical extension of an assignment from variables to all
    terms: variables through g, constants through the world's constant
    map, and abstraction terms as reified concepts with their beta
    variables instantiated by g."""
    if isinstance(t, Variable):
        if t.name not in g:
            raise AssignmentError(f"assignment does not cover {t.name!r}")
        return g[t.name]
    if isinstance(t, Abstraction):
        validate_abstraction(t)
        gt = ground_term(t, {v: g[v] for v in t.beta if v in g})
        return ConceptHandle(interpret(gt.body, w).cid)
    return _term_element(t, w)


# ---------------------------------------------------------------------------
# step two: concepts to relations, per world
# ---------------------------------------------------------------------------

def atom_row(u: Concept, row: tuple) -> Optional[tuple]:
    """The tuple a base-relation row contributes to an atom concept's
    extension: the row's values at the slots, in slot order.  None when
    the row does not match the pattern (an element differs from a fixed
    argument, or a repeated slot sees two elements)."""
    vals: Dict[int, DomainElement] = {}
    for elem, arg in zip(row, u.args):
        if isinstance(arg, int):
            if vals.setdefault(arg, elem) != elem:
                return None
        elif arg != elem:
            return None
    return tuple(vals[i] for i in range(1, u.degree + 1))


def no_relation_error(pred: PredicateSymbol, w: World) -> SemanticsError:
    return SemanticsError(f"predicate {pred} has no relation in world {w.name}")


def _atom_extension(u: Concept, w: World) -> Relation:
    base = w.pred_map.get(u.pred)
    if base is None:
        raise no_relation_error(u.pred, w)
    out = {atom_row(u, row) for row in base.tuples}
    out.discard(None)
    return Relation(u.degree, out)


def _ext(u: Concept, w: World, memo: Optional[Dict[int, Relation]]) -> Relation:
    if memo is not None:
        cached = memo.get(u.cid)
        if cached is not None:
            return cached
    kind = u.kind
    if kind == "atom":
        r = _atom_extension(u, w)
    elif kind == "conj":
        r = natural_join(_ext(u.subs[0], w, memo), _ext(u.subs[1], w, memo), u.s)
    elif kind == "neg":
        r = complement(_ext(u.subs[0], w, memo), w.domain)
    elif kind == "exists":
        r = project_out(_ext(u.subs[0], w, memo), u.n)
    elif kind == "union":
        parts = [_ext(m_, w, memo) for m_ in u.subs]
        r = Relation(u.degree, frozenset().union(*(p.tuples for p in parts)))
    elif kind == "necess":
        ws = w.world_set
        if ws is None:
            raise SemanticsError(
                "necess needs a world that belongs to a world set"
            )
        tuple_sets = [
            _ext(u.subs[0], w2, w2._memo if memo is not None else None)
            for w2 in ws.worlds
        ]
        common = frozenset.intersection(*(frozenset(p.tuples) for p in tuple_sets))
        r = Relation(u.degree, common)
        if memo is not None:
            # rigid: the same relation in every member, so memoize it there
            for w2 in ws.worlds:
                w2._memo[u.cid] = r
    elif kind == "id":
        r = w.pred_map[ID_PRED]
    elif kind == "truth":
        r = TRUE
    else:
        raise SemanticsError(f"unknown concept kind {kind!r}")
    if memo is not None:
        memo[u.cid] = r
    return r


def extensionalize(u: Concept, w: World) -> Relation:
    """The extension of a concept in a world; arity equals the degree.
    Results are memoized per (concept, world)."""
    return _ext(u, w, w._memo)


def extensionalize_nomemo(u: Concept, w: World) -> Relation:
    """Same result, no cache reads or writes (cache-transparency checks
    and one-shot ground evaluations)."""
    return _ext(u, w, None)


# ---------------------------------------------------------------------------
# the reference evaluator
# ---------------------------------------------------------------------------

def tarski_satisfied(f: Formula, g: Assignment, w: World) -> bool:
    """Direct recursive satisfaction, independent of the concept and
    relational machinery (atoms are decided by tuple membership).

    Box and Diamond range over every world of w's world set (total
    accessibility), so they need a world that belongs to one.
    """
    if isinstance(f, Atom):
        if f.pred == TRUE_PRED:
            return True
        if f.pred == ID_PRED:
            return assignment_extend(f.args[0], g, w) == assignment_extend(f.args[1], g, w)
        base = w.pred_map.get(f.pred)
        if base is None:
            raise no_relation_error(f.pred, w)
        row = tuple(assignment_extend(t, g, w) for t in f.args)
        return row in base.tuples
    if isinstance(f, Conj):
        return tarski_satisfied(f.left, g, w) and tarski_satisfied(f.right, g, w)
    if isinstance(f, Neg):
        return not tarski_satisfied(f.sub, g, w)
    if isinstance(f, Exists):
        base = dict(g)
        for d in w.sorted_domain():
            base[f.var] = d
            if tarski_satisfied(f.sub, base, w):
                return True
        return False
    if isinstance(f, (Box, Diamond)):
        ws = w.world_set
        if ws is None:
            raise SemanticsError(
                "box and diamond need a world that belongs to a world set"
            )
        over = all if isinstance(f, Box) else any
        return over(tarski_satisfied(f.sub, g, w2) for w2 in ws.worlds)
    raise SemanticsError(f"not a formula: {f!r}")


def tarski_eval(f: Formula, w: World) -> Relation:
    """Brute-force evaluation: enumerate assignments over the free
    variables and collect the satisfying tuples.  Closed formulas give
    an arity-0 truth value."""
    fv = free_vars(f)
    rows = set()
    for combo in itertools.product(w.sorted_domain(), repeat=len(fv)):
        if tarski_satisfied(f, dict(zip(fv, combo)), w):
            rows.add(combo)
    return Relation(len(fv), rows, attrs=fv or None)


# ---------------------------------------------------------------------------
# evaluation helpers and the checkers
# ---------------------------------------------------------------------------

def eval_formula(f: Formula, w: World) -> Relation:
    """Extension of f in w through the two-step route, with the free
    tuple attached as column labels when the arities agree."""
    r = extensionalize(interpret(f, w), w)
    fv = free_vars(f)
    if r.arity == len(fv):
        return r.with_attrs(fv or None)
    return r


def eval_abstraction(t: Abstraction, w: World) -> Relation:
    """Extension of an abstraction term, labeled by its alpha variables
    in body order."""
    r = extensionalize(interpret_abstraction(t, w), w)
    labels = tuple(v for v in free_vars(t.body) if v not in set(t.beta))
    if r.arity == len(labels):
        return r.with_attrs(labels or None)
    return r


@dataclass(frozen=True)
class DiagramReport:
    """Result of comparing the two evaluation routes on one formula in
    one world."""

    ok: bool
    formula: Formula
    world: str
    via_satisfaction: Relation
    via_concepts: Relation
    witness: Optional[tuple] = None

    def __str__(self) -> str:
        from .syntax import format_formula

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
        return DiagramReport(False, f, w.name, r1, r2, None)
    ok = r1.tuples == r2.tuples
    witness = None
    if not ok:
        witness = min(r1.tuples ^ r2.tuples, key=tuple_key)
    return DiagramReport(ok, f, w.name, r1, r2, witness)


def check_tarski_constraint(f: Formula, g: Assignment, w: World) -> bool:
    """The grounding constraint: the grounded formula is true exactly
    when the tuple of assigned values lies in the formula's extension."""
    fv = free_vars(f)
    fg = ground(f, g)
    lhs = extensionalize_nomemo(interpret(fg, w), w).as_bool()
    row = tuple(g[v] for v in fv)
    rhs = row in extensionalize(interpret(f, w), w).tuples
    return lhs == rhs
