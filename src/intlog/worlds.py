"""World sets and the modal layer on top of them.

A WorldSet is a finite, ordered family of worlds over one shared domain
and constant map (constants are rigid designators).  Accessibility is
total, so box and diamond quantify over every member.  Modal notions
that are defined against "all" extensionalization functions are
evaluated relative to the set, which is the only finite reading; every
report therefore carries the member count.

Besides explicit files, small signatures can be swept exhaustively:
`enumerate_worlds` produces every assignment of extensions to the
declared predicates in a fixed order, so world names like w13 are
stable across runs and machines.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Union

from .concepts import Concept
from .errors import IntlogError
from .relalg import (
    DomainElement,
    Particular,
    Relation,
    element_key,
    element_name,
    rel,
    tuple_key,
)
from .semantics import (
    Assignment,
    World,
    WorldError,
    extensionalize,
    interpret,
    interpret_abstraction,
    tarski_satisfied,
)
# Box and Diamond are defined in syntax and imported here as well,
# next to satisfies, the one entry point that takes them.
from .syntax import (
    Abstraction,
    AssignmentError,
    Box,  # noqa: F401
    Diamond,  # noqa: F401
    Formula,
    PredicateSymbol,
    Signature,
    free_vars,
    ground_term,
)


class EnumerationError(IntlogError):
    """Exhaustive world enumeration would exceed the configured limit."""


class EquivError(IntlogError):
    pass


#: Default cap on the number of enumerated worlds.
DEFAULT_LIMIT = 1 << 20


class WorldSet:
    """An ordered family of worlds sharing domain and constant map.

    Member worlds are private copies of the ones passed in (with fresh
    extension memos) and carry a back reference, which is what lets a
    necess concept find its quantification range during
    extensionalization.
    """

    def __init__(self, worlds: Iterable[World], name: str = "ws"):
        members = list(worlds)
        if not members:
            raise WorldError("a world set needs at least one world")
        first = members[0]
        self.name = name
        self.worlds = []
        self._by_name: Dict[str, World] = {}
        for w in members:
            if w.domain != first.domain:
                raise WorldError(f"world {w.name} has a different domain")
            if w.const_map != first.const_map:
                raise WorldError(f"world {w.name} has different constant denotations")
            if w.name in self._by_name:
                raise WorldError(f"duplicate world name {w.name!r}")
            c = w.copy()
            c.world_set = self
            self.worlds.append(c)
            self._by_name[w.name] = c

    @property
    def domain(self):
        return self.worlds[0].domain

    def world(self, name: str) -> World:
        if name not in self._by_name:
            raise WorldError(f"no world named {name!r} in {self.name}")
        return self._by_name[name]

    def __iter__(self):
        return iter(self.worlds)

    def __len__(self) -> int:
        return len(self.worlds)

    def __repr__(self) -> str:
        return f"<world set {self.name}: {len(self.worlds)} worlds, |D|={len(self.domain)}>"

    def clear_memos(self) -> None:
        for w in self.worlds:
            w.clear_memo()


def enumerate_worlds(
    sig: Signature,
    domain: Iterable,
    const_map: Optional[Dict[str, Union[str, DomainElement]]] = None,
    limit: int = DEFAULT_LIMIT,
) -> WorldSet:
    """Every assignment of extensions to the declared predicates over
    the given domain, in a canonical deterministic order.

    Predicates are ordered by (name, arity); within one predicate, the
    candidate tuples are ordered lexicographically by element; a
    relation is encoded as a bitmask over that tuple order (bit i set
    means tuple i is in); worlds are produced with the first predicate's
    mask most significant and are named w0, w1, ...

    Constants are not guessed: a signature with constants needs an
    explicit const_map (element names or elements), shared by every
    world.
    """
    elems = []
    seen = set()
    for d in domain:
        e = Particular(d) if isinstance(d, str) else d
        if e in seen:
            raise EnumerationError(f"duplicate domain element {element_name(e)}")
        seen.add(e)
        elems.append(e)
    if not elems:
        raise EnumerationError("enumeration needs a non-empty domain")
    elems.sort(key=element_key)

    consts: Dict[str, DomainElement] = {}
    by_name = {element_name(e): e for e in elems}
    for c in sorted(sig.consts):
        if const_map is None or c not in const_map:
            raise EnumerationError(f"constant {c} needs an explicit denotation")
        v = const_map[c]
        if isinstance(v, str):
            if v not in by_name:
                raise EnumerationError(f"constant {c} maps to unknown element {v!r}")
            v = by_name[v]
        consts[c] = v

    preds = [PredicateSymbol(n, a) for n, a in sorted(sig.preds)]
    tuple_lists = [list(itertools.product(elems, repeat=p.arity)) for p in preds]
    total_bits = sum(len(ts) for ts in tuple_lists)
    count = 1 << total_bits
    if count > limit:
        raise EnumerationError(
            f"enumeration would produce {count} worlds, over the limit {limit}"
        )

    worlds = []
    for idx, masks in enumerate(
        itertools.product(*(range(1 << len(ts)) for ts in tuple_lists))
    ):
        pred_map = {
            p: rel(p.arity, [ts[i] for i in range(len(ts)) if mask >> i & 1])
            for p, ts, mask in zip(preds, tuple_lists, masks)
        }
        worlds.append(World(f"w{idx}", elems, consts, pred_map))
    return WorldSet(worlds, name=f"enum{len(worlds)}")


# ---------------------------------------------------------------------------
# intensions and modal extensions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Intension:
    """A concept together with its extension in every world of a set:
    the meaning as a function from worlds to relations."""

    concept: Concept
    table: Dict[str, Relation]


def montague_intension(f: Formula, ws: WorldSet) -> Intension:
    """Tabulate the extension of f in every world.  For closed f the
    table holds arity-0 truth values."""
    u = interpret(f, ws.worlds[0])
    return Intension(u, {w.name: extensionalize(u, w) for w in ws.worlds})


def box_extension(u: Concept, ws: WorldSet) -> Relation:
    """Intersection of the concept's extensions over all worlds."""
    parts = [frozenset(extensionalize(u, w).tuples) for w in ws.worlds]
    return Relation(u.degree, frozenset.intersection(*parts))


def diamond_extension(u: Concept, ws: WorldSet) -> Relation:
    """Union of the concept's extensions over all worlds."""
    parts = [frozenset(extensionalize(u, w).tuples) for w in ws.worlds]
    return Relation(u.degree, frozenset.union(*parts))


# ---------------------------------------------------------------------------
# Kripke satisfaction
# ---------------------------------------------------------------------------

def satisfies(ws: WorldSet, w: World, g: Assignment, f: Formula) -> bool:
    """Kripke satisfaction at a member world under a total assignment:
    the reference evaluator, whose Box and Diamond range over every
    world of the set (total accessibility)."""
    if w.world_set is not ws:
        raise WorldError(f"world {w.name} is not a member of world set {ws.name}")
    missing = [v for v in free_vars(f) if v not in g]
    if missing:
        raise AssignmentError(f"assignment does not cover {missing}")
    return tarski_satisfied(f, g, w)


# ---------------------------------------------------------------------------
# intensional equivalence of abstraction terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivReport:
    equivalent: bool
    mode: str  # strong | weak
    same_concept: bool
    world_count: int
    world: Optional[str] = None
    row: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.equivalent

    def __str__(self) -> str:
        scope = f"[relative to {self.world_count} worlds]"
        if self.equivalent:
            ident = "identical" if self.same_concept else "distinct"
            return f"equivalent ({self.mode}); concepts {ident} {scope}"
        out = f"not equivalent ({self.mode})"
        if self.world is not None:
            row = (
                f", tuple ({', '.join(element_name(e) for e in self.row)})"
                if self.row is not None
                else ""
            )
            out += f" (witness: world {self.world}{row})"
        elif self.row is not None:
            out += f" (witness tuple ({', '.join(element_name(e) for e in self.row)}))"
        return f"{out} {scope}"


def _grounded_concepts(t1: Abstraction, t2: Abstraction, g: Assignment, ws: WorldSet):
    if len(t1.alpha) != len(t2.alpha):
        raise EquivError(
            f"alpha arity mismatch: {len(t1.alpha)} vs {len(t2.alpha)}"
        )
    anchor = ws.worlds[0]
    u1 = interpret_abstraction(ground_term(t1, g), anchor)
    u2 = interpret_abstraction(ground_term(t2, g), anchor)
    return u1, u2


def _first_diff(r1: Relation, r2: Relation) -> Optional[tuple]:
    if r1.arity != r2.arity:
        return None
    diff = r1.tuples ^ r2.tuples
    return min(diff, key=tuple_key) if diff else None


def strong_equiv(
    t1: Abstraction, t2: Abstraction, g: Assignment, ws: WorldSet
) -> EquivReport:
    """Equal extensions in every world of the set, comparing columns in
    body free-variable order (the alpha lists only select which
    variables are abstracted; their names and order are bound and do
    not survive into the concepts)."""
    u1, u2 = _grounded_concepts(t1, t2, g, ws)
    same = u1 is u2
    for w in ws.worlds:
        r1, r2 = extensionalize(u1, w), extensionalize(u2, w)
        if r1.arity != r2.arity or r1.tuples != r2.tuples:
            return EquivReport(
                False, "strong", same, len(ws), w.name, _first_diff(r1, r2)
            )
    return EquivReport(True, "strong", same, len(ws))


def weak_equiv(
    t1: Abstraction, t2: Abstraction, g: Assignment, ws: WorldSet
) -> EquivReport:
    """Equal diamond extensions (union over the set)."""
    u1, u2 = _grounded_concepts(t1, t2, g, ws)
    same = u1 is u2
    d1, d2 = diamond_extension(u1, ws), diamond_extension(u2, ws)
    ok = d1.same_tuples(d2)
    return EquivReport(ok, "weak", same, len(ws), None, None if ok else _first_diff(d1, d2))
