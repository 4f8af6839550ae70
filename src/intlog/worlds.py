"""World sets and the modal layer on top of them.

A WorldSet is a finite, ordered family of worlds over one shared domain,
constant map (constants are rigid designators) and set of predicate
symbols.  It adopts the worlds it is given, without copying them, and
each member points back to its one set.  Accessibility is total, so box
and diamond quantify over every member.  Modal notions that are defined
against "all" extensionalization functions are evaluated relative to
the set, which is the only finite reading; every report therefore
carries the member count.

Box, diamond and the two equivalences are evaluated over the whole set
at once: `masks` maps each tuple of a concept to a world bitmask (bit i
set iff the tuple is in the concept's extension in member i), and every
concept kind becomes an operation on those (tuple -> bitmask) tables,
the way a symbolic model checker evaluates a formula over a set of
states.  `semantics.extensionalize` stays the per-world route, so the
two can be checked against each other world by world.

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
    join_spec_ok,
    rel,
    tuple_key,
)
from .semantics import (
    Assignment,
    SemanticsError,
    World,
    WorldError,
    atom_row,
    extensionalize,
    interpret,
    interpret_abstraction,
    no_relation_error,
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


#: A concept's extension over a world set: tuple -> world bitmask.
Masks = Dict[tuple, int]


class WorldSet:
    """An ordered family of worlds sharing domain, constant map and
    predicate symbols.

    The set adopts the worlds it is given: each member gets a back
    reference to the set, which is what lets a necess concept (and Box
    and Diamond in the reference evaluator) find its quantification
    range, so a world belongs to at most one set.  Every member is
    checked before any is adopted, so a rejected set leaves the worlds
    as they were.  The set itself keeps the world-bitmask tables of
    `masks`: the base relations, scanned on first use, and a memo per
    concept id.
    """

    def __init__(self, worlds: Iterable[World], name: str = "ws"):
        members = list(worlds)
        if not members:
            raise WorldError("a world set needs at least one world")
        first = members[0]
        self._by_name: Dict[str, World] = {}
        for w in members:
            if w.domain != first.domain:
                raise WorldError(f"world {w.name} has a different domain")
            if w.const_map != first.const_map:
                raise WorldError(f"world {w.name} has different constant denotations")
            if w.pred_map.keys() != first.pred_map.keys():
                raise WorldError(f"world {w.name} has different predicates")
            if w.name in self._by_name:
                raise WorldError(f"duplicate world name {w.name!r}")
            if w.world_set is not None:
                raise WorldError(
                    f"world {w.name} already belongs to world set {w.world_set.name}"
                )
            self._by_name[w.name] = w
        for w in members:
            w.world_set = self
        self.name = name
        self.worlds = members
        #: The bitmask of every member world.
        self.all_mask = (1 << len(members)) - 1
        self._base: Optional[Dict[PredicateSymbol, Masks]] = None
        self._masks: Dict[int, Masks] = {}

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
        self._base = None
        self._masks.clear()


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


# ---------------------------------------------------------------------------
# world-set evaluation: tuple -> world bitmask
# ---------------------------------------------------------------------------

def _base_masks(ws: WorldSet) -> Dict[PredicateSymbol, Masks]:
    """Every member's base relations as (tuple -> bitmask) tables, from
    one scan of the pred_maps.  Bits are gathered in byte arrays and
    converted once per tuple, so the scan costs no big-int arithmetic."""
    if ws._base is None:
        nbytes = (len(ws.worlds) + 7) // 8
        bits: Dict[PredicateSymbol, Dict[tuple, bytearray]] = {}
        for i, w in enumerate(ws.worlds):
            byte, bit = i >> 3, 1 << (i & 7)
            for p, r in w.pred_map.items():
                table = bits.setdefault(p, {})
                for t in r.tuples:
                    b = table.get(t)
                    if b is None:
                        b = table[t] = bytearray(nbytes)
                    b[byte] |= bit
        ws._base = {
            p: {t: int.from_bytes(b, "little") for t, b in table.items()}
            for p, table in bits.items()
        }
    return ws._base


def masks(u: Concept, ws: WorldSet) -> Masks:
    """The concept's extension in every member at once: each tuple maps
    to an int whose bit i is set iff the tuple is in u's extension in
    ws.worlds[i].  Tuples in no member's extension are left out.
    Memoized per concept on the set until `clear_memos`.

    Raises:
        SemanticsError: if u has a predicate the members have no
            relation for, naming the first member.
    """
    found = ws._masks.get(u.cid)
    if found is not None:
        return found
    full = ws.all_mask
    kind = u.kind
    out: Masks = {}
    if kind == "atom":
        table = _base_masks(ws).get(u.pred)
        if table is None:
            raise no_relation_error(u.pred, ws.worlds[0])
        for row, m in table.items():
            t = atom_row(u, row)
            if t is not None:
                out[t] = out.get(t, 0) | m
    elif kind == "conj":
        left, right = (masks(v, ws) for v in u.subs)
        out = _join_masks(left, right, u.s, u.subs[0].degree, u.subs[1].degree)
    elif kind == "neg":
        sub = masks(u.subs[0], ws)
        dom = ws.worlds[0].sorted_domain()
        for t in itertools.product(dom, repeat=u.degree):
            m = full & ~sub.get(t, 0)
            if m:
                out[t] = m
    elif kind == "exists":
        n = u.n
        for t, m in masks(u.subs[0], ws).items():
            rest = t[: n - 1] + t[n:]
            out[rest] = out.get(rest, 0) | m
    elif kind == "union":
        for member in u.subs:
            for t, m in masks(member, ws).items():
                out[t] = out.get(t, 0) | m
    elif kind == "necess":
        out = {t: full for t, m in masks(u.subs[0], ws).items() if m == full}
    elif kind == "id":
        out = {(d, d): full for d in ws.worlds[0].sorted_domain()}
    elif kind == "truth":
        out = {(): full}
    else:
        raise SemanticsError(f"unknown concept kind {kind!r}")
    ws._masks[u.cid] = out
    return out


def _join_masks(left: Masks, right: Masks, s, k: int, j: int) -> Masks:
    """Hash join on the index pairs in s, ANDing the masks; like
    relalg.natural_join, an empty or ill-formed s gives the cartesian
    product."""
    out: Masks = {}
    if not (s and join_spec_ok(s, k, j)):
        for t1, m1 in left.items():
            for t2, m2 in right.items():
                m = m1 & m2
                if m:
                    out[t1 + t2] = m
        return out
    pairs = sorted(s)
    drop = {i2 for _, i2 in pairs}
    keep = [i - 1 for i in range(1, j + 1) if i not in drop]
    index: Dict[tuple, list] = {}
    for t2, m2 in right.items():
        key = tuple(t2[i2 - 1] for _, i2 in pairs)
        index.setdefault(key, []).append((tuple(t2[i] for i in keep), m2))
    for t1, m1 in left.items():
        for rest, m2 in index.get(tuple(t1[i1 - 1] for i1, _ in pairs), ()):
            m = m1 & m2
            if m:
                out[t1 + rest] = m
    return out


def box_extension(u: Concept, ws: WorldSet) -> Relation:
    """Intersection of the concept's extensions over all worlds."""
    full = ws.all_mask
    return Relation(u.degree, frozenset(t for t, m in masks(u, ws).items() if m == full))


def diamond_extension(u: Concept, ws: WorldSet) -> Relation:
    """Union of the concept's extensions over all worlds."""
    return Relation(u.degree, frozenset(masks(u, ws)))


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
    not survive into the concepts).

    The witness is the first world that tells the two apart, with the
    least tuple (by tuple_key) in exactly one of the two extensions
    there; concepts of different degree differ in the first world,
    with no tuple."""
    u1, u2 = _grounded_concepts(t1, t2, g, ws)
    same = u1 is u2
    if u1.degree != u2.degree:
        return EquivReport(False, "strong", same, len(ws), ws.worlds[0].name)
    m1, m2 = masks(u1, ws), masks(u2, ws)
    diffs = {t: m1.get(t, 0) ^ m2.get(t, 0) for t in m1.keys() | m2.keys()}
    anywhere = 0
    for d in diffs.values():
        anywhere |= d
    if not anywhere:
        return EquivReport(True, "strong", same, len(ws))
    i = (anywhere & -anywhere).bit_length() - 1
    row = min((t for t, d in diffs.items() if d >> i & 1), key=tuple_key)
    return EquivReport(False, "strong", same, len(ws), ws.worlds[i].name, row)


def weak_equiv(
    t1: Abstraction, t2: Abstraction, g: Assignment, ws: WorldSet
) -> EquivReport:
    """Equal diamond extensions (union over the set)."""
    u1, u2 = _grounded_concepts(t1, t2, g, ws)
    same = u1 is u2
    d1, d2 = diamond_extension(u1, ws), diamond_extension(u2, ws)
    ok = d1.same_tuples(d2)
    return EquivReport(ok, "weak", same, len(ws), None, None if ok else _first_diff(d1, d2))
