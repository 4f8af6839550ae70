"""World sets and the modal layer on top of them.

A WorldSet is a finite, ordered family of worlds over one shared domain,
constant map (constants are rigid designators) and set of predicate
symbols.  A set built from World objects (a world-set file, a lone
world) adopts them, without copying, and each member points back to
its one set.  An enumerated set (`enumerate_worlds`) stores no member:
it keeps each predicate's candidate relations and builds member i, a
view, when it is asked for.  Accessibility is total, so box (and
diamond, its dual) quantify over every member.  Modal notions that are
defined against "all" extensionalization functions are evaluated
relative to the set, which is the only finite reading; every report
therefore carries the member count.

Box, diamond and the two equivalences are evaluated over the whole set
at once: `masks` maps each tuple of a concept to a world bitmask (bit i
set iff the tuple is in the concept's extension in member i), and every
concept kind becomes an operation on those (tuple -> bitmask) tables,
the way a symbolic model checker evaluates a formula over a set of
states.  Its one memo is the set's `_masks`, per concept; an atom's
table is built with its concept's masks, by a scan of the members or,
for an enumerated set, in closed form, so no member is built.
`semantics.extensionalize` stays the per-world route, so the two can be
checked against each other world by world; it memoizes in the set's
`extensions`, so members that agree on the relations a concept reads
compute its extension once.  A necess is the exception: it takes the
box of its body from these tables (`WorldSet.box_extension`).  The
reference evaluator's Box reads tables of its own, which the set gives
per check (`WorldSet.membership`); `Diamond(f)` is `~Box~f`, so both
routes reach it through Box.

Besides explicit files, small signatures can be swept exhaustively:
`enumerate_worlds` produces every assignment of extensions to the
declared predicates in a fixed order, so world names like w13 are
stable across runs and machines.
"""
from __future__ import annotations

import itertools
from collections.abc import Sequence
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
    join_plan,
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
    no_relation_error,
    tarski_satisfied,
)
# Box and its dual Diamond (which builds `~Box~`) are defined in syntax
# and imported here as well, next to satisfies, the one entry point that
# takes them.
from .syntax import (
    Abstraction,
    AssignmentError,
    Box,  # noqa: F401
    Diamond,  # noqa: F401
    Formula,
    ID_PRED,
    PredicateSymbol,
    Signature,
    TRUE_PRED,
    check_element_name,
    ground,
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
    in the reference evaluator) find its quantification range, so a
    world belongs to at most one set.  Every member is checked before
    any is adopted, so a rejected set leaves the worlds as they were.
    Its members are the World objects themselves, so a change to one is
    a change to the set.  `enumerate_worlds` gives an
    `EnumeratedWorldSet` instead, whose members are built on demand.

    The set keeps the one extension memo of its members,
    `extensions`: extensionalize keys a result by concept id and the
    tuple sets of the relations the concept reads, so members that hold
    equal relations share it.  Beside it, `_masks` is the one memo of
    `masks`, per concept id: an atom's world-bitmask table is built
    (`_base_table`) when its concept's masks are.  The reference
    evaluator's Box reads its own tables (`membership`), which last one
    check.
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
        self.worlds = members
        self._start(name, first.sorted_domain(), len(members))

    def _start(self, name: str, sorted_domain: list, count: int) -> None:
        self.name = name
        self._sorted = sorted_domain
        self.domain = frozenset(sorted_domain)
        #: The bitmask of every member world.
        self.all_mask = (1 << count) - 1
        self.extensions: Dict[tuple, Relation] = {}
        self._masks: Dict[int, Masks] = {}

    def sorted_domain(self) -> list:
        return self._sorted

    def world(self, name: str) -> World:
        if name not in self._by_name:
            raise WorldError(f"no world named {name!r} in {self.name}")
        return self._by_name[name]

    def __iter__(self):
        return iter(self.worlds)

    def __len__(self) -> int:
        return len(self.worlds)

    def __repr__(self) -> str:
        return f"<world set {self.name}: {len(self)} worlds, |D|={len(self.domain)}>"

    def membership(self, pred: PredicateSymbol) -> Masks:
        """The reference evaluator's table of pred: each row maps to the
        bitmask of the members whose relation holds it, read from the
        members' relations as they are now."""
        try:
            return _row_masks([w.pred_map[pred].tuples for w in self.worlds])
        except KeyError:
            missing = next(w for w in self.worlds if pred not in w.pred_map)
            raise no_relation_error(pred, missing) from None

    def _base_table(self, pred: PredicateSymbol) -> Masks:
        """pred's (tuple -> bitmask) table for `masks`: `membership`'s scan."""
        return self.membership(pred)

    def box_extension(self, u: Concept) -> Relation:
        """`box_extension` over this set, for semantics' necess branch."""
        return box_extension(u, self)

    def clear_memos(self) -> None:
        self.extensions.clear()
        self._masks.clear()


class EnumeratedWorldSet(WorldSet):
    """Every world over a signature and domain, in `enumerate_worlds`'
    order, kept as each predicate's candidate relations and the index
    arithmetic that picks them: member i holds, for each predicate, the
    candidate whose index is the bits of i at that predicate's place
    (the last predicate's are the least significant).

    No member is stored.  Indexing, iteration and `world(name)` build
    member i when it is asked for, named w<i> and adopted by the set.
    A member is a view: changing it does not change the set, and the
    next request builds it afresh.  An atom's table for `masks` is
    built in closed form when its concept's masks are, and
    `membership` from the candidate relations, so the modal layer and
    the reference's Box build no member.
    """

    def __init__(self, elems: list, consts: Dict[str, DomainElement], layout: list, name: str):
        #: per predicate, in (name, arity) order: its candidate tuples,
        #: its candidate relations indexed by bitmask over those tuples,
        #: and the position of that bitmask in a member index
        self._layout = layout
        self._consts = consts
        self._periods: Dict[PredicateSymbol, Masks] = {}
        self.worlds = _Members(self, 1 << sum(len(ts) for _, ts, _, _ in layout))
        self._start(name, elems, len(self.worlds))

    def member(self, i: int) -> World:
        """Build member i, a fresh World over the candidate relations."""
        w = World(f"w{i}", self.domain, self._consts, {
            p: cands[i >> shift & len(cands) - 1] for p, _, cands, shift in self._layout
        })
        w.world_set = self
        return w

    def world(self, name: str) -> World:
        i = name[1:]
        if name[:1] == "w" and i.isdecimal() and str(int(i)) == i and int(i) < len(self):
            return self.member(int(i))
        raise WorldError(f"no world named {name!r} in {self.name}")

    def _entry(self, pred: PredicateSymbol) -> tuple:
        """pred's candidate tuples, candidate relations and shift."""
        for p, ts, cands, shift in self._layout:
            if p == pred:
                return ts, cands, shift
        raise no_relation_error(pred, self.worlds[0])

    def membership(self, pred: PredicateSymbol) -> Masks:
        """The reference evaluator's table of pred, from its candidate
        relations: one period (each candidate once, over the run of
        members that holds it), read from them on first use and kept,
        since a candidate never changes, then replicated over the
        members."""
        _, cands, shift = self._entry(pred)
        period = self._periods.get(pred)
        if period is None:
            period = self._periods[pred] = _row_masks([r.tuples for r in cands], 1 << shift)
        width, count = len(cands) << shift, len(self)
        return {t: _replicate(m, width, count) for t, m in period.items()}

    def _base_table(self, pred: PredicateSymbol) -> Masks:
        """pred's table in closed form: tuple j of a predicate is in
        member i iff bit j of its candidate index is, a periodic
        pattern; `==` and `true` hold in every member."""
        if pred == ID_PRED:
            return {(e, e): self.all_mask for e in self._sorted}
        if pred == TRUE_PRED:
            return {(): self.all_mask}
        ts, _, shift = self._entry(pred)
        return {t: _replicate(((1 << (1 << b)) - 1) << (1 << b), 2 << b, len(self))
                for b, t in enumerate(ts, shift)}


class _Members(Sequence):
    """The members of an EnumeratedWorldSet, each built on demand."""

    def __init__(self, ws: EnumeratedWorldSet, count: int):
        self._ws = ws
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i: Union[int, slice]) -> Union[World, list]:
        if isinstance(i, slice):
            return [self._ws.member(k) for k in range(*i.indices(self._count))]
        if not -self._count <= i < self._count:
            raise IndexError("world index out of range")
        return self._ws.member(i % self._count)

    def __iter__(self):
        return map(self._ws.member, range(self._count))


def _replicate(m: int, width: int, count: int) -> int:
    """m, a pattern over the first `width` members, repeated over all
    `count` of them (both powers of two)."""
    while width < count:
        m |= m << width
        width <<= 1
    return m


def _row_masks(tuple_sets: list, stride: int = 1) -> Masks:
    """A (tuple -> bitmask) table over a list of tuple sets: the i-th
    holds a tuple in the `stride` bits from i * stride on (stride a
    power of two).  Bits are gathered in byte arrays and converted once
    per tuple, so the gathering costs no big-int arithmetic."""
    nbytes = (len(tuple_sets) * stride + 7) // 8
    ones = b"\xff" * (stride >> 3)
    rows: Dict[tuple, bytearray] = {}
    for i, tuples in enumerate(tuple_sets):
        lo = i * stride
        for t in tuples:
            b = rows.get(t)
            if b is None:
                b = rows[t] = bytearray(nbytes)
            if ones:
                b[lo >> 3:(lo + stride) >> 3] = ones
            else:
                b[lo >> 3] |= (1 << stride) - 1 << (lo & 7)
    return {t: int.from_bytes(b, "little") for t, b in rows.items()}


def enumerate_worlds(
    sig: Signature,
    domain: Iterable,
    const_map: Optional[Dict[str, Union[str, DomainElement]]] = None,
    limit: int = DEFAULT_LIMIT,
) -> EnumeratedWorldSet:
    """Every assignment of extensions to the declared predicates over
    the given domain, in a canonical deterministic order.

    Predicates are ordered by (name, arity); within one predicate, the
    candidate tuples are ordered lexicographically by element; a
    relation is encoded as a bitmask over that tuple order (bit i set
    means tuple i is in); worlds are produced with the first predicate's
    mask most significant and are named w0, w1, ...

    Constants are not guessed: a signature with constants needs an
    explicit const_map (element names or elements), shared by every
    world, that names only declared constants.  Each predicate's
    candidate relations are built once, and the set keeps only those:
    it builds a member when one is asked for (`EnumeratedWorldSet`), so
    the limit bounds the work of a sweep, not the memory the set holds.
    Members share the candidate relations.
    """
    elems = []
    seen = set()
    by_name: Dict[str, DomainElement] = {}
    for e in domain:
        if isinstance(e, str):
            e = Particular(check_element_name(e, EnumerationError))
        n = element_name(e)
        if e in seen or n in by_name:
            raise EnumerationError(f"duplicate domain element {n}")
        seen.add(e)
        by_name[n] = e
        elems.append(e)
    if not elems:
        raise EnumerationError("enumeration needs a non-empty domain")
    elems.sort(key=element_key)

    undeclared = sorted(set(const_map or ()) - sig.consts)
    if undeclared:
        raise EnumerationError(f"constant {undeclared[0]!r} not declared in the signature")
    consts: Dict[str, DomainElement] = {}
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

    # each predicate's 2^n candidate relations, indexed by bitmask, and
    # the position of that bitmask in a member index
    layout = []
    shift = total_bits
    for p, ts in zip(preds, tuple_lists):
        shift -= len(ts)
        cands = [
            rel(p.arity, [ts[i] for i in range(len(ts)) if mask >> i & 1])
            for mask in range(1 << len(ts))
        ]
        layout.append((p, ts, cands, shift))
    return EnumeratedWorldSet(elems, consts, layout, name=f"enum{count}")


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
        for row, m in ws._base_table(u.pred).items():
            t = atom_row(u, row)
            if t is not None:
                out[t] = out.get(t, 0) | m
    elif kind == "conj":
        left, right = (masks(v, ws) for v in u.subs)
        out = _join_masks(left, right, u.s, u.subs[0].degree, u.subs[1].degree)
    elif kind == "neg":
        sub = masks(u.subs[0], ws)
        dom = ws.sorted_domain()
        for t in itertools.product(dom, repeat=u.degree):
            m = full & ~sub.get(t, 0)
            if m:
                out[t] = m
    elif kind == "exists":
        n = u.n
        for t, m in masks(u.subs[0], ws).items():
            rest = t[: n - 1] + t[n:]
            out[rest] = out.get(rest, 0) | m
    elif kind == "necess":
        out = {t: full for t, m in masks(u.subs[0], ws).items() if m == full}
    else:
        raise SemanticsError(f"unknown concept kind {kind!r}")
    ws._masks[u.cid] = out
    return out


def _join_masks(left: Masks, right: Masks, s, k: int, j: int) -> Masks:
    """Hash join on the index pairs in s, ANDing the masks, keyed by the
    getters of relalg.join_plan, which give the join whatever its shape:
    an empty or ill-formed s gives the product, as in natural_join."""
    plan = join_plan(s, k, j)
    key2, rest2 = plan.key2, plan.rest2
    index: Dict[object, list] = {}
    for t2, m2 in right.items():
        index.setdefault(key2(t2), []).append((rest2(t2), m2))
    out: Masks = {}
    key1 = plan.key1
    for t1, m1 in left.items():
        for rest, m2 in index.get(key1(t1), ()):
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
    the reference evaluator, whose Box ranges over every world of the
    set (total accessibility); Diamond is `~Box~`."""
    if w.world_set is not ws:
        raise WorldError(f"world {w.name} is not a member of world set {ws.name}")
    missing = [v for v in f.fv if v not in g]
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
        row = f"tuple ({', '.join(element_name(e) for e in self.row)})"
        if self.world is not None:
            return f"{out} (witness: world {self.world}, {row}) {scope}"
        return f"{out} (witness {row}) {scope}"


def _grounded_concepts(t1: Abstraction, t2: Abstraction, g: Assignment, ws: WorldSet):
    if len(t1.alpha) != len(t2.alpha):
        raise EquivError(
            f"alpha arity mismatch: {len(t1.alpha)} vs {len(t2.alpha)}"
        )
    anchor = ws.worlds[0]
    return interpret(ground(t1, g), anchor), interpret(ground(t2, g), anchor)


def strong_equiv(
    t1: Abstraction, t2: Abstraction, g: Assignment, ws: WorldSet
) -> EquivReport:
    """Equal extensions in every world of the set, comparing columns in
    body free-variable order (the alpha lists only select which
    variables are abstracted; their names and order are bound and do
    not survive into the concepts).

    The witness is the first world that tells the two apart, with the
    least tuple (by tuple_key) in exactly one of the two extensions
    there."""
    u1, u2 = _grounded_concepts(t1, t2, g, ws)
    same = u1 is u2
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
    """Equal diamond extensions (union over the set): the same tuples
    hold in some world.  They are the key sets of the two concepts'
    `masks`.

    The witness is the least tuple (by tuple_key) in exactly one of the
    two."""
    u1, u2 = _grounded_concepts(t1, t2, g, ws)
    same = u1 is u2
    diff = masks(u1, ws).keys() ^ masks(u2, ws).keys()
    row = min(diff, key=tuple_key) if diff else None
    return EquivReport(not diff, "weak", same, len(ws), None, row)
