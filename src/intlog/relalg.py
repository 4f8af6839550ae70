"""Finite relational algebra over a domain of individuals.

Relations are immutable sets of equal-length tuples over a domain whose
elements are either named individuals or reified concepts.  The two
arity-0 relations act as truth values: FALSE is the empty one, TRUE is
the one holding the empty tuple.  Column indices are 1-based throughout;
optional column labels (attrs) support the label-driven operators
project_out_many and rel_equiv.

A `Relation` is a plain tuple value that trusts its parts: the
operators build their results directly from relations they were given.
`rel` is the one constructor that checks, for values from outside the
program (files, enumerations, tests).

The per-tuple work is kept in C where it can be: a `Particular` and a
`Relation` are plain tuples, so rows and relations hash and compare
without Python-level methods.  `natural_join` runs the kernel of the
shape its cached `join_plan` gives the index pairs: an intersection
(every column paired with itself), a semijoin (every right column
joined) or an extension (every left column paired with itself) keeps
rows of its inputs as they are and builds no new tuple; any other pair
set runs a hash join.  An ill-formed set counts as the empty one, on
which a join with a truth value is a set operation, any other a product.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .errors import IntlogError


class RelationError(IntlogError):
    """Malformed relation value or misuse of a relational operator."""


class DomainError(RelationError):
    """A tuple element lies outside the domain it is evaluated against."""


class AttrError(RelationError):
    """A column label is missing or two label sets do not match."""


class Particular(NamedTuple):
    """An ordinary named individual.  A plain (name,) tuple, so it
    hashes (as hash((name,))) and compares in C."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ConceptHandle:
    """A reified concept playing the role of an individual.

    Equality and hashing go by the interned concept id only; the name is
    display metadata (whatever a world file chose to call the element).
    """

    cid: int
    name: Optional[str] = field(default=None, compare=False)

    def __str__(self) -> str:
        return self.name if self.name is not None else f"&{self.cid}"


DomainElement = Union[Particular, ConceptHandle]


def element_key(e: DomainElement) -> tuple:
    """Sort key giving a canonical element order: particulars by name,
    then concept handles by id."""
    if isinstance(e, Particular):
        return (1, e.name, 0)
    return (2, "", e.cid)


def element_name(e: DomainElement) -> str:
    return str(e)


def tuple_key(t: Sequence[DomainElement]) -> tuple:
    return tuple(element_key(e) for e in t)


class Relation(NamedTuple):
    """A finite set of arity-length tuples with optional column labels.

    A plain (arity, tuples, attrs) tuple, so it hashes and compares in C
    and costs no check when it is built: it trusts its parts.  tuples
    must be a frozenset of arity-length tuples, attrs None or a tuple of
    arity distinct labels.  The operators build their results this way
    from inputs that are already relations; values from outside the
    program go through `rel`, which checks them.
    """

    arity: int
    tuples: frozenset
    attrs: Optional[tuple] = None

    def sorted_tuples(self) -> list:
        return sorted(self.tuples, key=tuple_key)

    def as_bool(self) -> bool:
        """Truth value of an arity-0 relation."""
        if self.arity != 0:
            raise RelationError(f"relation of arity {self.arity} is not a truth value")
        return bool(self.tuples)

    def with_attrs(self, attrs: Optional[Sequence]) -> "Relation":
        """The same tuples under new column labels (None drops them).

        Raises:
            AttrError: if the labels do not fit the arity or repeat.
        """
        if attrs is not None:
            attrs = tuple(attrs)
            _check_attrs(self.arity, attrs)
        return Relation(self.arity, self.tuples, attrs)

    def same_tuples(self, other: "Relation") -> bool:
        return self.arity == other.arity and self.tuples == other.tuples

    def __str__(self) -> str:
        return format_relation(self)


def _row(t) -> tuple:
    # a Particular is a tuple itself, so tuple() alone would accept one
    # as a row of its name's characters
    if isinstance(t, (Particular, ConceptHandle)):
        raise RelationError(f"row {t} is a bare element, not a tuple")
    return tuple(t)


def _check_attrs(arity: int, attrs: tuple) -> None:
    if len(attrs) != arity:
        raise AttrError(f"{len(attrs)} labels for arity {arity}")
    if len(set(attrs)) != len(attrs):
        raise AttrError(f"duplicate column labels in {attrs}")


def rel(arity: int, tuples: Iterable = (), attrs: Optional[Sequence] = None) -> Relation:
    """The checked constructor, for values from outside the program:
    tuples may be any iterable of sequences and attrs any sequence.

    Raises:
        RelationError: on a negative arity, a bare element given as a
            row, or a tuple whose length is not the arity.
        AttrError: if the labels do not fit the arity or repeat.
    """
    rows = frozenset(_row(t) for t in tuples)
    if attrs is not None:
        attrs = tuple(attrs)
    if arity < 0:
        raise RelationError(f"negative arity {arity}")
    for t in rows:
        if len(t) != arity:
            raise RelationError(f"tuple {t} has length {len(t)}, expected arity {arity}")
    if attrs is not None:
        _check_attrs(arity, attrs)
    return Relation(arity, rows, attrs)


#: Truth values: the two arity-0 relations.
TRUE = rel(0, [()])
FALSE = rel(0, [])


def truth(b: bool) -> Relation:
    return TRUE if b else FALSE


def join_spec_ok(s, k: int, j: int) -> bool:
    """Check a join index set against arities k and j.

    Every pair must address real columns (1-based) and no right-hand
    column may be matched twice, otherwise the result arity could not
    be k + j - |s|.  An ill-formed set is not an error: the join then
    degrades to the cartesian product.
    """
    seen = set()
    for pair in s:
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return False
        i1, i2 = pair
        if not (i1 in range(1, k + 1) and i2 in range(1, j + 1)):
            return False
        if i2 in seen:
            return False
        seen.add(i2)
    return True


def _merge_attrs(a1: tuple, a2_kept: tuple) -> Optional[tuple]:
    # Labels survive only when the merge stays duplicate-free.
    merged = a1 + a2_kept
    if len(set(merged)) != len(merged):
        return None
    return merged


class JoinPlan(NamedTuple):
    """How natural_join combines rows for one (s, arity1, arity2).

    shape names the kernel natural_join runs (see `join_plan`).  For
    every shape, key1 and key2 map a left and a right row to the tuple
    of its join columns, rest2 a right row (or its labels) to that of
    its kept columns, so a hash join on them (as `worlds._join_masks`
    runs) gives the join whatever the shape.
    """

    shape: str
    arity: int
    key1: Callable
    key2: Callable
    rest2: Callable


def _columns(cols: Sequence[int]) -> Callable:
    # row -> the tuple of its cols, whatever their number; a one-column
    # slice keeps a single column a tuple
    if len(cols) >= 2:
        return itemgetter(*cols)
    if cols:
        return itemgetter(slice(cols[0], cols[0] + 1))
    return _nothing


def _nothing(t) -> tuple:
    return ()


@lru_cache(maxsize=1024)
def join_plan(s: frozenset, arity1: int, arity2: int) -> JoinPlan:
    """The plan natural_join follows for index pairs s between
    relations of the given arities, sorted into one of four shapes (an
    ill-formed s counts as the empty set, so a truth value on either
    side makes one of the first three):

    - "intersection": s is {(i, i)} over every column of two relations
      of equal arity; the joined rows are the common rows;
    - "semijoin": every right column is joined, so a left row has at
      most one partner and is kept as it is when its key is a right row;
    - "extension": s is {(i, i)} over every left column, so a joined
      row is the right row whose prefix is a left row;
    - "hash": any other s, the cartesian product when s is empty.
    """
    if not join_spec_ok(s, arity1, arity2):
        s = frozenset()
    # an index is read by its value, so the equal sets of one cache key plan alike
    s = frozenset((int(i1), int(i2)) for i1, i2 in s)
    arity = arity1 + arity2 - len(s)
    if len(s) == arity2:
        # join_spec_ok matches each right column at most once
        if arity1 == arity2 and all(i1 == i2 for i1, i2 in s):
            return JoinPlan("intersection", arity, tuple, tuple, _nothing)
        left_of = {i2: i1 for i1, i2 in s}
        probe = _columns([left_of[i] - 1 for i in range(1, arity2 + 1)])
        return JoinPlan("semijoin", arity, probe, tuple, _nothing)
    if s == {(i, i) for i in range(1, arity1 + 1)}:
        return JoinPlan(
            "extension", arity, tuple, itemgetter(slice(arity1)), itemgetter(slice(arity1, None))
        )
    pairs = sorted(s)
    drop = {i2 for _, i2 in pairs}
    return JoinPlan(
        "hash",
        arity,
        _columns([i1 - 1 for i1, _ in pairs]),
        _columns([i2 - 1 for _, i2 in pairs]),
        _columns([i - 1 for i in range(1, arity2 + 1) if i not in drop]),
    )


def _rows_keyed_in(rows: frozenset, key: Callable, keys: frozenset) -> frozenset:
    # the rows whose key lies in keys, each row object kept as it is,
    # and the set itself when every row is kept
    kept = [t for t in rows if key(t) in keys]
    return rows if len(kept) == len(rows) else frozenset(kept)


def _hash_join(rows1: frozenset, rows2: frozenset, plan: JoinPlan) -> frozenset:
    # rows2 indexed by join key; each row of rows1 looks up its partners
    key2, rest2 = plan.key2, plan.rest2
    index: dict = {}
    for t2 in rows2:
        index.setdefault(key2(t2), []).append(rest2(t2))
    key1, get = plan.key1, index.get
    out = set()
    add = out.add
    for t1 in rows1:
        for rest in get(key1(t1), ()):
            add(t1 + rest)
    return frozenset(out)


def natural_join(r1: Relation, r2: Relation, s) -> Relation:
    """Join r1 and r2 on the 1-based index pairs in s.

    A combined tuple is kept iff the paired columns agree; the joined
    columns of r2 are dropped, so the result has r1's columns followed
    by r2's remaining columns.  An empty or ill-formed s yields the
    cartesian product.  Labels survive when both sides have them and
    the merged labels do not repeat.

    The kernel follows the shape of the cached `join_plan`.  An
    intersection, a semijoin and an extension are set operations that
    return rows of the inputs and build no new tuple; a hash join
    builds its rows.
    """
    plan = join_plan(frozenset(s), r1.arity, r2.arity)
    shape = plan.shape
    if shape == "intersection":
        rows = r1.tuples & r2.tuples
    elif shape == "semijoin":
        rows = _rows_keyed_in(r1.tuples, plan.key1, r2.tuples)
    elif shape == "extension":
        rows = _rows_keyed_in(r2.tuples, plan.key2, r1.tuples)
    else:
        rows = _hash_join(r1.tuples, r2.tuples, plan)
    if r1.attrs is None or r2.attrs is None:
        return Relation(plan.arity, rows)
    return Relation(plan.arity, rows, _merge_attrs(r1.attrs, plan.rest2(r2.attrs)))


@lru_cache(maxsize=16)
def _power(domain: frozenset, ident: int, k: int) -> frozenset:
    """domain^k, cached per domain object (its id is in the key): equal
    domains may name a reified element differently (`ConceptHandle`)."""
    return frozenset(itertools.product(domain, repeat=k))


def complement(r: Relation, domain: Iterable) -> Relation:
    """The complement of r within domain^arity.  A frozenset domain
    (such as `World.domain`) is used as it is, without a copy.

    Raises:
        DomainError: if a tuple element of r is not in domain.
    """
    dom = domain if isinstance(domain, frozenset) else frozenset(domain)
    full = _power(dom, id(dom), r.arity)
    if not r.tuples <= full:
        for t in r.tuples:
            for e in t:
                if e not in dom:
                    raise DomainError(f"element {element_name(e)} not in domain")
    return Relation(r.arity, full - r.tuples, r.attrs)


def f_truth(r: Relation) -> Relation:
    """Collapse r to an arity-0 truth value: TRUE iff r is non-empty."""
    return truth(bool(r.tuples))


def project_out(r: Relation, m) -> Relation:
    """Remove the m-th column (1-based).

    With m = arity = 1 this is f_truth; with m out of range it is the
    identity.  Duplicates arising from the removal collapse.
    """
    k = r.arity
    if m == 1 and k == 1:
        return f_truth(r)
    if not (isinstance(m, int) and 1 <= m <= k and k >= 2):
        return r
    out = frozenset(t[: m - 1] + t[m:] for t in r.tuples)
    attrs = r.attrs[: m - 1] + r.attrs[m:] if r.attrs is not None else None
    return Relation(k - 1, out, attrs)


def project_out_many(r: Relation, beta: Sequence) -> Relation:
    """Remove every column whose label is in beta.

    An empty beta is the identity (and needs no labels); removing all
    columns collapses to f_truth.

    Raises:
        AttrError: if r has no labels or a beta name is missing.
    """
    beta = tuple(beta)
    if not beta:
        return r
    if r.attrs is None:
        raise AttrError("relation has no column labels")
    drop = set(beta)
    for b in beta:
        if b not in r.attrs:
            raise AttrError(f"no column labeled {b!r}")
    keep = [i for i, a in enumerate(r.attrs) if a not in drop]
    if not keep:
        return f_truth(r)
    out = frozenset(tuple(t[i] for i in keep) for t in r.tuples)
    return Relation(len(keep), out, tuple(r.attrs[i] for i in keep))


def identity_relation(domain: Iterable) -> Relation:
    """The binary relation {(d, d) | d in domain}; its rows cannot fail
    `rel`'s checks, so it is built directly."""
    return Relation(2, frozenset((d, d) for d in domain))


def rel_equiv(r1: Relation, r2: Relation) -> bool:
    """Equality up to a column permutation aligning labels.

    Raises:
        AttrError: if either relation is unlabeled or the label sets
            differ.
    """
    if r1.attrs is None or r2.attrs is None:
        raise AttrError("rel_equiv needs labeled relations on both sides")
    if set(r1.attrs) != set(r2.attrs):
        raise AttrError(f"label sets differ: {r1.attrs} vs {r2.attrs}")
    perm = [r2.attrs.index(a) for a in r1.attrs]
    return r1.tuples == frozenset(tuple(t[i] for i in perm) for t in r2.tuples)


def format_relation(r: Relation) -> str:
    """Text form: header `rel <arity> [attrs...]`, one tuple per line,
    the empty tuple rendered as `()`."""
    head = f"rel {r.arity}"
    if r.attrs:
        head += " " + " ".join(str(a) for a in r.attrs)
    lines = [head]
    for t in r.sorted_tuples():
        lines.append("()" if not t else " ".join(element_name(e) for e in t))
    return "\n".join(lines)
