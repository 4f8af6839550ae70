"""Interned concept expressions (the intensional algebra).

A concept is an n-ary universal: degree 0 concepts are propositions,
degree 1 properties, and so on.  Concepts are built from atomic
predicate concepts (those of `==` and `true` among them) by conj
(join-style conjunction), neg, exists (slot-wise quantification) and
necess; union is derived from conj and neg.  They are hash-consed:
structurally identical canonical expressions share one node, so
concept identity is plain object identity and `cid` equality.

The only canonicalization applied is neg(neg(u)) -> u.  In particular
conj is not commutative and no propositional rewriting happens: two
logically equivalent but differently built concepts stay distinct,
which is the whole point of separating meaning from extension.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, Iterable, Optional, Tuple, Union

from .errors import IntlogError
from .relalg import ConceptHandle, DomainElement, Particular, join_plan
from .syntax import ID_PRED, TRUE_PRED, PredicateSymbol


class ConceptError(IntlogError):
    pass


class DegreeError(ConceptError):
    """Union over an empty set or over mixed degrees."""


#: Atom argument: a 1-based slot index or a fixed domain element.
AtomArg = Union[int, DomainElement]

#: An atom's row pattern: the 0-based row positions whose values make
#: the extension tuple (one per slot, in slot order), position pairs
#: that must hold equal values (a repeated slot), and (position,
#: element) pairs for fixed arguments.
AtomPattern = Tuple[
    Tuple[int, ...], Tuple[Tuple[int, int], ...], Tuple[Tuple[int, DomainElement], ...]
]


def _no_relations(relations) -> tuple:
    return ()


@dataclass(eq=False)
class Concept:
    """One interned node.  Never construct directly; use the builder
    functions below so equal expressions share an id.

    `reads` lists the predicates whose base relations the concept's
    extension depends on: its atoms' predicates, the reserved `==` and
    `true` included, and none for necess.  `relation_key` picks those
    relations out of a world's (predicate -> tuple set) table; with the
    cid it keys the extension memo.
    An atom's `pattern` is None when its arguments are the slots 1, 2,
    ... in order (the extension is the base relation itself).
    """

    cid: int
    kind: str  # atom, conj, neg, exists, necess
    degree: int
    pred: Optional[PredicateSymbol] = None
    args: Tuple[AtomArg, ...] = ()
    s: frozenset = frozenset()
    subs: Tuple["Concept", ...] = ()
    n: int = 0
    reads: Tuple[PredicateSymbol, ...] = ()
    relation_key: Callable = _no_relations
    pattern: Optional[AtomPattern] = None

    def __str__(self) -> str:
        return format_concept(self)

    def __repr__(self) -> str:
        return f"<concept {self.cid}: {format_concept(self)}>"


_lock = threading.Lock()
_table: dict = {}
_next_cid = 0


def _intern(key, **fields) -> Concept:
    global _next_cid
    with _lock:
        found = _table.get(key)
        if found is not None:
            return found
        node = Concept(cid=_next_cid, **fields)
        _next_cid += 1
        if node.kind == "atom":
            node.reads = (node.pred,)
            node.pattern = _atom_pattern(node.args)
        elif node.kind != "necess":
            node.reads = tuple(sorted({p for sub in node.subs for p in sub.reads}))
        if node.reads:
            node.relation_key = itemgetter(*node.reads)
        _table[key] = node
        return node


def _atom_pattern(args: Tuple[AtomArg, ...]) -> Optional[AtomPattern]:
    first: Dict[int, int] = {}
    same = []
    fixed = []
    for i, a in enumerate(args):
        if not isinstance(a, int):
            fixed.append((i, a))
        elif a in first:
            same.append((i, first[a]))
        else:
            first[a] = i
    pick = tuple(first.values())
    if not same and not fixed and pick == tuple(range(len(args))):
        return None
    return pick, tuple(same), tuple(fixed)


def registry_size() -> int:
    return len(_table)


def atom_concept(pred: PredicateSymbol, args: Iterable[AtomArg]) -> Concept:
    """The concept of a predicate applied to slots and fixed elements.

    Slots are 1-based and must be numbered by first occurrence
    (1, 2, ... in reading order); repeats are allowed.  The degree is
    the number of distinct slots, so a fully ground atom is a
    proposition.

    Raises:
        ConceptError: on arity mismatch or bad slot numbering.
    """
    args = tuple(args)
    if len(args) != pred.arity:
        raise ConceptError(
            f"{pred} applied to {len(args)} arguments"
        )
    seen = []
    for a in args:
        if isinstance(a, bool) or not isinstance(a, (int, Particular, ConceptHandle)):
            raise ConceptError(f"bad atom argument {a!r}")
        if isinstance(a, int):
            if a == len(seen) + 1:
                seen.append(a)
            elif not (1 <= a <= len(seen)):
                raise ConceptError(
                    f"slot {a} out of order; slots must be numbered by first occurrence"
                )
    return _intern(("atom", pred, args), kind="atom", degree=len(seen), pred=pred, args=args)


def conj(s, u: Concept, v: Concept) -> Concept:
    """Conjunction joining u's and v's slots along the index pairs in s.

    The degree follows the join arity rule when s is well formed for
    the two degrees, and is the plain sum otherwise (the extension side
    then degrades to a cartesian product the same way).
    """
    s = frozenset(tuple(p) for p in s)
    return _intern(
        ("conj", s, u.cid, v.cid),
        kind="conj",
        degree=join_plan(s, u.degree, v.degree).arity,
        s=s,
        subs=(u, v),
    )


def neg(u: Concept) -> Concept:
    """Complement concept; neg(neg(u)) collapses to u."""
    if u.kind == "neg":
        return u.subs[0]
    return _intern(("neg", u.cid), kind="neg", degree=u.degree, subs=(u,))


def exists(n, u: Concept) -> Concept:
    """Quantify away slot n (1-based).  Out-of-range n, including the
    0 used for vacuous quantification, is the identity and returns u
    itself."""
    if not (isinstance(n, int) and 1 <= n <= u.degree):
        return u
    return _intern(
        ("exists", n, u.cid),
        kind="exists",
        degree=u.degree - 1,
        n=n,
        subs=(u,),
    )


def union_concepts(bs: Iterable[Concept]) -> Concept:
    """Union of a non-empty set of same-degree concepts, built by the
    union law as mk_or builds `|`: the complement of the all-slots join
    of the complements, neg(conj(S, conj(S, neg(b1), neg(b2)), neg(b3))),
    with S = {(i, i) | 1 <= i <= degree} (empty for propositions).  The
    complements are joined pairwise in rounds, so a union of n members
    is log2(n) joins deep and the recursive walks over it stay shallow.

    Set semantics: duplicates collapse and members are taken in cid
    order, so a singleton returns its element unchanged.

    Raises:
        DegreeError: if bs is empty or degrees are mixed.
    """
    by_cid = {u.cid: u for u in bs}
    if not by_cid:
        raise DegreeError("union over the empty set")
    parts = [neg(by_cid[c]) for c in sorted(by_cid)]
    degrees = {u.degree for u in parts}
    if len(degrees) != 1:
        raise DegreeError(f"union over mixed degrees {sorted(degrees)}")
    s = [(i, i) for i in range(1, parts[0].degree + 1)]
    while len(parts) > 1:
        odd = parts[-1:] if len(parts) % 2 else []
        parts = [conj(s, a, b) for a, b in zip(parts[::2], parts[1::2])] + odd
    return neg(parts[0])


def necess(u: Concept) -> Concept:
    """The rigidified concept: its extension is the same in every world
    of a world set (the intersection of u's extensions)."""
    return _intern(("necess", u.cid), kind="necess", degree=u.degree, subs=(u,))


#: The paper's Id and Truth: the atoms of the reserved predicates,
#: whose relations every world carries.  Interned first, as cids 0 and 1.
ID_CONCEPT = atom_concept(ID_PRED, (1, 2))
TRUTH_CONCEPT = atom_concept(TRUE_PRED, ())


def _format_arg(a: AtomArg) -> str:
    if isinstance(a, int):
        return f"_{a}"
    if isinstance(a, ConceptHandle):
        return f"@{a.cid}"
    return a.name


def format_concept(u: Concept) -> str:
    """S-expression rendering, e.g.
    (conj {(1,1)} (atom p1/1 _1) (neg (atom p2/1 _1))); a union prints
    as its expansion, (neg (conj S (neg b1) (neg b2)))."""
    if u is ID_CONCEPT:
        return "(id)"
    if u is TRUTH_CONCEPT:
        return "(truth)"
    if u.kind == "atom":
        head = f"atom {u.pred}"
        if u.args:
            head += " " + " ".join(_format_arg(a) for a in u.args)
        return f"({head})"
    if u.kind == "conj":
        pairs = ",".join(f"({i},{j})" for i, j in sorted(u.s))
        return f"(conj {{{pairs}}} {format_concept(u.subs[0])} {format_concept(u.subs[1])})"
    if u.kind == "neg":
        return f"(neg {format_concept(u.subs[0])})"
    if u.kind == "exists":
        return f"(exists {u.n} {format_concept(u.subs[0])})"
    if u.kind == "necess":
        return f"(necess {format_concept(u.subs[0])})"
    raise ConceptError(f"unknown concept kind {u.kind!r}")
