"""Relational algebra: oracle checks, pinned examples, and laws.

The oracle functions below recompute each operator by direct
enumeration, independent of the implementation, so the expected values
frozen into the tests have a second derivation.
"""
import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from intlog.relalg import (
    FALSE,
    TRUE,
    AttrError,
    DomainError,
    ConceptHandle,
    Particular,
    Relation,
    RelationError,
    complement,
    element_key,
    f_truth,
    format_relation,
    identity_relation,
    join_plan,
    join_spec_ok,
    natural_join,
    project_out,
    project_out_many,
    rel,
    rel_equiv,
    truth,
)

A, B, C = Particular("a"), Particular("b"), Particular("c")


# ---------------------------------------------------------------------------
# oracles: independent enumeration-based reimplementations
# ---------------------------------------------------------------------------

def oracle_join(rows1, rows2, pairs, j):
    """Nested-loop join over explicit row lists; pairs assumed valid."""
    dropped = {i2 for _, i2 in pairs}
    out = set()
    for a in rows1:
        for b in rows2:
            if all(a[i1 - 1] == b[i2 - 1] for i1, i2 in pairs):
                row = list(a)
                for i in range(j):
                    if (i + 1) not in dropped:
                        row.append(b[i])
                out.add(tuple(row))
    return out


def oracle_cartesian(rows1, rows2):
    return {a + b for a in rows1 for b in rows2}


def oracle_complement(rows, dom, k):
    space = set(itertools.product(sorted(dom, key=element_key), repeat=k))
    return space - set(rows)


def oracle_project(rows, m):
    return {t[: m - 1] + t[m:] for t in rows}


def all_relations(dom, arity):
    """Every relation of the given arity over dom."""
    space = sorted(
        itertools.product(dom, repeat=arity),
        key=lambda t: tuple(element_key(e) for e in t),
    )
    rels = []
    for mask in range(2 ** len(space)):
        rows = [space[i] for i in range(len(space)) if mask >> i & 1]
        rels.append(rel(arity, rows))
    return rels


# ---------------------------------------------------------------------------
# natural_join
# ---------------------------------------------------------------------------

class TestNaturalJoin:
    def test_attr_ordering_five_join_four(self):
        # s = {(4,1),(2,3)} merging a 5-column and a 4-column relation:
        # result columns are the left five followed by the right's
        # non-joined columns, arity 5 + 4 - 2 = 7.
        r1 = rel(5, [(A, B, C, A, B)], attrs=("x_i", "x_j", "x_k", "x_l", "x_m"))
        r2 = rel(4, [(A, C, B, B)], attrs=("x_l", "y_i", "x_j", "y_j"))
        s = {(4, 1), (2, 3)}
        out = natural_join(r1, r2, s)
        assert out.arity == 7
        assert out.attrs == ("x_i", "x_j", "x_k", "x_l", "x_m", "y_i", "y_j")
        assert out.tuples == frozenset({(A, B, C, A, B, C, B)})
        assert out.tuples == frozenset(
            oracle_join([(A, B, C, A, B)], [(A, C, B, B)], s, 4)
        )

    def test_unary_overlap(self):
        r1 = rel(1, [(A,), (B,)])
        r2 = rel(1, [(B,), (C,)])
        out = natural_join(r1, r2, {(1, 1)})
        assert out.arity == 1
        assert out.tuples == frozenset({(B,)})
        assert out.tuples == frozenset(oracle_join([(A,), (B,)], [(B,), (C,)], {(1, 1)}, 1))

    def test_empty_s_is_cartesian(self):
        r1 = rel(1, [(A,)])
        r2 = rel(2, [(B, C), (C, C)])
        out = natural_join(r1, r2, set())
        assert out.arity == 3
        assert out.tuples == frozenset(oracle_cartesian({(A,)}, {(B, C), (C, C)}))

    def test_truth_is_join_unit(self):
        r2 = rel(2, [(A, B), (B, B)], attrs=("x", "y"))
        out = natural_join(TRUE, r2, set())
        assert out.arity == 2
        assert out.tuples == r2.tuples

    def test_out_of_range_s_degrades_to_cartesian(self):
        r1 = rel(1, [(A,), (B,)])
        r2 = rel(1, [(B,)])
        out = natural_join(r1, r2, {(1, 5)})
        assert out.arity == 2
        assert out.tuples == frozenset(oracle_cartesian({(A,), (B,)}, {(B,)}))

    @pytest.mark.parametrize("pairs", [[(1.0, 1), (1, 1)], [(1, 1), (1.0, 1)]],
                             ids=["float_first", "int_first"])
    def test_equal_index_sets_join_alike_in_either_order(self, pairs):
        # {(1.0, 1)} == {(1, 1)}, so the plan cache takes them as one key
        join_plan.cache_clear()
        r1, r2 = rel(1, [(A,), (B,)]), rel(1, [(B,)])
        assert [natural_join(r1, r2, {p}).tuples for p in pairs] == [frozenset({(B,)})] * 2

    def test_duplicate_right_index_degrades_to_cartesian(self):
        # {(1,1),(2,1)} matches the same right column twice; the arity
        # formula cannot hold for it, so it counts as ill-formed.
        assert not join_spec_ok({(1, 1), (2, 1)}, 2, 1)
        r1 = rel(2, [(A, A), (A, B)])
        r2 = rel(1, [(A,)])
        out = natural_join(r1, r2, {(1, 1), (2, 1)})
        assert out.arity == 3
        assert out.tuples == frozenset(oracle_cartesian({(A, A), (A, B)}, {(A,)}))

    def test_duplicate_left_index_is_fine(self):
        s = {(1, 1), (1, 2)}
        assert join_spec_ok(s, 1, 2)
        r1 = rel(1, [(A,), (B,)])
        r2 = rel(2, [(A, A), (A, B)])
        out = natural_join(r1, r2, s)
        assert out.arity == 1
        assert out.tuples == frozenset({(A,)})
        assert out.tuples == frozenset(oracle_join([(A,), (B,)], [(A, A), (A, B)], s, 2))

    def test_attr_collision_drops_labels(self):
        r1 = rel(1, [(A,)], attrs=("x",))
        r2 = rel(1, [(B,)], attrs=("x",))
        out = natural_join(r1, r2, set())
        assert out.attrs is None
        assert out.arity == 2


# ---------------------------------------------------------------------------
# complement
# ---------------------------------------------------------------------------

class TestComplement:
    def test_arity0(self):
        assert complement(TRUE, {A, B}) == FALSE
        assert complement(FALSE, {A, B}) == TRUE
        assert complement(FALSE, set()) == TRUE

    def test_unary(self):
        out = complement(rel(1, [(A,)]), {A, B})
        assert out.tuples == frozenset({(B,)})
        assert out.tuples == frozenset(oracle_complement({(A,)}, {A, B}, 1))

    def test_binary_of_empty_is_full(self):
        out = complement(rel(2, []), {A, B})
        assert len(out.tuples) == 4
        assert out.tuples == frozenset(oracle_complement(set(), {A, B}, 2))

    def test_element_outside_domain(self):
        with pytest.raises(DomainError, match="^element c not in domain$"):
            complement(rel(1, [(C,)]), {A, B})
        with pytest.raises(DomainError, match="^element c not in domain$"):
            complement(rel(2, [(A, B), (B, C)]), frozenset({A, B}))

    def test_involution_exhaustive(self):
        dom = (A, B)
        for arity in (0, 1, 2):
            for r in all_relations(dom, arity):
                assert complement(complement(r, dom), dom) == r

    def test_attrs_preserved(self):
        out = complement(rel(1, [(A,)], attrs=("x",)), {A, B})
        assert out.attrs == ("x",)

    def test_any_iterable_domain(self):
        r = rel(2, [(A, B)])
        want = complement(r, {A, B, C})
        for dom in (frozenset({A, B, C}), [C, A, B], (B, C, A, A)):
            assert complement(r, dom) == want
        with pytest.raises(DomainError):
            complement(r, frozenset({A}))

    def test_result_keeps_the_domain_element_names(self):
        # equal domains (a handle equals by concept id), different names
        for name in ("unicorn", "u2", "unicorn"):
            out = complement(rel(1, [(A,)]), frozenset({A, ConceptHandle(7, name)}))
            assert format_relation(out).split("\n")[1:] == [name]

    @pytest.mark.parametrize("arity", [1, 2, 3])
    @pytest.mark.parametrize(
        "form", [frozenset, list, lambda d: (e for e in d)],
        ids=["frozenset", "list", "generator"],
    )
    def test_every_domain_form_and_arity(self, arity, form):
        handle = ConceptHandle(7, "unicorn")
        dom = (A, B, handle)
        space = sorted(itertools.product(dom, repeat=arity), key=str)
        for r in (rel(arity, []), rel(arity, space[::3]), rel(arity, space)):
            out = complement(r, form(dom))
            assert out.tuples == set(itertools.product(dom, repeat=arity)) - r.tuples
            assert complement(r, form(dom)) == out
        with pytest.raises(DomainError, match="^element c not in domain$"):
            complement(rel(arity, [(C,) * arity]), form(dom))
        assert complement(TRUE, form(dom)) == FALSE
        assert complement(FALSE, form(dom)) == TRUE


# ---------------------------------------------------------------------------
# project_out / f_truth / project_out_many
# ---------------------------------------------------------------------------

class TestProjectOut:
    def test_drop_middle_column(self):
        r = rel(
            5,
            [(A, B, C, A, B), (A, B, A, A, B)],
            attrs=("x_i", "x_j", "x_k", "x_l", "x_m"),
        )
        out = project_out(r, 3)
        assert out.attrs == ("x_i", "x_j", "x_l", "x_m")
        assert out.tuples == frozenset({(A, B, A, B)})
        assert out.tuples == frozenset(oracle_project(r.tuples, 3))

    def test_last_single_column_collapses_to_truth(self):
        assert project_out(rel(1, [(A,), (B,)]), 1) == TRUE
        assert project_out(rel(1, []), 1) == FALSE

    def test_out_of_range_identity(self):
        r = rel(2, [(A, B)])
        assert project_out(r, 5) is r
        assert project_out(r, 0) is r
        assert project_out(rel(0, [()]), 1) == TRUE  # arity 0, m out of range

    def test_duplicates_collapse(self):
        r = rel(2, [(A, B), (A, C)])
        out = project_out(r, 2)
        assert out.tuples == frozenset({(A,)})


class TestFTruth:
    def test_cases(self):
        assert f_truth(rel(2, [])) == FALSE
        assert f_truth(rel(2, [(A, B)])) == TRUE
        assert f_truth(TRUE) == TRUE

    def test_idempotent_exhaustive(self):
        for arity in (0, 1, 2):
            for r in all_relations((A, B), arity):
                assert f_truth(f_truth(r)) == f_truth(r)


class TestProjectOutMany:
    def test_drop_one_label(self):
        r = rel(2, [(A, B), (B, B)], attrs=("x", "y"))
        out = project_out_many(r, ("y",))
        assert out.attrs == ("x",)
        assert out.tuples == frozenset({(A,), (B,)})

    def test_empty_beta_identity(self):
        r = rel(2, [(A, B)], attrs=("x", "y"))
        assert project_out_many(r, ()) is r
        # identity even without labels
        assert project_out_many(rel(1, [(A,)]), ()) == rel(1, [(A,)])

    def test_total_projection_is_truth(self):
        assert project_out_many(rel(1, [(A,)], attrs=("x",)), ("x",)) == TRUE
        assert project_out_many(rel(1, [], attrs=("x",)), ("x",)) == FALSE

    def test_missing_label(self):
        with pytest.raises(AttrError):
            project_out_many(rel(1, [(A,)], attrs=("x",)), ("z",))
        with pytest.raises(AttrError):
            project_out_many(rel(1, [(A,)]), ("x",))

    def test_matches_sequential_project_out(self):
        r = rel(3, [(A, B, C), (B, B, B), (C, A, C)], attrs=("x", "y", "z"))
        out = project_out_many(r, ("x", "z"))
        # removing x then z (index-adjusted), and in the other order
        seq1 = project_out(project_out(r, 1), 2)
        seq2 = project_out(project_out(r, 3), 1)
        assert out == seq1 == seq2


# ---------------------------------------------------------------------------
# identity_relation / rel_equiv
# ---------------------------------------------------------------------------

class TestIdentityRelation:
    def test_cases(self):
        assert identity_relation({A}) == rel(2, [(A, A)])
        assert identity_relation({A, B}) == rel(2, [(A, A), (B, B)])
        assert identity_relation(set()) == rel(2, [])


class TestRelEquiv:
    def test_permutation(self):
        r1 = rel(2, [(A, B)], attrs=("x", "y"))
        r2 = rel(2, [(B, A)], attrs=("y", "x"))
        assert rel_equiv(r1, r2)

    def test_identical(self):
        r1 = rel(2, [(A, B)], attrs=("x", "y"))
        assert rel_equiv(r1, r1)

    def test_permuted_labels_same_rows_differ(self):
        r1 = rel(2, [(A, B)], attrs=("x", "y"))
        r2 = rel(2, [(A, B)], attrs=("y", "x"))
        assert not rel_equiv(r1, r2)

    def test_label_set_mismatch(self):
        with pytest.raises(AttrError):
            rel_equiv(rel(1, [(A,)], attrs=("x",)), rel(1, [(A,)], attrs=("y",)))
        with pytest.raises(AttrError):
            rel_equiv(rel(1, [(A,)]), rel(1, [(A,)], attrs=("x",)))


# ---------------------------------------------------------------------------
# construction and text form
# ---------------------------------------------------------------------------

class TestRelationValue:
    def test_validation(self):
        with pytest.raises(Exception):
            rel(2, [(A,)])
        with pytest.raises(AttrError):
            rel(2, [(A, B)], attrs=("x",))
        with pytest.raises(AttrError):
            rel(2, [(A, B)], attrs=("x", "x"))

    @pytest.mark.parametrize(
        "arity,tuples,attrs,error,msg",
        [
            (-1, [], None, RelationError, "negative arity -1"),
            (1, [A], None, RelationError, "row a is a bare element, not a tuple"),
            (2, [(A,)], None, RelationError,
             f"tuple {(A,)} has length 1, expected arity 2"),
            (2, [(A, B)], ["x"], AttrError, "1 labels for arity 2"),
            (2, [(A, B)], ["x", "x"], AttrError,
             "duplicate column labels in ('x', 'x')"),
        ],
    )
    def test_rel_checks_values_from_outside(self, arity, tuples, attrs, error, msg):
        with pytest.raises(error) as info:
            rel(arity, tuples, attrs)
        assert str(info.value) == msg

    def test_relation_is_a_value(self):
        r = rel(2, [(A, B)], attrs=["x", "y"])
        assert r == (2, frozenset({(A, B)}), ("x", "y"))
        assert hash(r) == hash((2, frozenset({(A, B)}), ("x", "y")))

    def test_with_attrs_checks_labels(self):
        r = rel(2, [(A, B)])
        assert r.with_attrs(("x", "y")) == rel(2, [(A, B)], attrs=("x", "y"))
        assert r.with_attrs(["x", "y"]).attrs == ("x", "y")
        assert r.with_attrs(None) == r
        with pytest.raises(AttrError):
            r.with_attrs(("x",))
        with pytest.raises(AttrError):
            r.with_attrs(("x", "x"))

    def test_bare_element_is_not_a_row(self):
        # a Particular is a tuple, so only an explicit check keeps it
        # from passing as a row of its name's characters
        for bad in (A, ConceptHandle(3)):
            with pytest.raises(RelationError, match="bare element"):
                rel(1, [bad])
        assert rel(1, [(A,)]).tuples == frozenset({(A,)})

    def test_particular_is_a_value(self):
        assert A == Particular("a") and hash(A) == hash(("a",))
        assert str(A) == "a"
        assert repr(A) == "Particular(name='a')"
        assert A.name == "a"

    def test_unchecked_relation_equals_the_checked_one(self):
        t = Relation(2, frozenset({(A, B)}), ("x", "y"))
        assert t == rel(2, [(A, B)], attrs=("x", "y"))
        assert hash(t) == hash(rel(2, [(A, B)], attrs=("x", "y")))
        assert Relation(0, frozenset({()})) == TRUE

    def test_truth_values(self):
        assert TRUE.as_bool() is True
        assert FALSE.as_bool() is False
        assert truth(True) == TRUE and truth(False) == FALSE
        with pytest.raises(Exception):
            rel(1, [(A,)]).as_bool()

    def test_element_order(self):
        assert element_key(A) < element_key(B)
        assert element_key(B) < element_key(ConceptHandle(0))
        assert element_key(ConceptHandle(0)) < element_key(ConceptHandle(1))

    def test_handle_equality_by_id(self):
        assert ConceptHandle(7, "u") == ConceptHandle(7, "v")
        assert ConceptHandle(7) != ConceptHandle(8)

    def test_format_golden(self):
        r = rel(2, [(B, B), (A, B)], attrs=("x", "y"))
        assert format_relation(r) == "rel 2 x y\na b\nb b"
        assert format_relation(TRUE) == "rel 0\n()"
        assert format_relation(FALSE) == "rel 0"


# ---------------------------------------------------------------------------
# law checks over random relations
# ---------------------------------------------------------------------------

elements = st.sampled_from([A, B, C])


def relation_of(arity, labeled=False, prefix="c"):
    rows = st.frozensets(st.tuples(*([elements] * arity)), max_size=8)
    labels = tuple(f"{prefix}{i}" for i in range(arity)) if labeled else None
    return rows.map(lambda t: Relation(arity, t, labels))


def relations(max_arity=3, labeled=False, prefix="c"):
    return st.integers(min_value=0, max_value=max_arity).flatmap(
        lambda arity: relation_of(arity, labeled, prefix)
    )


@settings(max_examples=60)
@given(relations())
def test_complement_involution(r):
    dom = (A, B, C)
    assert complement(complement(r, dom), dom) == r


# the plan shape each drawn kind of index set must get; an ill-formed
# set is read as the empty one, whose shape follows the arities
PLANNED_SHAPE = {
    "intersection": "intersection",
    "semijoin": "semijoin",
    "transposed": "semijoin",
    "extension": "extension",
    "general": "hash",
    "ill-formed": None,
    "empty": None,
}


def empty_key_shape(k, j):
    """A truth value on either side is a set operation that keeps the
    other side's rows or none; two positive arities hash on the empty
    key, which is the cartesian product."""
    if j == 0:
        return "intersection" if k == 0 else "semijoin"
    return "extension" if k == 0 else "hash"


def draw_join_spec(data, kind):
    """Arities k and j and an index set s of the given kind."""
    def ints(lo, hi):
        return data.draw(st.integers(lo, hi))

    if kind == "intersection":
        k = j = ints(1, 3)
        s = {(i, i) for i in range(1, k + 1)}
    elif kind == "transposed":
        # every column of both sides joined, but not each to itself
        k = j = ints(2, 3)
        perm = data.draw(st.permutations(range(1, k + 1)).filter(lambda p: p != sorted(p)))
        s = set(zip(perm, range(1, j + 1)))
    elif kind == "semijoin":
        # every right column joined, some left column left out or used twice
        k, j = ints(1, 3), ints(1, 3)
        left = data.draw(st.lists(st.integers(1, k), min_size=j, max_size=j))
        assume(sorted(left) != list(range(1, k + 1)))
        s = set(zip(left, range(1, j + 1)))
    elif kind == "extension":
        k = ints(1, 2)
        j = ints(k + 1, 3)
        s = {(i, i) for i in range(1, k + 1)}
    elif kind == "general":
        # some right column left out, and not the extension's pairs
        k, j = ints(1, 3), ints(2, 3)
        n = ints(1, j - 1)
        right = data.draw(st.lists(st.integers(1, j), min_size=n, max_size=n, unique=True))
        left = data.draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
        s = set(zip(left, right))
        assume(s != {(i, i) for i in range(1, k + 1)})
    elif kind == "ill-formed":
        # a right column matched twice, a column out of range, or a
        # pair of three
        k, j = ints(0, 3), ints(0, 3)
        i1, i2 = ints(1, max(k, 1)), ints(1, max(j, 1))
        if k >= 2 and j >= 1 and data.draw(st.booleans()):
            bad = (i1 % k + 1, i2)
        else:
            bad = data.draw(st.sampled_from(
                [(0, i2), (k + 1, i2), (i1, 0), (i1, j + 1), (i1, i2, 1)]
            ))
        s = {(i1, i2), bad}
    else:
        k, j = ints(0, 3), ints(0, 3)
        s = set()
    return k, j, s


@settings(max_examples=300)
@given(st.sampled_from(sorted(PLANNED_SHAPE)), st.data())
def test_join_arity_law(kind, data):
    # s is drawn as each kind in turn, so every plan shape meets
    # labeled, unlabeled and (for an empty key) arity-0 relations
    k, j, s = draw_join_spec(data, kind)
    r1 = data.draw(relation_of(k, data.draw(st.booleans())))
    # right labels either clash with the left's ("c") or do not ("d")
    r2 = data.draw(relation_of(j, data.draw(st.booleans()), data.draw(st.sampled_from("cd"))))
    plan = join_plan(frozenset(s), k, j)
    assert plan.shape == (PLANNED_SHAPE[kind] or empty_key_shape(k, j))
    out = natural_join(r1, r2, s)
    if PLANNED_SHAPE[kind] is None:
        kept = list(range(1, j + 1))
        assert out.arity == k + j
        assert out.tuples == frozenset(oracle_cartesian(r1.tuples, r2.tuples))
    else:
        dropped = {i2 for _, i2 in s}
        kept = [i for i in range(1, j + 1) if i not in dropped]
        assert out.arity == k + j - len(s)
        assert out.tuples == frozenset(oracle_join(list(r1.tuples), list(r2.tuples), s, j))
    labels = None
    if r1.attrs is not None and r2.attrs is not None:
        merged = r1.attrs + tuple(r2.attrs[i - 1] for i in kept)
        labels = merged if len(set(merged)) == len(merged) else None
    assert out.attrs == labels
    # the set-operation shapes hand back the input rows themselves
    sources = {"intersection": (r1, r2), "semijoin": (r1,), "extension": (r2,)}.get(plan.shape)
    if sources is not None:
        ids = {id(t) for r in sources for t in r.tuples}
        assert all(id(t) in ids for t in out.tuples)
    # whatever the shape, a hash join on the plan's getters gives the
    # same rows, as the world-set tables join them
    index = {}
    for t2 in r2.tuples:
        index.setdefault(plan.key2(t2), []).append(plan.rest2(t2))
    assert {t1 + rest for t1 in r1.tuples for rest in index.get(plan.key1(t1), ())} == out.tuples


@settings(max_examples=60)
@given(relations())
def test_join_unit(r):
    # a join with a truth value hands back the other side's row set
    # itself (two truth values intersect), or nothing: it builds no
    # product
    for out in (natural_join(TRUE, r, set()), natural_join(r, TRUE, set())):
        assert out.tuples == r.tuples
        assert out.tuples is r.tuples or r.arity == 0
    assert natural_join(FALSE, r, set()).tuples == frozenset()
    assert natural_join(r, FALSE, set()).tuples == frozenset()


@settings(max_examples=60)
@given(relations(max_arity=3, labeled=True))
def test_project_out_many_order_independent(r, ):
    if r.arity < 2:
        return
    names = (r.attrs[0], r.attrs[-1])
    assert project_out_many(r, names) == project_out_many(r, tuple(reversed(names)))


@settings(max_examples=60)
@given(relations())
def test_f_truth_idempotent(r):
    assert f_truth(f_truth(r)) == f_truth(r)
