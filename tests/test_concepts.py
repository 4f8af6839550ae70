"""Concept algebra: interning, degree arithmetic, canonical forms."""
import os
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from intlog.concepts import (
    ID_CONCEPT,
    TRUTH_CONCEPT,
    ConceptError,
    DegreeError,
    atom_concept,
    conj,
    exists,
    format_concept,
    neg,
    necess,
    union_concepts,
)
from intlog.relalg import ConceptHandle, Particular, join_plan
import intlog
from intlog.syntax import ID_PRED, PredicateSymbol

A, B = Particular("a"), Particular("b")
P1 = PredicateSymbol("p1", 1)
P2 = PredicateSymbol("p2", 1)
P5 = PredicateSymbol("p5", 5)
Q4 = PredicateSymbol("q4", 4)
Q2 = PredicateSymbol("q", 2)

u1 = atom_concept(P1, (1,))
u2 = atom_concept(P2, (1,))


class TestAtomConcept:
    def test_distinct_predicates_distinct_concepts(self):
        assert u1 is not u2
        assert u1.cid != u2.cid
        assert u1.degree == u2.degree == 1

    def test_identity_slots_give_id_concept(self):
        assert atom_concept(ID_PRED, (1, 2)) is ID_CONCEPT
        assert ID_CONCEPT.degree == 2

    def test_id_and_truth_are_the_only_concepts_at_import(self):
        src = os.path.dirname(os.path.dirname(intlog.__file__))
        code = (
            "from intlog import concepts as c; "
            "print(c.registry_size(), c.ID_CONCEPT.cid, c.TRUTH_CONCEPT.cid)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        ).stdout
        assert out.split() == ["2", "0", "1"]

    def test_identity_other_patterns_are_plain_atoms(self):
        diag = atom_concept(ID_PRED, (1, 1))
        assert diag is not ID_CONCEPT
        assert diag.degree == 1
        half = atom_concept(ID_PRED, (1, A))
        assert half.degree == 1

    def test_ground_atom_is_proposition(self):
        assert atom_concept(Q2, (A, B)).degree == 0
        assert atom_concept(Q2, (A, ConceptHandle(0))).degree == 0

    def test_repeated_slot(self):
        assert atom_concept(Q2, (1, 1)).degree == 1
        assert atom_concept(Q2, (1, 2)).degree == 2

    def test_arity_mismatch(self):
        with pytest.raises(ConceptError):
            atom_concept(P1, (1, 2))

    def test_slot_numbering_enforced(self):
        with pytest.raises(ConceptError):
            atom_concept(Q2, (2, 1))
        with pytest.raises(ConceptError):
            atom_concept(Q2, (1, 3))
        with pytest.raises(ConceptError):
            atom_concept(P1, (0,))

    @pytest.mark.parametrize("arg", ["x", True], ids=["str", "bool"])
    def test_bad_atom_argument(self, arg):
        with pytest.raises(ConceptError, match=f"^bad atom argument {arg!r}$"):
            atom_concept(P1, [arg])

    def test_truth_is_degree_zero(self):
        assert TRUTH_CONCEPT.degree == 0


class TestDegrees:
    def test_join_degree(self):
        a = atom_concept(P5, (1, 2, 3, 4, 5))
        b = atom_concept(Q4, (1, 2, 3, 4))
        assert a.degree == 5 and b.degree == 4
        c = conj({(4, 1), (2, 3)}, a, b)
        assert c.degree == 7

    def test_proposition_conjunction(self):
        a = atom_concept(P1, (A,))
        b = atom_concept(P2, (B,))
        assert conj(set(), a, b).degree == 0

    def test_shared_unary_slot(self):
        assert conj({(1, 1)}, u1, u2).degree == 1

    def test_invalid_s_degree_is_sum(self):
        assert conj({(1, 5)}, u1, u2).degree == 2
        # the join is the product, and the concept the product's
        assert conj({(1, 5)}, u1, u2) is conj(set(), u1, u2)
        assert conj({(1, 1), (2, 1)}, conj(set(), u1, u2), u1).degree == 3

    @pytest.mark.parametrize("name, pairs", [
        ("float_pairs_first", [(1.0, 1), (1, 1)]),
        ("int_pairs_first", [(1, 1), (1.0, 1)]),
    ])
    def test_equal_pair_sets_give_one_degree_in_either_order(self, name, pairs):
        # conj interns by the pair set, and {(1.0, 1)} == {(1, 1)}; a
        # predicate no other test interns makes the first set the one kept
        join_plan.cache_clear()
        u = atom_concept(PredicateSymbol(name, 1), (1,))
        assert [conj({p}, u, u).degree for p in pairs] == [1, 1]

    def test_neg_keeps_degree(self):
        a = atom_concept(P5, (1, 2, 3, 4, 5))
        assert neg(a).degree == 5
        assert neg(TRUTH_CONCEPT).degree == 0

    def test_exists_degrees(self):
        a = atom_concept(P5, (1, 2, 3, 4, 5))
        assert exists(3, a).degree == 4
        assert exists(1, u1).degree == 0
        assert exists(0, u1) is u1
        assert exists(7, u1) is u1
        assert exists(2, exists(1, u1)) is exists(1, u1)


class TestInterning:
    def test_same_structure_same_object(self):
        x = conj({(1, 1)}, atom_concept(P1, (1,)), atom_concept(P2, (1,)))
        y = conj({(1, 1)}, atom_concept(P1, (1,)), atom_concept(P2, (1,)))
        assert x is y

    def test_no_commutativity_collapse(self):
        assert conj({(1, 1)}, u1, u2) is not conj({(1, 1)}, u2, u1)

    def test_double_negation_collapses(self):
        assert neg(neg(u1)) is u1
        assert neg(neg(neg(u1))) is neg(u1)

    def test_union_set_semantics(self):
        assert union_concepts([u1]) is u1
        assert union_concepts([u1, u1]) is u1
        assert union_concepts([u1, u2]) is union_concepts([u2, u1])
        assert union_concepts([u1, u2]).degree == 1

    def test_union_errors(self):
        with pytest.raises(DegreeError):
            union_concepts([])
        with pytest.raises(DegreeError):
            union_concepts([u1, TRUTH_CONCEPT])

    def test_necess(self):
        n = necess(u1)
        assert n.degree == 1
        assert n is necess(u1)

    def test_concurrent_interning_is_linearizable(self):
        results = []

        def build():
            for _ in range(200):
                c = conj({(1, 1)}, neg(atom_concept(P1, (1,))), atom_concept(P2, (1,)))
                results.append(c.cid)

        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1


class TestFormatting:
    def test_golden_sexprs(self):
        c = conj({(1, 1)}, u1, neg(u2))
        assert format_concept(c) == "(conj {(1,1)} (atom p1/1 _1) (neg (atom p2/1 _1)))"
        p = PredicateSymbol("p", 1)
        assert format_concept(exists(1, atom_concept(p, (1,)))) == "(exists 1 (atom p/1 _1))"
        assert format_concept(ID_CONCEPT) == "(id)"
        assert format_concept(TRUTH_CONCEPT) == "(truth)"
        assert format_concept(atom_concept(Q2, (1, A))) == "(atom q/2 _1 a)"
        assert format_concept(atom_concept(Q2, (A, ConceptHandle(12)))) == "(atom q/2 a @12)"
        assert format_concept(necess(TRUTH_CONCEPT)) == "(necess (truth))"

    def test_multi_pair_s_sorted(self):
        a = atom_concept(P5, (1, 2, 3, 4, 5))
        b = atom_concept(Q4, (1, 2, 3, 4))
        c = conj({(4, 1), (2, 3)}, a, b)
        assert format_concept(c).startswith("(conj {(2,3),(4,1)}")

    @pytest.mark.parametrize("name, order", [
        pytest.param(name, order, id=name) for name, order in [
            ("bool_slot_first", (True, 1)),
            ("int_slot_before_bool", (1, True)),
            ("float_slot_first", (1.0, 1)),
            ("int_slot_before_float", (1, 1.0)),
        ]
    ])
    def test_a_slot_given_by_value_prints_as_an_int_in_either_order(self, name, order):
        # equal slots key one node, which keeps the int whichever
        # spelling builds it; a predicate no other test interns makes
        # the first spelling the one that builds it
        u = atom_concept(PredicateSymbol(name, 2), (1, 2))
        v = atom_concept(PredicateSymbol(name, 1), (1,))
        quantified = f"(exists 1 (atom {name}/2 _1 _2))"
        joined = f"(conj {{(1,1)}} (atom {name}/1 _1) (atom {name}/1 _1))"
        assert [format_concept(exists(n, u)) for n in order] == [quantified] * 2
        assert [format_concept(conj({(n, 1)}, v, v)) for n in order] == [joined] * 2

    def test_union_format(self):
        # a union is its law's expansion, members in cid order
        assert format_concept(union_concepts([u2, u1])) == (
            "(neg (conj {(1,1)} (neg (atom p1/1 _1)) (neg (atom p2/1 _1))))"
        )


# ---------------------------------------------------------------------------
# degree arithmetic on random trees, against an oracle recomputation
# ---------------------------------------------------------------------------

def oracle_degree(spec) -> int:
    """Recompute the degree of a tree spec independently of the
    Concept nodes.  spec is ('atom', k) | ('neg', s) | ('ex', n, s) |
    ('conj', pairs, s1, s2)."""
    tag = spec[0]
    if tag == "atom":
        return spec[1]
    if tag == "neg":
        return oracle_degree(spec[1])
    if tag == "ex":
        d = oracle_degree(spec[2])
        return d - 1 if 1 <= spec[1] <= d else d
    pairs, s1, s2 = spec[1], spec[2], spec[3]
    k, j = oracle_degree(s1), oracle_degree(s2)
    ok = len({p[1] for p in pairs}) == len(pairs) and all(
        1 <= a <= k and 1 <= b <= j for a, b in pairs
    )
    return k + j - len(pairs) if ok and pairs else k + j


def build_concept(spec):
    tag = spec[0]
    if tag == "atom":
        k = spec[1]
        pred = PredicateSymbol(f"g{k}", k)
        return atom_concept(pred, tuple(range(1, k + 1)))
    if tag == "neg":
        return neg(build_concept(spec[1]))
    if tag == "ex":
        return exists(spec[1], build_concept(spec[2]))
    return conj(spec[1], build_concept(spec[2]), build_concept(spec[3]))


def specs(depth=3):
    base = st.tuples(st.just("atom"), st.integers(min_value=0, max_value=3))

    def extend(children):
        return st.one_of(
            st.tuples(st.just("neg"), children),
            st.tuples(st.just("ex"), st.integers(0, 4), children),
            st.tuples(
                st.just("conj"),
                st.frozensets(
                    st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=3
                ),
                children,
                children,
            ),
        )

    return st.recursive(base, extend, max_leaves=8)


@settings(max_examples=150)
@given(specs())
def test_degree_matches_oracle(spec):
    u = build_concept(spec)
    assert u.degree == oracle_degree(spec)


@settings(max_examples=50)
@given(specs(), specs())
def test_intern_soundness_on_random_trees(s1, s2):
    a1, a2 = build_concept(s1), build_concept(s2)
    b1, b2 = build_concept(s1), build_concept(s2)
    assert a1 is b1 and a2 is b2
    if s1 == s2:
        assert a1 is a2
