"""World enumeration, modal extensions, Kripke satisfaction and the
intensional equivalence checks.

The 4-world fixture is the full enumeration over {p/1}, D = {a, b};
its order is pinned by the bitmask convention: w0 empty, w1 {(a)},
w2 {(b)}, w3 {(a), (b)}.
"""
import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from intlog.concepts import (
    TRUTH_CONCEPT,
    atom_concept,
    conj,
    exists,
    necess,
    neg,
    union_concepts,
)
from intlog.files import load_world_set, write_world_set
from intlog.relalg import (
    ConceptHandle,
    FALSE,
    Particular,
    TRUE,
    complement,
    rel,
    tuple_key,
)
from intlog.semantics import (
    SemanticsError,
    World,
    WorldError,
    extensionalize,
    extensionalize_nomemo,
    ground,
    interpret,
    interpret_abstraction,
    tarski_satisfied,
)
from intlog.syntax import (
    ID_PRED,
    AssignmentError,
    Atom,
    Conj,
    Exists,
    Neg,
    PredicateSymbol,
    Variable,
    free_vars,
    ground_term,
    make_signature,
    parse_formula,
    parse_term,
)
from intlog.worlds import (
    Box,
    Diamond,
    EnumerationError,
    EquivError,
    EquivReport,
    WorldSet,
    box_extension,
    diamond_extension,
    enumerate_worlds,
    masks,
    montague_intension,
    satisfies,
    strong_equiv,
    weak_equiv,
)

A = Particular("a")
B = Particular("b")
P = PredicateSymbol("p", 1)
Q = PredicateSymbol("q", 2)

SIG_P = make_signature(preds=[("p", 1)])
SIG_PQ = make_signature(preds=[("p", 1), ("q", 2)])


@pytest.fixture(scope="module")
def ws4():
    return enumerate_worlds(SIG_P, ["a", "b"])


@pytest.fixture(scope="module")
def ws64():
    return enumerate_worlds(SIG_PQ, ["a", "b"])


class TestEnumerate:
    def test_four_worlds_in_bitmask_order(self, ws4):
        assert len(ws4) == 4
        assert [w.name for w in ws4] == ["w0", "w1", "w2", "w3"]
        tables = [w.pred_map[P] for w in ws4]
        assert tables == [
            rel(1, []),
            rel(1, [(A,)]),
            rel(1, [(B,)]),
            rel(1, [(A,), (B,)]),
        ]

    def test_sixty_four_worlds(self, ws64):
        assert len(ws64) == 64
        assert ws64.worlds[0].pred_map[P] == rel(1, [])
        assert ws64.worlds[0].pred_map[Q] == rel(2, [])
        # q's mask is least significant; its first tuple is (a,a)
        assert ws64.worlds[1].pred_map[Q] == rel(2, [(A, A)])
        # w16 = p-mask 1, q-mask 0
        assert ws64.worlds[16].pred_map[P] == rel(1, [(A,)])
        assert ws64.worlds[16].pred_map[Q] == rel(2, [])
        assert ws64.worlds[63].pred_map[P] == rel(1, [(A,), (B,)])
        assert ws64.worlds[63].pred_map[Q].arity == 2
        assert len(ws64.worlds[63].pred_map[Q].tuples) == 4

    def test_all_worlds_distinct(self, ws64):
        seen = {
            (w.pred_map[P].tuples, w.pred_map[Q].tuples) for w in ws64
        }
        assert len(seen) == 64

    def test_limit_exceeded(self):
        sig = make_signature(preds=[("p", 3)])
        with pytest.raises(EnumerationError, match="limit"):
            enumerate_worlds(sig, list("abcdef"))

    def test_custom_limit(self):
        with pytest.raises(EnumerationError, match="limit 2"):
            enumerate_worlds(SIG_P, ["a", "b"], limit=2)

    def test_constants_need_denotations(self):
        sig = make_signature(preds=[("p", 1)], consts=["c"])
        with pytest.raises(EnumerationError, match="explicit denotation"):
            enumerate_worlds(sig, ["a", "b"])
        ws = enumerate_worlds(sig, ["a", "b"], const_map={"c": "a"})
        assert all(w.const_map == {"c": A} for w in ws)

    def test_unknown_constant_target(self):
        sig = make_signature(preds=[("p", 1)], consts=["c"])
        with pytest.raises(EnumerationError, match="unknown element"):
            enumerate_worlds(sig, ["a", "b"], const_map={"c": "zz"})

    def test_domain_as_elements(self, ws4):
        ws = enumerate_worlds(SIG_P, [A, B])
        assert [w.pred_map[P] for w in ws] == [w.pred_map[P] for w in ws4]

    def test_empty_or_duplicate_domain(self):
        with pytest.raises(EnumerationError, match="non-empty"):
            enumerate_worlds(SIG_P, [])
        with pytest.raises(EnumerationError, match="duplicate"):
            enumerate_worlds(SIG_P, ["a", "a"])


class TestWorldSet:
    def test_members_are_adopted_with_backref(self):
        orig = [
            World("m0", (A, B), {}, {P: rel(1, [])}),
            World("m1", (A, B), {}, {P: rel(1, [(A,)])}),
        ]
        ws = WorldSet(orig)
        assert ws.worlds == orig  # the same objects: World has no __eq__
        assert all(w.world_set is ws for w in orig)
        assert ws.world("m1") is orig[1]

    def test_adopted_world_evaluates_as_a_member(self):
        w = World("only", (A, B), {}, {P: rel(1, [(A,)])})
        ws = WorldSet([w])
        px = parse_formula("p(x)", SIG_P)
        assert satisfies(ws, w, {"x": A}, Box(px))
        assert not satisfies(ws, w, {"x": B}, Diamond(px))
        assert extensionalize(necess(interpret(px)), w) == rel(1, [(A,)])

    def test_world_belongs_to_one_set(self):
        w = World("m", (A, B), {}, {P: rel(1, [])})
        ws = WorldSet([w], name="first")
        with pytest.raises(WorldError, match="^world m already belongs to world set first$"):
            WorldSet([w], name="second")
        assert w.world_set is ws

    def test_rejected_set_adopts_nothing(self):
        w0 = World("m0", (A, B), {}, {P: rel(1, [])})
        w1 = World("m1", (A, B), {}, {P: rel(1, []), Q: rel(2, [])})
        with pytest.raises(WorldError, match="different predicates"):
            WorldSet([w0, w1])
        assert w0.world_set is None and w1.world_set is None
        assert WorldSet([w0]).worlds == [w0]

    def test_unknown_world_name(self, ws4):
        with pytest.raises(WorldError, match="no world named"):
            ws4.world("nope")

    def test_mismatched_domain(self):
        w0 = World("m0", (A, B), {}, {P: rel(1, [])})
        w1 = World("m1", (A,), {}, {P: rel(1, [])})
        with pytest.raises(WorldError, match="different domain"):
            WorldSet([w0, w1])

    def test_mismatched_constants(self):
        w0 = World("m0", (A, B), {"c": A}, {P: rel(1, [])})
        w1 = World("m1", (A, B), {"c": B}, {P: rel(1, [])})
        with pytest.raises(WorldError, match="constant"):
            WorldSet([w0, w1])

    def test_duplicate_names_and_empty(self):
        w = World("m", (A,), {}, {P: rel(1, [])})
        with pytest.raises(WorldError, match="duplicate"):
            WorldSet([w, w])
        with pytest.raises(WorldError, match="at least one"):
            WorldSet([])

    def test_clear_memos(self, ws4):
        u = interpret(parse_formula("p(x)", SIG_P))
        for w in ws4:
            extensionalize(u, w)
        assert any(w._memo for w in ws4)
        ws4.clear_memos()
        assert all(not w._memo for w in ws4)

    def test_clear_memos_drops_world_bitmasks(self):
        ws = enumerate_worlds(SIG_P, ["a", "b"])
        u = interpret(parse_formula("~p(x)", SIG_P))
        assert box_extension(u, ws) == rel(1, [])
        assert ws._masks and ws._base
        ws.clear_memos()
        assert ws._masks == {} and ws._base is None
        # rebuilt on the next use
        assert diamond_extension(u, ws) == rel(1, [(A,), (B,)])


class TestMontague:
    def test_p_table_reads_off_each_world(self, ws4):
        intn = montague_intension(parse_formula("p(x)", SIG_P), ws4)
        assert intn.concept is atom_concept(P, (1,))
        assert intn.table == {
            "w0": rel(1, []),
            "w1": rel(1, [(A,)]),
            "w2": rel(1, [(B,)]),
            "w3": rel(1, [(A,), (B,)]),
        }

    def test_tautology_constant_table(self, ws4):
        intn = montague_intension(parse_formula("true", SIG_P), ws4)
        assert intn.concept is TRUTH_CONCEPT
        assert set(intn.table.values()) == {TRUE}

    def test_table_matches_extensionalize(self, ws4):
        f = parse_formula("exists y . (p(y) & ~p(x))", SIG_P)
        intn = montague_intension(f, ws4)
        for w in ws4:
            assert intn.table[w.name] == extensionalize_nomemo(intn.concept, w)

    def test_coinciding_predicates_identical_tables_distinct_concepts(self):
        sig = make_signature(preds=[("bought", 1), ("sold", 1)])
        text = (
            "worlds\ndomain a b\n"
            "world m1\nrel bought/1 = (a)\nrel sold/1 = (a)\n"
            "world m2\nrel bought/1 = (b)\nrel sold/1 = (b)\n"
            "world m3\nrel bought/1 =\nrel sold/1 =\n"
        )
        ws = load_world_set(text, sig)
        i1 = montague_intension(parse_formula("bought(x)", sig), ws)
        i2 = montague_intension(parse_formula("sold(x)", sig), ws)
        assert i1.table == i2.table
        assert i1.concept is not i2.concept


class TestModalExtensions:
    def test_box_and_diamond_of_p(self, ws4):
        u = atom_concept(P, (1,))
        assert box_extension(u, ws4) == rel(1, [])
        assert diamond_extension(u, ws4) == rel(1, [(A,), (B,)])

    def test_trivial_cases(self, ws4):
        assert box_extension(TRUTH_CONCEPT, ws4) == TRUE
        assert diamond_extension(neg(TRUTH_CONCEPT), ws4) == FALSE

    def test_inclusion_chain(self, ws4):
        texts = ["p(x)", "~p(x)", "p(x) & p(y)", "exists x . p(x)", "x == y"]
        for text in texts:
            u = interpret(parse_formula(text, SIG_P))
            lo = box_extension(u, ws4).tuples
            hi = diamond_extension(u, ws4).tuples
            for w in ws4:
                mid = extensionalize(u, w).tuples
                assert lo <= mid <= hi

    def test_de_morgan_duality(self, ws4):
        for text in ["p(x)", "p(x) & ~p(y)", "exists x . p(x)"]:
            u = interpret(parse_formula(text, SIG_P))
            got = diamond_extension(u, ws4)
            expect = complement(box_extension(neg(u), ws4), ws4.domain)
            assert got == expect

    def test_necess_is_rigid_and_equals_box(self, ws4):
        u = necess(atom_concept(P, (1,)))
        exts = [extensionalize(u, w) for w in ws4]
        assert all(r == exts[0] for r in exts)
        assert exts[0] == box_extension(atom_concept(P, (1,)), ws4)

    def test_necess_is_memoized_in_every_member(self):
        ws = enumerate_worlds(SIG_P, ["a", "b"])
        u = necess(atom_concept(P, (1,)))
        r = extensionalize(u, ws.worlds[0])
        assert ws.worlds[-1]._memo[u.cid] is r
        assert all(w._memo[u.cid] is r for w in ws)

    def test_necess_over_singleton_degenerates(self):
        w = World("only", (A, B), {}, {P: rel(1, [(A,)])})
        ws = WorldSet([w])
        u = necess(atom_concept(P, (1,)))
        assert extensionalize(u, ws.worlds[0]) == rel(1, [(A,)])


class TestSatisfies:
    def test_membership_required(self, ws4):
        stray = World("w1", (A, B), {}, {P: rel(1, [])})
        with pytest.raises(WorldError, match="not a member"):
            satisfies(ws4, stray, {}, parse_formula("true", SIG_P))

    def test_assignment_must_cover_free_vars(self, ws4):
        with pytest.raises(AssignmentError, match="cover"):
            satisfies(ws4, ws4.world("w1"), {}, parse_formula("p(x)", SIG_P))

    def test_agrees_with_reference_evaluator(self, ws4):
        texts = [
            "p(x)",
            "~p(x)",
            "p(x) & p(y)",
            "p(x) | ~p(y)",
            "exists x . p(x)",
            "forall x . p(x)",
            "x == y",
            "exists1 x . p(x)",
        ]
        for text in texts:
            f = parse_formula(text, SIG_P)
            fv = free_vars(f)
            for w in ws4:
                for combo in itertools.product((A, B), repeat=len(fv)):
                    g = dict(zip(fv, combo))
                    assert satisfies(ws4, w, g, f) == tarski_satisfied(f, g, w)

    def test_agrees_with_two_step_route_on_ground_formulas(self, ws4):
        # satisfaction of phi under g coincides with the truth value of
        # the grounded formula through interpret and extensionalize
        f = parse_formula("p(x) & ~p(y)", SIG_P)
        fv = free_vars(f)
        for w in ws4:
            for combo in itertools.product((A, B), repeat=len(fv)):
                g = dict(zip(fv, combo))
                via_two_step = extensionalize_nomemo(
                    interpret(ground(f, g), w), w
                ).as_bool()
                assert satisfies(ws4, w, g, f) == via_two_step

    def test_vacuous_existential_reduces_to_body(self, ws4):
        f = parse_formula("p(x)", SIG_P)
        wrapped = Exists("z", f)
        for w in ws4:
            for d in (A, B):
                assert satisfies(ws4, w, {"x": d}, wrapped) == satisfies(
                    ws4, w, {"x": d}, f
                )

    def test_box_and_diamond_values(self, ws4):
        pa = parse_formula("p(#a)", SIG_P)
        for w in ws4:
            # some world lacks (a), some world has it
            assert not satisfies(ws4, w, {}, Box(pa))
            assert satisfies(ws4, w, {}, Diamond(pa))

    def test_modal_under_quantifier(self, ws4):
        px = Atom(P, (Variable("x"),))
        w = ws4.world("w3")
        assert not satisfies(ws4, w, {}, Exists("x", Box(px)))
        assert satisfies(ws4, w, {}, Exists("x", Diamond(px)))

    def test_modal_mixed_with_connectives(self, ws4):
        px = Atom(P, (Variable("x"),))
        f = Conj(px, Diamond(Neg(px)))
        assert satisfies(ws4, ws4.world("w1"), {"x": A}, f)
        assert not satisfies(ws4, ws4.world("w1"), {"x": B}, f)

    def test_box_of_closed_formula(self, ws4):
        some_p = parse_formula("exists x . p(x)", SIG_P)
        for w in ws4:
            assert not satisfies(ws4, w, {}, Box(some_p))
            assert satisfies(ws4, w, {}, Diamond(some_p))

    def test_modal_needs_a_world_set(self):
        w = World("solo", [A], {}, {P: rel(1, [(A,)])})
        with pytest.raises(SemanticsError):
            tarski_satisfied(Box(parse_formula("p(#a)", SIG_P)), {}, w)

    def test_modal_free_vars(self):
        px = Atom(P, (Variable("x"),))
        qxy = Atom(Q, (Variable("x"), Variable("y")))
        assert free_vars(Box(Exists("x", qxy))) == ("y",)
        assert free_vars(Conj(px, Box(px))) == ("x",)
        assert free_vars(Diamond(Neg(px))) == ("x",)


class TestEquivalence:
    def test_reflexive(self, ws4):
        t = parse_term("<< p(x) >>_{x}", SIG_P)
        report = strong_equiv(t, t, {}, ws4)
        assert report and report.same_concept
        assert str(report) == "equivalent (strong); concepts identical [relative to 4 worlds]"

    def test_coinciding_predicates_strongly_equivalent(self):
        sig = make_signature(preds=[("bought", 1), ("sold", 1)])
        text = (
            "worlds\ndomain a b\n"
            "world m1\nrel bought/1 = (a)\nrel sold/1 = (a)\n"
            "world m2\nrel bought/1 = (b)\nrel sold/1 = (b)\n"
            "world m3\nrel bought/1 =\nrel sold/1 =\n"
        )
        ws = load_world_set(text, sig)
        t1 = parse_term("<< bought(x) >>_{x}", sig)
        t2 = parse_term("<< sold(x) >>_{x}", sig)
        report = strong_equiv(t1, t2, {}, ws)
        assert report.equivalent and not report.same_concept
        assert str(report) == "equivalent (strong); concepts distinct [relative to 3 worlds]"
        assert weak_equiv(t1, t2, {}, ws).equivalent

    def test_divergent_world_is_witnessed(self):
        sig = make_signature(preds=[("p1", 1), ("p2", 1)])
        text = (
            "worlds\ndomain a b\n"
            "world d1\nrel p1/1 = (a)\nrel p2/1 = (a)\n"
            "world d2\nrel p1/1 = (a)\nrel p2/1 =\n"
        )
        ws = load_world_set(text, sig)
        t1 = parse_term("<< p1(x) >>_{x}", sig)
        t2 = parse_term("<< p2(x) >>_{x}", sig)
        report = strong_equiv(t1, t2, {}, ws)
        assert not report.equivalent
        assert report.world == "d2" and report.row == (A,)
        assert (
            str(report)
            == "not equivalent (strong) (witness: world d2, tuple (a)) [relative to 2 worlds]"
        )

    def test_weakly_but_not_strongly_equivalent(self):
        # p holds somewhere in v1 only, q somewhere in v2 only: the
        # closed abstractions differ per world but share the diamond
        sig = make_signature(preds=[("p", 1), ("q", 1)])
        text = (
            "worlds\ndomain a b\n"
            "world v1\nrel p/1 = (a)\nrel q/1 =\n"
            "world v2\nrel p/1 =\nrel q/1 = (a)\n"
        )
        ws = load_world_set(text, sig)
        t1 = parse_term("<< exists x . p(x) >>_{}", sig)
        t2 = parse_term("<< exists x . q(x) >>_{}", sig)
        strong = strong_equiv(t1, t2, {}, ws)
        assert not strong.equivalent and strong.world == "v1" and strong.row == ()
        assert weak_equiv(t1, t2, {}, ws).equivalent

    def test_alpha_renaming_gives_identical_concepts(self, ws4):
        t1 = parse_term("<< p(x) >>_{x}", SIG_P)
        t2 = parse_term("<< p(y) >>_{y}", SIG_P)
        report = strong_equiv(t1, t2, {}, ws4)
        assert report.equivalent and report.same_concept

    def test_p_and_not_p_weakly_equivalent_over_full_enumeration(self, ws4):
        # both sweep through every subset of D, so the unions agree
        # while almost every single world disagrees
        t1 = parse_term("<< p(x) >>_{x}", SIG_P)
        t2 = parse_term("<< ~p(x) >>_{x}", SIG_P)
        assert not strong_equiv(t1, t2, {}, ws4).equivalent
        report = weak_equiv(t1, t2, {}, ws4)
        assert report.equivalent and not report.same_concept

    def test_strong_implies_weak(self, ws4):
        terms = [
            parse_term(t, SIG_P)
            for t in [
                "<< p(x) >>_{x}",
                "<< ~p(x) >>_{x}",
                "<< p(x) & true >>_{x}",
                "<< p(x) & p(x) >>_{x}",
            ]
        ]
        for t1, t2 in itertools.product(terms, repeat=2):
            if strong_equiv(t1, t2, {}, ws4).equivalent:
                assert weak_equiv(t1, t2, {}, ws4).equivalent

    def test_beta_grounding_through_assignment(self, ws64):
        t1 = parse_term("<< q(x, y) >>_{x}^{y}", SIG_PQ)
        t2 = parse_term("<< q(x, y) & true >>_{x}^{y}", SIG_PQ)
        report = strong_equiv(t1, t2, {"y": B}, ws64)
        assert report.equivalent and not report.same_concept

    def test_missing_beta_binding(self, ws64):
        t1 = parse_term("<< q(x, y) >>_{x}^{y}", SIG_PQ)
        with pytest.raises(AssignmentError):
            strong_equiv(t1, t1, {}, ws64)

    def test_alpha_arity_mismatch(self, ws64):
        t1 = parse_term("<< p(x) >>_{x}", SIG_PQ)
        t2 = parse_term("<< q(x, y) >>_{x,y}", SIG_PQ)
        with pytest.raises(EquivError, match="alpha arity"):
            strong_equiv(t1, t2, {}, ws64)


class TestMissingRelation:
    """Members declare the same predicates, so a relation is either in
    every member or in none; one absent everywhere fails at its atom,
    naming the first member, as the per-world route does."""

    @pytest.fixture
    def ws(self):
        return WorldSet([
            World("m0", (A, B), {}, {P: rel(1, [(A,)])}),
            World("m1", (A, B), {}, {P: rel(1, [(B,)])}),
        ])

    NO_Q = r"^predicate q/2 has no relation in world m0$"

    @staticmethod
    def pq():
        return interpret(parse_formula("p(x) & q(x, y)", SIG_PQ))

    @pytest.mark.parametrize(
        "preds",
        [{}, {P: rel(1, [(A,)]), Q: rel(2, [])}],
        ids=["missing", "extra"],
    )
    def test_construction_rejects_other_predicates(self, preds):
        w0 = World("m0", (A, B), {}, {P: rel(1, [(B,)])})
        w1 = World("m1", (A, B), {}, preds)
        with pytest.raises(WorldError, match="^world m1 has different predicates$"):
            WorldSet([w0, w1])

    @pytest.mark.parametrize("modal", [box_extension, diamond_extension])
    def test_box_and_diamond(self, ws, modal):
        with pytest.raises(SemanticsError, match=self.NO_Q):
            modal(self.pq(), ws)

    def test_equivalences(self, ws):
        t1 = parse_term("<< p(x) >>_{x}", SIG_PQ)
        t2 = parse_term("<< exists y . q(x, y) >>_{x}", SIG_PQ)
        with pytest.raises(SemanticsError, match=self.NO_Q):
            strong_equiv(t1, t2, {}, ws)
        with pytest.raises(SemanticsError, match=self.NO_Q):
            weak_equiv(t1, t2, {}, ws)

    def test_per_world_extensionalize(self, ws):
        with pytest.raises(SemanticsError, match=self.NO_Q):
            extensionalize(self.pq(), ws.worlds[0])

    def test_necess_reaches_every_world_first(self, ws):
        # necess evaluates its body in every member in set order, so
        # from m1 it fails in m0
        with pytest.raises(SemanticsError, match=self.NO_Q):
            extensionalize(necess(self.pq()), ws.worlds[1])


# ---------------------------------------------------------------------------
# the third corner: world bitmasks against per-world extensions
# ---------------------------------------------------------------------------

#: A reified concept: the element `unicorn` of the file-loaded set, and
#: a domain element of one enumerated set.
HANDLE = ConceptHandle(atom_concept(P, (1,)).cid)

WS_FILE = (
    "worlds\ndomain a b\n"
    "reify unicorn = << p(x) >>_{x}\n"
    "world v1\nrel p/1 = (a) (unicorn)\nrel q/2 = (a, unicorn) (b, b)\n"
    "world v2\nrel p/1 =\nrel q/2 = (b, b) (unicorn, a)\n"
    "world v3\nrel p/1 = (a) (b) (unicorn)\nrel q/2 = (a, a) (a, b)\n"
)


@functools.lru_cache(maxsize=None)
def _world_sets():
    return (
        enumerate_worlds(SIG_PQ, ["a", "b"]),
        enumerate_worlds(SIG_PQ, [A, HANDLE]),
        load_world_set(WS_FILE, SIG_PQ),
    )


#: Abstractions with beta variables: interpreted, they are unions.
BETA_TERMS = [
    parse_term(t, SIG_PQ)
    for t in (
        "<< q(x, y) >>_{x}^{y}",
        "<< q(x, y) & ~p(y) >>_{y}^{x}",
        "<< p(x) & ~p(y) >>_{}^{x,y}",
        "<< exists z . (q(x, z) & q(z, y)) >>_{x}^{y}",
    )
]


@st.composite
def atoms(draw):
    """Atoms over p, q and identity, with repeated slots and fixed
    particulars or reified handles."""
    pred = draw(st.sampled_from((P, Q, ID_PRED)))
    args, slots = [], 0
    for _ in range(pred.arity):
        pick = draw(st.integers(0, slots + 1))  # 0 fixed, 1..slots repeat, else new
        if pick == 0:
            args.append(draw(st.sampled_from((A, B, HANDLE))))
        elif pick <= slots:
            args.append(pick)
        else:
            slots += 1
            args.append(slots)
    return atom_concept(pred, args)


@st.composite
def concepts(draw, ws, depth=3, necess_ok=True):
    """Random concepts of every kind, degree at most 4.  At most one
    necess, which keeps the per-world reference at N^2 evaluations."""
    kinds = ["atom", "atom", "abstraction", "truth"]
    if depth:
        kinds += ["conj", "conj", "neg", "exists", "union"] + ["necess"] * necess_ok
    kind = draw(st.sampled_from(kinds))
    if kind == "atom":
        return draw(atoms())
    if kind == "abstraction":
        return interpret_abstraction(draw(st.sampled_from(BETA_TERMS)), ws.worlds[0])
    if kind == "truth":
        return TRUTH_CONCEPT
    u = draw(concepts(ws, depth - 1, necess_ok and kind != "necess"))
    if kind == "neg":
        return neg(u) if u.degree <= 3 else u
    if kind == "exists":
        return exists(draw(st.integers(0, u.degree + 1)), u)
    if kind == "necess":
        return necess(u)
    v = draw(concepts(ws, depth - 1, necess_ok and not _has_necess(u)))
    if kind == "union":
        other = v if v.degree == u.degree else conj((), u, TRUTH_CONCEPT)
        return union_concepts([u, other])
    # pairs may point outside either side or repeat a right column;
    # such an s is ill formed and the join is a cartesian product
    pair = st.tuples(st.integers(0, u.degree + 1), st.integers(0, v.degree + 1))
    c = conj(draw(st.frozensets(pair, max_size=3)), u, v)
    return c if c.degree <= 4 else u


def _has_necess(u):
    return u.kind == "necess" or any(_has_necess(v) for v in u.subs)


@st.composite
def set_and_concept(draw):
    ws = draw(st.sampled_from(_world_sets()))
    return ws, draw(concepts(ws))


#: Equivalence candidates, grouped by alpha arity.
EQUIV_TERMS = [
    [parse_term(t, SIG_PQ) for t in group]
    for group in (
        (
            "<< exists x . p(x) >>_{}",
            "<< exists x . q(x, x) >>_{}",
            "<< p(y) >>_{}^{y}",
            "<< forall x . p(x) >>_{}",
            "<< q(x, y) >>_{}^{x,y}",
        ),
        (
            "<< p(x) >>_{x}",
            "<< ~p(x) >>_{x}",
            "<< p(x) | ~p(x) >>_{x}",
            "<< q(x, x) >>_{x}",
            "<< exists y . q(x, y) >>_{x}",
            "<< q(x, y) >>_{x}^{y}",
            "<< q(y, x) >>_{x}^{y}",
            "<< p(x) & q(x, y) >>_{x}^{y}",
            "<< x == y >>_{x}^{y}",
        ),
        (
            "<< q(x, y) >>_{x,y}",
            "<< q(y, x) >>_{x,y}",
            "<< p(x) & p(y) >>_{x,y}",
            "<< q(x, y) & ~q(y, x) >>_{x,y}",
            "<< q(x, y) & x == y >>_{x,y}",
        ),
    )
]


def _reference_concepts(t1, t2, g, ws):
    return [interpret_abstraction(ground_term(t, g), ws.worlds[0]) for t in (t1, t2)]


def reference_strong(t1, t2, g, ws):
    """strong_equiv world by world, through the per-world route."""
    u1, u2 = _reference_concepts(t1, t2, g, ws)
    for w in ws.worlds:
        r1, r2 = extensionalize(u1, w), extensionalize(u2, w)
        if r1.arity != r2.arity or r1.tuples != r2.tuples:
            row = min(r1.tuples ^ r2.tuples, key=tuple_key) if r1.arity == r2.arity else None
            return EquivReport(False, "strong", u1 is u2, len(ws), w.name, row)
    return EquivReport(True, "strong", u1 is u2, len(ws))


def reference_weak(t1, t2, g, ws):
    """weak_equiv as the union of per-world extensions."""
    u1, u2 = _reference_concepts(t1, t2, g, ws)
    d1, d2 = (
        frozenset().union(*(extensionalize(u, w).tuples for w in ws.worlds))
        for u in (u1, u2)
    )
    ok = u1.degree == u2.degree and d1 == d2
    row = None if ok or u1.degree != u2.degree else min(d1 ^ d2, key=tuple_key)
    return EquivReport(ok, "weak", u1 is u2, len(ws), None, row)


class TestWorldBitmasks:
    @settings(max_examples=150, deadline=None)
    @given(set_and_concept())
    def test_bit_i_is_membership_in_world_i(self, drawn):
        ws, u = drawn
        table = masks(u, ws)
        assert all(m for m in table.values())
        for i, w in enumerate(ws.worlds):
            assert {t for t, m in table.items() if m >> i & 1} == (
                extensionalize_nomemo(u, w).tuples
            )

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_equivalences_match_the_per_world_loop(self, data):
        ws = data.draw(st.sampled_from(_world_sets()))
        group = data.draw(st.sampled_from(EQUIV_TERMS))
        t1, t2 = data.draw(st.sampled_from(group)), data.draw(st.sampled_from(group))
        dom = ws.worlds[0].sorted_domain()
        g = {v: data.draw(st.sampled_from(dom)) for v in sorted(set(t1.beta) | set(t2.beta))}
        for fast, slow in ((strong_equiv, reference_strong), (weak_equiv, reference_weak)):
            got, want = fast(t1, t2, g, ws), slow(t1, t2, g, ws)
            assert got == want
            assert str(got) == str(want)

    def test_box_and_diamond_read_the_masks(self, ws64):
        u = interpret(parse_formula("q(x, y) | p(x)", SIG_PQ))
        table = masks(u, ws64)
        assert box_extension(u, ws64).tuples == {
            t for t, m in table.items() if m == ws64.all_mask
        }
        assert diamond_extension(u, ws64).tuples == set(table)


class TestWorldSetFiles:
    GOLDEN = (
        "worlds\n"
        "domain a b\n"
        "world w0\n"
        "rel p/1 =\n"
        "world w1\n"
        "rel p/1 = (a)\n"
        "world w2\n"
        "rel p/1 = (b)\n"
        "world w3\n"
        "rel p/1 = (a) (b)\n"
    )

    def test_write_golden(self, ws4):
        assert write_world_set(ws4) == self.GOLDEN

    def test_round_trip(self, ws4):
        ws = load_world_set(self.GOLDEN, SIG_P)
        assert [w.name for w in ws] == [w.name for w in ws4]
        for w, v in zip(ws, ws4):
            assert w.pred_map == v.pred_map
            assert w.domain == v.domain
        assert write_world_set(ws) == self.GOLDEN

    def test_constants_in_preamble(self):
        sig = make_signature(preds=[("p", 1)], consts=["c"])
        text = "worlds\ndomain a b\nconst c = b\nworld only\nrel p/1 = (b)\n"
        ws = load_world_set(text, sig)
        assert all(w.const_map == {"c": B} for w in ws)

    def test_reified_preamble_shared_across_worlds(self):
        text = (
            "worlds\ndomain a b\n"
            "reify unicorn = << p(x) >>_{x}\n"
            "world v1\nrel p/1 = (a) (unicorn)\n"
            "world v2\nrel p/1 =\n"
        )
        ws = load_world_set(text, SIG_P)
        h = ws.worlds[0].element_names["unicorn"]
        assert isinstance(h, ConceptHandle)
        assert all(h in w.domain for w in ws)
        assert (h,) in ws.world("v1").pred_map[P].tuples
        with pytest.raises(WorldError, match="reified"):
            write_world_set(ws)

    @pytest.mark.parametrize(
        "text,msg",
        [
            ("domain a\nworld w\nrel p/1 =", "header"),
            ("worlds\ndomain a b", "no world blocks"),
            ("worlds\nworld w\nrel p/1 =", "domain"),
            ("worlds\ndomain a\nrel p/1 =", "belong inside"),
            ("worlds\ndomain a\nworld w\ndomain b", "only rel lines"),
            ("worlds\ndomain a\nworld w\nworld w", "duplicate world name"),
            ("worlds\ndomain a\nworld w\nrel p/1 =\nrel p/1 =", "twice"),
            ("worlds\ndomain a\nworld w\nrel zz/1 =", "not declared"),
            ("worlds\ndomain a\nwat\nworld w", "cannot parse"),
        ],
    )
    def test_bad_files(self, text, msg):
        with pytest.raises(WorldError, match=msg):
            load_world_set(text, SIG_P)
