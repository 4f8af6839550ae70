"""World enumeration, modal extensions, Kripke satisfaction and the
intensional equivalence checks.

The 4-world fixture is the full enumeration over {p/1}, D = {a, b};
its order is pinned by the bitmask convention: w0 empty, w1 {(a)},
w2 {(b)}, w3 {(a), (b)}.
"""
import functools
import itertools
import random
import re

import pytest
from conftest import counting
from hypothesis import given, settings, strategies as st
from test_acceptance import MODAL_POOL

from intlog import semantics, worlds
from intlog.concepts import (
    TRUTH_CONCEPT,
    atom_concept,
    conj,
    exists,
    format_concept,
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
    identity_relation,
    rel,
    tuple_key,
)
from intlog.semantics import (
    RESERVED_PREDS,
    SemanticsError,
    World,
    WorldError,
    check_diagram,
    check_tarski_constraint,
    eval_formula,
    extensionalize,
    extensionalize_nomemo,
    ground,
    interpret,
    tarski_eval,
    tarski_satisfied,
)
from intlog.syntax import (
    ID_PRED,
    TRUE_PRED,
    AssignmentError,
    Atom,
    Conj,
    Exists,
    Neg,
    PredicateSymbol,
    Variable,
    format_formula,
    free_vars,
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

    def test_undeclared_constant(self):
        # a world file names the same fault in the same words
        sig = make_signature(preds=[("p", 1)], consts=["c"])
        message = "^constant 'zz' not declared in the signature$"
        for const_map in ({"c": "a", "zz": "a"}, {"zz": "a"}):
            with pytest.raises(EnumerationError, match=message):
                enumerate_worlds(sig, ["a", "b"], const_map=const_map)
        with pytest.raises(EnumerationError, match=message):
            enumerate_worlds(SIG_P, ["a"], const_map={"zz": A})

    def test_domain_as_elements(self, ws4):
        ws = enumerate_worlds(SIG_P, [A, B])
        assert [w.pred_map[P] for w in ws] == [w.pred_map[P] for w in ws4]

    def test_empty_or_duplicate_domain(self):
        with pytest.raises(EnumerationError, match="non-empty"):
            enumerate_worlds(SIG_P, [])
        with pytest.raises(EnumerationError, match="duplicate"):
            enumerate_worlds(SIG_P, ["a", "a"])
        # two elements under one name would make the name table ambiguous
        named_a = ConceptHandle(atom_concept(P, (1,)).cid, "a")
        with pytest.raises(EnumerationError, match="^duplicate domain element a$"):
            enumerate_worlds(SIG_P, [A, named_a])

    @pytest.mark.parametrize("name", ["a,b", "x)", "1", "", "a b", "é"])
    def test_element_names_are_literal_names(self, name):
        with pytest.raises(EnumerationError, match="^" + re.escape(f"bad element name {name!r}")):
            enumerate_worlds(SIG_P, ["a", name])
        # an element object is not text: an unnamed handle is taken as is
        handle = ConceptHandle(atom_concept(P, (1,)).cid)
        assert len(enumerate_worlds(SIG_P, ["a", handle])) == 4

    def test_members_name_their_elements_alike(self, ws64):
        assert all(w.element_names == {"a": A, "b": B} for w in ws64)


def _file_copy(ws, sig):
    """The same worlds read back from a world-set file: a set whose
    members are stored World objects."""
    return load_world_set(write_world_set(ws), sig)


#: Enumerations of at most 2^12 worlds: signature, domain, constants.
BASE_TABLE_SETS = {
    "corpus-a": (SIG_PQ, ["a"], None),
    "corpus-ab": (SIG_PQ, ["a", "b"], None),
    "corpus-abc": (SIG_PQ, ["a", "b", "c"], None),
    "zero-ary": (make_signature(preds=[("t", 0), ("p", 1), ("q", 2)]), ["a", "b"], None),
    "constants": (
        make_signature(preds=[("p", 1), ("q", 2)], consts=["c", "d"]),
        ["a", "b", "c"],
        {"c": "b", "d": "c"},
    ),
}


class TestEnumeratedMembers:
    """An enumerated set keeps its candidate relations and builds each
    member when one is asked for; a member is a view."""

    def test_changing_a_member_does_not_change_the_set(self):
        ws = enumerate_worlds(SIG_PQ, ["a", "b"])
        w = ws.worlds[16]
        assert w.world_set is ws and w.name == "w16"
        w.pred_map[P] = rel(1, [(A,), (B,)])
        again = ws.worlds[16]
        assert again is not w
        assert again.pred_map[P] == rel(1, [(A,)])
        # holds in w16 alone: the member's own relations now fail it,
        # while Diamond reads the set, which the change did not touch
        only_w16 = parse_formula("p(#a) & ~p(#b) & ~exists x . exists y . q(x, y)", SIG_PQ)
        assert not tarski_satisfied(only_w16, {}, w)
        assert tarski_satisfied(only_w16, {}, again)
        assert satisfies(ws, w, {}, Diamond(only_w16))
        assert masks(interpret(only_w16), ws) == {(): 1 << 16}

    def test_indexing_and_names(self, ws64):
        assert len(ws64.worlds) == 64
        assert ws64.worlds[-1].name == "w63"
        assert [w.name for w in ws64.worlds][2:5] == ["w2", "w3", "w4"]
        assert ws64.world("w17").pred_map == ws64.worlds[17].pred_map
        assert ws64.world("w0").world_set is ws64
        assert [ws64.worlds[i].name for i in (0, 63)] == ["w0", "w63"]
        with pytest.raises(IndexError):
            ws64.worlds[64]
        for name in ("w64", "w01", "w-1", "w", "x1", "w\u0663", " w1"):
            with pytest.raises(WorldError, match="^no world named"):
                ws64.world(name)

    @pytest.mark.parametrize("cut", [slice(None, None, 9), slice(-3, None), slice(5, 2), slice(60, 99)])
    def test_slicing_gives_the_members_as_a_list(self, ws64, cut):
        # as a file-read set's list of members slices
        members = ws64.worlds[cut]
        assert isinstance(members, list)
        assert [w.name for w in members] == [w.name for w in list(ws64.worlds)[cut]]
        assert all(w.world_set is ws64 for w in members)

    @pytest.mark.parametrize("case", BASE_TABLE_SETS.values(), ids=BASE_TABLE_SETS.keys())
    def test_closed_form_base_tables_equal_a_member_scan(self, case):
        ws = enumerate_worlds(*case)
        members = list(ws.worlds)
        for p in members[0].pred_map:
            scan = worlds._row_masks([w.pred_map[p].tuples for w in members])
            assert ws._base_table(p) == scan, p
        assert ws._base_table(ID_PRED) == {(e, e): ws.all_mask for e in ws.sorted_domain()}
        assert ws._base_table(TRUE_PRED) == {(): ws.all_mask}

    @pytest.mark.parametrize("case", BASE_TABLE_SETS.values(), ids=BASE_TABLE_SETS.keys())
    def test_reference_tables_equal_those_of_a_file_copy(self, case):
        sig = case[0]
        ws = enumerate_worlds(*case)
        copy = _file_copy(ws, sig)
        for name, arity in sig.preds:
            p = PredicateSymbol(name, arity)
            assert ws.membership(p) == copy.membership(p)
        with pytest.raises(SemanticsError, match="^predicate zz/1 has no relation in world w0$"):
            ws.membership(PredicateSymbol("zz", 1))


def _nested_modal_formulas(pool, count, seed):
    """count formulas, each a pool formula under one to four levels of
    random modal nesting, mixed with negation, conjunction with another
    pool formula and quantification."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        f = rng.choice(pool)
        for _ in range(rng.randint(1, 4)):
            modal, g = rng.choice((Box, Diamond)), rng.choice(pool)
            f = rng.choice((
                lambda: modal(f),
                lambda: Neg(modal(f)),
                lambda: Conj(g, modal(f)),
                lambda: modal(Conj(f, Neg(g))),
                lambda: Exists(rng.choice(f.fv or ("x",)), modal(f)),
            ))()
        out.append(f)
    return out


class TestReferenceOverTheSet:
    """Box and Diamond evaluate their body over the whole set at once,
    from tables taken from the candidate relations of an enumeration or
    from the members' relations of a set read from a file."""

    POOL = [parse_formula(t, SIG_PQ) for t in MODAL_POOL]

    def test_enumerated_set_agrees_with_its_file_copy(self):
        ws = enumerate_worlds(SIG_PQ, ["a", "b"])
        copy = _file_copy(ws, SIG_PQ)
        formulas = [Box(f) for f in self.POOL] + [Diamond(f) for f in self.POOL]
        formulas += _nested_modal_formulas(self.POOL, 40, seed=18)
        for w, v in zip(ws, copy):
            assert w.name == v.name
            for f in formulas:
                assert tarski_eval(f, w) == tarski_eval(f, v), (format_formula(f), w.name)

    def test_diamond_holds_where_its_body_holds_in_some_member(self, ws64):
        # Diamond builds ~Box~; the direct reading of possibility, the
        # union of the body's extensions over the members, is the oracle
        members = list(ws64)
        for f in self.POOL:
            assert interpret(Diamond(f)) is neg(necess(neg(interpret(f))))
            some = frozenset().union(*(tarski_eval(f, m).tuples for m in members))
            for w in members:
                for route in (tarski_eval, eval_formula):
                    got = route(Diamond(f), w).tuples
                    assert got == some, (format_formula(f), w.name, route.__name__)

    def test_a_lone_world_is_a_set_of_one(self, ws64):
        # over a frame of one, []f, ~[]~f and [](~[]~f) all mean f, for
        # a world that stands alone and for the one member of a set
        for m in ws64:
            own = {p: r for p, r in m.pred_map.items() if p not in RESERVED_PREDS}
            lone = World(m.name, m.domain, m.const_map, own)
            member = World(m.name, m.domain, m.const_map, own)
            WorldSet([member])
            for f in self.POOL:
                for route in (tarski_eval, eval_formula):
                    want = route(f, lone)
                    for mf in (Box(f), Diamond(f), Box(Diamond(f))):
                        for w in (lone, member):
                            got = route(mf, w)
                            assert got == want, (format_formula(mf), m.name, route.__name__)

    def test_nested_modal_formulas_commute_with_the_compiled_route(self):
        ws = enumerate_worlds(SIG_PQ, ["a", "b"])
        for f in _nested_modal_formulas(self.POOL, 40, seed=18):
            for w in ws:
                assert check_diagram(f, w).ok, (format_formula(f), w.name)

    def test_grounding_constraint_under_box_and_diamond(self, ws64):
        checked = 0
        for w in ws64:
            dom = w.sorted_domain()
            for f in self.POOL:
                for mf in (Box(f), Diamond(f)):
                    for combo in itertools.product(dom, repeat=len(mf.fv)):
                        g = dict(zip(mf.fv, combo))
                        assert check_tarski_constraint(mf, g, w), (format_formula(mf), g, w.name)
                        checked += 1
        assert checked == 64 * 2 * sum(2 ** len(f.fv) for f in self.POOL)
        px = parse_formula("p(x)", SIG_PQ)
        w = ws64.worlds[63]
        assert not tarski_satisfied(Box(px), {"x": A}, w)
        assert check_tarski_constraint(Box(px), {"x": A}, w)


class TestNoMemberBuilt:
    """Over an enumeration the modal layer and the reference's Box and
    Diamond read tables, not members: a call builds at most one World."""

    SIG16 = make_signature(preds=[("p", 1), ("q", 2), ("r", 1), ("t", 0)])

    def test_modal_calls_build_at_most_one_world(self, monkeypatch):
        ws = enumerate_worlds(self.SIG16, ["a", "b", "c"])
        assert len(ws) == 1 << 16
        w = ws.worlds[40_000]
        f = functools.partial(parse_formula, sig=self.SIG16)
        term = functools.partial(parse_term, sig=self.SIG16)
        px = f("p(x)")
        both = term("<< q(x, y) & p(x) >>_{x,y}"), term("<< p(x) & q(x, y) >>_{x,y}")
        p_r = term("<< p(x) >>_{x}"), term("<< r(x) >>_{x}")
        calls = [
            (lambda: box_extension(interpret(px), ws), rel(1, [])),
            (lambda: diamond_extension(interpret(px), ws), rel(1, [(e,) for e in ws.domain])),
            (lambda: extensionalize(necess(interpret(f("q(x, y) | ~q(x, y)"))), w).arity, 2),
            (lambda: bool(strong_equiv(*both, {}, ws)), True),
            (lambda: bool(weak_equiv(*both, {}, ws)), True),
            (lambda: bool(weak_equiv(*p_r, {}, ws)), True),
            (lambda: satisfies(ws, w, {"x": A}, Box(px)), False),
            (lambda: satisfies(ws, w, {"x": A}, Box(f("p(x) | ~p(x)"))), True),
            (lambda: satisfies(ws, w, {"x": A}, Diamond(f("q(x, x) & r(x) & t"))), True),
            (lambda: satisfies(ws, w, {}, Box(f("exists x . ~p(x) | ~t"))), False),
        ]
        for i, (call, want) in enumerate(calls):
            with monkeypatch.context() as m:
                counting(m, World, "__init__", 1)
                assert call() == want, i
        # a failing strong check builds the anchor and then its witness
        # member, to name it
        with monkeypatch.context() as m:
            built = counting(m, World, "__init__", 2)
            assert str(strong_equiv(*p_r, {}, ws)) == (
                "not equivalent (strong) (witness: world w2, tuple (a))"
                " [relative to 65536 worlds]"
            )
            assert len(built) == 2


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
        # a set of listed members looks a name up in its own table
        with pytest.raises(WorldError, match="^no world named 'nope' in ws$"):
            WorldSet([World("m0", [A])]).world("nope")

    def test_mismatched_domain(self):
        w0 = World("m0", (A, B), {}, {P: rel(1, [])})
        w1 = World("m1", (A,), {}, {P: rel(1, [])})
        with pytest.raises(WorldError, match="different domain"):
            WorldSet([w0, w1])

    def test_mismatched_constants(self):
        w0 = World("m0", (A, B), {"c": A}, {P: rel(1, [])})
        w1 = World("m1", (A, B), {"c": B}, {P: rel(1, [])})
        with pytest.raises(WorldError, match="^world m1 has different constant denotations$"):
            WorldSet([w0, w1])

    def test_duplicate_names_and_empty(self):
        w = World("m", (A,), {}, {P: rel(1, [])})
        with pytest.raises(WorldError, match="duplicate"):
            WorldSet([w, w])
        with pytest.raises(WorldError, match="^a world set needs at least one world$"):
            WorldSet([])

    def test_clear_memos(self, ws4):
        u = interpret(parse_formula("p(x)", SIG_P))
        first = [extensionalize(u, w) for w in ws4]
        assert all(extensionalize(u, w) is r for w, r in zip(ws4, first))
        ws4.clear_memos()
        again = [extensionalize(u, w) for w in ws4]
        assert again == first
        assert all(r2 is not r for r2, r in zip(again, first))
        # the members share one memo: clearing one member clears them all
        ws4.worlds[1].clear_memo()
        assert all(extensionalize(u, w) is not r for w, r in zip(ws4, again))

    def test_clear_memos_drops_world_bitmasks(self):
        ws = enumerate_worlds(SIG_P, ["a", "b"])
        u = interpret(parse_formula("~p(x)", SIG_P))
        assert box_extension(u, ws) == rel(1, [])
        assert ws._masks
        ws.clear_memos()
        assert ws._masks == {}
        # rebuilt on the next use
        assert diamond_extension(u, ws) == rel(1, [(A,), (B,)])

    def test_masks_builds_a_table_once_per_atom_concept(self, monkeypatch):
        # the per-concept memo is the only one: an atom concept's table
        # is built with its masks, so two atoms of q build q's twice
        ws = enumerate_worlds(SIG_PQ, ["a", "b"])
        builds = counting(monkeypatch, type(ws), "_base_table", 4)

        def built_after(text):
            box_extension(interpret(parse_formula(text, SIG_PQ)), ws)
            return len(builds)

        assert [built_after(t) for t in ("p(x) & q(x, y)", "p(x)", "q(x, x)")] == [2, 2, 3]
        ws.clear_memos()
        assert built_after("p(x)") == 4


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

    def test_necess_is_memoized_in_every_member(self, monkeypatch):
        ws = enumerate_worlds(SIG_PQ, ["a", "b"])
        body = neg(atom_concept(P, (1,)))
        u = necess(body)
        calls = [
            _count_calls(monkeypatch, name)
            for name in ("complement", "natural_join", "project_out")
        ]
        r = extensionalize(u, ws.worlds[0])
        # the body is read from the set's bitmask tables, not evaluated
        # member by member through the relational operators
        assert calls == [[], [], []]
        # one evaluation serves every member
        assert all(extensionalize(u, w) is r for w in ws)
        assert calls == [[], [], []]
        assert r == box_extension(body, ws)

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
        # a lone world is a set of one, where the Box of f is f
        box = Box(parse_formula("p(#a)", SIG_P))
        assert tarski_satisfied(box, {}, World("solo", [A], {}, {P: rel(1, [(A,)])}))
        assert not tarski_satisfied(box, {}, World("solo", [A], {}, {P: rel(1, [])}))

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
        # necess reads its body's bitmask table over the whole set, so
        # from m1 it fails naming m0, the first member
        with pytest.raises(SemanticsError, match=self.NO_Q):
            extensionalize(necess(self.pq()), ws.worlds[1])

    def test_reference_route(self, ws):
        # the reference reads the relation per world, and over the set
        # for a Box; both fail as the compiled route does
        f = parse_formula("p(x) & q(x, y)", SIG_PQ)
        with pytest.raises(SemanticsError, match=self.NO_Q):
            tarski_eval(f, ws.worlds[0])
        with pytest.raises(SemanticsError, match=self.NO_Q):
            satisfies(ws, ws.worlds[0], {"x": A, "y": A}, Box(f))


class TestReservedRelations:
    """`==` and `true` are ordinary atoms over relations every world
    carries; the reference evaluator keeps its own rules for them."""

    def test_every_world_carries_both(self, ws64):
        for w in (World("m", (A, B)), *ws64):
            assert w.pred_map[ID_PRED] == identity_relation((A, B))
            assert w.pred_map[TRUE_PRED] == TRUE

    @pytest.mark.parametrize(
        "pred,relation,what",
        [(ID_PRED, rel(2, [(A, A), (B, B)]), "identity"), (TRUE_PRED, TRUE, "tautology")],
        ids=["identity", "tautology"],
    )
    def test_neither_can_be_declared(self, pred, relation, what):
        with pytest.raises(WorldError, match=f"^the {what} relation cannot be declared$"):
            World("m", (A, B), {}, {pred: relation})

    def test_tautology_atom_is_truth_in_both_routes(self, ws64):
        u = atom_concept(TRUE_PRED, ())
        assert u is TRUTH_CONCEPT
        assert masks(u, ws64) == {(): ws64.all_mask}
        for w in ws64:
            assert extensionalize_nomemo(u, w) == TRUE
            assert extensionalize(u, w) == TRUE

    @pytest.mark.parametrize(
        "text", ["x == y", "x == x", "true", "~true", "exists x . x == #a"]
    )
    def test_both_routes_agree_with_the_reference(self, ws64, text):
        f = parse_formula(text, SIG_PQ)
        u = interpret(f, ws64.worlds[0])
        table = masks(u, ws64)
        for i, w in enumerate(ws64):
            expected = tarski_eval(f, w).tuples
            assert extensionalize_nomemo(u, w).tuples == expected
            assert {t for t, m in table.items() if m >> i & 1} == expected


class TestLiterals:
    """A `#name` literal is its name; the world it is evaluated in
    resolves it."""

    @pytest.fixture(scope="class")
    def reified(self):
        h = ConceptHandle(interpret(parse_term("<< p(x) >>_{x}", SIG_PQ)).cid, "b")
        return h, enumerate_worlds(SIG_PQ, ["a", h])

    def test_grounding_by_a_reified_element_resolves_in_its_world(self, reified):
        h, ws = reified
        f = parse_formula("p(x) & q(x, y)", SIG_PQ)
        grounded = ground(f, {"x": h, "y": A})
        held = 0
        for w in ws:
            u = interpret(grounded, w)
            holds = (h,) in w.pred_map[P].tuples and (h, A) in w.pred_map[Q].tuples
            assert extensionalize_nomemo(u, w).as_bool() is holds
            assert check_tarski_constraint(f, {"x": h, "y": A}, w)
            held += holds
        assert held == len(ws) // 4

    def test_an_element_the_world_does_not_name_is_an_error(self, ws64):
        grounded = ground(parse_formula("p(x)", SIG_PQ), {"x": Particular("c")})
        w = ws64.worlds[0]
        with pytest.raises(SemanticsError, match="^unknown element #c in world w0$"):
            interpret(grounded, w)
        with pytest.raises(SemanticsError, match="^unknown element #c in world w0$"):
            tarski_eval(grounded, w)


def _count_calls(monkeypatch, name):
    """Record the first argument of every call semantics makes to the
    relational operator `name`."""
    calls = []
    real = getattr(semantics, name)

    def counted(r, *rest):
        calls.append(r)
        return real(r, *rest)

    monkeypatch.setattr(semantics, name, counted)
    return calls


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


@functools.lru_cache(maxsize=None)
def _ws_pq_abc():
    """The 4,096 worlds over {p/1, q/2} on {a, b, c}."""
    return enumerate_worlds(SIG_PQ, ["a", "b", "c"])


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
    """Random concepts of every kind, degree at most 4, with at most one
    necess, or none when necess_ok is false (a body for a necess the
    test builds itself)."""
    kinds = ["atom", "atom", "abstraction", "truth"]
    if depth:
        kinds += ["conj", "conj", "neg", "exists", "union"] + ["necess"] * necess_ok
    kind = draw(st.sampled_from(kinds))
    if kind == "atom":
        return draw(atoms())
    if kind == "abstraction":
        return interpret(draw(st.sampled_from(BETA_TERMS)), ws.worlds[0])
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
    return [interpret(ground(t, g), ws.worlds[0]) for t in (t1, t2)]


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


#: Members of a union by degree: each list repeats a member and holds
#: one that is itself a neg.
UNION_MEMBERS = {
    0: ["exists x . p(x)", "~(exists x . q(x, x))", "exists x . exists y . q(x, y)",
        "exists x . p(x)"],
    1: ["p(x)", "~p(x)", "exists y . q(x, y)", "p(x)"],
    2: ["q(x, y)", "~q(y, x)", "p(x) & p(y)", "q(x, y)"],
    3: ["q(x, y) & p(z)", "~(q(x, y) & q(y, z))", "q(x, x) & q(y, z)", "q(x, y) & p(z)"],
}


class TestUnionLaw:
    @pytest.mark.parametrize("degree", sorted(UNION_MEMBERS))
    def test_union_is_the_law_expansion_in_both_algebras(self, ws64, degree):
        bs = [interpret(parse_formula(t, SIG_PQ)) for t in UNION_MEMBERS[degree]]
        assert len({b.cid for b in bs}) == len(bs) - 1
        assert any(b.kind == "neg" for b in bs)
        b1, b2, b3 = sorted(set(bs), key=lambda b: b.cid)
        s = {(i, i) for i in range(1, degree + 1)}
        u = union_concepts(bs)
        assert u is union_concepts(reversed(bs)) is (
            neg(conj(s, conj(s, neg(b1), neg(b2)), neg(b3)))
        )
        assert u.degree == degree
        want = {}
        for i, w in enumerate(ws64.worlds):
            pieces = frozenset().union(*(extensionalize(b, w).tuples for b in bs))
            assert extensionalize(u, w).tuples == pieces, w.name
            for t in pieces:
                want[t] = want.get(t, 0) | 1 << i
        assert masks(u, ws64) == want
        ws64.clear_memos()

    def test_many_members_stay_shallow(self, ws64):
        # the complements are joined pairwise in rounds, so 1,101 members
        # are 11 joins deep; a chain of 1,100 joins would overflow the
        # stack of every recursive walk over the concept
        p = atom_concept(P, (1,))
        bs = [p] + [atom_concept(Q, (1, ConceptHandle(i))) for i in range(1100)]
        u = union_concepts(bs)
        assert format_concept(u).count("(atom ") == 1101
        for w in list(ws64.worlds)[::9]:
            assert extensionalize(u, w).tuples == extensionalize(p, w).tuples
        assert masks(u, ws64) == masks(p, ws64)
        ws64.clear_memos()


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

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_necess_is_the_intersection_over_members(self, data):
        # masks and the per-world route share the necess branch, so the
        # test above cannot check it; intersect the members' extensions.
        # Over a full enumeration most bodies hold rigidly of nothing, so
        # the negated body (the tuples in no member) is checked too.
        ws = _ws_pq_abc()
        body = data.draw(concepts(ws, necess_ok=False))
        # the set builds a member each time one is asked for: build each
        # once.  The members' extensions go through the set's memo, keyed
        # by the relations a concept reads, so members share subconcepts
        members = list(ws.worlds)
        w = data.draw(st.sampled_from(members))
        for u in (body, neg(body)) if body.degree <= 3 else (body,):
            want = frozenset.intersection(*(extensionalize(u, w2).tuples for w2 in members))
            assert extensionalize(necess(u), w) == rel(u.degree, want)

    def test_box_and_diamond_read_the_masks(self, ws64):
        u = interpret(parse_formula("q(x, y) | p(x)", SIG_PQ))
        table = masks(u, ws64)
        assert box_extension(u, ws64).tuples == {
            t for t, m in table.items() if m == ws64.all_mask
        }
        assert diamond_extension(u, ws64).tuples == set(table)


#: Members that repeat relations: r4 is r1 again, r2 shares p with r1,
#: r3 shares q with r1.
WS_REPEATS = (
    "worlds\ndomain a b\n"
    "reify unicorn = << p(x) >>_{x}\n"
    "world r1\nrel p/1 = (a)\nrel q/2 = (a, unicorn)\n"
    "world r2\nrel p/1 = (a)\nrel q/2 = (b, b)\n"
    "world r3\nrel p/1 = (b) (unicorn)\nrel q/2 = (a, unicorn)\n"
    "world r4\nrel p/1 = (a)\nrel q/2 = (a, unicorn)\n"
)


@functools.lru_cache(maxsize=None)
def _shared_memo_sets():
    return (enumerate_worlds(SIG_PQ, ["a", "b"]), load_world_set(WS_REPEATS, SIG_PQ))


class TestSharedMemo:
    """The members of a set share one memo, keyed by concept id and the
    relations the concept reads."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_memo_is_transparent(self, data):
        ws = data.draw(st.sampled_from(_shared_memo_sets()))
        us = [data.draw(concepts(ws)) for _ in range(3)]
        for i in data.draw(st.permutations(range(len(ws)))):
            w = ws.worlds[i]
            if data.draw(st.booleans()):
                w.clear_memo()
            for u in us:
                assert extensionalize(u, w) == extensionalize_nomemo(u, w)

    def test_one_complement_per_distinct_relation(self, monkeypatch):
        ws = enumerate_worlds(SIG_PQ, ["a", "b"])
        u = interpret(parse_formula("~p(x)", SIG_PQ))
        calls = _count_calls(monkeypatch, "complement")
        got = [extensionalize(u, w) for w in ws]
        # 64 worlds, but p takes only 4 relations among them
        assert len(calls) == 4
        assert len({r.tuples for r in calls}) == 4
        monkeypatch.undo()
        assert got == [extensionalize_nomemo(u, w) for w in ws]

    def test_members_with_equal_relations_share_results(self):
        ws = load_world_set(WS_REPEATS, SIG_PQ)
        r1, r2, r3, r4 = ws.worlds
        pq = interpret(parse_formula("p(x) & ~q(x, y)", SIG_PQ))
        assert extensionalize(pq, r4) is extensionalize(pq, r1)
        assert extensionalize(pq, r2) is not extensionalize(pq, r1)
        p_only = interpret(parse_formula("~p(x)", SIG_PQ))
        assert extensionalize(p_only, r2) is extensionalize(p_only, r1)
        assert extensionalize(p_only, r3) is not extensionalize(p_only, r1)

    def test_world_evaluated_alone_then_adopted(self):
        w_a = World("m_a", (A, B), {}, {P: rel(1, [(A,)])})
        w_e = World("m_e", (A, B), {}, {P: rel(1, [])})
        u = interpret(parse_formula("~p(x)", SIG_P))
        want = {w_a: rel(1, [(B,)]), w_e: rel(1, [(A,), (B,)])}
        # alone, each world numbers its own p relation first
        for w in (w_a, w_e):
            assert extensionalize(u, w) == want[w]
        WorldSet([w_a, w_e])
        for w in (w_e, w_a):
            assert extensionalize(u, w) == want[w]
        assert extensionalize(necess(u), w_e) == rel(1, [(B,)])
        assert extensionalize(necess(neg(u)), w_a) == rel(1, [])


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
