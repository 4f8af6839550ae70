"""Tests for the two-step semantics against hand-derived extensions and
the brute-force reference evaluator.

Fixture world w1: D = {a, b}, p = {(a)}, q = {(a,b), (b,b)}, r empty,
c -> a, d -> b.  Expected relations below were worked out on paper from
the definitions before the implementation ran; derivations are noted
inline.
"""
import itertools
import sys

import pytest
from conftest import counting, error_of
from hypothesis import given, settings, strategies as st
from test_mutants import corpus_worlds, reified_worlds

from intlog import semantics, syntax
from intlog.cli import main
from intlog.concepts import (
    ID_CONCEPT,
    TRUTH_CONCEPT,
    atom_concept,
    conj,
    exists,
    necess,
    neg,
    union_concepts,
)
from intlog.files import load_world, load_world_set
from intlog.gen import corpus_abstractions, corpus_signature
from intlog.relalg import (
    ConceptHandle,
    FALSE,
    Particular,
    Relation,
    TRUE,
    format_relation,
    rel,
    rel_equiv,
)
from intlog.semantics import (
    DiagramReport,
    SemanticsError,
    World,
    WorldError,
    assignment_extend,
    check_diagram,
    check_tarski_constraint,
    eval_formula,
    extensionalize,
    extensionalize_nomemo,
    interpret,
    tarski_eval,
    tarski_satisfied,
)
from intlog.syntax import (
    MAX_DEPTH,
    Abstraction,
    AssignmentError,
    AbstractionError,
    Atom,
    Box,
    Conj,
    Diamond,
    Exists,
    Neg,
    PredicateSymbol,
    Variable,
    free_vars,
    ground,
    make_abstraction,
    ParseError,
    make_signature,
    parse_formula,
    parse_term,
)
from intlog.worlds import WorldSet, enumerate_worlds

A = Particular("a")
B = Particular("b")
Z = Particular("z")
P = PredicateSymbol("p", 1)
Q = PredicateSymbol("q", 2)
R = PredicateSymbol("r", 2)

SIG = make_signature(preds=[("p", 1), ("q", 2), ("r", 2)], consts=["c", "d"])

W1_TEXT = """\
# small fixture world
domain a b
const c = a
const d = b
rel p/1 = (a)
rel q/2 = (a,b) (b,b)
"""


@pytest.fixture()
def w1():
    return load_world(W1_TEXT, SIG, name="w1")


@pytest.fixture()
def w2():
    return World(
        "w2",
        (A, B),
        {"c": B, "d": A},
        {P: rel(1, [(B,)]), Q: rel(2, [(A, A)]), R: rel(2, [])},
    )


def parse(text):
    return parse_formula(text, SIG)


class TestLoadWorld:
    def test_fixture_contents(self, w1):
        assert w1.domain == frozenset([A, B])
        assert w1.const_map == {"c": A, "d": B}
        assert w1.pred_map[P] == rel(1, [(A,)])
        assert w1.pred_map[Q] == rel(2, [(A, B), (B, B)])
        # r/2 has no rel line, defaults to empty
        assert w1.pred_map[R] == rel(2, [])

    def test_identity_relation_names_its_own_elements(self):
        # equal domains (a handle equals by concept id), different names
        texts = [
            f"domain a\nreify {name} = << p(x) >>_{{x}}\nconst c = a\nconst d = a\n"
            for name in ("unicorn", "u2")
        ]
        worlds = [load_world(t, SIG) for t in texts]
        assert worlds[0].domain == worlds[1].domain
        shown = [str(eval_formula(parse("x == y"), w)) for w in worlds]
        assert "unicorn unicorn" in shown[0] and "u2" not in shown[0]
        assert "u2 u2" in shown[1] and "unicorn" not in shown[1]

    def test_identity_relation_automatic(self, w1):
        u = ConceptHandle(atom_concept(P, (1,)).cid)
        reified = load_world("domain a\nreify u = << p(x) >>_{x}\nconst c = a\nconst d = a\n", SIG)
        for w, domain in ((w1, [A, B]), (reified, [A, u])):
            assert w.pred_map[PredicateSymbol("==", 2)] == rel(2, [(e, e) for e in domain])

    def test_two_elements_with_one_name_are_refused(self):
        named_a = ConceptHandle(atom_concept(P, (1,)).cid, "a")
        with pytest.raises(WorldError, match="duplicate element name 'a'"):
            World("w", (A, named_a))

    @pytest.mark.parametrize(
        "args,msg",
        [
            (("w", []), "a world needs a non-empty domain"),
            (("w", [A], {"c": Z}), "constant c denotes z, not in domain"),
            (("w", [A], {}, {P: rel(2, [])}), "relation for p/1 has arity 2"),
            (("w", [A], {}, {P: rel(1, [(Z,)])}), "tuple element z of p/1 not in domain"),
        ],
        ids=["empty-domain", "constant", "arity", "tuple-element"],
    )
    def test_construction_rejects_outside_input(self, args, msg):
        with pytest.raises(WorldError) as info:
            World(*args)
        assert str(info.value) == msg

    def test_arity_zero_relation(self):
        sig = make_signature(preds=[("s", 0)], consts=[])
        w = load_world("domain a\nrel s/0 = ()", sig)
        assert w.pred_map[PredicateSymbol("s", 0)] == TRUE
        w = load_world("domain a\nrel s/0 =", sig)
        assert w.pred_map[PredicateSymbol("s", 0)] == FALSE

    def test_reify_adds_concept_element(self):
        text = "domain a b\nconst c = a\nconst d = b\nreify unicorn = << p(x) >>_{x}\n"
        w = load_world(text, SIG)
        e = w.element_names["unicorn"]
        assert isinstance(e, ConceptHandle)
        assert e.cid == atom_concept(P, (1,)).cid
        assert e in w.domain

    def test_reified_element_usable_in_relations(self):
        text = (
            "domain a b\nconst c = a\nconst d = b\n"
            "reify unicorn = << p(x) >>_{x}\n"
            "rel p/1 = (a) (unicorn)\n"
        )
        w = load_world(text, SIG)
        u = w.element_names["unicorn"]
        assert (u,) in w.pred_map[P].tuples
        # the handle participates in identity like any element
        assert (u, u) in w.pred_map[PredicateSymbol("==", 2)].tuples

    def test_reify_beta_enumerates_elements_declared_so_far(self):
        # both reify lines close over D = {a, b}; the second sees the
        # first handle only as a value, not as a beta instance
        text = (
            "domain a b\nconst c = a\nconst d = b\n"
            "reify nothing = << p(x) & ~p(x) >>_{}^{x}\n"
        )
        w = load_world(text, SIG)
        h = w.element_names["nothing"]
        expected = union_concepts(
            [
                interpret(parse("p(#a) & ~p(#a)")),
                interpret(parse("p(#b) & ~p(#b)")),
            ]
        )
        assert h.cid == expected.cid

    @pytest.mark.parametrize(
        "text,msg",
        [
            ("rel p/1 = (a)", "domain must be declared"),
            ("domain a\ndomain b", "twice"),
            ("domain a a", "duplicate"),
            ("domain a\nconst e = a", "not declared"),
            ("domain a\nconst c = zz", "unknown element"),
            ("domain a\nconst c = a\nconst c = a", "mapped twice"),
            ("domain a\nrel p/3 = (a,a,a)", "not declared"),
            ("domain a\nrel p/1 = (a,a)", "expected 1"),
            ("domain a\nrel p/1 = (zz)", "unknown element"),
            ("domain a\nrel p/1 = (a)\nrel p/1 = (a)", "twice"),
            ("domain a\nreify u = c", "abstraction"),
            ("domain a\nreify u = p(x)", "reify u:"),
            ("domain a\nreify u = << p(x) >>_{x}\nreify u = << p(x) >>_{x}", "taken"),
            ("domain a\nwat", "cannot parse"),
            ("domain a\nrel p/1 = (a) b", "cannot parse"),
            ("", "no domain"),
        ],
    )
    def test_bad_files(self, text, msg):
        with pytest.raises(WorldError, match=msg):
            load_world(text, SIG)

    @pytest.mark.parametrize(
        "load,text,msg",
        [
            (load_world, "domain a a", "line 1: duplicate domain element 'a'"),
            (load_world, "# names\ndomain a,b c",
             "line 2: bad element name 'a,b': not a letter followed by letters, digits or _"),
            (load_world_set, "worlds\ndomain a 1",
             "line 2: bad element name '1': not a letter followed by letters, digits or _"),
            (load_world, "domain a\nreify uä = << p(x) >>_{x}",
             "line 2: bad element name 'uä': not a letter followed by letters, digits or _"),
            (load_world, "domain a\nconst c = zz", "line 2: unknown element 'zz'"),
            (load_world, "# c = a\n\ndomain a\nconst c = a\nconst c = a",
             "line 5: constant 'c' mapped twice"),
            (load_world, "domain a\nconst e = a",
             "line 2: constant 'e' not declared in the signature"),
            (load_world, "domain a\nrel p/3 = (a,a,a)",
             "line 2: predicate p/3 not declared in the signature"),
            (load_world, "domain a\nrel p/1 = (a,a)",
             "line 2: tuple (a,a) has 2 elements, expected 1"),
            (load_world, "domain a\nrel p/1 = (a)\nrel p/1 = (a)",
             "line 3: relation for p/1 given twice"),
            (load_world, "domain a\nreify u = << p(#u) >>_{}",
             "line 2: reify u: unknown element #u in world w"),
            (load_world, "domain a\nreify u = c",
             "line 2: reify u: needs an abstraction term, got 'c'"),
            (load_world, "domain a\nwat", "line 2: cannot parse 'wat'"),
            # an arity is ASCII digits; U+0661 is a digit to `\d`
            (load_world, "domain a\nrel p/\u0661 = (a)",
             "line 2: cannot parse 'rel p/\u0661 = (a)'"),
            (load_world, "reify u = << p(x) >>_{x}\ndomain a",
             "line 1: domain must be declared first"),
            (load_world_set, "", "line 1: expected the 'worlds' header"),
            (load_world_set, "# sets\n\ndomain a", "line 3: expected the 'worlds' header"),
            (load_world_set, "worlds\ndomain a\nreify u = << q(x, c) >>_{x}",
             "line 3: reify u: constant c has no denotation in ws"),
            (load_world_set, "worlds\ndomain a\nworld v\nrel p/1 = (zz)",
             "line 4: unknown element 'zz' in relation p"),
            (load_world_set, "worlds\ndomain a\nworld v\nworld v",
             "line 4: duplicate world name 'v'"),
            # errors found after the last line name none
            (load_world, "", "world file declares no domain"),
            (load_world, "domain a\nconst c = a",
             "constants without denotation: ['d']"),
            (load_world_set, "worlds\ndomain a", "world-set file has no world blocks"),
            (load_world_set, "worlds\nworld v", "world-set file declares no domain"),
        ],
    )
    def test_errors_name_their_line(self, load, text, msg):
        with pytest.raises(WorldError) as info:
            load(text, SIG)
        assert str(info.value) == msg

    def test_missing_const_mapping(self):
        with pytest.raises(WorldError, match="without denotation"):
            load_world("domain a b\nconst c = a", SIG)

    def test_comments_and_blank_lines(self):
        text = "# header\n\ndomain a\n  # indented comment\nconst c = a\nconst d = a\n"
        w = load_world(text, SIG)
        assert w.domain == frozenset([A])


class TestInterpret:
    def test_atom_slots_first_occurrence(self):
        assert interpret(parse("q(x, y)")) is atom_concept(Q, (1, 2))
        assert interpret(parse("q(y, x)")) is atom_concept(Q, (1, 2))
        assert interpret(parse("q(x, x)")) is atom_concept(Q, (1, 1))

    def test_atom_ground_args(self, w1):
        u = interpret(parse("q(c, x)"), w1)
        assert u is atom_concept(Q, (A, 1))
        assert u.degree == 1

    def test_elem_literal_without_world(self):
        u = interpret(parse("p(#a)"))
        assert u is atom_concept(P, (Particular("a"),))

    def test_constant_without_world_fails(self):
        with pytest.raises(SemanticsError, match="needs a world"):
            interpret(parse("p(c)"))

    @pytest.mark.parametrize("route", [tarski_eval, eval_formula])
    def test_constant_without_denotation(self, route):
        w = World("w", (A,), {}, {P: rel(1, [])})
        with pytest.raises(SemanticsError, match="^constant c has no denotation in w$"):
            route(parse("p(c)"), w)

    def test_unknown_element_literal(self, w1):
        with pytest.raises(SemanticsError, match="unknown element"):
            interpret(parse("p(#zz)"), w1)

    def test_true_atom(self):
        assert interpret(parse("true")) is TRUTH_CONCEPT

    def test_identity_atom(self):
        assert interpret(parse("x == y")) is ID_CONCEPT
        assert interpret(parse("x == x")) is atom_concept(
            PredicateSymbol("==", 2), (1, 1)
        )

    def test_conj_join_spec_from_free_tuples(self):
        u = interpret(parse("q(x, y) & q(y, z)"))
        expect = conj({(2, 1)}, atom_concept(Q, (1, 2)), atom_concept(Q, (1, 2)))
        assert u is expect
        assert u.degree == 3

    def test_conj_disjoint_free_tuples(self):
        u = interpret(parse("p(x) & p(y)"))
        assert u.s == frozenset()
        assert u.degree == 2

    def test_exists_position(self):
        # free tuple of the body is (x, y); quantifying y projects
        # column 2, quantifying x column 1
        body = atom_concept(Q, (1, 2))
        assert interpret(parse("exists y . q(x, y)")) is exists(2, body)
        assert interpret(parse("exists x . q(x, y)")) is exists(1, body)

    def test_exists_vacuous_is_body(self):
        # z is not free in q(x, y): index 0, same concept
        assert interpret(parse("exists z . q(x, y)")) is atom_concept(Q, (1, 2))

    def test_degree_tracks_free_tuple(self):
        for text in [
            "p(x)",
            "~p(x)",
            "q(x, y) & q(y, z)",
            "exists x . (p(x) & q(x, y))",
            "forall x . p(x)",
            "p(x) | q(x, y)",
            "x == y -> q(x, y)",
            "exists1 x . p(x)",
        ]:
            f = parse(text)
            assert interpret(f).degree == len(free_vars(f))

    def test_abstraction_argument_reifies(self, w1):
        u = interpret(parse("q(x, << p(y) >>_{y})"), w1)
        h = ConceptHandle(atom_concept(P, (1,)).cid)
        assert u is atom_concept(Q, (1, h))


class TestInterpretAbstraction:
    def test_beta_empty_is_body_interpretation(self, w1):
        t = parse_term("<< q(x, y) >>_{x,y}", SIG)
        assert interpret(t, w1) is atom_concept(Q, (1, 2))

    def test_alpha_order_is_inert(self, w1):
        t1 = parse_term("<< q(x, y) >>_{x,y}", SIG)
        t2 = parse_term("<< q(x, y) >>_{y,x}", SIG)
        assert interpret(t1, w1) is interpret(t2, w1)

    def test_beta_union_members(self, w1):
        t = parse_term("<< q(x, y) >>_{x}^{y}", SIG)
        u = interpret(t, w1)
        expect = union_concepts(
            [interpret(parse("q(x, #a)")), interpret(parse("q(x, #b)"))]
        )
        assert u is expect
        assert u.degree == 1

    def test_beta_needs_world(self):
        t = parse_term("<< q(x, y) >>_{x}^{y}", SIG)
        with pytest.raises(SemanticsError, match="needs a world"):
            interpret(t)

    def test_malformed_term_rejected(self):
        # a malformed term denotes nothing useful, so it cannot be built
        with pytest.raises(AbstractionError, match="alpha repeats"):
            Abstraction(parse("q(x, y)"), ("x", "x"))
        with pytest.raises(AbstractionError, match="beta inconsistent"):
            make_abstraction(parse("q(x, y)"), ("x",), ())

    @pytest.mark.parametrize("worlds", [corpus_worlds, reified_worlds],
                             ids=["particulars", "reified"])
    def test_corpus_terms_give_the_union_fold(self, worlds):
        # the rule written out: the union over every beta instantiation
        # of the grounded body's concept, or the body's concept when
        # beta is empty; columns are alpha in body order
        terms = corpus_abstractions(corpus_signature())
        assert len(terms) == 55
        for w in worlds():
            for t in terms:
                combos = itertools.product(w.sorted_domain(), repeat=len(t.beta))
                members = [interpret(ground(t, dict(zip(t.beta, c))).body, w) for c in combos]
                assert interpret(t, w) is (union_concepts(members) if t.beta else members[0])
                alpha = tuple(sorted(t.alpha, key=t.body.fv.index))
                assert eval_formula(t, w).attrs == (alpha or None), f"{t} @ {w.name}"
            w.clear_memo()


class TestAssignmentExtend:
    def test_variable(self, w1):
        assert assignment_extend(Variable("x"), {"x": B}, w1) is B

    def test_unbound_variable(self, w1):
        with pytest.raises(AssignmentError, match="cover"):
            assignment_extend(Variable("x"), {}, w1)

    def test_constant_and_literal(self, w1):
        assert assignment_extend(parse_term("c", SIG), {}, w1) == A
        assert assignment_extend(parse_term("#b", SIG), {}, w1) == B

    def test_abstraction_closes_beta_through_assignment(self, w1):
        t = parse_term("<< q(x, y) >>_{x}^{y}", SIG)
        e = assignment_extend(t, {"y": B}, w1)
        assert isinstance(e, ConceptHandle)
        assert e.cid == interpret(parse("q(x, #b)")).cid

    def test_abstraction_ignores_irrelevant_bindings(self, w1):
        t = parse_term("<< p(x) >>_{x}", SIG)
        e = assignment_extend(t, {"y": B, "z": A}, w1)
        assert e.cid == atom_concept(P, (1,)).cid


class TestExtensions:
    """Frozen extensions in w1, each derived by hand from the fixture
    relations."""

    CASES = [
        # p = {(a)}
        ("p(x)", rel(1, [(A,)], attrs=("x",))),
        ("~p(x)", rel(1, [(B,)], attrs=("x",))),
        # join on the shared x: only (a) survives against q's (a,b)
        ("p(x) & q(x, y)", rel(2, [(A, B)], attrs=("x", "y"))),
        # q joined with itself on y: (a,b)+(b,b) and (b,b)+(b,b)
        ("q(x, y) & q(y, z)", rel(3, [(A, B, B), (B, B, B)], attrs=("x", "y", "z"))),
        # projecting column 1 out of {(a,b)}
        ("exists x . (p(x) & q(x, y))", rel(1, [(B,)], attrs=("y",))),
        ("exists y . q(x, y)", rel(1, [(A,), (B,)], attrs=("x",))),
        ("exists x . q(x, y)", rel(1, [(B,)], attrs=("y",))),
        # vacuous quantifier leaves the extension alone
        ("exists z . q(x, y)", rel(2, [(A, B), (B, B)], attrs=("x", "y"))),
        ("exists x . p(x)", TRUE),
        # not every element is p
        ("forall x . p(x)", FALSE),
        ("true", TRUE),
        ("~true", FALSE),
        # identity against a constant: c -> a
        ("x == c", rel(1, [(A,)], attrs=("x",))),
        ("x == y", rel(2, [(A, A), (B, B)], attrs=("x", "y"))),
        # repeated variable selects the diagonal of q
        ("q(x, x)", rel(1, [(B,)], attrs=("x",))),
        ("q(c, x)", rel(1, [(B,)], attrs=("x",))),
        ("q(#a, #b)", TRUE),
        ("q(#b, #a)", FALSE),
        ("r(x, y)", rel(2, [], attrs=("x", "y"))),
        # derived connectives reduce to the core before compiling
        ("p(x) | q(x, x)", rel(1, [(A,), (B,)], attrs=("x",))),
        ("p(x) -> q(x, x)", rel(1, [(B,)], attrs=("x",))),
        ("p(x) <-> q(x, x)", rel(1, [], attrs=("x",))),
        # exactly one element satisfies p
        ("exists1 x . p(x)", TRUE),
        ("exists1 x . (p(x) | ~p(x))", FALSE),
    ]

    @pytest.mark.parametrize("text,expected", CASES, ids=[c[0] for c in CASES])
    def test_frozen_extension(self, w1, text, expected):
        assert eval_formula(parse(text), w1) == expected

    @pytest.mark.parametrize("text,expected", CASES, ids=[c[0] for c in CASES])
    def test_reference_evaluator_agrees(self, w1, text, expected):
        got = tarski_eval(parse(text), w1)
        assert got.same_tuples(expected)

    def test_attrs_are_free_tuple(self, w1):
        r = eval_formula(parse("q(y, x) & p(z)"), w1)
        assert r.attrs == ("y", "x", "z")

    def test_closed_formula_unlabeled_truth_value(self, w1):
        r = eval_formula(parse("exists x . p(x)"), w1)
        assert r.arity == 0 and r.attrs is None and r.as_bool()


class TestAbstractionExtensions:
    def test_projection_vs_union_route(self, w1):
        # union over y of q(x, y=e) gives {} for e=a and {(a),(b)} for
        # e=b, so the union is {(a),(b)}, matching the projection
        t = parse_term("<< q(x, y) >>_{x}^{y}", SIG)
        got = eval_formula(t, w1)
        assert got == rel(1, [(A,), (B,)], attrs=("x",))
        via_exists = eval_formula(parse("exists y . q(x, y)"), w1)
        assert got.same_tuples(via_exists)

    def test_first_position_abstracted(self, w1):
        # union over x: rows of q starting with a give {(b)}, rows
        # starting with b give {(b)} again
        t = parse_term("<< q(x, y) >>_{y}^{x}", SIG)
        assert eval_formula(t, w1) == rel(1, [(B,)], attrs=("y",))

    def test_contradiction_is_empty_everywhere(self, w1, w2):
        t = parse_term("<< p(x) & ~p(x) >>_{}^{x}", SIG)
        for w in (w1, w2):
            assert eval_formula(t, w) == FALSE

    def test_columns_follow_body_order_not_alpha_order(self, w1):
        t1 = parse_term("<< q(x, y) >>_{x,y}", SIG)
        t2 = parse_term("<< q(x, y) >>_{y,x}", SIG)
        r1, r2 = eval_formula(t1, w1), eval_formula(t2, w1)
        assert r1 == r2
        assert r1.attrs == ("x", "y")
        assert rel_equiv(r1, r2)

    def test_beta_open_argument_rejected(self, w1):
        # y is free in the formula but would vanish into the reified
        # argument, so the concept route refuses the argument
        f = parse("q(x, << q(z, y) >>_{z}^{y})")
        assert free_vars(f) == ("x", "y")
        with pytest.raises(AbstractionError, match="open beta variables y"):
            eval_formula(f, w1)
        # grounding closes the argument, and both routes then agree
        g = {"x": A, "y": B}
        assert check_diagram(ground(f, g), w1).ok


class TestMemo:
    def test_memo_transparent(self, w1):
        u = interpret(parse("exists y . (q(x, y) & p(x))"))
        first = extensionalize(u, w1)
        # a lone world keeps no memo across calls: equal, not identical
        assert extensionalize(u, w1) == first
        assert extensionalize_nomemo(u, w1) == first
        ws = WorldSet([load_world(W1_TEXT, SIG, name="w1")])
        member = ws.worlds[0]
        kept = extensionalize(u, member)
        assert kept == first
        assert extensionalize(u, member) is kept
        member.clear_memo()
        assert extensionalize(u, member) == first

    def test_nomemo_does_not_populate(self):
        ws = WorldSet([load_world(W1_TEXT, SIG, name="w1")])
        u = interpret(parse("exists y . (q(x, y) & ~p(x))"))
        extensionalize_nomemo(u, ws.worlds[0])
        assert ws.extensions == {}

    def test_nomemo_necess_does_not_populate(self):
        # necess reads the set's bitmask tables, but not the extension memo
        ws = WorldSet([
            World("m0", (A, B), {}, {P: rel(1, [(A,)])}),
            World("m1", (A, B), {}, {P: rel(1, [(A,), (B,)])}),
        ])
        u = neg(interpret(parse("p(x)")))
        for w in ws:
            assert extensionalize_nomemo(necess(u), w) == rel(1, [])
            assert extensionalize_nomemo(necess(neg(u)), w) == rel(1, [(A,)])
            assert ws.extensions == {}

    def test_memo_is_per_world(self, w1, w2):
        u = interpret(parse("p(x)"))
        assert extensionalize(u, w1) == rel(1, [(A,)])
        assert extensionalize(u, w2) == rel(1, [(B,)])


SIG_P = make_signature(preds=[("p", 1)])


class TestSharedWork:
    """Each shared node is visited once per walk: a concept DAG in
    `_ext`, a desugared `<->` chain in `interpret`, `ground`,
    `all_var_names` and the commands built on them.  Each budget fails a
    walk that is exponential in the links in milliseconds."""

    #: a world whose p holds of one element
    WORLD = "domain a b\nrel p/1 = (a)\n"
    #: parsing or grounding a 24-link chain builds 3 conjunctions per
    #: link: mk_iff's and its two implications'
    CONJS = 3 * 24

    def test_tower_joins_once_per_level(self, monkeypatch):
        u = interpret(parse("p(x)"))
        for _ in range(14):
            u = neg(conj({(1, 1)}, u, u))
        w = load_world(W1_TEXT, SIG)
        for evaluate in (extensionalize_nomemo, extensionalize):
            with monkeypatch.context() as m:
                joins = counting(m, semantics, "natural_join", 14)
                r = evaluate(u, w)
                assert len(joins) == 14
        ws = WorldSet([load_world(W1_TEXT, SIG)])
        assert extensionalize(u, ws.worlds[0]) == r == extensionalize_nomemo(u, w)

    @staticmethod
    def chain_text(links):
        return " <-> ".join(["p(x)"] * (links + 1))

    def chain(self, links):
        return parse_formula(self.chain_text(links), SIG_P)

    def test_iff_chain_compiles_in_linear_time(self, monkeypatch, capsys, tmp_path):
        f = self.chain(24)
        sig, world = tmp_path / "sig.txt", tmp_path / "w.txt"
        sig.write_text("pred p/1\n")
        world.write_text("domain a b\nrel p/1 = (a)\n")
        w = load_world(world.read_text(), SIG_P)

        def refuse(_):
            raise AssertionError("free_vars called")

        def run_cli():
            argv = ["eval", "--sig", str(sig), "--world", str(world), self.chain_text(24)]
            assert main(argv) == 0
            return capsys.readouterr().out

        got = {}
        with monkeypatch.context() as m:
            # the free_vars cache hashes the whole tree, which is
            # exponential in the links; nodes carry their free variables
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("intlog") \
                        and hasattr(module, "free_vars"):
                    m.setattr(module, "free_vars", refuse)
            # three compiles of 3 conjunctions per link
            conjs = counting(m, semantics, "conj", 3 * 3 * 24)
            assert error_of(interpret, f) is None
            assert error_of(lambda: got.update(rel=eval_formula(f, w))) is None
            assert error_of(lambda: got.update(out=run_cli())) is None
        assert len(conjs) <= 3 * 3 * 24
        p_rel = eval_formula(parse_formula("p(x)", SIG_P), w)
        assert got["rel"] == p_rel
        assert got["out"] == format_relation(p_rel) + "\n"
        u = interpret(f)
        p = interpret(parse_formula("p(x)", SIG_P))
        for w in enumerate_worlds(SIG_P, ["a", "b"]):
            # an odd number of p(x) terms chained by <-> is p(x)
            assert extensionalize_nomemo(u, w) == extensionalize(p, w)

    @pytest.mark.parametrize("template", ["{}", "<< {} >>_{{}}^{{x}}"], ids=["formula", "term"])
    def test_iff_chain_grounds_in_linear_time(self, monkeypatch, template):
        parse = parse_term if template.startswith("<<") else parse_formula
        x = parse(template.format(self.chain_text(24)), SIG_P)
        got = []
        with monkeypatch.context() as m:
            counting(m, Conj, "__post_init__", self.CONJS)
            err = error_of(lambda: got.append(ground(x, {"x": A})))
        assert err is None
        assert got[0].fv == ()
        assert eval_formula(got[0], load_world(self.WORLD, SIG_P)).as_bool()

    def test_iff_chain_grounding_constraint_in_linear_time(self, monkeypatch):
        w = load_world(self.WORLD, SIG_P)
        f = self.chain(24)
        got = []
        for value in (A, B):
            with monkeypatch.context() as m:
                counting(m, Conj, "__post_init__", self.CONJS)
                # the grounded formula and f, compiled once each
                counting(m, semantics, "conj", 2 * self.CONJS)
                err = error_of(
                    lambda: got.append(check_tarski_constraint(f, {"x": value}, w))
                )
            assert err is None
        assert got == [True, True]

    def test_nested_abstractions_ground_in_linear_time(self, monkeypatch):
        # each level's <-> holds the level below twice
        text = "p(x)"
        for _ in range(24):
            text = f"p(<< ({text}) <-> p(x) >>_{{}}^{{x}})"
        f = parse_formula(text, SIG_P)
        got = []
        with monkeypatch.context() as m:
            counting(m, Conj, "__post_init__", self.CONJS)
            err = error_of(lambda: got.append(ground(f, {"x": A})))
        assert err is None
        assert got[0].fv == ()

    @pytest.mark.parametrize("command, grounds, out", [
        ("eval", 1, "t\n"),
        ("check-constraint", 2, "checked 2 groundings over 1 worlds: 0 violations\n"),
    ], ids=["eval", "check-constraint"])
    def test_iff_chain_cli_grounding_in_linear_time(
        self, monkeypatch, capsys, tmp_path, command, grounds, out
    ):
        sig, world, formulas = (tmp_path / n for n in ("sig.txt", "w.txt", "f.txt"))
        sig.write_text("pred p/1\n")
        world.write_text(self.WORLD)
        formulas.write_text(self.chain_text(24) + "\n")
        argv = [command, "--sig", str(sig), "--world", str(world)]
        if command == "eval":
            argv += ["--assign", "x=a", self.chain_text(24)]
        else:
            argv += ["--formulas", str(formulas)]
        codes = []
        with monkeypatch.context() as m:
            # one parse, then one grounding per assignment
            counting(m, Conj, "__post_init__", (1 + grounds) * self.CONJS)
            err = error_of(lambda: codes.append(main(argv)))
        assert err is None
        assert codes == [0]
        assert capsys.readouterr().out == out

    def test_exists1_over_an_iff_chain_parses_in_linear_time(self, monkeypatch):
        text = f"exists1 x . ({self.chain_text(24)})"
        got = {}
        with monkeypatch.context() as m:
            # the chain, its copy under the fresh name, and 3 more
            counting(m, Conj, "__post_init__", 2 * self.CONJS + 3)
            # all_var_names and the depth check visit each of the about
            # 2 x 9 nodes per link at most 3 times between them
            counting(m, syntax, "_children", 3 * 2 * 9 * 24)
            err = error_of(lambda: got.update(f=parse_formula(text, SIG_P)))
        assert err is None
        for w in enumerate_worlds(SIG_P, ["a", "b"]):
            # the chain is p(x), and exactly one element has p
            one = len(w.pred_map[P].tuples) == 1
            assert eval_formula(got["f"], w).as_bool() == one

    @pytest.mark.xfail(strict=True, reason="the reference walk (_holds) walks the "
                       "desugared tree, not the DAG (ROADMAP items 1 and 10)")
    def test_iff_chain_reference_in_linear_time(self, monkeypatch):
        w = load_world(self.WORLD, SIG_P)
        f = self.chain(24)
        with monkeypatch.context() as m:
            # one call per formula node: 8 per link, and the first p(x)
            counting(m, semantics, "_holds", 8 * 24 + 1)
            err = error_of(lambda: tarski_satisfied(f, {"x": A}, w))
        assert err is None

    @pytest.mark.xfail(strict=True, reason="format_formula prints the desugared "
                       "tree (ROADMAP item 12)")
    def test_iff_chain_prints_in_linear_time(self, monkeypatch):
        f = self.chain(24)
        with monkeypatch.context() as m:
            counting(m, syntax, "format_formula", 8 * 24 + 1)
            err = error_of(lambda: syntax.format_formula(f))
        assert err is None

    def test_short_iff_chain_agrees_with_the_reference(self):
        f = self.chain(8)
        for w in enumerate_worlds(SIG_P, ["a", "b"]):
            assert check_diagram(f, w).ok

    def test_the_set_owns_the_only_memo(self):
        u = interpret(parse("exists y . (q(x, y) & p(x))"))
        ws = WorldSet([
            load_world(W1_TEXT, SIG, name="m0"),
            load_world(W1_TEXT, SIG, name="m1"),
        ])
        first = extensionalize(u, ws.worlds[0])
        assert extensionalize(u, ws.worlds[1]) is first
        ws.worlds[1].clear_memo()
        assert ws.extensions == {}
        lone = load_world(W1_TEXT, SIG)
        assert not [a for a in vars(lone) if "memo" in a]
        assert not hasattr(lone, "share_memo")
        assert extensionalize(u, lone) == extensionalize(u, lone) == first


class TestNecessOutsideWorldSet:
    """A world that belongs to no set is read as a set of one member,
    the frame where a Box and a Diamond both mean their body.  The test
    names are those of the refusal this reading replaced."""

    def test_requires_world_set(self, w1):
        u = interpret(parse("p(x)"))
        assert extensionalize(necess(u), w1) == extensionalize(u, w1)

    @pytest.mark.parametrize("modal", [Box, Diamond], ids=["box", "diamond"])
    def test_modal_formula_is_refused_by_both_routes(self, w1, modal):
        f = parse("p(x)")
        for route in (tarski_eval, eval_formula):
            assert route(modal(f), w1) == route(f, w1)
            assert route(f, w1).tuples == {(A,)}
        assert check_diagram(modal(f), w1).ok


DIAGRAM_FORMULAS = [
    "p(x)",
    "~p(x)",
    "q(x, y)",
    "q(x, x)",
    "q(c, x)",
    "p(d)",
    "x == y",
    "x == c",
    "#a == #a",
    "true",
    "~true",
    "p(x) & q(x, y)",
    "q(x, y) & q(y, z)",
    "p(x) | q(x, y)",
    "p(x) -> q(x, x)",
    "p(x) <-> p(y)",
    "exists x . q(x, y)",
    "exists y . q(x, y)",
    "exists z . q(x, y)",
    "forall x . (p(x) -> exists y . q(x, y))",
    "exists1 x . p(x)",
    "exists x . (p(x) & exists y . (q(x, y) & ~(x == y)))",
    "q(x, << p(y) >>_{y})",
    "p(<< q(x, y) >>_{x,y})",
    "~q(<< p(x) >>_{x}, << p(x) >>_{x})",
]


class TestCheckDiagram:
    @pytest.mark.parametrize("text", DIAGRAM_FORMULAS)
    def test_fixture_worlds(self, w1, w2, text):
        f = parse(text)
        for w in (w1, w2):
            report = check_diagram(f, w)
            assert report.ok, str(report)

    def test_diagram_with_reified_elements(self):
        text = (
            "domain a b\nconst c = a\nconst d = b\n"
            "reify unicorn = << p(x) >>_{x}\n"
            "rel p/1 = (a) (unicorn)\n"
            "rel q/2 = (a, unicorn)\n"
        )
        w = load_world(text, SIG)
        for t in ["p(<< p(x) >>_{x})", "q(x, << p(y) >>_{y})", "exists x . q(x, x)"]:
            assert check_diagram(parse(t), w).ok

    def test_report_rendering(self, w1):
        f = parse("p(x)")
        ok = check_diagram(f, w1)
        assert str(ok) == "ok: p(x) @ w1"
        bad = DiagramReport(False, f, "w1", (A,))
        assert "MISMATCH" in str(bad) and "witness (a)" in str(bad)

    def test_modal_report_rendering(self):
        # format_formula prints Box, so a modal report, ok or not, renders
        sig = make_signature(preds=[("p", 1)])
        f = parse_formula("p(x)", sig)
        for w in enumerate_worlds(sig, ["a", "b"]):
            assert str(check_diagram(Diamond(f), w)) == f"ok: ~[]~p(x) @ {w.name}"
        bad = DiagramReport(False, Box(f), "w3", (A,))
        assert str(bad).startswith("MISMATCH: []p(x) @ w3")

    def test_mismatch_detected_on_corrupted_world(self):
        # evaluate once in a member, then silently change the world
        # behind the set's memo: the stale cache makes the concept
        # route disagree
        ws = WorldSet([load_world(W1_TEXT, SIG, name="w1")])
        w = ws.worlds[0]
        f = parse("p(x)")
        eval_formula(f, w)
        w.pred_map[P] = rel(1, [(A,), (B,)])
        report = check_diagram(f, w)
        assert not report.ok
        assert report.witness == (B,)

    def test_modal_check_reads_the_members_relations_afresh(self):
        # Box and Diamond take their table from the members' relations
        # once per check, so a member changed after a check changes the
        # next check's answer
        ws = load_world_set(
            "worlds\ndomain a b\nconst c = a\nconst d = b\n"
            "world m0\nrel p/1 = (a)\nrel q/2 =\nrel r/2 =\n"
            "world m1\nrel p/1 = (a) (b)\nrel q/2 =\nrel r/2 =\n",
            SIG,
        )
        m0, m1 = ws.worlds
        box, diamond = Box(parse("p(x)")), Diamond(parse("p(x) & ~p(c)"))
        assert tarski_eval(box, m0).tuples == {(A,)}
        assert tarski_eval(diamond, m0).tuples == set()
        m1.pred_map[P] = rel(1, [(B,)])
        assert tarski_eval(box, m0).tuples == set()
        assert tarski_eval(diamond, m0).tuples == {(B,)}
        assert not tarski_satisfied(box, {"x": A}, m1)


class TestDeepNesting:
    """Every formula the parser accepts is shallow enough for the
    recursive walks of both routes."""

    @pytest.mark.parametrize("n", [600, 950])
    def test_too_deep_for_the_reference_is_a_parse_error(self, n):
        with pytest.raises(ParseError, match="^formula nested too deeply$"):
            parse("~" * n + "p(x)")

    @pytest.mark.parametrize(
        "text",
        [
            # MAX_DEPTH nodes: the negations, the atom and its variable
            "~" * (MAX_DEPTH - 2) + "p(x)",
            # a left-nested chain of MAX_DEPTH - 2 conjunctions
            " & ".join(["q(x, y)"] * (MAX_DEPTH - 1)),
        ],
    )
    def test_deepest_accepted_formula_evaluates_by_both_routes(self, w1, text):
        f = parse(text)
        assert check_diagram(f, w1).ok
        assert check_tarski_constraint(f, {"x": A, "y": B}, w1)
        with pytest.raises(ParseError, match="^formula nested too deeply$"):
            parse(f"~({text})")


class TestTarskiConstraint:
    def test_holds_on_fixture(self, w1, w2):
        for text in DIAGRAM_FORMULAS:
            f = parse(text)
            fv = free_vars(f)
            for w in (w1, w2):
                for combo in itertools.product((A, B), repeat=len(fv)):
                    g = dict(zip(fv, combo))
                    assert check_tarski_constraint(f, g, w), (text, combo, w.name)

    def test_requires_total_assignment(self, w1):
        with pytest.raises(AssignmentError):
            check_tarski_constraint(parse("q(x, y)"), {"x": A}, w1)

    def test_satisfaction_basics(self, w1):
        assert tarski_satisfied(parse("q(x, y)"), {"x": A, "y": B}, w1)
        assert not tarski_satisfied(parse("q(x, y)"), {"x": B, "y": A}, w1)
        assert tarski_satisfied(parse("exists y . q(x, y)"), {"x": B}, w1)


# ---------------------------------------------------------------------------
# randomized agreement between the two routes
# ---------------------------------------------------------------------------

ALL_PAIRS = list(itertools.product((A, B), repeat=2))


def _world_from(p_rows, q_rows, cden, dden):
    return World(
        "rw",
        (A, B),
        {"c": cden, "d": dden},
        {P: rel(1, p_rows), Q: rel(2, q_rows), R: rel(2, [])},
    )


worlds_st = st.builds(
    _world_from,
    st.sets(st.sampled_from([(A,), (B,)])),
    st.sets(st.sampled_from(ALL_PAIRS)),
    st.sampled_from((A, B)),
    st.sampled_from((A, B)),
)

variables = st.sampled_from(["x", "y", "z"])
base_terms = st.one_of(
    variables.map(Variable),
    st.sampled_from(["c", "d"]).map(lambda n: parse_term(n, SIG)),
    st.sampled_from(["#a", "#b"]).map(lambda n: parse_term(n, SIG)),
)


def _abs_arg(body, reverse):
    fv = free_vars(body)
    alpha = tuple(reversed(fv)) if reverse else fv
    return make_abstraction(body, alpha)


def _atoms(terms):
    # identity atoms draw from base terms only: the grammar does not
    # admit abstraction operands for ==
    return st.one_of(
        st.builds(lambda t: Atom(P, (t,)), terms),
        st.builds(lambda t1, t2: Atom(Q, (t1, t2)), terms, terms),
        st.builds(
            lambda t1, t2: Atom(PredicateSymbol("==", 2), (t1, t2)),
            base_terms,
            base_terms,
        ),
    )


inner_formulas = st.recursive(
    _atoms(base_terms),
    lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(Conj, sub, sub),
        st.builds(Exists, variables, sub),
    ),
    max_leaves=4,
)

# abstraction arguments are kept beta-closed: every free variable of the
# body is abstracted, so both evaluators resolve them assignment-free
abs_terms = st.builds(_abs_arg, inner_formulas, st.booleans())
leaf_terms = st.one_of(base_terms, abs_terms)

formulas_st = st.recursive(
    _atoms(leaf_terms),
    lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(Conj, sub, sub),
        st.builds(Exists, variables, sub),
    ),
    max_leaves=8,
)


@settings(max_examples=120, deadline=None)
@given(f=formulas_st, w=worlds_st)
def test_diagram_commutes_on_random_formulas(f, w):
    report = check_diagram(f, w)
    assert report.ok, str(report)


@settings(max_examples=120, deadline=None)
@given(f=formulas_st, w=worlds_st, data=st.data())
def test_tarski_constraint_on_random_assignments(f, w, data):
    fv = free_vars(f)
    combo = data.draw(st.tuples(*[st.sampled_from((A, B)) for _ in fv]))
    assert check_tarski_constraint(f, dict(zip(fv, combo)), w)


@settings(max_examples=80, deadline=None)
@given(f=formulas_st)
def test_degree_matches_free_tuple(f):
    w = _world_from([], [], A, B)
    assert interpret(f, w).degree == len(free_vars(f))
