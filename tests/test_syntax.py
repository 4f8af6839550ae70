"""Parser, free variables, substitution, grounding, printing."""
import re
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from intlog.errors import IntlogError
from intlog.files import load_formulas, load_signature
from intlog.gen import corpus_abstractions, corpus_formulas, corpus_signature
from intlog.relalg import ConceptHandle, Particular
from intlog.syntax import (
    ID_PRED,
    MAX_DEPTH,
    TRUE_PRED,
    AbstractionError,
    Abstraction,
    ArityError,
    AssignmentError,
    Atom,
    Box,
    CaptureError,
    Conj,
    Constant,
    Diamond,
    ElemTerm,
    Exists,
    LexError,
    Neg,
    ParseError,
    PredicateSymbol,
    SignatureError,
    Variable,
    all_var_names,
    elem_term,
    format_formula,
    format_term,
    free_vars,
    ground,
    make_abstraction,
    make_signature,
    mk_exists_unique,
    mk_forall,
    mk_iff,
    mk_implies,
    mk_or,
    parse_formula,
    parse_term,
    substitute,
    _children,
    _depth,
    _lex,
)

SIG = make_signature(
    preds={("p", 1), ("q", 2), ("r", 2), ("s", 0), ("p1", 1), ("p2", 1), ("p5", 5)},
    consts={"c", "d"},
)

A, B = Particular("a"), Particular("b")


def P(text):
    return parse_formula(text, SIG)


def atom(name, *vars_):
    return Atom(PredicateSymbol(name, len(vars_)), tuple(Variable(v) for v in vars_))


# ---------------------------------------------------------------------------
# parsing and structure
# ---------------------------------------------------------------------------

class TestParse:
    def test_conjunction_free_tuple(self):
        f = P("p5(x_i,x_j,x_k,x_l,x_m) & q(x_l,y_i)")
        assert isinstance(f, Conj)
        assert free_vars(f) == ("x_i", "x_j", "x_k", "x_l", "x_m", "y_i")

    def test_abstraction_with_empty_alpha(self):
        t = parse_term("<< p(x) & ~p(x) >>_{}^{x}", SIG)
        assert t.alpha == ()
        assert t.beta == ("x",)
        assert str(t) == format_term(t) == "<< (p(x) & ~p(x)) >>_{}^{x}"

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            parse_formula("exists x . q(x)", SIG)
        with pytest.raises(ArityError):
            parse_formula("s(x)", SIG)
        with pytest.raises(ArityError, match=r"^predicate q used with 0 arguments, declared \[2\]$"):
            P("q")

    def test_unknown_predicate(self):
        with pytest.raises(ParseError, match="^unknown predicate 'nosuch' at position 0$"):
            P("nosuch(x)")

    def test_precedence(self):
        assert P("~p(x) & s") == Conj(Neg(atom("p", "x")), atom("s"))
        assert P("p(x) & s | q(x,y)") == mk_or(
            Conj(atom("p", "x"), atom("s")), atom("q", "x", "y")
        )
        assert P("p(x) -> s -> p(y)") == mk_implies(
            atom("p", "x"), mk_implies(atom("s"), atom("p", "y"))
        )
        assert P("p(x) <-> s") == mk_iff(atom("p", "x"), atom("s"))
        # <-> chains to the left, -> to the right
        assert P("p(x) <-> s <-> p(y)") == mk_iff(
            mk_iff(atom("p", "x"), atom("s")), atom("p", "y")
        )
        assert P("p(x) -> s -> p(y) -> p(z)") == mk_implies(
            atom("p", "x"),
            mk_implies(atom("s"), mk_implies(atom("p", "y"), atom("p", "z"))),
        )
        assert P("p(x) | s & p(y)") == mk_or(
            atom("p", "x"), Conj(atom("s"), atom("p", "y"))
        )
        assert P("p(x) -> s <-> p(y)") == mk_iff(
            mk_implies(atom("p", "x"), atom("s")), atom("p", "y")
        )
        assert P("p(x) <-> s -> p(y)") == mk_iff(
            atom("p", "x"), mk_implies(atom("s"), atom("p", "y"))
        )
        assert P("~p(x) & s | ~s") == mk_or(
            Conj(Neg(atom("p", "x")), atom("s")), Neg(atom("s"))
        )

    def test_quantifier_scope_is_maximal(self):
        assert P("exists x . p(x) & q(x,x)") == P("exists x . (p(x) & q(x,x))")
        assert P("exists x . p(x) -> s") == Exists(
            "x", mk_implies(atom("p", "x"), atom("s"))
        )
        left_scoped = P("(exists x . p(x)) & q(x,y)")
        assert isinstance(left_scoped, Conj)
        assert free_vars(left_scoped) == ("x", "y")

    def test_desugared_core_only(self):
        f = P("forall x . p(x) | ~s")
        assert f == mk_forall("x", mk_or(atom("p", "x"), Neg(atom("s"))))

        def kinds(g):
            if isinstance(g, Atom):
                return {Atom}
            if isinstance(g, Conj):
                return {Conj} | kinds(g.left) | kinds(g.right)
            if isinstance(g, Neg):
                return {Neg} | kinds(g.sub)
            if isinstance(g, Exists):
                return {Exists} | kinds(g.sub)
            raise AssertionError(f"unexpected node {g!r}")

        assert kinds(P("p(x) <-> exists1 y . q(x,y)")) <= {Atom, Conj, Neg, Exists}

    def test_true_false(self):
        assert P("true") == Atom(TRUE_PRED, ())
        assert P("false") == Neg(Atom(TRUE_PRED, ()))

    def test_identity_atom(self):
        assert P("x == y") == Atom(ID_PRED, (Variable("x"), Variable("y")))
        assert P("x == #a") == Atom(ID_PRED, (Variable("x"), ElemTerm("a")))
        assert P("c == x") == Atom(ID_PRED, (Constant("c"), Variable("x")))

    def test_identity_rejects_abstractions(self):
        with pytest.raises(ParseError):
            P("<< p(x) >>_{x} == c")
        with pytest.raises(ParseError):
            P("c == << p(x) >>_{x}")

    def test_exists_unique_expansion(self):
        f = P("exists1 x . p(x)")
        px = atom("p", "x")
        py = atom("p", "y")
        expected = Conj(
            Exists("x", px),
            mk_forall(
                "x",
                mk_forall(
                    "y",
                    mk_implies(
                        Conj(px, py), Atom(ID_PRED, (Variable("x"), Variable("y")))
                    ),
                ),
            ),
        )
        assert f == expected

    def test_exists_unique_picks_fresh_variable(self):
        f = P("exists1 x . q(x,y)")
        # y is taken, so the copy uses y1
        assert "y1" in all_var_names(f)
        assert free_vars(f) == ("y",)
        # y and y1 ... y5 are all taken: the first free name is y6
        f = P("exists1 x . p5(y, y1, y2, y3, y4) & q(x, y5)")
        assert "y6" in all_var_names(f)
        assert free_vars(f) == ("y", "y1", "y2", "y3", "y4", "y5")

    def test_predicate_symbol_is_a_value(self):
        made = PredicateSymbol("p", 1)
        parsed = P("p(x)").pred
        assert made == parsed and hash(made) == hash(parsed)
        assert made == ("p", 1)
        assert str(made) == "p/1"
        assert repr(made) == "PredicateSymbol(name='p', arity=1)"
        symbols = [PredicateSymbol("q", 2), PredicateSymbol("p", 5), made]
        assert sorted(symbols) == [made, PredicateSymbol("p", 5), PredicateSymbol("q", 2)]

    def test_lex_error(self):
        with pytest.raises(LexError):
            P("p(x) $")

    def test_parse_errors(self):
        for bad in ("p(x", "p(x))", "exists c . p(x)", "q(x,)", "", "x", "p(x) &"):
            with pytest.raises(ParseError):
                P(bad)
        for bad, msg in (
            ("x(a)", "unknown identifier 'x' at position 0"),
            ("c(a)", "unknown identifier 'c' at position 0"),
            ("foo", "unknown identifier 'foo' at position 0"),
            ("p()", "expected a term, found ')' at position 2"),
            # one row per place the parser words an unexpected token
            ("exists", "expected a variable, found 'end of input' at position 6"),
            ("p(x", "expected ')', found 'end of input' at position 3"),
            ("p(x))", "expected end of input, found ')' at position 4"),
            ("p(x) &", "expected a formula, found 'end of input' at position 6"),
            ("p(true)", "expected a term, found 'true' at position 2"),
        ):
            with pytest.raises(ParseError, match=f"^{re.escape(msg)}$"):
                P(bad)
        for bad, msg in (
            ("<< p(x) >>_{p}", "expected a variable, found 'p' at position 12"),
            ("<< p(x) >>_{x,", "expected a variable, found 'end of input' at position 14"),
        ):
            with pytest.raises(ParseError, match=f"^{re.escape(msg)}$"):
                parse_term(bad, SIG)

    def test_every_prefix_of_a_printed_text_parses_or_names_what_it_found(self):
        # a text cut short reports `end of input`, never an empty token
        sig = corpus_signature()
        texts = [format_formula(f) for f in corpus_formulas(sig)]
        texts += [format_term(t) for t in corpus_abstractions(sig)]
        prefixes = [t[:i] for t in texts for i in range(len(t))]
        assert len(prefixes) > 9000
        for text in prefixes:
            for rule in (parse_formula, parse_term):
                try:
                    rule(text, sig)
                except IntlogError as e:
                    assert "found ''" not in str(e), text

    @pytest.mark.parametrize(
        "text", ["~" * 1000 + "p(x)", "(" * 1000 + "p(x)" + ")" * 1000]
    )
    def test_deep_nesting_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="^formula nested too deeply$"):
            P(text)
        with pytest.raises(ParseError, match="^formula nested too deeply$"):
            parse_term(f"<< {text} >>_{{x}}", SIG)
        with pytest.raises(ParseError, match="^deep.txt:2: formula nested too deeply$"):
            load_formulas(f"p(x)\n{text}\n", SIG, "deep.txt")

    def test_parentheses_add_no_depth(self):
        assert P("(" * 400 + "p(x)" + ")" * 400) == atom("p", "x")

    def test_negated_exists_chain_parses_up_to_max_depth(self):
        # two nodes per level, plus the atom and its variable
        def chain(n):
            return "~(exists x . " * n + "p(x)" + ")" * n

        f = P(chain(149))
        assert _depth(f) == 300
        assert P(format_formula(f)) == f
        with pytest.raises(ParseError, match="^formula nested too deeply$"):
            P(chain(150))

    def test_printed_conjunction_chains_parse_back(self):
        q = atom("q", "x", "y")
        left = right = q
        for _ in range(MAX_DEPTH - 2):
            left, right = Conj(left, q), Conj(q, right)
        for f in (left, right):
            assert _depth(f) == MAX_DEPTH
            assert P(format_formula(f)) == f

    @pytest.mark.parametrize(
        "text",
        [
            " <-> ".join(["p(x)"] * 8),
            "(" * 6 + "p(x)" + " <-> p(x))" * 6,
            "exists1 x . exists1 y . exists1 z . q(x, y) & q(y, z)",
            "forall x . forall y . (p(x) | ~q(x, y) -> ~false)",
            "~~~(p(x) -> (q(x, y) <-> r(y, x)))",
            "q(x, << exists1 y . (q(y, x) | false) >>_{x}) <-> s",
        ],
    )
    def test_desugared_depth_is_at_most_four_per_token(self, text):
        # the parser measures only texts of more than MAX_DEPTH / 4
        # tokens, which is sound only while this bound holds
        assert _depth(P(text)) <= 4 * len(_lex(text))

    def test_abstraction_validation(self):
        with pytest.raises(AbstractionError):
            parse_term("<< q(x,y) >>_{x,x}", SIG)
        with pytest.raises(AbstractionError):
            parse_term("<< p(x) >>_{y}", SIG)
        with pytest.raises(AbstractionError):
            parse_term("<< q(x,y) >>_{x}^{x}", SIG)
        with pytest.raises(AbstractionError):
            parse_term("<< q(x,y) >>_{}^{y,x}", SIG)  # beta must keep body order
        with pytest.raises(AbstractionError):
            parse_term("<< q(x,y) >>_{x}", SIG)  # beta omitted but y remains

    def test_alpha_may_reorder(self):
        t = parse_term("<< q(x,y) >>_{y,x}", SIG)
        assert t.alpha == ("y", "x")
        assert t.beta == ()

    def test_nested_abstraction(self):
        f = P("p(<< q(x,y) >>_{x,y}) & r(x, << p(y) >>_{}^{y})")
        assert free_vars(f) == ("x", "y")


# ---------------------------------------------------------------------------
# free variables
# ---------------------------------------------------------------------------

class TestFreeVars:
    def test_exists_removes_var(self):
        f = P("exists x_k . p5(x_i,x_j,x_k,x_l,x_m)")
        assert free_vars(f) == ("x_i", "x_j", "x_l", "x_m")

    def test_sentence_has_empty_tuple(self):
        assert free_vars(P("exists x . p(x)")) == ()
        assert free_vars(P("s")) == ()

    def test_abstraction_alpha_bound_beta_free(self):
        f = P("r(x, << q(y,z) >>_{y}^{z})")
        assert free_vars(f) == ("x", "z")

    def test_repeated_variable_counted_once(self):
        assert free_vars(P("q(x,x)")) == ("x",)

    def test_shadowing(self):
        f = P("exists x . (p(x) & exists x . q(x,x))")
        assert free_vars(f) == ()

    def test_free_variables_are_derived_not_fields(self):
        # equality, hashing and repr see only a node's parts
        for cls in (Variable, Constant, ElemTerm, Abstraction, Atom, Conj, Neg, Exists, Box):
            assert "fv" not in {f.name for f in fields(cls)}
        # Diamond is no node of its own: it builds its dual, ~Box~
        assert Diamond(P("p(x)")) == Neg(Box(Neg(P("p(x)"))))
        assert [f.name for f in fields(Abstraction)] == ["body", "alpha"]
        assert repr(P("p(x)")) == (
            "Atom(pred=PredicateSymbol(name='p', arity=1), args=(Variable(name='x'),))"
        )
        t = parse_term("<< q(x,y) >>_{x}^{y}", SIG)
        assert t == Abstraction(P("q(x,y)"), ("x",)) and t.beta == t.fv == ("y",)

    def test_alpha_beta_partition_invariant(self):
        for text in (
            "<< q(x,y) >>_{y,x}",
            "<< q(x,y) >>_{y}^{x}",
            "<< exists z . q(z,y) >>_{}^{y}",
        ):
            t = parse_term(text, SIG)
            assert set(t.alpha) | set(t.beta) == set(free_vars(t.body))
            assert set(t.alpha) & set(t.beta) == set()
            body_order = [v for v in free_vars(t.body) if v in t.beta]
            assert tuple(body_order) == t.beta


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

class TestSubstitute:
    def test_basic(self):
        f = P("p(x) & p(y)")
        assert substitute(f, {"x": Constant("c")}) == P("p(c) & p(y)")

    def test_capture_violation(self):
        f = P("exists x . q(x,y)")
        with pytest.raises(CaptureError):
            substitute(f, {"y": Variable("x")})

    def test_no_capture_when_var_absent(self):
        f = P("exists x . p(x)")
        assert substitute(f, {"y": Variable("x")}) == f

    def test_bound_occurrences_untouched(self):
        f = P("exists x . (p(x) & exists x . q(x,x))")
        assert substitute(f, {"x": Variable("z")}) == f

    @pytest.mark.parametrize("modal", [Box, Diamond], ids=["box", "diamond"])
    def test_modal_body_substituted_as_under_a_negation(self, modal):
        f = modal(P("exists y . q(x, y) & p(x)"))
        assert substitute(f, {"x": Constant("c")}) == modal(P("exists y . q(c, y) & p(c)"))
        assert ground(f, {"x": A}) == modal(P("exists y . q(#a, y) & p(#a)"))
        assert ground(Neg(f), {"x": A}) == Neg(ground(f, {"x": A}))
        with pytest.raises(CaptureError):
            substitute(f, {"x": Variable("y")})

    def test_abstraction_beta_recomputed(self):
        f = P("p(<< q(x,y) >>_{x}^{y})")
        out = substitute(f, {"y": elem_term(B)})
        t = out.args[0]
        assert t.alpha == ("x",)
        assert t.beta == ()
        assert t.body == P("q(x,#b)")

    def test_abstraction_alpha_capture(self):
        f = P("p(<< q(x,y) >>_{x}^{y})")
        with pytest.raises(CaptureError):
            substitute(f, {"y": Variable("x")})

    def test_substitute_into_abstraction_keeps_other_beta(self):
        f = P("p(<< r(x,y) & p(z) >>_{x}^{y,z})")
        out = substitute(f, {"y": elem_term(A)})
        t = out.args[0]
        assert t.beta == ("z",)

    def test_simultaneous_swap(self):
        f = P("q(x, y)")
        assert substitute(f, {"x": Variable("y"), "y": Variable("x")}) == P("q(y, x)")

    def test_capture_names_the_captured_variable(self):
        f = P("exists z . q(x, y)")
        with pytest.raises(CaptureError, match="substituting z for x would capture z"):
            substitute(f, {"y": Variable("x"), "x": Variable("z")})

    def test_no_capture_for_variable_not_free_under_binder(self):
        f = P("(exists z . p(y)) & p(x)")
        out = substitute(f, {"x": Variable("z"), "y": Variable("x")})
        assert out == P("(exists z . p(x)) & p(z)")

    def test_empty_mapping_returns_formula(self):
        f = P("q(x, y) & exists z . p(z)")
        assert substitute(f, {}) is f

    def test_shared_subformula_under_a_binder_keeps_its_bound_variable(self):
        # one Conj object, reached once with x free and once under a
        # binder of x
        shared = P("q(x, y) & q(y, x)")
        f = Conj(shared, Exists("x", shared))
        out = substitute(f, {"x": elem_term(A), "y": elem_term(B)})
        assert out == P("(q(#a, #b) & q(#b, #a)) & exists x . (q(x, #b) & q(#b, x))")


# ---------------------------------------------------------------------------
# grounding
# ---------------------------------------------------------------------------

class TestGround:
    def test_basic(self):
        assert ground(P("p(x)"), {"x": A}) == P("p(#a)")

    def test_closed_unchanged(self):
        f = P("exists x . p(x)")
        assert ground(f, {}) is f
        assert ground(f, {"x": A}) is f

    def test_incomplete_assignment(self):
        with pytest.raises(AssignmentError):
            ground(P("q(x,y)"), {"x": A})

    def test_ground_is_closed(self):
        f = P("q(x,y) & exists z . r(z,x)")
        assert free_vars(ground(f, {"x": A, "y": B})) == ()

    def test_abstraction_beta_instantiated(self):
        t = parse_term("<< q(x,y) >>_{x}^{y}", SIG)
        out = ground(t, {"y": B})
        assert out == parse_term("<< q(x,#b) >>_{x}", SIG)
        assert out.alpha == ("x",)
        assert out.beta == ()

    def test_two_beta_variables_at_once(self):
        f = P("p(<< r(x,y) & p(z) >>_{x}^{y,z})")
        nested = substitute(substitute(f, {"y": elem_term(A)}), {"z": elem_term(B)})
        out = ground(f, {"y": A, "z": B})
        assert out == nested
        assert out.args[0].beta == ()
        t = f.args[0]
        assert ground(t, {"y": A, "z": B}) == nested.args[0]

    @pytest.mark.parametrize("text", [
        "(exists1 x . q(x, y)) <-> p(z)",
        "exists1 z . (q(x, z) <-> r(y, z))",
        "p(<< exists1 y . q(x, y) >>_{}^{x}) <-> q(x, z)",
    ])
    def test_sugar_grounded_at_once_equals_nested(self, text):
        f = P(text)
        g = {"x": A, "y": B, "z": A}
        nested = f
        for v in free_vars(f):
            nested = substitute(nested, {v: elem_term(g[v])})
        assert ground(f, g) == nested
        assert free_vars(ground(f, g)) == ()

    def test_grounding_keeps_shared_subformulas(self):
        out = ground(P("(q(x, y) & p(x)) <-> p(y)"), {"x": A, "y": B})
        assert out == P("(q(#a, #b) & p(#a)) <-> p(#b)")
        # mk_iff holds its left side twice; so does the grounded formula
        assert out.left.sub.left is out.right.sub.right.sub

    def test_ground_embeds_element(self):
        out = ground(P("p(x)"), {"x": ConceptHandle(3, "v")})
        assert out.args == (ElemTerm("v"),)


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------

class TestSignature:
    def test_load(self):
        sig = load_signature(
            """
            # a comment
            pred p/1
            pred p/2
            const c
            var u
            """
        )
        assert sig.has_pred("p", 1) and sig.has_pred("p", 2)
        assert sig.pred_arities("p") == [1, 2]
        assert sig.is_const("c")
        assert sig.is_var("u") and sig.is_var("x") and not sig.is_var("c")

    def test_same_name_different_arity_are_distinct(self):
        sig = load_signature("pred p/1\npred p/2")
        f1 = parse_formula("p(x)", sig)
        f2 = parse_formula("p(x,y)", sig)
        assert f1.pred != f2.pred

    def test_errors(self):
        with pytest.raises(SignatureError):
            load_signature("pred true/1")
        with pytest.raises(SignatureError):
            load_signature("pred x2/1")
        with pytest.raises(SignatureError):
            load_signature("const exists")
        with pytest.raises(SignatureError):
            load_signature("pred p/1\nconst p")
        with pytest.raises(SignatureError):
            load_signature("predicate p/1")
        with pytest.raises(SignatureError):
            load_signature("var true")
        # an arity is ASCII digits; U+0661 is a digit to `\d`
        with pytest.raises(SignatureError, match="^line 1: cannot parse 'pred p/\u0661'$"):
            load_signature("pred p/\u0661")
        with pytest.raises(SignatureError, match="^negative arity for predicate p$"):
            make_signature(preds=[("p", -1)])
        with pytest.raises(SignatureError, match="^bad predicate name '1p'$"):
            make_signature(preds=[("1p", 1)])

    def test_a_rule_error_names_the_first_line_of_the_second_way(self):
        with pytest.raises(SignatureError, match=r"^line 3: names declared both constant "):
            load_signature("pred p/1\npred p/2\nconst p\nconst p\n")
        with pytest.raises(SignatureError, match=r"^line 4: variable names shadow other "):
            load_signature("var q\nvar q\npred p/1\nconst q\n")


# ---------------------------------------------------------------------------
# printing round trips
# ---------------------------------------------------------------------------

ROUND_TRIP_CASES = [
    "p(x)",
    "q(x, y)",
    "q(x, x)",
    "q(#a, x)",
    "p(c)",
    "s",
    "true",
    "~true",
    "x == y",
    "c == #a",
    # elements named like keywords
    "#true == x",
    "#exists == #forall",
    "(p(x) & ~q(x, y))",
    "(exists x . q(x, y))",
    "~(exists x . ~p(x))",
    "p(<< q(x, y) >>_{x,y})",
    "p(<< q(x, y) >>_{y,x})",
    "r(x, << q(y, z) >>_{y}^{z})",
    "p(<< p(<< q(x, y) >>_{x,y}) >>_{})",
    "[]p(x)",
    "~[]~(p(x) & q(x, y))",
    "[](exists x . [][]q(x, y))",
    "p(<< []p(x) >>_{x})",
]


class TestPrinting:
    @pytest.mark.parametrize("text", ROUND_TRIP_CASES)
    def test_round_trip_fixed_point(self, text):
        f = P(text)
        assert parse_formula(format_formula(f), SIG) == f
        assert format_formula(f) == text
        assert str(f) == text

    def test_desugared_forms_print_as_core(self):
        assert format_formula(P("p(x) | s")) == "~(~p(x) & ~s)"
        assert format_formula(P("forall x . p(x)")) == "~(exists x . ~p(x))"

    def test_box_and_diamond_round_trip(self):
        # Diamond is ~Box~, so it prints as ~[]~ and parses back to the
        # same tree; [] binds like ~, tighter than every binary operator
        f = Diamond(P("p(x) | s"))
        assert str(f) == format_formula(f) == "~[]~~(~p(x) & ~s)"
        assert P(str(f)) == f
        assert str(Box(P("p(x)"))) == "[]p(x)"
        assert P("[] p(x) & s") == Conj(Box(P("p(x)")), P("s"))
        assert P("[]~[] p(x)") == Box(Neg(Box(P("p(x)"))))

    def test_unprintable_element(self):
        f = ground(P("p(x)"), {"x": ConceptHandle(3)})
        with pytest.raises(Exception):
            format_formula(f)


# ---------------------------------------------------------------------------
# property: parse(print(f)) == f on generated ASTs
# ---------------------------------------------------------------------------

variables = st.sampled_from([Variable("x"), Variable("y"), Variable("z")])
base_terms = st.one_of(
    variables,
    st.sampled_from([Constant("c"), Constant("d"), ElemTerm("a"), ElemTerm("b")]),
)


def make_abs(body, mask, flip):
    fv = free_vars(body)
    alpha = [v for i, v in enumerate(fv) if mask >> i & 1]
    if flip:
        alpha = list(reversed(alpha))
    beta = tuple(v for v in fv if v not in alpha)
    return make_abstraction(body, tuple(alpha), beta)


def formulas(max_depth=3):
    def atoms(term_strategy):
        return st.one_of(
            st.builds(lambda t: Atom(PredicateSymbol("p", 1), (t,)), term_strategy),
            st.builds(
                lambda t1, t2: Atom(PredicateSymbol("q", 2), (t1, t2)),
                term_strategy,
                term_strategy,
            ),
            st.just(Atom(PredicateSymbol("s", 0), ())),
            st.builds(lambda t1, t2: Atom(ID_PRED, (t1, t2)), base_terms, base_terms),
        )

    def extend(children):
        terms_with_abs = st.one_of(
            base_terms,
            st.builds(
                make_abs,
                children,
                st.integers(min_value=0, max_value=7),
                st.booleans(),
            ),
        )
        return st.one_of(
            atoms(terms_with_abs),
            st.builds(Neg, children),
            st.builds(Conj, children, children),
            st.builds(Exists, st.sampled_from(["x", "y", "z"]), children),
        )

    return st.recursive(atoms(base_terms), extend, max_leaves=12)


@settings(max_examples=120)
@given(formulas())
def test_parse_print_round_trip(f):
    assert parse_formula(format_formula(f), SIG) == f


@settings(max_examples=60)
@given(formulas(), st.lists(st.sampled_from([A, B]), min_size=3, max_size=3))
def test_ground_equals_one_variable_at_a_time(f, values):
    g = dict(zip(("x", "y", "z"), values))
    nested = f
    for v in free_vars(f):
        nested = substitute(nested, {v: elem_term(g[v])})
    assert ground(f, g) == nested


def reference_free_vars(x):
    """Free variables by the recursive rule, first occurrence left to
    right: the reference for the `fv` every node derives."""
    if isinstance(x, Variable):
        return (x.name,)
    if isinstance(x, (Constant, ElemTerm)):
        return ()
    if isinstance(x, Abstraction):
        return tuple(v for v in reference_free_vars(x.body) if v not in x.alpha)
    if isinstance(x, Exists):
        return tuple(v for v in reference_free_vars(x.sub) if v != x.var)
    if isinstance(x, Neg):
        return reference_free_vars(x.sub)
    parts = x.args if isinstance(x, Atom) else (x.left, x.right)
    out = []
    for part in parts:
        for v in reference_free_vars(part):
            if v not in out:
                out.append(v)
    return tuple(out)


@settings(max_examples=80)
@given(
    formulas(),
    formulas(),
    st.sampled_from(["x", "y", "z"]),
    st.integers(min_value=0, max_value=7),
    st.booleans(),
    st.sampled_from([A, B]),
)
def test_every_node_derives_its_free_variables(f, other, var, mask, flip, value):
    images = [
        f,
        ground(f, {"x": value, "y": value, "z": value}),
        mk_exists_unique(var, f),
        make_abs(f, mask, flip),
    ]
    # a payload with free variables of its own changes the beta of
    # every abstraction it enters
    for payload in (Variable("z"), make_abs(other, mask, flip)):
        try:
            images.append(substitute(f, {var: payload}))
        except CaptureError:
            pass
    for image in images:
        stack = [image]
        while stack:
            node = stack.pop()
            assert node.fv == reference_free_vars(node)
            if isinstance(node, Abstraction):
                assert node.beta == tuple(v for v in node.body.fv if v not in node.alpha)
            stack.extend(_children(node))


@settings(max_examples=60)
@given(formulas())
def test_ground_closes_formula(f):
    g = {v: A for v in free_vars(f)}
    assert free_vars(ground(f, g)) == ()


def reference_ground_term(t, g):
    """The rule for grounding a term, written out as a fold: a variable
    becomes its literal, and an abstraction's beta variables are
    substituted into its body one at a time, leaving beta empty."""
    if isinstance(t, Variable):
        return elem_term(g[t.name])
    if isinstance(t, Abstraction) and t.beta:
        body = t.body
        for v in t.beta:
            body = substitute(body, {v: elem_term(g[v])})
        return Abstraction(body, t.alpha)
    return t


def terms():
    """Base terms, and abstractions over generated formulas."""
    return st.one_of(
        base_terms,
        st.builds(make_abs, formulas(), st.integers(min_value=0, max_value=7), st.booleans()),
    )


@settings(max_examples=80)
@given(terms(), st.lists(st.sampled_from([A, B]), min_size=3, max_size=3))
def test_ground_of_a_term_is_one_walk_with_the_formula(t, values):
    g = dict(zip(("x", "y", "z"), values))
    assert ground(t, g).fv == ()
    assert ground(Atom(PredicateSymbol("p", 1), (t,)), g).args[0] == ground(t, g)
    assert ground(t, g) == reference_ground_term(t, g)
