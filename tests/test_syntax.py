"""Parser, free variables, substitution, grounding, printing."""
import pytest
from hypothesis import given, settings, strategies as st

from intlog.files import load_formulas, load_signature
from intlog.relalg import ConceptHandle, Particular
from intlog.syntax import (
    ID_PRED,
    TRUE_PRED,
    AbstractionError,
    Abstraction,
    ArityError,
    AssignmentError,
    Atom,
    CaptureError,
    Conj,
    Constant,
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
    ground_term,
    make_abstraction,
    make_signature,
    mk_forall,
    mk_iff,
    mk_implies,
    mk_or,
    parse_formula,
    parse_term,
    substitute,
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

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            parse_formula("exists x . q(x)", SIG)
        with pytest.raises(ArityError):
            parse_formula("s(x)", SIG)

    def test_unknown_predicate(self):
        with pytest.raises(ParseError):
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

    def test_lex_error(self):
        with pytest.raises(LexError):
            P("p(x) $")

    def test_parse_errors(self):
        for bad in ("p(x", "p(x))", "exists c . p(x)", "q(x,)", "", "x", "p(x) &"):
            with pytest.raises(ParseError):
                P(bad)

    @pytest.mark.parametrize(
        "text", ["~" * 1000 + "p(x)", "(" * 400 + "p(x)" + ")" * 400]
    )
    def test_deep_nesting_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="^formula nested too deeply$"):
            P(text)
        with pytest.raises(ParseError, match="^formula nested too deeply$"):
            parse_term(f"<< {text} >>_{{x}}", SIG)
        with pytest.raises(ParseError, match="^deep.txt:2: formula nested too deeply$"):
            load_formulas(f"p(x)\n{text}\n", SIG, "deep.txt")

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
        assert substitute(f, "x", Constant("c")) == P("p(c) & p(y)")

    def test_capture_violation(self):
        f = P("exists x . q(x,y)")
        with pytest.raises(CaptureError):
            substitute(f, "y", Variable("x"))

    def test_no_capture_when_var_absent(self):
        f = P("exists x . p(x)")
        assert substitute(f, "y", Variable("x")) == f

    def test_bound_occurrences_untouched(self):
        f = P("exists x . (p(x) & exists x . q(x,x))")
        assert substitute(f, "x", Variable("z")) == f

    def test_abstraction_beta_recomputed(self):
        f = P("p(<< q(x,y) >>_{x}^{y})")
        out = substitute(f, "y", elem_term(B))
        t = out.args[0]
        assert t.alpha == ("x",)
        assert t.beta == ()
        assert t.body == P("q(x,#b)")

    def test_abstraction_alpha_capture(self):
        f = P("p(<< q(x,y) >>_{x}^{y})")
        with pytest.raises(CaptureError):
            substitute(f, "y", Variable("x"))

    def test_substitute_into_abstraction_keeps_other_beta(self):
        f = P("p(<< r(x,y) & p(z) >>_{x}^{y,z})")
        out = substitute(f, "y", elem_term(A))
        t = out.args[0]
        assert t.beta == ("z",)


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
        out = ground_term(t, {"y": B})
        assert out == parse_term("<< q(x,#b) >>_{x}", SIG)
        assert out.alpha == ("x",)
        assert out.beta == ()

    def test_ground_embeds_element(self):
        out = ground(P("p(x)"), {"x": ConceptHandle(3, "v")})
        arg = out.args[0]
        assert isinstance(arg, ElemTerm)
        assert arg.elem == ConceptHandle(3)


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
    "(p(x) & ~q(x, y))",
    "(exists x . q(x, y))",
    "~(exists x . ~p(x))",
    "p(<< q(x, y) >>_{x,y})",
    "p(<< q(x, y) >>_{y,x})",
    "r(x, << q(y, z) >>_{y}^{z})",
    "p(<< p(<< q(x, y) >>_{x,y}) >>_{})",
]


class TestPrinting:
    @pytest.mark.parametrize("text", ROUND_TRIP_CASES)
    def test_round_trip_fixed_point(self, text):
        f = P(text)
        assert parse_formula(format_formula(f), SIG) == f
        assert format_formula(f) == text

    def test_desugared_forms_print_as_core(self):
        assert format_formula(P("p(x) | s")) == "~(~p(x) & ~s)"
        assert format_formula(P("forall x . p(x)")) == "~(exists x . ~p(x))"

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
@given(formulas())
def test_ground_closes_formula(f):
    g = {v: A for v in free_vars(f)}
    assert free_vars(ground(f, g)) == ()
