"""The random generator must be deterministic per seed and emit only
well-formed, signature-respecting formulas; the bundled corpus must
parse and cover the advertised shapes."""
from importlib import resources

import pytest

from intlog import gen
from intlog.gen import (
    MAX_DEPTH,
    MAX_NODES,
    FormulaGenerator,
    GeneratorError,
    corpus_abstractions,
    corpus_formulas,
    corpus_signature,
    random_formulas,
)
from intlog.semantics import World, check_diagram
from intlog.relalg import Particular, rel
from intlog.syntax import MAX_DEPTH as PARSE_MAX_DEPTH
from intlog.syntax import (
    Abstraction,
    Atom,
    Conj,
    ElemTerm,
    Exists,
    Neg,
    ParseError,
    PredicateSymbol,
    Variable,
    _depth,
    free_vars,
    format_formula,
    make_signature,
    parse_formula,
)

SIG = make_signature(preds=[("p", 1), ("q", 2)])
SIG_C = make_signature(preds=[("p", 1), ("q", 2)], consts=["c"])

A = Particular("a")
B = Particular("b")


def abstraction_args(f):
    """Every abstraction term used as an atom argument, recursively."""
    if isinstance(f, Atom):
        for t in f.args:
            if isinstance(t, Abstraction):
                yield t
                yield from abstraction_args(t.body)
    elif isinstance(f, (Neg, Exists)):
        yield from abstraction_args(f.sub)
    elif isinstance(f, Conj):
        yield from abstraction_args(f.left)
        yield from abstraction_args(f.right)


def test_deterministic_per_seed():
    first = random_formulas(SIG, 50, seed=7, elem_names=("a", "b"))
    second = random_formulas(SIG, 50, seed=7, elem_names=("a", "b"))
    assert first == second
    other = random_formulas(SIG, 50, seed=8, elem_names=("a", "b"))
    assert first != other


def test_round_trips_through_the_printer():
    for f in random_formulas(SIG_C, 60, seed=3, elem_names=("a", "b")):
        assert parse_formula(format_formula(f), SIG_C) == f


def test_variables_stay_in_pool():
    for f in random_formulas(SIG, 80, seed=11):
        assert set(free_vars(f)) <= {"x", "y", "z"}


def test_argument_abstractions_are_beta_closed():
    found = 0
    for f in random_formulas(SIG, 80, seed=5, abs_prob=0.6):
        for t in abstraction_args(f):
            found += 1
            assert t.beta == ()
            assert set(t.alpha) == set(free_vars(t.body))
    assert found > 5


def test_abs_prob_zero_means_no_abstractions():
    for f in random_formulas(SIG, 60, seed=2, abs_prob=0.0):
        assert not list(abstraction_args(f))


@pytest.mark.parametrize("name", ["1", "a,b", "#a"])
def test_element_names_are_literal_names(name):
    with pytest.raises(GeneratorError, match=f"^bad element name {name!r}:"):
        FormulaGenerator(SIG, elem_names=("a", name))


def test_depth_zero_gives_plain_atoms():
    for f in random_formulas(SIG, 40, seed=9, depth=0):
        assert isinstance(f, Atom)
        assert not list(abstraction_args(f))


def test_parameter_validation():
    with pytest.raises(ValueError, match="depth"):
        FormulaGenerator(SIG, depth=-1)
    with pytest.raises(ValueError, match="abs_prob"):
        FormulaGenerator(SIG, abs_prob=1.5)
    with pytest.raises(ValueError, match="no predicates"):
        FormulaGenerator(make_signature())
    with pytest.raises(GeneratorError, match=f"\\[0, {MAX_DEPTH}\\]"):
        FormulaGenerator(SIG, depth=MAX_DEPTH + 1)


class _PathGenerator(FormulaGenerator):
    """Only one-operand connectives and, over a unary predicate, atoms
    with one argument, so even a formula of full depth is a single path
    from root to leaf."""

    _KINDS = ("atom", "neg", "exists", "forall")
    _WEIGHTS = (1, 1, 1, 6)


class _ForallGenerator(FormulaGenerator):
    """Always `forall`, one of the deepest expansions a budget unit has."""

    _KINDS = ("forall",)
    _WEIGHTS = (1,)


@pytest.mark.parametrize("seed", range(5))
def test_max_depth_formulas_stay_within_the_parser_limit(seed):
    sig = make_signature(preds=[("p", 1)])
    w = World("w", (A,), {}, {PredicateSymbol("p", 1): rel(1, [(A,)])})
    gen = _PathGenerator(sig, seed=seed, depth=MAX_DEPTH, abs_prob=1.0)
    for f in gen.formulas(5):
        assert _depth(f) <= PARSE_MAX_DEPTH
        assert parse_formula(format_formula(f), sig) == f
        # both routes walk it
        assert check_diagram(f, w).ok


def test_max_depth_is_the_largest_safe_budget():
    gen = _ForallGenerator(SIG, seed=0, depth=MAX_DEPTH, abs_prob=0.0)
    f = gen.formula()
    assert _depth(f) <= PARSE_MAX_DEPTH
    assert parse_formula(format_formula(f), SIG) == f
    w = World("w", (A,), {}, {PredicateSymbol("p", 1): rel(1, [(A,)]),
                              PredicateSymbol("q", 2): rel(2, [])})
    assert check_diagram(f, w).ok
    # one unit more is too deep for the parser, whatever the leaf
    assert _depth(gen.formula(MAX_DEPTH + 1)) > PARSE_MAX_DEPTH


class _ConjGenerator(FormulaGenerator):
    """Always `&`, so a formula of depth d has 2^(d+1) - 1 nodes."""

    _KINDS = ("conj",)
    _WEIGHTS = (1,)


def test_formula_size_is_bounded():
    # depth 18 would take five times MAX_NODES
    assert 2 ** 19 > 5 * MAX_NODES
    gen = _ConjGenerator(SIG, seed=0, depth=18, abs_prob=0.0)
    with pytest.raises(GeneratorError, match=f"past {MAX_NODES} nodes.*--depth"):
        gen.formula()
    # the count starts afresh for every top-level formula
    small = _ConjGenerator(SIG, seed=0, depth=10, abs_prob=0.0)
    assert len(small.formulas(100)) == 100


class TestCorpus:
    def test_sizes(self):
        assert len(corpus_formulas()) >= 200
        assert len(corpus_abstractions()) >= 50

    def test_a_line_that_is_no_abstraction_term_is_named(self, monkeypatch):
        sig = corpus_signature()
        monkeypatch.setattr(gen, "data_text", lambda name: "<< p(x) >>_{x}\n#a\n")
        message = r"^abstractions\.txt:2: not an abstraction term: '#a'$"
        with pytest.raises(ParseError, match=message):
            corpus_abstractions(sig)

    def test_formulas_parse_and_stay_small(self):
        for f in corpus_formulas():
            assert set(free_vars(f)) <= {"x", "y", "z"}

    def test_connective_coverage(self):
        lines = [
            s
            for s in resources.files("intlog")
            .joinpath("data", "formulas.txt")
            .read_text()
            .splitlines()
            if s.strip() and not s.strip().startswith("#")
        ]
        text = "\n".join(lines)
        for token in ["&", "|", "->", "<->", "~", "exists1", "exists", "forall",
                      "true", "==", "<<", "#a", "#b"]:
            assert token in text, token

    def test_repeated_variable_and_ground_argument_atoms(self):
        sig = corpus_signature()
        repeated = ground_arg = False
        for f in corpus_formulas(sig):
            for atom in _atoms_of(f):
                names = [t.name for t in atom.args if isinstance(t, Variable)]
                if len(names) != len(set(names)):
                    repeated = True
                if any(isinstance(t, ElemTerm) for t in atom.args):
                    ground_arg = True
        assert repeated and ground_arg

    def test_argument_abstractions_beta_closed(self):
        for f in corpus_formulas():
            for t in abstraction_args(f):
                assert t.beta == ()

    def test_abstraction_categories(self):
        ts = corpus_abstractions()
        assert any(not t.alpha and t.beta for t in ts)
        assert any(t.alpha and not t.beta for t in ts)
        assert any(t.alpha and t.beta for t in ts)
        assert any(not t.alpha and not t.beta for t in ts)


def _atoms_of(f):
    if isinstance(f, Atom):
        yield f
        for t in f.args:
            if isinstance(t, Abstraction):
                yield from _atoms_of(t.body)
    elif isinstance(f, (Neg, Exists)):
        yield from _atoms_of(f.sub)
    elif isinstance(f, Conj):
        yield from _atoms_of(f.left)
        yield from _atoms_of(f.right)


def test_generated_formulas_commute_on_sample_worlds():
    P, Q = PredicateSymbol("p", 1), PredicateSymbol("q", 2)
    worlds = [
        World("s0", (A, B), {}, {P: rel(1, [(A,)]), Q: rel(2, [(A, B), (B, B)])}),
        World("s1", (A, B), {}, {P: rel(1, []), Q: rel(2, [(B, A)])}),
    ]
    for f in random_formulas(SIG, 30, seed=21, elem_names=("a", "b")):
        for w in worlds:
            assert check_diagram(f, w).ok, format_formula(f)
