"""Acceptance gate: the product-level checks, one test per criterion.

Each test prints a single `criterion N (...): PASS` line when its
assertions hold (run with -s to see them).  Everything runs over the
exhaustive 64-world enumeration of {p/1, q/2} on the two-element
domain {a, b}, plus small dedicated fixtures where a criterion needs
different predicates.
"""
import itertools
import random
import time
from contextlib import contextmanager

import pytest

from intlog.concepts import conj, neg, necess, union_concepts
from intlog.files import load_world_set
from intlog.gen import corpus_abstractions, corpus_formulas, corpus_signature, random_formulas
from intlog.relalg import (
    complement,
    f_truth,
    join_spec_ok,
    natural_join,
    project_out,
    project_out_many,
    rel,
    rel_equiv,
)
from intlog.semantics import (
    World,
    check_diagram,
    check_tarski_constraint,
    eval_formula,
    extensionalize,
    interpret,
    tarski_eval,
)
from intlog.syntax import (
    PredicateSymbol,
    free_vars,
    make_signature,
    parse_formula,
    parse_term,
)
from intlog.worlds import (
    box_extension,
    diamond_extension,
    enumerate_worlds,
    strong_equiv,
)

A, B = None, None  # bound in ws64 fixture; elements of the shared domain

SIG = corpus_signature()
RANDOM_SWEEP = 1000
SWEEP_SEED = 101


@contextmanager
def criterion(n, label):
    try:
        yield
    except BaseException:
        print(f"criterion {n} ({label}): FAIL")
        raise
    print(f"criterion {n} ({label}): PASS")


@pytest.fixture(scope="module")
def ws64():
    ws = enumerate_worlds(SIG, ["a", "b"])
    global A, B
    names = ws.worlds[0].element_names
    A, B = names["a"], names["b"]
    return ws


@pytest.fixture(scope="module")
def sweep_formulas():
    fs = list(corpus_formulas(SIG))
    assert len(fs) >= 200
    fs += random_formulas(
        SIG, RANDOM_SWEEP, seed=SWEEP_SEED, depth=3, abs_prob=0.2,
        elem_names=("a", "b"),
    )
    return fs


def test_criterion_1_diagram_sweep(ws64, sweep_formulas):
    with criterion(1, "diagram commutation sweep"):
        started = time.monotonic()
        pairs = 0
        for w in ws64:
            for f in sweep_formulas:
                report = check_diagram(f, w)
                assert report.ok, str(report)
                pairs += 1
            w.clear_memo()
        elapsed = time.monotonic() - started
        assert pairs == len(sweep_formulas) * 64
        assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"


def test_criterion_2_tarski_constraint(ws64, sweep_formulas):
    with criterion(2, "grounding biconditional, exhaustive assignments"):
        checked = 0
        for w in ws64:
            dom = w.sorted_domain()
            for f in sweep_formulas:
                fv = free_vars(f)
                space = len(dom) ** len(fv)
                assert space <= 8, f"{f} has too many free variables for the sweep"
                for combo in itertools.product(dom, repeat=len(fv)):
                    g = dict(zip(fv, combo))
                    assert check_tarski_constraint(f, g, w), f"{f} under {g} @ {w.name}"
                    checked += 1
            w.clear_memo()
        assert checked > 0


def test_criterion_3_abstraction_projection(ws64):
    terms = corpus_abstractions(SIG)
    assert len(terms) >= 50
    cats = {
        "alpha_empty": sum(1 for t in terms if not t.alpha and t.beta),
        "beta_empty": sum(1 for t in terms if t.alpha and not t.beta),
        "both": sum(1 for t in terms if t.alpha and t.beta),
    }
    assert all(cats.values()), cats
    with criterion(3, "abstraction extension is the beta projection"):
        for w in ws64:
            for t in terms:
                via_union = eval_formula(t, w)
                body = tarski_eval(t.body, w)
                via_proj = project_out_many(body, t.beta) if t.beta else body
                assert via_union.same_tuples(via_proj), f"{t} @ {w.name}"
                if via_union.attrs and via_proj.attrs:
                    assert rel_equiv(via_union, via_proj), f"{t} @ {w.name}"
            w.clear_memo()


def test_criterion_4a_join_attribute_ordering(ws64):
    with criterion(4, "worked examples: join ordering, empty concept, "
                      "quantifier collapse, bought/sold"):
        sig5 = make_signature(preds=[("p", 5), ("q", 4)])
        f = parse_formula("p(x_i, x_j, x_k, x_l, x_m) & q(x_l, y_i, x_j, y_j)", sig5)
        expected = ("x_i", "x_j", "x_k", "x_l", "x_m", "y_i", "y_j")
        assert free_vars(f) == expected
        u = interpret(f)
        assert u.kind == "conj" and u.s == frozenset({(4, 1), (2, 3)})
        assert u.degree == 7

        r1 = rel(5, [(A, A, B, A, B)], attrs=("x_i", "x_j", "x_k", "x_l", "x_m"))
        r2 = rel(4, [(A, B, A, A), (B, B, A, B)], attrs=("x_l", "y_i", "x_j", "y_j"))
        joined = natural_join(r1, r2, {(4, 1), (2, 3)})
        assert joined.attrs == expected
        assert joined.tuples == {(A, A, B, A, B, B, A)}

        w = World(
            "join", [A, B],
            pred_map={PredicateSymbol("p", 5): r1.with_attrs(None),
                      PredicateSymbol("q", 4): r2.with_attrs(None)},
        )
        out = eval_formula(f, w)
        assert out.attrs == expected
        assert out.tuples == joined.tuples

        _criterion_4b(ws64)
        _criterion_4c(ws64)
        _criterion_4d()


def _criterion_4b(ws64):
    t = parse_term("<< p(x) & ~p(x) >>_{}^{x}", SIG)
    for w in ws64:
        r = extensionalize(interpret(t, w), w)
        assert r.arity == 0 and not r.tuples, w.name


def _criterion_4c(ws64):
    cases = [
        ("<< p(x) >>_{}^{x}", "exists x . p(x)"),
        ("<< q(x, y) >>_{}^{x,y}", "exists x . exists y . q(x, y)"),
    ]
    for term_text, formula_text in cases:
        t = parse_term(term_text, SIG)
        f = parse_formula(formula_text, SIG)
        for w in ws64:
            lhs = extensionalize(interpret(t, w), w)
            rhs = extensionalize(interpret(f, w), w)
            assert lhs.arity == rhs.arity == 0
            assert lhs.tuples == rhs.tuples, (term_text, w.name)


BOUGHT_SOLD = """\
worlds
domain a b
world m1
rel bought/2 = (a,b)
rel sold/2 = (a,b)
world m2
rel bought/2 = (b,a) (b,b)
rel sold/2 = (b,a) (b,b)
world m3
rel bought/2 =
rel sold/2 =
"""


def _criterion_4d():
    sig = make_signature(preds=[("bought", 2), ("sold", 2)])
    ws = load_world_set(BOUGHT_SOLD, sig)
    t1 = parse_term("<< bought(x, y) >>_{x,y}", sig)
    t2 = parse_term("<< sold(x, y) >>_{x,y}", sig)
    report = strong_equiv(t1, t2, {}, ws)
    assert report.equivalent and not report.same_concept
    u1 = interpret(t1)
    u2 = interpret(t2)
    assert u1.cid != u2.cid


DEGREE_POOLS = {
    1: [
        "p(x)",
        "~p(x)",
        "q(x, x)",
        "~q(x, x)",
        "exists y . q(x, y)",
        "exists y . q(y, x)",
        "exists y . (q(x, y) & p(y))",
        "p(x) & ~q(x, x)",
    ],
    2: [
        "q(x, y)",
        "~q(x, y)",
        "q(y, x)",
        "q(x, y) & p(x)",
        "q(x, y) | q(y, x)",
        "~(q(x, y) & q(y, x))",
        "q(x, x) & p(y)",
        "p(x) & p(y)",
    ],
}


def _diagonal_union_expansion(bs):
    """The same union through complements and an all-columns join."""
    k = bs[0].degree
    s = frozenset((i, i) for i in range(1, k + 1))
    acc = neg(bs[0])
    for b in bs[1:]:
        acc = conj(s, acc, neg(b))
    return neg(acc)


def test_criterion_5_union_law(ws64):
    with criterion(5, "union extension law against the join expansion"):
        rng = random.Random(77)
        for _ in range(100):
            d = rng.choice((1, 2))
            size = rng.randint(1, 4)
            bs = [
                interpret(parse_formula(rng.choice(DEGREE_POOLS[d]), SIG))
                for _ in range(size)
            ]
            u = union_concepts(bs)
            expanded = _diagonal_union_expansion(bs)
            assert expanded.degree == u.degree == d
            for w in ws64:
                direct = extensionalize(u, w).tuples
                pieces = frozenset().union(*(extensionalize(b, w).tuples for b in bs))
                via_expansion = extensionalize(expanded, w).tuples
                assert direct == pieces == via_expansion
        ws64.clear_memos()


MODAL_POOL = [
    "p(x)",
    "~p(x)",
    "q(x, y)",
    "q(x, x)",
    "p(x) & q(x, y)",
    "exists y . q(x, y)",
    "p(x) | ~p(x)",
    "p(x) & ~p(x)",
    "exists x . p(x)",
    "q(x, y) -> p(x)",
]


def test_criterion_6_modal_laws(ws64):
    with criterion(6, "box/diamond bounds, duality, necess rigidity"):
        for text in MODAL_POOL:
            u = interpret(parse_formula(text, SIG))
            box = box_extension(u, ws64)
            dia = diamond_extension(u, ws64)
            for w in ws64:
                ext = extensionalize(u, w).tuples
                assert box.tuples <= ext <= dia.tuples, (text, w.name)
            dual = complement(box_extension(neg(u), ws64), ws64.domain)
            assert dia.same_tuples(dual), text
            rigid = necess(u)
            fixed = {extensionalize(rigid, w).tuples for w in ws64}
            assert fixed == {box.tuples}, text
        ws64.clear_memos()


def _all_relations(domain, arity):
    space = list(itertools.product(domain, repeat=arity))
    for bits in range(1 << len(space)):
        yield rel(arity, [space[i] for i in range(len(space)) if bits >> i & 1])


def test_criterion_7_relalg_laws(ws64):
    with criterion(7, "relational algebra laws, exhaustive over {a,b}"):
        domain = [A, B]
        by_arity = {k: list(_all_relations(domain, k)) for k in (0, 1, 2)}
        assert [len(v) for v in by_arity.values()] == [2, 4, 16]

        for rs in by_arity.values():
            for r in rs:
                assert complement(complement(r, domain), domain) == r
                assert f_truth(f_truth(r)) == f_truth(r)

        for k, j in itertools.product((1, 2), repeat=2):
            pairs = list(itertools.product(range(1, k + 1), range(1, j + 1)))
            specs = [
                set(c)
                for n in range(1, len(pairs) + 1)
                for c in itertools.combinations(pairs, n)
                if join_spec_ok(c, k, j)
            ]
            assert specs
            for r1 in by_arity[k]:
                for r2 in by_arity[j]:
                    for s in specs:
                        assert natural_join(r1, r2, s).arity == k + j - len(s)

        for bare in by_arity[2]:
            r = bare.with_attrs(("y1", "y2"))
            both = project_out_many(r, ("y1", "y2"))
            assert both.same_tuples(project_out(project_out(r, 1), 1))
            assert both.same_tuples(project_out(project_out(r, 2), 1))
            assert both == project_out_many(r, ("y2", "y1"))
            first = project_out_many(r, ("y1",))
            assert first.same_tuples(project_out(r, 1))
            assert first.attrs == ("y2",)
