"""A table of one-line bugs in the compiled route, each caught by a
committed check.

Every mutant monkeypatches one name that the compiled route (`interpret`,
then `extensionalize`) looks up, and is run only against the check named
for it in the table; that check must report a mismatch.  The checks are
the corpus parts of the acceptance criteria over the 64 worlds of
{p/1, q/2} on {a, b}: the criterion-1 diagram sweep, the same sweep
keeping the extension memo across worlds, a sweep of formulas with a
constant (the corpus has none), the criterion-3 comparison of an
abstraction's extension with the beta projection of its body, and a
modal sweep of criterion 6's pool under `Box` and `Diamond`.  The
reify sweep checks the corpus formulas with an abstraction term over
the 64 worlds on {a, b} where b is the reified concept of p: there an
atom with an abstraction argument can hold, while over particulars
alone it is false by both routes.  A check stops at its first
mismatch, so a caught mutant costs little.
"""
from functools import lru_cache
from types import SimpleNamespace

import pytest
from test_acceptance import MODAL_POOL

from intlog import relalg, semantics
from intlog.concepts import exists, union_concepts
from intlog.gen import corpus_abstractions, corpus_formulas, corpus_signature
from intlog.relalg import (
    ConceptHandle,
    complement,
    join_plan,
    natural_join,
    project_out,
    project_out_many,
)
from intlog.semantics import (
    atom_row,
    check_diagram,
    eval_formula,
    interpret,
    tarski_eval,
)
from intlog.syntax import (
    ID_PRED,
    Abstraction,
    Box,
    Conj,
    Constant,
    Diamond,
    ElemTerm,
    format_formula,
    make_signature,
    parse_formula,
    parse_term,
)
from intlog.worlds import WorldSet, diamond_extension, enumerate_worlds

SIG = corpus_signature()
SIG_C = make_signature(preds=[("p", 1), ("q", 2)], consts=["c"])
CONSTANT_FORMULAS = ("p(c)", "q(c, x)", "q(x, c)", "exists x . q(x, c) & ~p(c)")

_term_element = semantics._term_element


@lru_cache(maxsize=None)
def corpus_worlds():
    return enumerate_worlds(SIG, ["a", "b"])


@lru_cache(maxsize=None)
def constant_worlds():
    return enumerate_worlds(SIG_C, ["a", "b"], {"c": "a"})


@lru_cache(maxsize=None)
def reified_worlds():
    # named b, so the corpus's #b literals resolve to the handle
    p = interpret(parse_term("<< p(x) >>_{x}", SIG))
    return enumerate_worlds(SIG, ["a", ConceptHandle(p.cid, "b")])


# ---------------------------------------------------------------------------
# the checks: each returns the 1-based number of its first mismatch, or None
# ---------------------------------------------------------------------------

def first_mismatch(ws, formulas, keep_memo=False):
    n = 0
    for w in ws:
        for f in formulas:
            n += 1
            if not check_diagram(f, w).ok:
                return n
        if not keep_memo:
            w.clear_memo()
    return None


def diagram_sweep():
    return first_mismatch(corpus_worlds(), corpus_formulas(SIG))


def diagram_sweep_keeping_the_memo():
    return first_mismatch(corpus_worlds(), corpus_formulas(SIG), keep_memo=True)


def constant_sweep():
    formulas = [parse_formula(t, SIG_C) for t in CONSTANT_FORMULAS]
    return first_mismatch(constant_worlds(), formulas)


def reify_sweep():
    formulas = [f for f in corpus_formulas(SIG) if "<<" in format_formula(f)]
    return first_mismatch(reified_worlds(), formulas)


def modal_sweep():
    pool = [parse_formula(t, SIG) for t in MODAL_POOL]
    px, some_q = parse_formula("p(x)", SIG), parse_formula("exists y . q(x, y)", SIG)
    formulas = [Box(f) for f in pool] + [Diamond(f) for f in pool]
    formulas += [Box(Diamond(px)), Conj(px, Box(some_q))]
    return first_mismatch(corpus_worlds(), formulas)


def abstraction_projection():
    n = 0
    for w in corpus_worlds():
        for t in corpus_abstractions(SIG):
            n += 1
            body = tarski_eval(t.body, w)
            via_projection = project_out_many(body, t.beta) if t.beta else body
            if not eval_formula(t, w).same_tuples(via_projection):
                return n
        w.clear_memo()
    return None


# ---------------------------------------------------------------------------
# the mutants
# ---------------------------------------------------------------------------

def join_drops_an_index_pair(mp):
    mp.setattr(semantics, "natural_join", lambda r1, r2, s: natural_join(r1, r2, sorted(s)[1:]))


def intersection_takes_any_covering_pairs(mp):
    # a pair set over every column of both sides, such as the transposed
    # {(1, 2), (2, 1)}, is planned as an intersection
    def plan(s, k, j):
        p = join_plan(s, k, j)
        covers = p.shape == "semijoin" and k == j and len({i1 for i1, _ in s}) == k
        return p._replace(shape="intersection") if covers else p

    mp.setattr(relalg, "join_plan", plan)


def semijoin_filters_the_right_rows(mp):
    # the semijoin keeps r2's rows whose key lies in r1, as the
    # extension does, instead of r1's rows whose key lies in r2
    def join(r1, r2, s):
        out = natural_join(r1, r2, s)
        plan = join_plan(frozenset(s), r1.arity, r2.arity)
        if plan.shape != "semijoin":
            return out
        return out._replace(tuples=frozenset(t for t in r2.tuples if plan.key2(t) in r1.tuples))

    mp.setattr(semantics, "natural_join", join)


def complement_leaves_out_its_least_tuple(mp):
    mp.setattr(semantics, "complement", lambda r, d: (c := complement(r, d))._replace(
        tuples=c.tuples - set(c.sorted_tuples()[:1])))


def project_out_removes_the_wrong_column(mp):
    mp.setattr(semantics, "project_out", lambda r, m: project_out(r, m % r.arity + 1))


def atom_ignores_a_repeated_slot(mp):
    mp.setattr(semantics, "atom_row", lambda u, row: atom_row(
        SimpleNamespace(pattern=u.pattern and (u.pattern[0], (), u.pattern[2])), row))


def exists_quantifies_the_wrong_slot(mp):
    mp.setattr(semantics, "exists", lambda n, u: exists(n % u.degree + 1 if n else n, u))


def corrupt_each_member(mp, ws, corrupt):
    """An enumerated set builds each member when it is asked for, so a
    mutant that corrupts members corrupts each one as it is built."""
    build = ws.member

    def corrupted(i):
        w = build(i)
        corrupt(w)
        return w

    mp.setattr(ws, "member", corrupted)


def memo_key_ignores_the_relations(mp):
    def corrupt(w):
        w._relations = dict.fromkeys(w._relations)

    corrupt_each_member(mp, corpus_worlds(), corrupt)


def identity_relation_drops_a_pair(mp):
    # caught because the reference decides `==` by element equality,
    # not through the relation the world carries
    def corrupt(w):
        ident = w.pred_map[ID_PRED]
        wrong = ident._replace(tuples=ident.tuples - set(ident.sorted_tuples()[:1]))
        w.pred_map[ID_PRED] = wrong
        w._relations[ID_PRED] = wrong.tuples

    corrupt_each_member(mp, corpus_worlds(), corrupt)


def union_drops_a_member(mp):
    mp.setattr(semantics, "union_concepts", lambda bs: union_concepts(bs[1:] or bs))


def literal_a_resolves_to_b(mp):
    mp.setattr(semantics, "_term_element", lambda t, w: w.element_names["b"] if isinstance(
        t, ElemTerm) and t.name == "a" else _term_element(t, w))


def constant_resolves_to_b(mp):
    mp.setattr(semantics, "_term_element", lambda t, w: w.element_names["b"] if isinstance(
        t, Constant) else _term_element(t, w))


def abstraction_argument_is_the_wrong_concept(mp):
    mp.setattr(semantics, "_term_element", lambda t, w: ConceptHandle(
        _term_element(t, w).cid + 1) if isinstance(t, Abstraction) else _term_element(t, w))


def necess_takes_the_union(mp):
    mp.setattr(WorldSet, "box_extension", lambda ws, u: diamond_extension(u, ws))


def necess_is_the_identity(mp):
    mp.setattr(semantics, "necess", lambda u: u)


MUTANTS = [
    (join_drops_an_index_pair, diagram_sweep),
    (intersection_takes_any_covering_pairs, diagram_sweep),
    (semijoin_filters_the_right_rows, diagram_sweep),
    (complement_leaves_out_its_least_tuple, diagram_sweep),
    (project_out_removes_the_wrong_column, diagram_sweep),
    (atom_ignores_a_repeated_slot, diagram_sweep),
    (exists_quantifies_the_wrong_slot, diagram_sweep),
    (memo_key_ignores_the_relations, diagram_sweep_keeping_the_memo),
    (identity_relation_drops_a_pair, diagram_sweep),
    (union_drops_a_member, abstraction_projection),
    (literal_a_resolves_to_b, diagram_sweep),
    (constant_resolves_to_b, constant_sweep),
    (abstraction_argument_is_the_wrong_concept, reify_sweep),
    (necess_takes_the_union, modal_sweep),
    (necess_is_the_identity, modal_sweep),
]


@pytest.fixture
def fresh_memos():
    """Empty memos around a test, so no result computed by the correct
    route hides a mutant, and none computed by a mutant outlives it."""
    sets = (corpus_worlds(), constant_worlds(), reified_worlds())
    for ws in sets:
        ws.clear_memos()
    yield
    for ws in sets:
        ws.clear_memos()


@pytest.mark.parametrize("mutant,check", MUTANTS, ids=lambda fn: fn.__name__)
def test_check_catches_mutant(mutant, check, monkeypatch, fresh_memos):
    mutant(monkeypatch)
    assert check() is not None


@pytest.mark.parametrize(
    "check",
    [diagram_sweep_keeping_the_memo, constant_sweep, reify_sweep, modal_sweep],
    ids=lambda fn: fn.__name__,
)
def test_check_passes_without_a_mutant(check, fresh_memos):
    # the other two checks run unmutated as acceptance criteria 1 and 3
    assert check() is None
