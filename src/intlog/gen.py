"""Seeded random formula generation for sweeps and corpus building.

All randomness flows through one private random.Random, so a
(signature, seed, shape) triple pins the exact output sequence across
runs and platforms.  Abstraction terms generated as atom arguments are
always beta-closed: every free variable of the body is abstracted.
Open beta lists make an argument's denotation assignment-relative,
which the diagram sweeps deliberately avoid.
"""
import random
from typing import Iterable, List, Sequence

from .errors import IntlogError
from .files import corpus_lines, data_text, load_formulas, load_signature
from .syntax import (
    Abstraction,
    Atom,
    Conj,
    Constant,
    ElemTerm,
    Exists,
    Formula,
    ID_PRED,
    MAX_DEPTH as PARSE_MAX_DEPTH,
    Neg,
    PredicateSymbol,
    Signature,
    TRUE_PRED,
    Term,
    Variable,
    check_element_name,
    make_abstraction,
    mk_forall,
    mk_implies,
    mk_or,
    parse_term,
)


#: The largest depth budget the generator takes.  One unit adds at most
#: three nodes to a root-to-leaf path of the desugared tree (`forall`,
#: `|` and `->` each expand to three nodes above their operand; an atom
#: holding an abstraction argument adds two, the atom and the
#: abstraction), and a budget-0 atom is two deep (the atom and its
#: term).  A formula of depth d is therefore at most 3d + 2 deep, which
#: keeps every generated formula within the parser's MAX_DEPTH.
MAX_DEPTH = (PARSE_MAX_DEPTH - 2) // 3

#: The most formula nodes one top-level formula may take (a derived
#: connective counts once).  Depth alone does not bound size: formulas
#: of depth 30 can reach about 15,000 nodes, and the count grows about
#: six-fold per ten levels.
MAX_NODES = 100_000

#: The variables generated formulas use.
VAR_POOL = ("x", "y", "z")


class GeneratorError(IntlogError, ValueError):
    """A generator parameter is out of range, the signature gives the
    generator nothing to build atoms from, or a formula grows too large."""


class FormulaGenerator:
    """Random well-formed formulas over a signature.

    depth bounds the connective nesting budget (derived connectives
    spend one unit and expand afterwards) and lies in [0, MAX_DEPTH];
    abs_prob is the chance that an argument position holds a reified
    abstraction instead of a base term, while budget remains.  A formula
    that grows past MAX_NODES raises GeneratorError.
    """

    def __init__(
        self,
        sig: Signature,
        seed: int = 0,
        depth: int = 3,
        abs_prob: float = 0.2,
        elem_names: Sequence[str] = (),
    ):
        if not 0 <= depth <= MAX_DEPTH:
            raise GeneratorError(f"depth must lie in [0, {MAX_DEPTH}], got {depth}")
        if not 0.0 <= abs_prob <= 1.0:
            raise GeneratorError("abs_prob must lie in [0, 1]")
        self.sig = sig
        self.depth = depth
        self.abs_prob = abs_prob
        self.preds = [PredicateSymbol(n, a) for n, a in sorted(sig.preds)]
        if not self.preds:
            raise GeneratorError("the signature declares no predicates")
        self.consts = sorted(sig.consts)
        self.elem_terms = tuple(
            ElemTerm(check_element_name(n, GeneratorError)) for n in elem_names
        )
        self.rng = random.Random(seed)
        self._nodes = 0

    # -- terms --------------------------------------------------------

    def base_term(self) -> Term:
        roll = self.rng.random()
        if self.consts and roll < 0.15:
            return Constant(self.rng.choice(self.consts))
        if self.elem_terms and roll < 0.3:
            return self.rng.choice(self.elem_terms)
        return Variable(self.rng.choice(VAR_POOL))

    def term(self, budget: int) -> Term:
        if budget > 0 and self.rng.random() < self.abs_prob:
            return self.abstraction_argument(budget - 1)
        return self.base_term()

    def abstraction_argument(self, budget: int) -> Abstraction:
        body = self.formula(budget)
        alpha = list(body.fv)
        self.rng.shuffle(alpha)
        return make_abstraction(body, alpha)

    # -- formulas -----------------------------------------------------

    def atom(self, budget: int) -> Formula:
        roll = self.rng.random()
        if roll < 0.05:
            return Atom(TRUE_PRED)
        if roll < 0.18:
            return Atom(ID_PRED, (self.base_term(), self.base_term()))
        pred = self.rng.choice(self.preds)
        return Atom(pred, tuple(self.term(budget) for _ in range(pred.arity)))

    _KINDS = ("atom", "neg", "conj", "exists", "forall", "or", "impl")
    _WEIGHTS = (4, 3, 3, 3, 2, 2, 2)

    def formula(self, budget: int = None) -> Formula:
        """A random formula; without a budget, a new top-level one."""
        if budget is None:
            budget = self.depth
            self._nodes = 0
        self._nodes += 1
        if self._nodes > MAX_NODES:
            raise GeneratorError(
                f"a random formula grew past {MAX_NODES} nodes; use a smaller --depth"
            )
        if budget == 0:
            return self.atom(0)
        kind = self.rng.choices(self._KINDS, weights=self._WEIGHTS)[0]
        if kind == "atom":
            return self.atom(budget)
        if kind == "neg":
            return Neg(self.formula(budget - 1))
        if kind == "conj":
            return Conj(self.formula(budget - 1), self.formula(budget - 1))
        if kind == "exists":
            return Exists(self.rng.choice(VAR_POOL), self.formula(budget - 1))
        if kind == "forall":
            return mk_forall(self.rng.choice(VAR_POOL), self.formula(budget - 1))
        if kind == "or":
            return mk_or(self.formula(budget - 1), self.formula(budget - 1))
        return mk_implies(self.formula(budget - 1), self.formula(budget - 1))

    def formulas(self, n: int) -> List[Formula]:
        return [self.formula() for _ in range(n)]


def random_formulas(
    sig: Signature,
    n: int,
    seed: int = 0,
    depth: int = 3,
    abs_prob: float = 0.2,
    elem_names: Iterable[str] = (),
) -> List[Formula]:
    gen = FormulaGenerator(
        sig, seed=seed, depth=depth, abs_prob=abs_prob, elem_names=tuple(elem_names)
    )
    return gen.formulas(n)


# ---------------------------------------------------------------------------
# the bundled corpus
# ---------------------------------------------------------------------------

def corpus_signature() -> Signature:
    return load_signature(data_text("corpus_sig.txt"))


def corpus_formulas(sig: Signature = None) -> List[Formula]:
    """The bundled formula corpus, parsed against the corpus signature
    (or a caller-provided superset of it)."""
    sig = sig if sig is not None else corpus_signature()
    return load_formulas(data_text("formulas.txt"), sig, "formulas.txt")


def corpus_abstractions(sig: Signature = None) -> List[Abstraction]:
    """The bundled abstraction-term corpus."""
    sig = sig if sig is not None else corpus_signature()
    out = []
    for s in corpus_lines("abstractions.txt"):
        t = parse_term(s, sig)
        if not isinstance(t, Abstraction):
            raise IntlogError(f"corpus line is not an abstraction term: {s!r}")
        out.append(t)
    return out
