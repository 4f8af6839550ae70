"""The three benchmark workloads.

Each workload builds its inputs from a seed in ``setup`` and runs its ops
in ``sweep``, timing every op through an ``OpClock``, checking every op,
and hashing its outputs into a digest.  Library functions are always
called through their module (``semantics.check_diagram``), never through
a name imported here, so that the tracer's rebinding reaches them.

Why each workload exists (see NOTES.md for the layer table):

- diagram_d2: the central claim as users run it, the CLI sweep of the
  bundled corpus plus random formulas over all 64 worlds on {a, b}.
  Relations hold at most 8 tuples, so time goes to compiling, the
  reference and the CLI loop; relational-kernel work should not move it.
- ground_d2: the grounding biconditional for every assignment; dominated
  by ground/substitute and re-interpreting each grounded formula, which
  write new concepts where diagram_d2 mostly re-reads them.
- modal_d3: box, diamond, necess, strong/weak equivalence and Kripke
  cross-checks over all 4,096 worlds on {a, b, c}; the only workload
  where the worlds layer and memory dominate.
"""
import contextlib
import hashlib
import io
import itertools
import os
import random
import time

from intlog import cli, concepts, gen, relalg, semantics, syntax, worlds

SIG_PATH = os.path.join(os.path.dirname(gen.__file__), "data", "corpus_sig.txt")

# Seed of the inputs that decide how much work a sweep does: ground_d2's
# random formulas (how many assignments are checked, which formulas are
# the heavy ones) and modal_d3's beta assignments (an equivalence check
# takes 0.1 to 0.3 s depending on them).  Fixing them keeps a run's cost
# the same for every --seed; the seed draws the worlds and the Kripke world.
FIXED_SEED = 101

# Criterion 6's modal pool.
MODAL_POOL = (
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
)

SIZES = {
    "full": {
        "diagram_d2": {"corpus": None, "random": 100},
        "ground_d2": {"corpus": None, "random": 200, "worlds": 8},
        "modal_d3": {"domain": ("a", "b", "c"), "pool": None, "pair_stride": 3, "pairs": None},
    },
    "small": {
        "diagram_d2": {"corpus": 30, "random": 10},
        "ground_d2": {"corpus": 30, "random": 10, "worlds": 4},
        "modal_d3": {"domain": ("a", "b"), "pool": 4, "pair_stride": 1, "pairs": 6},
    },
}


class OpClock:
    """Times ops: ``call`` around a library call, or ``mark`` at each
    output record when the program owns the loop.  ``first`` is when the
    first op started (or, for marks, when the first record appeared)."""

    def __init__(self, tracer=None):
        self.latencies = []
        self.first = None
        self.last = None
        self.tracer = tracer

    def call(self, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        if self.first is None:
            self.first = t0
        self.latencies.append(t1 - t0)
        if self.tracer is not None:
            self.tracer.op_span(t0, t1)
        return out

    def mark(self):
        t = time.perf_counter()
        if self.first is None:
            self.first = t
        else:
            self.latencies.append(t - self.last)
            if self.tracer is not None:
                self.tracer.op_span(self.last, t)
        self.last = t


class Outcome:
    """What a sweep did: ops attempted and failed, the output digest and
    workload-specific facts worth reporting."""

    def __init__(self, attempted, failed, digest, **facts):
        self.attempted = attempted
        self.failed = failed
        self.digest = digest
        self.facts = facts


def _corpus_plus_random(sig, seed, corpus, n_random):
    fs = gen.corpus_formulas(sig)
    if corpus is not None:
        fs = fs[:corpus]
    return fs + gen.random_formulas(
        sig, n_random, seed=seed, depth=3, abs_prob=0.2, elem_names=("a", "b")
    )


def formula_line(f):
    """One formula as a formula-file line.  The file reader drops lines
    starting with '#' as comments, and identity atoms print with a
    leading literal ('#a == z'), so such lines are parenthesised."""
    line = syntax.format_formula(f)
    return f"({line})" if line.startswith("#") else line


class DiagramD2:
    name = "diagram_d2"

    def setup(self, seed, size, workdir):
        sig = gen.corpus_signature()
        fs = _corpus_plus_random(sig, seed, size["corpus"], size["random"])
        self.n_formulas = len(fs)
        self.path = os.path.join(workdir, f"diagram_d2-{os.getpid()}.formulas")
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write("".join(formula_line(f) + "\n" for f in fs))

    def sweep(self, clock):
        sink = _RecordSink(clock)
        argv = [
            "check-diagram", "--sig", SIG_PATH, "--enumerate", "a,b",
            "--formulas", self.path, "--format", "records",
        ]
        try:
            with contextlib.redirect_stdout(sink):
                rc = cli.main(argv)
        finally:
            os.unlink(self.path)
        expected = self.n_formulas * 64
        summary = sink.summary
        counts_ok = (
            rc in (0, 1)
            and summary.get("formulas") == str(self.n_formulas)
            and summary.get("pairs") == str(expected)
            and sink.diagram_records == expected
        )
        failed = sink.not_ok if counts_ok else expected
        return Outcome(
            expected, failed, sink.digest.hexdigest(),
            formulas_written=self.n_formulas,
            formulas_checked=int(summary.get("formulas", 0)),
            pairs_checked=int(summary.get("pairs", 0)),
            exit_code=rc,
            records=sink.records,
        )


class _RecordSink(io.TextIOBase):
    """In-memory stdout for the CLI: hashes the record stream, marks the
    op clock at every diagram record, counts records that are not ok and
    keeps the summary record's fields."""

    def __init__(self, clock):
        self.clock = clock
        self.digest = hashlib.sha256()
        self.partial = ""
        self.records = 0
        self.diagram_records = 0
        self.not_ok = 0
        self.summary = {}

    def writable(self):
        return True

    def write(self, s):
        self.digest.update(s.encode("utf-8"))
        if "\n" not in s:
            self.partial += s
            return len(s)
        *lines, self.partial = (self.partial + s).split("\n")
        for line in lines:
            self.records += 1
            if line.startswith("kind=diagram "):
                self.clock.mark()
                self.diagram_records += 1
                if " ok=true" not in line:
                    self.not_ok += 1
            elif line.startswith("kind=summary "):
                self.summary = dict(kv.split("=", 1) for kv in line.split()[1:])
        return len(s)


class GroundD2:
    name = "ground_d2"

    def setup(self, seed, size, workdir):
        sig = gen.corpus_signature()
        self.formulas = _corpus_plus_random(
            sig, FIXED_SEED, size["corpus"], size["random"]
        )
        # one seeded world from each of size["worlds"] equal strata of the
        # worlds ordered by tuple count, so every seed checks worlds of the
        # same sizes
        ws = sorted(
            worlds.enumerate_worlds(sig, ["a", "b"]).worlds,
            key=lambda w: (sum(len(r.tuples) for r in w.pred_map.values()), w.name),
        )
        rng = random.Random(seed)
        k = len(ws) // size["worlds"]
        self.worlds = [rng.choice(ws[i * k:(i + 1) * k]) for i in range(size["worlds"])]

    def sweep(self, clock):
        digest = hashlib.sha256()
        digest.update("\n".join(map(str, self.formulas)).encode())
        digest.update(" ".join(w.name for w in self.worlds).encode())
        results = bytearray()
        attempted = failed = 0
        for w in self.worlds:
            dom = w.sorted_domain()
            for f in self.formulas:
                fv = syntax.free_vars(f)
                for combo in itertools.product(dom, repeat=len(fv)):
                    attempted += 1
                    try:
                        ok = clock.call(
                            semantics.check_tarski_constraint, f, dict(zip(fv, combo)), w
                        )
                    except Exception:  # any exception is a failed op
                        ok = None
                    if ok is not True:
                        failed += 1
                    results.append(2 if ok is None else int(ok))
            w.clear_memo()
        digest.update(bytes(results))
        return Outcome(attempted, failed, digest.hexdigest())


class ModalD3:
    name = "modal_d3"

    def setup(self, seed, size, workdir):
        sig = gen.corpus_signature()
        self.ws = worlds.enumerate_worlds(sig, list(size["domain"]))
        pool = MODAL_POOL[: size["pool"]]
        self.pool = [syntax.parse_formula(t, sig) for t in pool]
        terms = gen.corpus_abstractions(sig)
        pairs = [
            (t1, t2) for t1, t2 in zip(terms, terms[1:]) if len(t1.alpha) == len(t2.alpha)
        ]
        # every pair_stride-th pair: the pairs run from trivial to a second
        # each, and all 32 of them would leave few repetitions per run
        self.pairs = pairs[:: size["pair_stride"]][: size["pairs"]]
        fixed = random.Random(FIXED_SEED)
        dom = self.ws.worlds[0].sorted_domain()
        self.pair_assignments = [
            {v: fixed.choice(dom) for v in sorted(set(t1.beta) | set(t2.beta))}
            for t1, t2 in self.pairs
        ]
        rng = random.Random(seed)
        self.kripke_world = self.ws.worlds[rng.randrange(len(self.ws))]

    def sweep(self, clock):
        digest = hashlib.sha256()
        attempted = failed = 0
        ws = self.ws
        dom = ws.worlds[0].sorted_domain()
        us = [semantics.interpret(f) for f in self.pool]
        per_world = [clock.call(_pool_extensions, us, w) for w in ws]
        attempted += len(per_world)
        for i, (f, u) in enumerate(zip(self.pool, us)):
            box = clock.call(worlds.box_extension, u, ws)
            dia = clock.call(worlds.diamond_extension, u, ws)
            nec = clock.call(semantics.extensionalize, concepts.necess(u), ws.worlds[0])
            attempted += 3
            bounded = all(box.tuples <= exts[i].tuples <= dia.tuples for exts in per_world)
            failed += (not bounded) + (nec.tuples != box.tuples)
            for r in (box, dia, nec):
                digest.update(relalg.format_relation(r).encode())
            fv = syntax.free_vars(f)
            for combo in itertools.product(dom, repeat=len(fv)):
                g = dict(zip(fv, combo))
                for wrapper, ext in ((worlds.Box, box), (worlds.Diamond, dia)):
                    attempted += 1
                    holds = clock.call(worlds.satisfies, ws, self.kripke_world, g, wrapper(f))
                    failed += holds != (combo in ext.tuples)
                    digest.update(b"1" if holds else b"0")
        for (t1, t2), g in zip(self.pairs, self.pair_assignments):
            strong = clock.call(worlds.strong_equiv, t1, t2, g, ws)
            weak = clock.call(worlds.weak_equiv, t1, t2, g, ws)
            attempted += 2
            # same concept implies strong, strong implies weak
            failed += (strong.same_concept and not strong.equivalent) + (
                strong.equivalent and not weak.equivalent
            )
            digest.update(f"{strong}\n{weak}\n".encode())
        ws.clear_memos()
        return Outcome(attempted, failed, digest.hexdigest())


def _pool_extensions(us, w):
    """One modal_d3 op: the extension of every pool concept in one world."""
    return [semantics.extensionalize(u, w) for u in us]


WORKLOADS = {w.name: w for w in (DiagramD2, GroundD2, ModalD3)}
