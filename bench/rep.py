"""One repetition of one workload, in a fresh interpreter.

    python3 bench/rep.py --workload NAME --seed N --trace 0|1
        --spawned-at T [--size full|small] [--spans PATH]

Checks that the process starts cold (empty concept registry and
free-variable cache), builds the workload's inputs, runs its sweep, and
prints one JSON line: set-up and sweep time, every op's latency in op order,
peak RSS, op counts, the output digest and, when traced, the per-layer
aggregates.  ``--spawned-at`` is the parent's ``time.perf_counter()``
just before it started this process (CLOCK_MONOTONIC, shared by
processes), so set-up time counts interpreter start.
"""
import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import intlog  # noqa: E402

if not os.path.abspath(intlog.__file__).startswith(SRC + os.sep):
    raise SystemExit(f"intlog imported from {intlog.__file__}, not from {SRC}")

from intlog import concepts, syntax, worlds  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import SIZES, WORKLOADS, OpClock  # noqa: E402

def calibration_s():
    """A fixed pure-Python loop, reported as context for machine speed;
    never used to rescale a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def layer_metrics(tracer, outcome, registry_before):
    """The per-layer numbers of one traced repetition."""
    t = tracer.totals
    out = {}
    for fn in ("natural_join", "complement"):
        s = t("relalg." + fn)
        out[f"relalg.{fn}.calls"] = s.calls
        out[f"relalg.{fn}.self_s"] = s.self_time
        out[f"relalg.{fn}.tuples_out"] = s.tuples_out
    s = t("relalg.project_out")
    out["relalg.project_out.calls"] = s.calls
    out["relalg.project_out.self_s"] = s.self_time
    out["relalg.max_tuples"] = max(
        t("relalg." + fn).max_out for fn in ("natural_join", "complement", "project_out")
    )
    interp = t("semantics.interpret")
    out["semantics.interpret.calls"] = interp.calls
    out["semantics.interpret.calls_per_op"] = interp.calls / outcome.attempted
    out["semantics.interpret.self_s"] = interp.self_time
    builders = [
        t("concepts." + fn)
        for fn in ("atom_concept", "conj", "neg", "exists", "union_concepts", "necess")
    ]
    build_calls = sum(s.calls for s in builders)
    new = concepts.registry_size() - registry_before
    out["concepts.build.calls"] = build_calls
    out["concepts.build.self_s"] = sum(s.self_time for s in builders)
    out["concepts.new"] = new
    out["concepts.intern_hit_ratio"] = 1.0 - new / build_calls if build_calls else 0.0
    out["concepts.registry_size"] = concepts.registry_size()
    for fn in ("ground", "substitute"):
        s = t("syntax." + fn)
        out[f"syntax.{fn}.calls"] = s.calls
        out[f"syntax.{fn}.self_s"] = s.self_time
    info = syntax.free_vars.cache_info()
    lookups = info.hits + info.misses
    out["syntax.free_vars.hit_ratio"] = info.hits / lookups if lookups else 0.0
    out["syntax.free_vars.cache_size"] = info.currsize
    ext = t("semantics.extensionalize")
    out["semantics.extensionalize.calls"] = ext.calls
    out["semantics.extensionalize.self_s"] = ext.self_time
    out["semantics.extensionalize.distinct_ratio"] = (
        len(tracer.ext_pairs) / ext.calls if ext.calls else 0.0
    )
    nomemo = t("semantics.extensionalize_nomemo")
    out["semantics.extensionalize_nomemo.calls"] = nomemo.calls
    out["semantics.extensionalize_nomemo.self_s"] = nomemo.self_time
    for fn in ("box_extension", "diamond_extension", "strong_equiv", "weak_equiv", "satisfies"):
        s = t("worlds." + fn)
        out[f"worlds.{fn}.calls"] = s.calls
        out[f"worlds.{fn}.self_s"] = s.self_time
    out["worlds.enumerate_worlds.self_s"] = t("worlds.enumerate_worlds").self_time
    out["worlds.enumerate_worlds.peak_kb_per_world"] = enumerate_peak_kb(tracer)
    ref = t("semantics.tarski_eval")
    out["semantics.tarski_eval.calls"] = ref.calls
    out["semantics.tarski_eval.self_s"] = ref.self_time
    compiled = interp.total + ext.total + nomemo.total
    out["semantics.compiled_over_reference"] = compiled / ref.total if ref.total else 0.0
    out["semantics.check_diagram.self_s"] = t("semantics.check_diagram").self_time
    out["semantics.check_tarski_constraint.self_s"] = t(
        "semantics.check_tarski_constraint"
    ).self_time
    out["cli.main.self_s"] = t("cli.main").self_time
    out["cli.records"] = outcome.facts.get("records", 0)
    out["gen.random_formulas.self_s"] = t("gen.random_formulas").self_time
    out["gen.corpus_formulas.self_s"] = t("gen.corpus_formulas").self_time
    parse = t("syntax.parse_formula")
    out["syntax.parse_formula.calls"] = parse.calls
    out["syntax.parse_formula.self_s"] = parse.self_time
    return out


def enumerate_peak_kb(tracer):
    """Peak traced memory per world of the run's first enumerate_worlds
    call, repeated under tracemalloc outside every span."""
    import tracemalloc

    if "worlds.enumerate_worlds" not in tracer.first_call_args:
        return 0.0
    args, kwargs = tracer.first_call_args["worlds.enumerate_worlds"]
    tracemalloc.start()
    try:
        ws = worlds.enumerate_worlds(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1024.0 / len(ws)


def run(args):
    registry_before = concepts.registry_size()
    if registry_before != 2 or syntax.free_vars.cache_info().currsize != 0:
        raise SystemExit("repetition did not start cold")
    workload = WORKLOADS[args.workload]()
    size = SIZES[args.size][args.workload]
    tracer = Tracer() if args.trace else None
    clock = OpClock(tracer)
    workdir = os.path.join(HERE, "out")
    os.makedirs(workdir, exist_ok=True)
    if tracer is not None:
        tracer.install()
    try:
        with tracer.phase("setup") if tracer else contextlib.nullcontext():
            workload.setup(args.seed, size, workdir)
        with tracer.phase("sweep") if tracer else contextlib.nullcontext():
            outcome = workload.sweep(clock)
        end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    sweep_s = end - clock.first
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": clock.first - args.spawned_at,
        "sweep_s": sweep_s,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "digest": outcome.digest,
        "latencies": clock.latencies,
        "ops_per_s": outcome.attempted / sweep_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "facts": outcome.facts,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, outcome, registry_before)
        if args.spans:
            write_spans(args.spans, tracer)
    result["calibration_s"] = calibration_s()
    return result


def write_spans(path, tracer):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "spans": [
                    {"name": n, "start": s, "end": e, "parent": p}
                    for n, s, e, p in tracer.spans
                ],
                "ops": tracer.ops,
                "aggregates": tracer.phase_summary(),
            },
            fh,
        )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True, dest="spawned_at")
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--spans", help="write the traced spans here")
    args = ap.parse_args()
    try:
        result = run(args)
    except Exception:  # report the failed repetition instead of dying silently
        result = {"workload": args.workload, "error": traceback.format_exc()}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
