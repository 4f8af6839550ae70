"""The intlog benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Runs repetitions of one workload, each in a fresh interpreter (bench/rep.py)
so that the process-global concept registry and free-variable cache start
empty every time, until ``--seconds`` of wall time are spent.  Every
repetition sees the same seeded inputs.

With ``--trace 0`` the last line of stdout is one JSON object holding every
end-to-end metric: set-up time, ops per second, median and tail per-op
latency (each op timed at its fastest over the repetitions, see
``end_to_end``) and peak RSS.  With ``--trace 1``
untraced and traced repetitions alternate (at least two of each); the
metrics are the per-layer numbers of the traced ones, and the run fails if
a deterministic count differs between two traced repetitions or a traced
digest differs from the untraced one.  ``--workload all`` interleaves the
three workloads across repetitions and prints a table per workload.

Run from the root of a checkout; the program is imported from ``src/``.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REP = os.path.join(HERE, "rep.py")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("diagram_d2", "ground_d2", "modal_d3")
DEFAULT_SEED = 0
REP_TIMEOUT_S = 150
# A fixed string-hash seed makes every repetition of a seed run the same
# ops in the same order, down to set iteration, so their times line up op
# by op.
REP_ENV = dict(os.environ, PYTHONHASHSEED="0")

SPEC = os.path.join(ROOT, "BENCHMARK.json")

# Per-layer counts that must repeat exactly between repetitions of a seed.
DETERMINISTIC_SUFFIXES = (".calls", ".tuples_out")
DETERMINISTIC = (
    "concepts.new",
    "concepts.registry_size",
    "semantics.interpret.calls_per_op",
    "syntax.free_vars.cache_size",
)


TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 50.0)


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)
    return sorted_values[k]


def tail_percentile(n):
    """The highest ladder percentile with at least ten of n samples
    beyond it."""
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p
    return 50.0


class BenchError(Exception):
    pass


def run_rep(workload, seed, trace, spans=None):
    """One repetition in a fresh interpreter; returns its JSON result."""
    cmd = [sys.executable, "-s", REP, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(t0)],
        cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S, env=REP_ENV,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} repetition exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if "error" in result:
        raise BenchError(f"{workload} repetition failed:\n{result['error']}")
    return result


def expected_digest(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def check_outputs(workload, seed, reps):
    """Ops attempted and failed over the repetitions, and whether every
    output check held.  A digest that differs from the recorded one at the
    default seed, or between repetitions (traced or not), fails every op."""
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    digests = {r["digest"] for r in reps}
    want = expected_digest(workload, seed)
    if len(digests) != 1 or (want is not None and digests != {want}):
        failed = attempted
    return attempted, failed, failed == 0


def deterministic(name):
    return name.endswith(DETERMINISTIC_SUFFIXES) or name in DETERMINISTIC


def per_layer(untraced, traced):
    """Medians of the traced repetitions' layer numbers; counts must agree
    exactly between traced repetitions."""
    layers = [r["layers"] for r in traced]
    out = {}
    for name in layers[0]:
        values = [lay[name] for lay in layers]
        if deterministic(name):
            if len(set(values)) != 1:
                raise BenchError(f"count {name} differs between repetitions: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    out["trace.overhead_ratio"] = statistics.median(
        r["sweep_s"] for r in traced
    ) / statistics.median(r["sweep_s"] for r in untraced)
    return out


def measure(workloads, seed, seconds, trace):
    """Repetitions until the time budget is spent, workloads interleaved.
    Returns {workload: (untraced reps, traced reps)}."""
    reps = {w: ([], []) for w in workloads}
    budget = seconds * len(workloads)
    started = time.perf_counter()
    last_round = 0.0
    min_rounds = 2 if trace else 1
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - started + last_round <= budget:
        t0 = time.perf_counter()
        for w in workloads:
            reps[w][0].append(run_rep(w, seed, 0))
            if trace:
                spans = os.path.join(HERE, "out", f"{w}-seed{seed}.spans.json")
                reps[w][1].append(run_rep(w, seed, 1, spans))
        last_round = time.perf_counter() - t0
        rounds += 1
    return reps


def end_to_end(reps):
    """The end-to-end metrics of a run's untraced repetitions.

    Every repetition runs the same ops in the same order from a cold
    start, so op i costs the program the same work each time; the host's
    speed is what varies, by up to half from one second to the next.  Each
    op's time is therefore its fastest over the repetitions, and ops per
    second, the median and the tail are taken over those times.  Set-up
    time is the fastest repetition's; peak RSS the median."""
    series = [r["latencies"] for r in reps]
    if len({len(s) for s in series}) != 1:
        raise BenchError(f"repetitions timed different op counts: {[len(s) for s in series]}")
    best = sorted(min(op) for op in zip(*series))
    return {
        "setup_s": min(r["setup_s"] for r in reps),
        "ops_per_s": len(best) / sum(best),
        "op_p50_ms": percentile(best, 50.0) * 1e3,
        "op_tail_ms": percentile(best, tail_percentile(len(best))) * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def report(workload, seed, untraced, traced, spec):
    """Human-readable lines for one workload, then its result object with
    the metrics BENCHMARK.json declares, in its order and units."""
    attempted, failed, correct = check_outputs(workload, seed, untraced + traced)
    if traced:
        values = per_layer(untraced, traced)
        declared = spec["per_layer"]
    else:
        values = end_to_end(untraced)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    first = untraced[0]
    samples = len(first["latencies"])
    print(f"# {workload} seed={seed}: {len(untraced)} untraced and {len(traced)} traced "
          f"repetitions, {attempted} ops attempted, {failed} failed "
          f"(fail_share {failed / attempted:.6f}), digest {first['digest']}")
    print(f"#   op latency samples per repetition {samples}, "
          f"tail percentile p{tail_percentile(samples):g}; median repetition "
          f"{statistics.median(r['ops_per_s'] for r in untraced):.6g} ops/s; calibration loop "
          f"{statistics.median(r['calibration_s'] for r in untraced) * 1e3:.2f} ms "
          f"(context only)")
    if first["facts"]:
        print(f"#   {json.dumps(first['facts'])}")
    for name, m in metrics.items():
        print(f"#   {name:48s} {m['value']:>16.6g} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description="intlog benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "intlog")):
        print(f"error: no intlog sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reps = measure(workloads, args.seed, args.seconds, args.trace)
        results = {w: report(w, args.seed, *reps[w], spec) for w in workloads}
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
