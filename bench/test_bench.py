"""The benchmark's own tests: python3 -m pytest -q bench

Smoke runs use the small sizes; each repetition runs in a fresh
interpreter, as in the benchmark.
"""
import json
import subprocess
import sys
import time

import pytest

import rep
import run
from intlog import cli, concepts, gen, relalg, semantics, syntax, worlds
from tracing import Tracer
from workloads import WORKLOADS, formula_line

MODULES = (cli, concepts, gen, relalg, semantics, syntax, worlds)


def small_rep(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, rep.__file__, "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--size", "small", "--spawned-at", repr(time.perf_counter())],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert "error" not in result, result["error"]
    return result


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_small_run_passes_its_checks_and_repeats(workload):
    first = small_rep(workload, 7, 0)
    assert first["attempted"] > 0
    assert first["failed"] == 0
    assert first["setup_s"] > 0 and first["ops_per_s"] > 0
    again = small_rep(workload, 7, 0)
    assert again["digest"] == first["digest"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reproduces_untraced_digest(workload):
    untraced = small_rep(workload, 3, 0)
    traced = small_rep(workload, 3, 1)
    assert traced["digest"] == untraced["digest"]
    assert traced["failed"] == 0
    assert traced["layers"]["concepts.registry_size"] >= 2


def _bindings():
    return {(m.__name__, k): v for m in MODULES for k, v in vars(m).items()}


def test_tracer_restores_every_binding():
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert semantics.natural_join is not before[("intlog.semantics", "natural_join")]
        assert cli.check_diagram is not before[("intlog.cli", "check_diagram")]
        assert semantics.interpret.__wrapped__ is before[("intlog.semantics", "interpret")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_recursive_calls_pass_through():
    sig = gen.corpus_signature()
    f = syntax.parse_formula("~(p(x) & exists y . q(x, y))", sig)
    tracer = Tracer()
    tracer.install()
    try:
        semantics.interpret(f)
    finally:
        tracer.uninstall()
    assert tracer.totals("semantics.interpret").calls == 1
    assert tracer.totals("concepts.conj").calls == 1


def test_identity_lines_survive_the_formula_file_reader():
    sig = gen.corpus_signature()
    f = syntax.parse_formula("#a == x", sig)
    line = formula_line(f)
    assert line == "(#a == x)"
    assert syntax.parse_formula(line, sig) == f


@pytest.mark.parametrize(
    "n, p", [(1000, 99.0), (33087, 99.9), (200, 95.0), (186, 90.0), (12, 50.0)]
)
def test_tail_percentile_leaves_ten_samples_beyond(n, p):
    assert run.tail_percentile(n) == p


def test_end_to_end_takes_each_ops_fastest_time():
    reps = [
        {"latencies": [0.004, 0.001, 0.002], "setup_s": 0.3, "peak_rss_mb": 20.0},
        {"latencies": [0.002, 0.003, 0.002], "setup_s": 0.2, "peak_rss_mb": 22.0},
    ]
    m = run.end_to_end(reps)
    assert m["ops_per_s"] == pytest.approx(3 / 0.005)
    assert m["op_p50_ms"] == pytest.approx(2.0)
    assert m["setup_s"] == 0.2
    assert m["peak_rss_mb"] == 21.0


def test_end_to_end_refuses_repetitions_of_different_length():
    reps = [
        {"latencies": [0.001], "setup_s": 0.1, "peak_rss_mb": 20.0},
        {"latencies": [0.001, 0.002], "setup_s": 0.1, "peak_rss_mb": 20.0},
    ]
    with pytest.raises(run.BenchError):
        run.end_to_end(reps)
