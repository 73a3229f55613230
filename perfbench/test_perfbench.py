"""Tests of the benchmark itself; they are not part of the tier-1 suite.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import Context  # noqa: E402

COUNTERS = ("models.nodes", "quadrature.de.nodes", "quadrature.gk.nodes",
            "quadrature.prod2d.nodes", "geometry.brackets", "fidelity.overlaps",
            "spectrum.eigensolves", "diffops.fd_calls")

# a short prefix of pass 0 per workload: one op of each kind it runs
PREFIX = {"sweep-1d": 1, "bundle-2d": 1, "crosscheck": 8, "loop": 1}

# counters that must be nonzero on exactly these workloads
ONLY_ON = {"quadrature.prod2d.nodes": "bundle-2d", "quadrature.gk.nodes": "loop",
           "fidelity.overlaps": "crosscheck", "spectrum.eigensolves": "crosscheck",
           "diffops.fd_calls": "crosscheck"}


def traced_counts(workload, seed, work_dir):
    w = wl.WORKLOADS[workload]
    ops = w.make_pass(seed, 0)[:PREFIX[workload]]
    tracer = Tracer()
    ctx = Context(tracer.install(wl.setup_models(w)), 1, work_dir)
    try:
        for i, op in enumerate(ops):
            out = tracer.op(i, wl.run_op, op, ctx)
            assert wl.check_op(op, ctx, out).ok
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(len(ops))
    return {k: layers[k] for k in COUNTERS}


@pytest.mark.parametrize("workload", sorted(PREFIX))
def test_counters_repeat_for_a_seed(workload, tmp_path):
    first = traced_counts(workload, 7, tmp_path)
    second = traced_counts(workload, 7, tmp_path)
    assert first == second
    assert first["models.nodes"] > 0 and first["geometry.brackets"] > 0
    for counter, home in ONLY_ON.items():
        assert (first[counter] > 0) == (workload == home), counter


@pytest.mark.parametrize("workload", sorted(PREFIX))
def test_seed_changes_inputs(workload):
    w = wl.WORKLOADS[workload]
    assert w.make_pass(1, 0) == w.make_pass(1, 0)
    assert w.make_pass(1, 0) != w.make_pass(2, 0)
    assert w.make_pass(1, 0) != w.make_pass(1, 1)
    json.dumps(w.make_pass(1, 0))  # plain data: the program sees nothing else


def test_tail_percentile_keeps_ten_samples_beyond():
    xs = list(range(40))
    value, pct, n = run._percentile_tail(xs)
    assert (value, n) == (29, 40) and sum(x > value for x in xs) == 10
    assert pct == 75.0
    assert run._percentile_tail([3.0, 1.0])[:2] == (3.0, 100.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loop", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
