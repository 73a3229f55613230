"""curvedqgt benchmark: one workload per call, metrics on the last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else.  Each call starts fresh worker
processes (see ``worker.py``): four that only set up, for the set-up time
samples, then the one that runs the workload.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``
and its per-layer metrics with ``--trace 1``.  The lines before it hold the
environment stamp and a report with units, sample counts and the metrics
that are not gated.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("sweep-1d", "bundle-2d", "crosscheck", "loop")
SETUP_SAMPLES = 5           # the workload process plus four set-up-only starts
ERR_FLOOR = 1e-13
PROCESS_TIMEOUT_S = 170.0


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _env():
    """Child environment: sources from the checkout, one BLAS thread unless set.

    Two CPUs are shared by the pool workers and whatever else the host
    runs; BLAS threads on top only add contention and run-to-run spread.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    return env


def _spawn(args, work_dir, stderr):
    env = _env()
    return subprocess.Popen(
        [sys.executable, str(WORKER), *args, "--work-dir", str(work_dir)],
        stdout=subprocess.PIPE, stderr=stderr, text=True, cwd=str(ROOT), env=env)


def _start(args, work_dir, stderr, live):
    """Start a worker and time it until it reports ``ready``."""
    t0 = time.perf_counter()
    proc = _spawn(args, work_dir, stderr)
    live.append(proc)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        raise RuntimeError("worker failed during set-up")
    return proc, setup


def _finish(proc, deadline):
    """Wait for a worker; returns its last output line."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker exceeded the time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return lines[-1] if lines else ""


def _import_times(work_dir, workload):
    """cli.import_s and scipy.import_s from ``-X importtime`` in a fresh start."""
    env = _env()
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", str(WORKER), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--setup-only", "--work-dir", str(work_dir)],
        capture_output=True, text=True, cwd=str(ROOT), env=env,
        timeout=PROCESS_TIMEOUT_S)
    rows = []
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((int(m[1]), int(m[2]), len(m[3]), m[4]))
    if not rows:
        return 0.0, 0.0
    top = min(indent for _, _, indent, _ in rows)
    cli_us = sum(cum for _, cum, indent, name in rows
                 if indent == top and name.split(".")[0] == "curvedqgt")
    scipy_us = sum(own for own, _, _, name in rows if name.split(".")[0] == "scipy")
    return cli_us * 1e-6, scipy_us * 1e-6


def _percentile_tail(samples):
    """Highest percentile with at least ten samples beyond it (max if none)."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def _digits(err):
    return -math.log10(max(err, ERR_FLOOR))


def run_one(workload, seed, seconds, trace):
    spec = _spec()
    deadline = time.monotonic() + PROCESS_TIMEOUT_S
    base = ROOT / ".perfbench_work"
    work_dir = base / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    log_path = work_dir / "worker.log"
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    live = []
    try:
        with open(log_path, "w") as log:
            setups = []
            for _ in range(SETUP_SAMPLES - 1):
                proc, s = _start(args + ["--setup-only"], work_dir, log, live)
                setups.append(s)
                _finish(proc, deadline)
            proc, s = _start(args + ["--trace-file", str(base / f"trace-{workload}.tsv")],
                             work_dir, log, live)
            setups.append(s)
            raw = json.loads(_finish(proc, deadline))
            if trace:
                raw["import_s"] = _import_times(work_dir, workload)
    except RuntimeError:
        sys.stderr.write(log_path.read_text()[-4000:])
        raise
    finally:
        for proc in live:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
    return (report_traced if trace else report_untraced)(spec, workload, raw, setups)


def _metric(spec_list, values):
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_list}


def report_untraced(spec, workload, raw, setups):
    lat_ms = [1e3 * x for x in raw["latencies"]]
    tail, pct, n = _percentile_tail(lat_ms)
    failed = raw["failed"]
    attempted = raw["attempted"]
    if "jobs_invariance" in raw:
        attempted += 1
        if not raw["jobs_invariance"]:
            failed += 1
            raw["problems"].append("sweep CSV differs between --jobs 2 and --jobs 1")
    values = {
        "setup_s": statistics.median(setups),
        "results_per_s": statistics.median(raw["pass_rates"]),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail,
        "peak_rss_mb": raw["peak_rss_mb"],
        "ref_digits": _digits(raw["ref_err"]),
    }
    route = raw["route_gap"]
    by_kind = {}
    for label, ms in zip(raw["labels"], lat_ms):
        by_kind.setdefault(label, []).append(ms)
    report = {
        "workload": workload,
        "samples": {"ops": n, "passes": raw["passes"], "results": raw["results"],
                    "setup_starts": len(setups), "timed_wall_s": raw["wall"]},
        "op_tail_percentile": round(pct, 2),
        "op_p50_ms_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
        "fail_frac": failed / attempted,
        "ref_err_log10": -values["ref_digits"],
        "route_gap_log10": (math.log10(max(route, ERR_FLOOR)) if route >= 0
                            else "n/a"),
        "jobs_invariance": raw.get("jobs_invariance", "n/a"),
        "problems": raw["problems"],
    }
    print("env " + json.dumps(raw["env"], sort_keys=True))
    print("report " + json.dumps(report, sort_keys=True))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    counts = {"setup_s": len(setups), "results_per_s": raw["passes"],
              "op_p50_ms": n, "op_tail_ms": n, "peak_rss_mb": 1, "ref_digits": n}
    for name, v in values.items():
        extra = f" (p{pct:.1f})" if name == "op_tail_ms" else ""
        print(f"  {name:<15} {v:14.6g} {units.get(name, ''):<6} n={counts[name]}{extra}")
    print(f"  {'fail_frac':<15} {failed / attempted:14.6g} {'1':<6} n={attempted}")
    print(f"  {'ref_err_log10':<15} {-values['ref_digits']:14.6g} {'log10':<6} n={n}")
    print(f"  {'route_gap_log10':<15} {report['route_gap_log10']!s:>14} {'log10':<6} n={n}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": _metric(spec["end_to_end"], values)}


def report_traced(spec, workload, raw, setups):
    layers = dict(raw["layers"])
    layers["cli.import_s"], layers["scipy.import_s"] = raw["import_s"]
    phases = raw["phases"]
    attempted = sum(ph["attempted"] for ph in phases.values())
    failed = sum(ph["failed"] for ph in phases.values())
    report = {"workload": workload, "ops_per_phase": raw["ops"],
              "spans": raw["spans"],
              "phases": {k: {kk: v[kk] for kk in ("wall", "results", "busy_frac",
                                                   "failed", "problems")}
                         for k, v in phases.items()}}
    print("env " + json.dumps(raw["env"], sort_keys=True))
    print("report " + json.dumps(report, sort_keys=True))
    for m in spec["per_layer"]:
        print(f"  {m['name']:<26} {layers[m['name']]:14.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": _metric(spec["per_layer"], layers)}


def run_all(seed, seconds, trace):
    """Each workload in its own fresh run; prints every report and a summary."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        print(f"== {name}")
        res = run_one(name, seed, seconds, trace)
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = v
    return total


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "curvedqgt" / "__init__.py").is_file():
        sys.exit(f"no curvedqgt sources under {ROOT / 'src'}; run from a checkout")
    # a terminated run still stops its workers (see run_one's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        else:
            result = run_one(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        sys.exit(f"benchmark failed: {exc}")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
