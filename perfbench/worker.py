"""One benchmark process: set up, print ``ready``, run the workload.

Started by ``run.py`` in a fresh interpreter so that set-up time covers
what a CLI user pays: interpreter start, ``import curvedqgt.cli`` and the
construction of the workload's models.  With ``--setup-only`` it stops
after ``ready``.  Otherwise it runs the timed ops and prints one JSON line
with the raw samples, which ``run.py`` turns into metrics.

Untraced (``--trace 0``): whole passes of fresh seeded ops until the
summed op wall time reaches ``--seconds``.  Traced (``--trace 1``): a fixed
list of ``trace_passes`` passes, each op run once untraced and once
traced, so that counters repeat exactly for a given seed and the two
rates give the tracing overhead.  Checks always run outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import curvedqgt.cli  # noqa: E402  (timed as part of set-up)

import workloads as wl  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Context:
    """What an op needs besides its inputs: models, jobs, output files."""

    def __init__(self, models, jobs, work_dir):
        self.models = models
        self.jobs = jobs
        self.work_dir = Path(work_dir)

    def out_path(self, kind):
        return str(self.work_dir / f"out-{kind}")


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Phase:
    """Samples of one sequence of ops."""

    def __init__(self):
        self.latencies = []
        self.labels = []
        self.results = 0
        self.attempted = 0
        self.failed = 0
        self.ref_err = 0.0
        self.route_gap = -1.0
        self.wall = 0.0
        self.cpu = 0.0
        self.problems = []
        self.pass_rates = []

    def run(self, op, ctx, execute):
        """Time one op, then check it outside the timed region."""
        self.attempted += 1
        self.labels.append(f"{op['kind']}:{op['model']}")
        cpu0 = _cpu_seconds()
        t0 = perf_counter()
        try:
            output = execute(op, ctx)
        except (Exception, SystemExit) as exc:  # a failed op is counted, not fatal
            dt = perf_counter() - t0
            self._account(dt, cpu0)
            self.failed += 1
            self.problems.append(f"{op['kind']} {op['model']}: raised "
                                 f"{type(exc).__name__}: {exc}")
            traceback.print_exc()
            return None
        dt = perf_counter() - t0
        self._account(dt, cpu0)
        try:
            chk = wl.check_op(op, ctx, output)
        except Exception as exc:  # unreadable output fails the op, not the run
            traceback.print_exc()
            chk = wl.Check(problems=[f"check raised {type(exc).__name__}: {exc}"])
        self.results += chk.results
        self.ref_err = max(self.ref_err, chk.ref_err)
        self.route_gap = max(self.route_gap, chk.route_gap)
        if not chk.ok:
            self.failed += 1
            self.problems += [f"{op['kind']} {op['model']}: {p}" for p in chk.problems]
        return output

    def _account(self, dt, cpu0):
        self.latencies.append(dt)
        self.wall += dt
        self.cpu += _cpu_seconds() - cpu0

    def summary(self, jobs):
        return {"latencies": self.latencies, "labels": self.labels,
                "results": self.results,
                "attempted": self.attempted, "failed": self.failed,
                "ref_err": self.ref_err, "route_gap": self.route_gap,
                "wall": self.wall, "busy_frac": self.cpu / (jobs * self.wall),
                "pass_rates": self.pass_rates, "problems": self.problems[:20]}


def timed_run(workload, ctx, seed, seconds):
    """Whole passes of fresh ops until the op wall time reaches ``seconds``."""
    phase = Phase()
    p = 0
    first_sweep = None
    while phase.wall < seconds or p == 0:
        wall0, results0 = phase.wall, phase.results
        for i, op in enumerate(workload.make_pass(seed, p)):
            out = phase.run(op, ctx, wl.run_op)
            if p == 0 and i == 0 and op["kind"] == "sweep" and out is not None:
                first_sweep = (op, Path(out).read_bytes())
        phase.pass_rates.append((phase.results - results0) / (phase.wall - wall0))
        p += 1
    summary = phase.summary(ctx.jobs)
    summary["passes"] = p
    if ctx.jobs > 1:
        summary["jobs_invariance"] = (first_sweep is not None
                                      and jobs_invariance(ctx, *first_sweep))
    return summary


def jobs_invariance(ctx, op, csv_bytes):
    """Re-run one sweep at --jobs 1: the CSV must be byte-identical."""
    out = str(ctx.work_dir / "out-sweep-jobs1")
    try:
        wl.run_cli(wl.sweep_argv(op, 1, out))
    except (Exception, SystemExit):
        traceback.print_exc()
        return False
    return Path(out).read_bytes() == csv_bytes


def traced_run(workload, ctx, seed, trace_path):
    """Fixed op list, untraced at the workload's jobs, then untraced and traced at 1.

    The untraced and traced runs of each op alternate which goes first, so
    that warm-up effects cancel in ``trace.overhead_frac``.
    """
    from tracer import Tracer

    ops = [op for p in range(workload.trace_passes) for op in workload.make_pass(seed, p)]
    phases = {}
    if ctx.jobs > 1:
        pool = Phase()
        for op in ops:
            pool.run(op, ctx, wl.run_op)
        phases["untraced_jobs"] = pool.summary(ctx.jobs)

    ctx1 = Context(ctx.models, 1, ctx.work_dir)
    plain, traced, tracer = Phase(), Phase(), Tracer()

    def run_traced(i, op):
        ctx_t = Context(tracer.install(ctx.models), 1, ctx.work_dir)
        try:
            traced.run(op, ctx_t, lambda o, c: tracer.op(i, wl.run_op, o, c))
        finally:
            tracer.uninstall()

    for i, op in enumerate(ops):
        if i % 2:
            run_traced(i, op)
            plain.run(op, ctx1, wl.run_op)
        else:
            plain.run(op, ctx1, wl.run_op)
            run_traced(i, op)
    phases["untraced"] = plain.summary(1)
    phases["traced"] = traced.summary(1)
    tracer.write(trace_path)

    layers = tracer.layer_metrics(len(ops))
    layers["cli.pool_busy_frac"] = phases.get("untraced_jobs", phases["untraced"])["busy_frac"]
    rate = lambda ph: ph["results"] / ph["wall"]  # noqa: E731
    layers["trace.overhead_frac"] = rate(phases["untraced"]) / rate(phases["traced"]) - 1.0
    return {"phases": phases, "layers": layers, "ops": len(ops),
            "spans": len(tracer.spans)}


def environment(jobs, traced):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
            "jobs": jobs, "traced": bool(traced)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--trace-file", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workload = wl.WORKLOADS[args.workload]
    models = wl.setup_models(workload)
    print("ready", flush=True)
    if args.setup_only:
        return

    ctx = Context(models, workload.jobs, args.work_dir)
    if args.trace:
        out = traced_run(workload, ctx, args.seed, args.trace_file)
    else:
        out = timed_run(workload, ctx, args.seed, args.seconds)
        out["peak_rss_mb"] = _peak_rss_mb()
    out["env"] = environment(workload.jobs, args.trace)
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
