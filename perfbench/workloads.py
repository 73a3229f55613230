"""The four benchmark workloads: seeded inputs, op runners and checks.

Every workload is a list of *passes*; pass ``p`` of a run with seed ``s``
is generated from ``numpy.random.default_rng([s, workload index, p])``
alone, so the same seed always yields the same inputs and different
passes hold different (but equally shaped) inputs.  Each pass holds the
same mix of op kinds, with parameters drawn from stratified windows, so
that its cost barely depends on the seed.  The program under test only
ever receives the generated CLI arguments or library inputs.

Each op is checked outside the timed region against a closed-form
reference or an independent route (see ``README.md`` for the list and for
the two comparisons deliberately left out).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from curvedqgt import cli, geometry, models, spectrum
from curvedqgt.core import GeometricTensors
from curvedqgt.diffops import FdConfig
from curvedqgt.quadrature import QuadratureConfig

QMT_RTOL = 1e-6            # acceptance criterion 1 bound on the analytic metric
INVARIANT_ATOL = 1e-10     # GeometricTensors.check_invariants default
ROUTE_TOL = 1e-4           # |chi - G| and |loop phase - flux|, as in the test suite
GRID_QMT_RTOL = 5e-3       # grid-eigenvector metric, as in tests/test_spectrum.py
SPECTRUM_RTOL = 1e-5       # flux-form solver at 40k cells against exact levels
SWEEP_POINTS = 16
SWEEP_QUANTITIES = "qmt,qgt,berry_curvature,berry_connection,det"
BUNDLE_QUANTITIES = "qmt,qgt,berry_curvature,berry_connection,det,subdet:b"
SPECTRUM_LEVELS = 10
SPECTRUM_GRID = 40000
GRID_FAMILY_POINTS = 1500

# the grid-eigenvector family is accurate to a few 1e-3 only, so its
# engine runs at the looser tolerances the repository's own test uses
GRID_FAMILY_CFG = geometry.EngineConfig(
    quad=QuadratureConfig(rel_tol=1e-7, abs_tol=1e-9, max_levels=10),
    fd=FdConfig(base_step=1e-2, scheme="central-2"),
)

REAL_FAMILIES = ("anharmonic-1d", "morse-like", "flat-oscillator-1d",
                 "coupled-anharmonic-2d")


@dataclass
class Check:
    """Outcome of one op: results produced and how far they are off."""

    results: int = 0
    problems: list = field(default_factory=list)
    ref_err: float = 0.0
    route_gap: float = -1.0   # < 0: no independent route on this op

    def ref(self, got, want, label, rtol=0.0, atol=1e-12):
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        err = float(np.max(np.abs(got - want))) if got.size else 0.0
        self.ref_err = max(self.ref_err, err)
        if not np.all(np.abs(got - want) <= rtol * np.abs(want) + atol):
            self.problems.append(f"{label}: |result - reference| = {err:.3e}")

    def route(self, gap, tol, label):
        self.route_gap = max(self.route_gap, float(gap))
        if not gap <= tol:
            self.problems.append(f"{label}: route gap {gap:.3e} > {tol:.1e}")

    def invariants(self, tensors: GeometricTensors, label):
        try:
            tensors.check_invariants(INVARIANT_ATOL)
        except Exception as exc:  # EngineError names the violated invariant
            self.problems.append(f"{label}: {exc}")

    @property
    def ok(self) -> bool:
        return not self.problems


def _num(x: float) -> str:
    return repr(float(x))


def _params(model, lamv):
    out = []
    for name, v in zip(model.parameter_names, lamv):
        out += [f"--{name}", _num(v)]
    return out


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

def _sweep_pass(rng):
    # the seed places each grid inside a small window: the DE level, and so
    # the cost, of a 1-D bundle follows the state's width, and a run holds
    # only a few sweeps of each kind
    u = rng.uniform

    def sweep(model, n, fixed, pname, lo, width):
        return {"kind": "sweep", "model": model, "n": n, "fixed": fixed,
                "grid": (pname, lo, lo + width)}

    def generalized(n):
        b = u(-0.3, 0.3)
        return sweep("generalized-anharmonic", n, {"lambda": u(0.9, 1.1), "b": b},
                     "c", b * b + u(0.7, 0.8), u(0.7, 0.8))

    # the generalized model, the only one with curvature and the dearest
    # bundles, is swept twice (n = 0 and 1): with five sweeps per pass the
    # median and the tail fall inside one kind of sweep, not between two
    return [
        sweep("anharmonic-1d", 1, {"omega": u(0.9, 1.1)}, "lambda", u(0.5, 0.6), u(1.2, 1.3)),
        sweep("morse-like", 0, {"lambda": u(0.9, 1.1)}, "omega", u(0.6, 0.7), u(1.0, 1.1)),
        generalized(0),
        sweep("flat-oscillator-1d", 2, {}, "omega", u(0.5, 0.6), u(1.2, 1.3)),
        generalized(1),
    ]


def _bundle_pass(rng):
    # k2 spreads over [1e-3, 1] on a log ladder, one rung per op, with a = b
    # near 1.5.  Each DE level deeper quadruples a 2-D bracket's cost, and
    # for a = b around 1 the level of a bracket flips under small parameter
    # changes; near 1.5 every bracket stops at level 4 over the whole k2
    # range, so all ops cost about the same and the latency quantiles do
    # not jump between rungs.
    ops = []
    for j in range(5):
        jitter = lambda: 1.0 + rng.uniform(-0.03, 0.03)  # noqa: E731
        k2 = 10.0 ** (-3.0 + 0.75 * j + rng.uniform(-0.15, 0.15))
        lamv = [jitter(), k2, 1.5 * jitter(), 1.5 * jitter()]
        ops.append({"kind": "compute", "model": "coupled-anharmonic-2d",
                    "lam": lamv, "n": [0, 0]})
    return ops


def _gen_point(rng):
    b = rng.uniform(-0.4, 0.4)
    return [rng.uniform(0.6, 1.8), b, b * b + rng.uniform(0.6, 1.4)]


def _crosscheck_pass(rng):
    u = rng.uniform
    seed = lambda: int(rng.integers(1, 2 ** 31 - 1))  # noqa: E731
    return [
        {"kind": "validate", "model": "generalized-anharmonic", "seed": seed()},
        {"kind": "spectrum", "model": "anharmonic-1d", "lam": [u(0.5, 2.0), u(0.5, 2.0)]},
        {"kind": "gridqgt", "model": "anharmonic-1d", "lam": [u(0.7, 1.5), u(0.7, 1.5)]},
        {"kind": "validate", "model": "anharmonic-1d", "seed": seed()},
        {"kind": "spectrum", "model": "generalized-anharmonic", "lam": _gen_point(rng)},
        {"kind": "gridqgt", "model": "flat-oscillator-1d", "lam": [u(0.7, 1.5)]},
        {"kind": "validate", "model": "morse-like", "seed": seed()},
        {"kind": "spectrum", "model": "flat-oscillator-1d", "lam": [u(0.5, 2.0)]},
    ]


def _rect(base, axes, lo, width):
    """Counter-clockwise rectangle in the (axes[0], axes[1]) plane."""
    (i, j), (a0, b0), (wa, wb) = axes, lo, width
    out = []
    for da, db in ((0, 0), (wa, 0), (wa, wb), (0, wb)):
        v = list(base)
        v[i], v[j] = a0 + da, b0 + db
        out.append(v)
    return out


def _loop_pass(rng):
    # fixed-size rectangles placed by the seed inside small windows: a loop
    # takes seconds, so a run holds only a few and their cost must not
    # depend on where the seed puts them
    u = rng.uniform
    b0 = u(-0.35, -0.25)
    b1 = b0 + u(0.5, 0.55)
    return [
        {"kind": "loop", "model": "morse-like",
         "loop": _rect([0, 0], (0, 1), (u(0.9, 1.0), u(0.9, 1.0)),
                       (u(0.3, 0.35), u(0.3, 0.35)))},
        {"kind": "loop", "model": "anharmonic-1d",
         "loop": _rect([0, 0], (0, 1), (u(0.9, 1.0), u(0.9, 1.0)),
                       (u(0.4, 0.45), u(0.4, 0.45)))},
        {"kind": "loop", "model": "generalized-anharmonic",
         "loop": _rect([u(0.95, 1.05), 0, 0], (1, 2),
                       (b0, max(b0 * b0, b1 * b1) + u(0.6, 0.65)),
                       (b1 - b0, u(0.4, 0.45)))},
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    index: int
    models: tuple
    jobs: int
    trace_passes: int
    make: Callable

    def make_pass(self, seed: int, p: int) -> list:
        rng = np.random.default_rng([seed, self.index, p])
        return self.make(rng)


WORKLOADS = {w.name: w for w in (
    Workload("sweep-1d", 1, ("anharmonic-1d", "morse-like", "generalized-anharmonic",
                             "flat-oscillator-1d"), 2, 2, _sweep_pass),
    Workload("bundle-2d", 2, ("coupled-anharmonic-2d",), 1, 2, _bundle_pass),
    Workload("crosscheck", 3, ("generalized-anharmonic", "anharmonic-1d", "morse-like",
                               "flat-oscillator-1d"), 1, 3, _crosscheck_pass),
    Workload("loop", 4, ("anharmonic-1d", "morse-like", "generalized-anharmonic"),
             1, 1, _loop_pass),
)}


def setup_models(workload: Workload) -> dict:
    """Construct the workload's models through the public registry."""
    return {name: models.get_model(name) for name in workload.models}


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------

def run_cli(argv):
    cli.main.main(args=argv, prog_name="curvedqgt", standalone_mode=False)


def sweep_argv(op, jobs, out):
    pname, lo, hi = op["grid"]
    argv = ["sweep", "--model", op["model"]]
    for name, v in op["fixed"].items():
        argv += [f"--{name}", _num(v)]
    return argv + ["--grid", f"{pname}={_num(lo)}:{_num(hi)}:{SWEEP_POINTS}",
                   "--n", str(op["n"]), "--quantities", SWEEP_QUANTITIES,
                   "--jobs", str(jobs), "--format", "csv", "--out", out]


def run_op(op, ctx):
    """Execute one op; returns whatever its check needs."""
    kind, model = op["kind"], ctx.models[op["model"]]
    out = ctx.out_path(kind)
    if kind == "sweep":
        run_cli(sweep_argv(op, ctx.jobs, out))
        return out
    if kind == "compute":
        run_cli(["compute", "--model", op["model"], *_params(model, op["lam"]),
                 "--n", ",".join(map(str, op["n"])), "--quantities", BUNDLE_QUANTITIES,
                 "--format", "jsonl", "--out", out])
        return out
    if kind == "validate":
        run_cli(["validate", "--model", op["model"], "--samples", "1",
                 "--seed", str(op["seed"]), "--out", out])
        return out
    if kind == "spectrum":
        run_cli(["spectrum", "--model", op["model"], *_params(model, op["lam"]),
                 "--k", str(SPECTRUM_LEVELS), "--grid-size", str(SPECTRUM_GRID),
                 "--format", "csv", "--out", out])
        return out
    if kind == "gridqgt":
        lamv = np.array(op["lam"])
        fam = spectrum.numerical_wavefunction_family(model, lamv, 1,
                                                     n_points=GRID_FAMILY_POINTS)
        engine = geometry.GeometryEngine(fam, model.metric, model.domain_for(lamv),
                                         GRID_FAMILY_CFG, in_domain=model.in_domain)
        return engine.qgt(lamv, (0,))
    if kind == "loop":
        loop = [np.array(v, dtype=float) for v in op["loop"]]
        return geometry.berry_phase_loop(model.psi, model.metric,
                                         model.domain_for(loop[0]), loop, (0,),
                                         in_domain=model.in_domain)
    raise ValueError(f"unknown op kind {kind!r}")


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _ref(model, quantity, n, lamv):
    return models.analytic_reference(model, quantity, n, lamv)


def _check_bundle(chk, model, n, lamv, qmt, qgt, curv, beta, quad_err, label):
    m = model.m
    chk.invariants(GeometricTensors(qgt=qgt, qmt=qmt, berry_curvature=curv,
                                    berry_connection=beta, quad_error=quad_err,
                                    fd_steps=np.zeros(m)), label)
    if model.name in REAL_FAMILIES:
        # a real family has zero curvature and zero connection exactly
        chk.ref(curv, np.zeros((m, m)), f"{label} curvature")
        chk.ref(beta, np.zeros(m), f"{label} connection")
    if model.name == "morse-like":
        chk.ref(qmt[0, 0], _ref(model, "qmt_ll", n, lamv), f"{label} G_ll", QMT_RTOL)
        chk.ref(qmt[1, 1], _ref(model, "qmt_ww", n, lamv), f"{label} G_ww", QMT_RTOL)
    elif "qmt" in model.analytic_refs:
        chk.ref(qmt, _ref(model, "qmt", n, lamv), f"{label} qmt", QMT_RTOL)
    if model.name == "generalized-anharmonic":
        chk.ref(beta, _ref(model, "berry_connection", n, lamv), f"{label} connection",
                QMT_RTOL)
        # Not compared: the tabulated "berry_curvature" reference.  It is
        # acceptance criterion 3, red by design: the table holds half of
        # F = d beta, which the engine (and the loop workload) keep.


def _check_sweep(op, model, path):
    chk = Check()
    m = model.m
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != SWEEP_POINTS:
        chk.problems.append(f"{len(rows)} rows, expected {SWEEP_POINTS}")
    for i, row in enumerate(rows):
        label = f"row {i}"
        if row["error"]:
            chk.problems.append(f"{label}: {row['error']}")
            continue
        chk.results += 1
        lamv = np.array([float(row[nm]) for nm in model.parameter_names])
        get = lambda prefix: np.array([[float(row[f"{prefix}_{r + 1}{k + 1}"])  # noqa: E731
                                        for k in range(m)] for r in range(m)])
        qmt = get("G")
        qgt = get("QGTre") + 1j * get("QGTim")
        curv = np.zeros((m, m))
        for r in range(m):
            for k in range(r + 1, m):
                curv[r, k] = float(row[f"F_{r + 1}{k + 1}"])
                curv[k, r] = -curv[r, k]
        beta = np.array([float(row[f"beta_{r + 1}"]) for r in range(m)])
        _check_bundle(chk, model, (op["n"],), lamv, qmt, qgt, curv, beta,
                      float(row["quad_err"]), label)
        if abs(float(row["det"]) - np.linalg.det(qmt)) > 1e-12 * max(1.0, abs(float(row["det"]))):
            chk.problems.append(f"{label}: det column disagrees with det(G)")
    return chk


def _check_compute(op, model, path):
    chk = Check()
    with open(path) as fh:
        rec = json.loads(fh.read())
    lamv = np.array(op["lam"])
    qmt = np.array(rec["qmt"])
    qgt = np.array(rec["qgt"]["re"]) + 1j * np.array(rec["qgt"]["im"])
    _check_bundle(chk, model, tuple(op["n"]), lamv, qmt, qgt,
                  np.array(rec["berry_curvature"]), np.array(rec["berry_connection"]),
                  rec["diag"]["quad_error"], "record")
    if abs(rec["det"] - np.linalg.det(qmt)) > 1e-12 * max(1.0, abs(rec["det"])):
        chk.problems.append("det disagrees with det(G)")
    sub = np.linalg.det(qmt[:3, :3])
    if abs(rec["subdet_b"] - sub) > 1e-12 * max(1.0, abs(sub)):
        chk.problems.append("subdet_b disagrees with the (k1, k2, a) minor of G")
    if np.min(np.linalg.eigvalsh(qmt)) < -1e-10:
        chk.problems.append("metric is not positive semi-definite")
    chk.results = 1
    return chk


def _check_validate(op, model, path):
    chk = Check()
    with open(path) as fh:
        report = json.loads(fh.read())
    checks = report["checks"]
    chk.route(checks["route_equivalence"]["max_deviation"], ROUTE_TOL, "|chi - G|")
    # <psi|psi> = 1 is the one closed-form value in the report
    chk.ref_err = max(chk.ref_err, checks["norm_deviation"]["max_deviation"])
    failing = [k for k, v in checks.items() if not v["pass"]]
    if failing or not report["pass"]:
        chk.problems.append(f"validate report fails: {failing}")
    chk.results = 1
    return chk


def _check_spectrum(op, model, path):
    chk = Check()
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != SPECTRUM_LEVELS:
        chk.problems.append(f"{len(rows)} levels, expected {SPECTRUM_LEVELS}")
    lamv = np.array(op["lam"])
    got = [float(r["energy"]) for r in rows]
    want = [_ref(model, "energy", (int(r["n"]),), lamv) for r in rows]
    chk.ref(got, want, "energies", SPECTRUM_RTOL)
    chk.results = 1
    return chk


def _check_gridqgt(op, model, tensors):
    chk = Check()
    lamv = np.array(op["lam"])
    chk.invariants(tensors, "grid family")
    chk.ref(tensors.qmt, _ref(model, "qmt", (0,), lamv), "grid-family qmt", GRID_QMT_RTOL)
    chk.results = 1
    return chk


def stokes_flux(loop):
    """Closed-form flux of F_bc = -1/(8 (c - b^2)^(3/2)) through a (b, c) rectangle."""
    (_, b0, c0), (_, b1, _), (_, _, c1) = loop[0], loop[1], loop[2]
    prim = lambda b, c: math.asin(b / math.sqrt(c))  # noqa: E731
    return 0.25 * ((prim(b1, c1) - prim(b1, c0)) - (prim(b0, c1) - prim(b0, c0)))


def _check_loop(op, model, phase):
    chk = Check()
    if model.name == "generalized-anharmonic":
        chk.route(abs(phase - stokes_flux(op["loop"])), ROUTE_TOL, "|phase - flux|")
    else:
        chk.ref(phase, 0.0, "phase of a real family", atol=1e-6)
    chk.results = 1
    return chk


_CHECKS = {"sweep": _check_sweep, "compute": _check_compute,
           "validate": _check_validate, "spectrum": _check_spectrum,
           "gridqgt": _check_gridqgt, "loop": _check_loop}


def check_op(op, ctx, output) -> Check:
    return _CHECKS[op["kind"]](op, ctx.models[op["model"]], output)
