"""Command-line front end: single points, sweeps, validation, spectra.

Subcommands: ``compute``, ``sweep``, ``validate``, ``spectrum``,
``phase-portrait``, each taking only the options it reads.  All numeric
output is emitted as CSV (17 significant digits, lossless round-trip) or
JSON lines.  Every command takes ``--config <file>``: a JSON object whose
keys are flag or option names (``n``, ``grid-size``, ``n_str``), plus
``params`` and ``grid``, that fills the defaults of the command's options;
flags win, and a bad file or value exits 2.

Exit codes: 0 success, 1 validation failure, 2 usage error, 3 numerical
failure.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import warnings

import click
import numpy as np

from . import fidelity as fid
from . import geometry as geo
from . import models as mdl
from . import spectrum as spec
from .core import EngineError, validate
from .diffops import FdConfig
from .quadrature import QuadratureConfig

_PARAM_FLAGS = ("lambda", "omega", "k1", "k2", "a", "b", "c")
_QUANTITIES = ("qmt", "qgt", "berry_curvature", "berry_connection", "det",
               "fidelity_chi")
# most grid points a sweep integrates as one Gram stack
SWEEP_BATCH = 16


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _emit(lines, out):
    text = "\n".join(lines) + ("\n" if lines else "")
    if out in (None, "-", "stdout"):
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _fail(code: int, kind: str, message: str):
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}},
                                sort_keys=True) + "\n")
    raise SystemExit(code)


def _read_config(ctx, param, path):
    """``--config`` callback: the JSON file becomes ``ctx.default_map``.

    A key names an option by its flag (``n``, ``format``, ``grid-size``)
    or its option name (``n_str``, ``fmt``, with dashes or underscores).
    ``params`` maps parameter names to values and ``grid`` maps them to
    ``{"min", "max", "count", "scale"}``.  A list is comma-joined for a
    single-valued option and repeats a repeatable one.  Keys naming no
    option of the command are ignored, so one file can serve several
    commands.
    """
    if path is None:
        return
    options = {key: p for p in ctx.command.params if p is not param
               for key in (*(o.lstrip("-") for o in p.opts), p.name,
                           p.name.replace("_", "-"))}
    try:
        with open(path) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise TypeError("expected a JSON object")
        if isinstance(config.get("grid"), dict):
            config["grid"] = [
                f"{name}={g['min']}:{g['max']}:{g['count']}:{g.get('scale', 'linear')}"
                for name, g in config["grid"].items()
            ]
        entries = [*config.items(),
                   *((f"p_{name}", v) for name, v in (config.get("params") or {}).items())]
    except (OSError, ValueError, AttributeError, KeyError, TypeError) as exc:
        raise click.BadParameter(f"cannot read {path}: {exc!r}", ctx, param)
    defaults = {}
    for key, value in entries:
        p = options.get(key)
        if p is None or value is None:
            continue
        if isinstance(value, list) and not p.multiple:
            value = ",".join(map(str, value))
        defaults[p.name] = value
    ctx.default_map = defaults


def _options(*decorators):
    """One decorator adding ``decorators``' options in the listed order."""
    def apply(fn):
        for dec in reversed(decorators):
            fn = dec(fn)
        return fn
    return apply


def _param_options(names):
    return _options(*(click.option(f"--{name}", f"p_{name}", type=float, default=None)
                      for name in names))


class _Positive(click.FloatRange):
    """``FloatRange(x > 0)`` that refuses NaN as well."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        return rv if rv > 0 else self.fail(f"{rv} is not in the range x>0.", param, ctx)


_positive = _Positive(min=0.0, min_open=True)
# every command writes output and reads --config; the other groups go only
# to the commands that read them, so click rejects the rest
io_options = _options(
    click.option("--out", "out", default="-", help="output path or '-' for stdout"),
    click.option("--config", "config_path", default=None,
                 type=click.Path(exists=True), help="JSON config mirroring flags",
                 is_eager=True, expose_value=False, callback=_read_config),
)
format_option = click.option("--format", "fmt", type=click.Choice(["csv", "jsonl"]),
                             default=None)
model_options = _options(
    click.option("--model", "model_name", default=None, help="registered model name"),
    click.option("--hbar", type=_positive, default=1.0, show_default=True),
    _param_options(_PARAM_FLAGS),
)
engine_options = _options(
    click.option("--quad-rel-tol", type=_positive, default=1e-10, show_default=True),
    click.option("--fd-step", type=_positive, default=1e-4, show_default=True),
)


def _engine_config(quad_rel_tol: float, fd_step: float) -> geo.EngineConfig:
    return geo.EngineConfig(
        quad=QuadratureConfig(rel_tol=quad_rel_tol,
                              abs_tol=max(1e-14, quad_rel_tol * 1e-2)),
        fd=FdConfig(base_step=fd_step),
    )


def _get_model(name, hbar):
    if not name:
        raise click.UsageError("a --model name is required")
    try:
        return mdl.get_model(name, hbar=hbar)
    except KeyError:
        raise click.UsageError(
            f"unknown model '{name}'; available: {', '.join(mdl.available_models())}"
        )


def _fixed_params(model, param_flags, swept=()) -> dict:
    """Model parameters from their ``--<name>`` flags, in model order,
    leaving out the ``swept`` ones."""
    fixed = {}
    for name in model.parameter_names:
        if name in swept:
            continue
        v = param_flags[f"p_{name}"]
        if v is None:
            raise click.UsageError(
                f"model {model.name} needs --{name} (parameters: "
                f"{', '.join(model.parameter_names)})"
            )
        fixed[name] = v
    return fixed


def _param_point(model, param_flags) -> np.ndarray:
    lamv = np.array(list(_fixed_params(model, param_flags).values()))
    if not model.check_in_domain(lamv):
        raise click.UsageError(
            f"parameters {dict(zip(model.parameter_names, lamv.tolist()))} lie "
            f"outside the domain of {model.name}"
        )
    return lamv


def _parse_n(model, text) -> tuple:
    """Quantum number from ``--n`` ("0" or "0,1"); the ground state if unset."""
    if not text:
        return (0,) * model.dim
    try:
        n = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise click.UsageError(f"bad --n '{text}'; expected comma-separated integers")
    if min(n) < 0:
        raise click.UsageError(f"bad --n '{text}'; quantum numbers are non-negative")
    if len(n) != model.dim:
        raise click.UsageError(
            f"model {model.name} expects a {model.dim}-component quantum "
            f"number, got --n {text}"
        )
    return n


def _parse_quantities(text, model, default=("qmt", "berry_curvature",
                                            "berry_connection", "det")):
    if not text:
        return list(default)
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if item.startswith("subdet:"):
            pname = item.split(":", 1)[1]
            if pname not in model.parameter_names:
                raise click.UsageError(f"subdet parameter '{pname}' not in "
                                       f"{model.parameter_names}")
            out.append(item)
        elif item in _QUANTITIES:
            out.append(item)
        else:
            raise click.UsageError(f"unknown quantity '{item}'")
    return out


# ---------------------------------------------------------------------------
# Records and serialization
# ---------------------------------------------------------------------------

def _point_records(model, points, n, quantities, cfg):
    """Records at parameter points that share one ``model.domain_for``: one
    Gram stack for several points, the single-point path for one."""
    for lamv in points:
        if not model.check_in_domain(lamv):
            raise EngineError(
                f"parameters {dict(zip(model.parameter_names, map(float, lamv)))} "
                f"lie outside the domain of {model.name}"
            )
    engine = geo.GeometryEngine(
        model.psi, model.metric, model.domain_for(points[0]), cfg,
        in_domain=model.in_domain,
    )
    stack = engine.qgt(np.array(points), n) if len(points) > 1 else [engine.qgt(points[0], n)]
    records = []
    for lamv, tensors in zip(points, stack):
        rec = {"params": dict(zip(model.parameter_names, map(float, lamv))),
               "n": list(n),
               "config": {"hbar": model.hbar, "quad_rel_tol": cfg.quad.rel_tol,
                          "quad_abs_tol": cfg.quad.abs_tol,
                          "fd_step": cfg.fd.base_step, "fd_scheme": cfg.fd.scheme}}
        diag = {"quad_error": tensors.quad_error,
                "fd_steps": [float(s) for s in tensors.fd_steps]}
        for q in quantities:
            if q == "qmt":
                rec["qmt"] = tensors.qmt.tolist()
            elif q == "qgt":
                rec["qgt"] = {"re": tensors.qgt.real.tolist(),
                              "im": tensors.qgt.imag.tolist()}
            elif q == "berry_curvature":
                rec["berry_curvature"] = tensors.berry_curvature.tolist()
            elif q == "berry_connection":
                rec["berry_connection"] = tensors.berry_connection.tolist()
            elif q == "det":
                rec["det"] = float(np.linalg.det(tensors.qmt))
            elif q.startswith("subdet:"):
                pname = q.split(":", 1)[1]
                idx = [i for i, nm in enumerate(model.parameter_names) if nm != pname]
                rec[f"subdet_{pname}"] = float(
                    np.linalg.det(tensors.qmt[np.ix_(idx, idx)])
                )
            elif q == "fidelity_chi":
                chi = fid.fidelity_susceptibility(
                    model.psi, model.metric, model.domain_for(lamv), lamv, n,
                    cfg, in_domain=model.in_domain,
                )
                rec["fidelity_chi"] = chi.tolist()
        rec["diag"] = diag
        records.append(rec)
    return records


def _csv_fields(model, quantities, rec=None):
    """(column, value) pairs of one CSV row, in column order.

    Without a record every value is None, which is all a header needs.  An
    error row keeps its parameters and error text and leaves the rest empty.
    """
    m = model.m
    upper = [(i, j) for i in range(m) for j in range(i + 1, m)]
    full = [(i, j) for i in range(m) for j in range(m)]
    with_diag = [(i, j) for i in range(m) for j in range(i, m)]
    ok = rec is not None and not rec.get("error")

    def at(key, *path):
        if not ok:
            return None
        v = rec[key]
        for p in path:
            v = v[p]
        return v

    for nm in model.parameter_names:
        yield nm, None if rec is None else rec["params"][nm]
    for q in quantities:
        if q == "qmt":
            yield from ((f"G_{i + 1}{j + 1}", at("qmt", i, j)) for i, j in full)
        elif q == "qgt":
            for part in ("re", "im"):
                yield from ((f"QGT{part}_{i + 1}{j + 1}", at("qgt", part, i, j))
                            for i, j in full)
        elif q == "berry_curvature":
            yield from ((f"F_{i + 1}{j + 1}", at("berry_curvature", i, j)) for i, j in upper)
        elif q == "berry_connection":
            yield from ((f"beta_{i + 1}", at("berry_connection", i)) for i in range(m))
        elif q == "det":
            yield "det", at("det")
        elif q.startswith("subdet:"):
            key = f"subdet_{q.split(':', 1)[1]}"
            yield key, at(key)
        elif q == "fidelity_chi":
            yield from ((f"chi_{i + 1}{j + 1}", at("fidelity_chi", i, j))
                        for i, j in with_diag)
    yield "quad_err", at("diag", "quad_error")
    yield "error", None if rec is None else rec.get("error")


def _csv_header(model, quantities):
    return [col for col, _ in _csv_fields(model, quantities)]


def _csv_row(model, quantities, rec):
    return ["" if v is None else v if isinstance(v, str) else _fmt(v)
            for _, v in _csv_fields(model, quantities, rec)]


# ---------------------------------------------------------------------------
# Sweep machinery
# ---------------------------------------------------------------------------

def _run_sweep_batch(points, model_name, hbar, n, quantities, cfg):
    """Records of one batch of grid points: one Gram stack or, if that
    raises, one point at a time, so that only a failing point gets an error
    row.  The stack's warnings are replayed only if it succeeds."""
    model = mdl.get_model(model_name, hbar=hbar)
    if len(points) > 1:
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                records = _point_records(model, points, n, quantities, cfg)
            for w in caught:  # a warning filtered into an error fails the batch too
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return records
        except Exception:  # the points one at a time, below
            pass
    records = []
    for lam_values in points:
        try:
            rec, = _point_records(model, [lam_values], n, quantities, cfg)
        except Exception as exc:  # per-point failure becomes an error column
            rec = {"params": dict(zip(model.parameter_names, lam_values)),
                   "n": list(n), "error": f"{type(exc).__name__}: {exc}",
                   "diag": {"quad_error": None, "fd_steps": []}}
        records.append(rec)
    return records


def _parse_grid(specs):
    grids = {}
    for item in specs:
        try:
            name, rest = item.split("=", 1)
            parts = rest.split(":")
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
            scale = parts[3] if len(parts) > 3 else "linear"
        except (ValueError, IndexError):
            raise click.UsageError(
                f"bad --grid '{item}'; expected name=min:max:count[:scale]"
            )
        name = name.strip()
        if name in grids:
            raise click.UsageError(f"--grid names '{name}' more than once")
        if count < 1:
            raise click.UsageError("grid count must be at least 1")
        if scale not in ("linear", "log"):
            raise click.UsageError(f"unknown grid scale '{scale}'")
        if scale == "log" and not lo * hi > 0:
            raise click.UsageError(
                f"bad --grid '{item}'; a log grid needs ends of one sign, both nonzero"
            )
        if count == 1:
            values = np.array([lo])
        elif scale == "log":
            values = np.geomspace(lo, hi, count)
        else:
            values = np.linspace(lo, hi, count)
        grids[name] = values
    return grids


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

@click.group()
def main():
    """Quantum-geometry engine for parameter-dependent curved spaces."""


@main.command("compute")
@model_options
@engine_options
@format_option
@io_options
@click.option("--n", "n_str", default=None,
              help="quantum number (comma-separated for 2-D)  [default: ground state]")
@click.option("--quantities", "quantities_str", default=None,
              help="comma list from qmt,qgt,berry_curvature,berry_connection,"
                   "det,subdet:<param>,fidelity_chi")
def cmd_compute(model_name, hbar, quad_rel_tol, fd_step, fmt, out,
                n_str, quantities_str, **param_flags):
    """One record of requested tensors at a single parameter point."""
    model = _get_model(model_name, hbar)
    lamv = _param_point(model, param_flags)
    n = _parse_n(model, n_str)
    quantities = _parse_quantities(quantities_str, model)
    cfg = _engine_config(quad_rel_tol, fd_step)

    try:
        rec, = _point_records(model, [lamv], n, quantities, cfg)
    except EngineError as exc:
        _fail(3, type(exc).__name__, str(exc))
    if (fmt or "jsonl") == "jsonl":
        _emit([json.dumps(rec, sort_keys=True)], out)
    else:
        header = _csv_header(model, quantities)
        _emit([",".join(header), ",".join(_csv_row(model, quantities, rec))], out)


@main.command("sweep")
@model_options
@engine_options
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
@format_option
@io_options
@click.option("--grid", "grid_specs", multiple=True,
              help="name=min:max:count[:scale], repeatable")
@click.option("--n", "n_str", default=None,
              help="quantum number (comma-separated for 2-D)  [default: ground state]")
@click.option("--quantities", "quantities_str", default=None)
def cmd_sweep(model_name, hbar, quad_rel_tol, fd_step, jobs, fmt, out,
              grid_specs, n_str, quantities_str, **param_flags):
    """Tensor table over a parameter grid, row order independent of --jobs."""
    model = _get_model(model_name, hbar)
    grids = _parse_grid(grid_specs)
    for name in grids:
        if name not in model.parameter_names:
            raise click.UsageError(f"grid parameter '{name}' not in "
                                   f"{model.parameter_names}")
    fixed = _fixed_params(model, param_flags, swept=grids)
    n = _parse_n(model, n_str)
    quantities = _parse_quantities(quantities_str, model)

    swept = [nm for nm in model.parameter_names if nm in grids]
    shape = tuple(grids[nm].size for nm in swept)
    # consecutive points in one domain object form a batch, one Gram stack;
    # batches do not depend on --jobs, so neither do the rows
    stacks = model.psi.broadcasts and model.metric.broadcasts
    batches, last = [], False
    for multi in np.ndindex(*shape) if shape else [()]:
        values = dict(fixed)
        for nm, i in zip(swept, multi):
            values[nm] = float(grids[nm][i])
        lam_values = tuple(values[nm] for nm in model.parameter_names)
        domain = stacks and model.check_in_domain(lam_values) and model.domain_for(lam_values)
        if domain and domain is last and len(batches[-1]) < SWEEP_BATCH:
            batches[-1].append(lam_values)
        else:
            batches.append([lam_values])
        last = domain
    run = functools.partial(_run_sweep_batch, model_name=model.name, hbar=hbar, n=n,
                            quantities=quantities, cfg=_engine_config(quad_rel_tol, fd_step))
    if jobs > 1 and len(batches) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the pool starts every worker at the first submit, so ask for no
        # more workers than there are batches
        with ProcessPoolExecutor(max_workers=min(jobs, len(batches))) as pool:
            done = list(pool.map(run, batches))
    else:
        done = map(run, batches)
    results = [rec for records in done for rec in records]

    failures = sum(1 for r in results if r.get("error"))
    if fmt == "jsonl":
        lines = [json.dumps(r, sort_keys=True) for r in results]
    else:
        header = _csv_header(model, quantities)
        lines = [",".join(header)]
        lines += [",".join(_csv_row(model, quantities, r)) for r in results]
    _emit(lines, out)
    sys.stderr.write(f"sweep: {len(results)} points, {failures} failures\n")


@main.command("validate")
@model_options
@engine_options
@io_options
@click.option("--n", "n_str", default=None, help="quantum number")
@click.option("--samples", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=7, show_default=True)
@click.option("--route-tol", type=_positive, default=1e-4, show_default=True)
def cmd_validate(model_name, hbar, quad_rel_tol, fd_step, out,
                 n_str, samples, seed, route_tol, **param_flags):
    """Dual-route, gauge, and normalization checks; exit 1 on failure."""
    model = _get_model(model_name, hbar)
    n = _parse_n(model, n_str)
    cfg = _engine_config(quad_rel_tol, fd_step)

    if any(v is not None for v in param_flags.values()):
        points = [_param_point(model, param_flags)]
    else:
        rng = np.random.default_rng(seed)
        points = [model.sample_parameters(rng) for _ in range(samples)]

    try:
        report = validate(model.psi, model.metric, model.domain_for, points, n, cfg,
                          in_domain=model.in_domain, route_tol=route_tol)
    except EngineError as exc:
        _fail(3, type(exc).__name__, str(exc))

    checks = {name: {"max_deviation": dev, "tolerance": tol, "pass": bool(dev <= tol)}
              for name, (dev, tol) in report.checks.items()}
    _emit([json.dumps({
        "model": model.name,
        "points": [dict(zip(model.parameter_names, map(float, p)))
                   for p in report.points],
        "checks": checks,
        "pass": report.ok,
    }, sort_keys=True)], out)
    if not report.ok:
        failing = [k for k, v in checks.items() if not v["pass"]]
        sys.stderr.write(f"validation failed: {', '.join(failing)}\n")
        raise SystemExit(1)


@main.command("spectrum")
@model_options
@format_option
@io_options
@click.option("--k", type=click.IntRange(min=1), default=4, show_default=True,
              help="number of levels")
@click.option("--grid-size", type=int, default=2000, show_default=True)
def cmd_spectrum(model_name, hbar, fmt, out, k, grid_size, **param_flags):
    """Lowest k levels of the curved-space operator: (n, E_n, residual)."""
    model = _get_model(model_name, hbar)
    lamv = _param_point(model, param_flags)
    try:
        levels = spec.model_spectrum(model, lamv, k, n_points=grid_size)
    except ValueError as exc:  # a --k or --grid-size the solver cannot serve
        raise click.UsageError(str(exc))
    except EngineError as exc:
        _fail(3, type(exc).__name__, str(exc))
    if fmt == "jsonl":
        lines = [json.dumps({"n": i, "energy": e, "residual": r})
                 for i, (e, r) in enumerate(levels)]
    else:
        lines = ["n,energy,residual"]
        lines += [f"{i},{_fmt(e)},{_fmt(r)}" for i, (e, r) in enumerate(levels)]
    _emit(lines, out)


@main.command("phase-portrait")
@_param_options(("lambda", "omega"))
@format_option
@io_options
@click.option("--energy", "energies", multiple=True, type=float,
              help="level-set energies, repeatable")
@click.option("--levels", type=click.IntRange(min=0), default=0,
              help="emit this many automatic energies 0.5, 1.0, ...")
@click.option("--samples", type=click.IntRange(min=1), default=200, show_default=True)
def cmd_phase_portrait(p_lambda, p_omega, fmt, out, energies, levels, samples):
    """Classical level sets of the exponential-metric system."""
    omega = 1.0 if p_omega is None else p_omega
    lam = 1.0 if p_lambda is None else p_lambda
    for flag, value in (("--lambda", lam), ("--omega", omega),
                        *(("--energy", e) for e in energies)):
        if not math.isfinite(value):
            raise click.BadParameter(f"{value} is not a finite number.",
                                     param_hint=f"'{flag}'")
    if lam == 0 or omega == 0:
        raise click.UsageError("the phase portrait needs lambda != 0 and omega != 0")

    e_list = list(energies) + [0.5 * (i + 1) for i in range(levels)]
    if not e_list:
        e_list = [1.0]

    records = []
    for e_val in e_list:
        if e_val <= 0:
            records.append({"energy": e_val, "points": [],
                            "note": "energy below the potential infimum"})
            continue
        x_turn = -math.log(2.0 * e_val / omega ** 2) / lam
        span = 2.0 * math.log(1e3) / abs(lam)
        xs = x_turn + np.sign(lam) * np.linspace(0.0, span, samples)
        expo = np.exp(-lam * xs)
        p_sq = 0.5 * lam * lam * expo * (e_val - 0.5 * omega ** 2 * expo)
        p_sq = np.maximum(p_sq, 0.0)
        p = np.sqrt(p_sq)
        loop_x = np.concatenate([xs, xs[::-1]])
        loop_p = np.concatenate([p, -p[::-1]])
        records.append({"energy": e_val,
                        "points": [[float(a), float(b)]
                                   for a, b in zip(loop_x, loop_p)]})

    if fmt == "jsonl":
        lines = [json.dumps(r, sort_keys=True) for r in records]
    else:
        lines = ["energy,x,p"]
        for r in records:
            for x_val, p_val in r["points"]:
                lines.append(f"{_fmt(r['energy'])},{_fmt(x_val)},{_fmt(p_val)}")
    _emit(lines, out)


if __name__ == "__main__":
    main()
