"""Span recorder for the traced benchmark run.

The tracer wraps, from outside the package, the public callables at each
curvedqgt layer boundary: the family callables of registry models, the two
quadrature entry points as the geometry and fidelity modules see them, the
``GeometryEngine`` methods, ``fidelity.overlap``, the spectral build and
eigensolve, the grid-eigenvector family and ``diffops.fd_derivative``.
Every wrapped call records a span (name, start, end, parent span, op id);
spans stay in memory and are aggregated, and written out, when the run
ends.  Nothing under ``src/`` is modified: :meth:`Tracer.install` swaps
module attributes and :meth:`Tracer.uninstall` puts them back.

Single-threaded by design: the span stack is one list, so sweeps are
traced at ``--jobs 1`` (spans recorded in pool workers would be lost).
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

QUAD_SCHEMES = ("de", "gk", "prod2d")


def _scheme_for(domain, cfg) -> str:
    """The 1-D scheme ``quadrature.integrate`` picks for this domain.

    Plain finite intervals go to Gauss-Kronrod under the ``auto`` scheme;
    unbounded or transform-tamed axes go to the double-exponential rule.
    """
    scheme = getattr(cfg, "scheme", "auto") if cfg is not None else "auto"
    axis = domain.axes[0]
    plain_finite = (axis.transform is None and not axis.even_fold
                    and math.isfinite(axis.lo) and math.isfinite(axis.hi))
    if scheme == "gauss-kronrod" or (scheme == "auto" and plain_finite):
        return "gk"
    return "de"


class Tracer:
    """In-memory spans and counters for one traced phase."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, op id)
        self.counts = Counter()
        self.op_id = -1
        self._stack = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id)

    def wrap(self, name, fn, nodes_key=None):
        """Traced stand-in for ``fn``; optionally counts output elements."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if nodes_key is not None:
                self.counts[nodes_key] += int(np.size(out))
            return out

        return traced

    def op(self, op_id, fn, *args, **kwargs):
        """Run one benchmark op as the root span."""
        self.op_id = op_id
        return self.call("op", fn, *args, **kwargs)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_model(self, model):
        """Copy of a registry model whose family callables are traced."""
        def w(name, fn):
            return None if fn is None else self.wrap(name, fn, "models.nodes")

        psi = dataclasses.replace(
            model.psi, eval=w("models.psi", model.psi.eval),
            analytic_param_grad=w("models.dpsi", model.psi.analytic_param_grad))
        metric = dataclasses.replace(
            model.metric, eval=w("models.metric", model.metric.eval),
            det=w("models.det", model.metric.det),
            analytic_log_det_grad=w("models.dlogdet",
                                    model.metric.analytic_log_det_grad))
        return dataclasses.replace(model, psi=psi, metric=metric,
                                   potential=w("models.potential", model.potential))

    def _counting(self, f, key):
        """Integrand stand-in that counts the nodes it is evaluated at."""
        def counted(*axes):
            out = f(*axes)
            self.counts[key] += int(np.size(out))
            return out

        return counted

    def _traced_integrate(self, integrate):
        def traced(f, domain, cfg=None):
            d = _scheme_for(domain, cfg)
            return self.call(f"quadrature.{d}", integrate,
                             self._counting(f, f"quadrature.{d}.nodes"), domain, cfg)

        return traced

    def _traced_product(self, integrate_2d):
        def traced(f, domain_x, domain_y, cfg=None):
            return self.call("quadrature.prod2d", integrate_2d,
                             self._counting(f, "quadrature.prod2d.nodes"),
                             domain_x, domain_y, cfg)

        return traced

    def _traced_bracket(self, bracket):
        def traced(engine, *args, **kwargs):
            cache = getattr(engine, "cache", None)
            before = getattr(cache, "hits", 0)
            out = self.call("geometry.bracket", bracket, engine, *args, **kwargs)
            if getattr(cache, "hits", 0) > before:
                self.counts["geometry.cache_hits"] += 1
            return out

        return traced

    def _traced_build(self, build):
        def traced(model, grid, lam=None):
            self.counts["spectrum.grid_points"] += int(grid.n)
            return self.call("spectrum.build_hamiltonian", build, model, grid, lam)

        return traced

    def _traced_family_factory(self, factory):
        def traced(*args, **kwargs):
            fam = factory(*args, **kwargs)
            return dataclasses.replace(fam, eval=self.wrap("spectrum.family_eval", fam.eval))

        return traced

    def install(self, models_by_name: dict) -> dict:
        """Patch every layer boundary; returns traced copies of the models."""
        from curvedqgt import diffops, fidelity, geometry, models, spectrum

        get_model = models.get_model
        self._patch(models, "get_model", functools.wraps(get_model)(
            lambda *a, **k: self.wrap_model(get_model(*a, **k))))
        for mod in (geometry, fidelity):
            self._patch(mod, "integrate", self._traced_integrate(mod.integrate))
            self._patch(mod, "integrate_2d_product",
                        self._traced_product(mod.integrate_2d_product))
        for name, fn in list(vars(geometry.GeometryEngine).items()):
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            if name == "bracket":
                traced = self._traced_bracket(fn)
            else:
                traced = self.wrap(f"geometry.{name}", fn)
            self._patch(geometry.GeometryEngine, name, traced)
        self._patch(fidelity, "overlap", self.wrap("fidelity.overlap", fidelity.overlap))
        self._patch(spectrum, "build_hamiltonian",
                    self._traced_build(spectrum.build_hamiltonian))
        self._patch(spectrum, "eigensolve",
                    self.wrap("spectrum.eigensolve", spectrum.eigensolve))
        self._patch(spectrum, "numerical_wavefunction_family",
                    self._traced_family_factory(spectrum.numerical_wavefunction_family))
        self._patch(diffops, "fd_derivative",
                    self.wrap("diffops.fd_derivative", diffops.fd_derivative))
        return {name: self.wrap_model(m) for name, m in models_by_name.items()}

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- aggregation -------------------------------------------------------

    def self_times(self):
        """Self time (duration minus direct children) and calls, per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        calls = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
            calls[name] += 1
        return out, calls

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-layer counters and self times, each divided by ``n_ops``."""
        self_s, calls = self.self_times()

        def per_op(x):
            return x / n_ops

        def prefixed(prefix):
            return [k for k in calls if k.startswith(prefix)]

        model_calls = sum(calls[k] for k in prefixed("models."))
        model_self = sum(self_s[k] for k in prefixed("models."))
        nodes = self.counts["models.nodes"]
        brackets = calls["geometry.bracket"]
        geo_self = sum(self_s[k] for k in prefixed("geometry."))
        m = {
            "cli.self_s": per_op(self_s["op"]),
            "models.calls": per_op(model_calls),
            "models.nodes": per_op(nodes),
            "models.self_s": per_op(model_self),
            "models.ns_per_node": 1e9 * model_self / nodes if nodes else 0.0,
            "diffops.fd_calls": per_op(calls["diffops.fd_derivative"]),
            "diffops.self_s": per_op(self_s["diffops.fd_derivative"]),
            "geometry.bundles": per_op(calls["geometry.bracket_set"]),
            "geometry.brackets": per_op(brackets),
            "geometry.cache_hit_ratio": (self.counts["geometry.cache_hits"] / brackets
                                         if brackets else 0.0),
            "geometry.self_s": per_op(geo_self),
            "fidelity.overlaps": per_op(calls["fidelity.overlap"]),
            "fidelity.self_s": per_op(self_s["fidelity.overlap"]),
            "spectrum.eigensolves": per_op(calls["spectrum.eigensolve"]),
            "spectrum.eigensolve_s": per_op(self_s["spectrum.eigensolve"]),
            "spectrum.build_s": per_op(self_s["spectrum.build_hamiltonian"]),
            "spectrum.grid_points": per_op(self.counts["spectrum.grid_points"]),
            "spectrum.family_eval_s": per_op(self_s["spectrum.family_eval"]),
        }
        for d in QUAD_SCHEMES:
            m[f"quadrature.{d}.calls"] = per_op(calls[f"quadrature.{d}"])
            m[f"quadrature.{d}.nodes"] = per_op(self.counts[f"quadrature.{d}.nodes"])
            m[f"quadrature.{d}.self_s"] = per_op(self_s[f"quadrature.{d}"])
        return m

    def write(self, path):
        """Spans as tab-separated rows: index, name, start, end, parent, op."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\top\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
