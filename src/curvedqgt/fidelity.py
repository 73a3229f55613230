"""Fidelity-susceptibility route to the quantum metric.

The overlap between states at nearby parameter points, each weighted by
its own quarter-root metric determinant, expands as

    |<g^(1/4)(l')psi(l') | g^(1/4)(l)psi(l)>| = 1 - (1/2) chi_rk dl^r dl^k

and chi equals the quantum metric tensor.  The estimate here never
differentiates anything: it evaluates the overlap on symmetric
displacement stencils, extracts the quadratic coefficient, and
Richardson-extrapolates the step-size series.  That makes it an
independent cross-check of the bracket-assembled metric.  The overlaps
of F0 and every stencil point are one stack, integrated once on shared
nodes with its own integrand; it shares with the brackets only the
quadrature driver and the adapter that samples a stack of points,
:func:`~curvedqgt.core.over_points`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    Domain,
    LinearTermWarning,
    MetricFamily,
    ParameterBoundaryError,
    FitResidualError,
    WavefunctionFamily,
    as_quantum_number,
    over_points,
    param_values,
)
from .geometry import EngineConfig
from .quadrature import integrate, integrate_2d_product

__all__ = ["SusceptibilityConfig", "overlap", "fidelity_susceptibility",
           "SusceptibilityResult", "fidelity_susceptibility_detailed"]

# largest fitted linear coefficient before LinearTermWarning
LINEAR_TERM_WARN = 1e-6


@dataclass(frozen=True)
class SusceptibilityConfig:
    """Displacement stencil for the quadratic-coefficient fit.

    The step series is always Richardson-extrapolated, so steps should
    halve between entries; the default ladder does.  A single step gives
    the raw coefficient with fit residual 0.
    """

    delta_steps: tuple = (1e-2, 5e-3, 2.5e-3)
    residual_threshold: float = 1e-3

    def __post_init__(self):
        if not self.delta_steps:
            raise ValueError("delta_steps needs at least one step")
        if not all(d > 0 for d in self.delta_steps):
            raise ValueError("all displacement steps must be positive")
        if not self.residual_threshold > 0:
            raise ValueError("residual_threshold must be positive")


@dataclass
class SusceptibilityResult:
    chi: np.ndarray
    linear_term_max: float
    residual: float
    f0: float


def overlap(psi: WavefunctionFamily, metric: MetricFamily, domain: Domain,
            lam, lam_shifted, n, cfg: Optional[EngineConfig] = None):
    """<g^(1/4)(l') psi(l') | g^(1/4)(l) psi(l)>; returns (value, error).

    Both quarter-root determinant factors are evaluated at their own
    parameter point, matching the symmetric split of the measure.
    ``lam_shifted`` is one point l' ``(m,)``, giving one value and one
    error, or a stack ``(P, m)``, giving ``(P,)`` of each from one
    integration on shared nodes that stops once every overlap is within
    tolerance.  Each integrand call samples l and the whole stack through
    :func:`~curvedqgt.core.over_points`: in one family call when both
    families broadcast over points, point by point otherwise.
    """
    cfg = cfg or EngineConfig()
    lamv = param_values(lam)
    shifted = np.asarray(lam_shifted, dtype=float)
    points = np.vstack([lamv, shifted.reshape(-1, lamv.size)])
    n = as_quantum_number(n)
    broadcasts = psi.broadcasts and metric.broadcasts

    def weighted(p, *axes):
        return [metric.quarter_root_det(p, *axes) * np.asarray(psi.eval(p, n, *axes))]

    def f(*axes):
        phi = over_points(weighted, points, axes, broadcasts)[:, 0]
        return phi[1:].conj() * phi[0]

    if domain.dim == 1:
        val, err = integrate(f, domain, cfg.quad)
    else:
        val, err = integrate_2d_product(f, domain.axes[0], domain.axes[1], cfg.quad)
    return (val, err) if shifted.ndim > 1 else (val[0], err[0])


def _richardson(values, p: int = 2, r: float = 2.0):
    """Eliminate the leading O(h^p) error from step-halving series along
    the last axis; returns (value, residual) per series."""
    vals = np.array(values, dtype=float)
    n = vals.shape[-1]
    for j in range(1, n):
        factor = r ** (p * j)
        vals[..., j:] = (factor * vals[..., j:] - vals[..., j - 1:-1]) / (factor - 1.0)
    residual = np.abs(vals[..., -1] - vals[..., -2]) if n >= 2 else np.zeros(vals.shape[:-1])
    return vals[..., -1], residual


def fidelity_susceptibility_detailed(
        psi: WavefunctionFamily, metric: MetricFamily, domain: Domain,
        lam, n, cfg: Optional[EngineConfig] = None,
        sus_cfg: Optional[SusceptibilityConfig] = None,
        in_domain: Optional[Callable] = None) -> SusceptibilityResult:
    """Estimate chi with diagnostics: linear-term size and fit residual.

    Diagonal entries come from displacements along each axis; off-diagonal
    entries from the polarization identity over +-(e_r + e_k) delta and
    +-(e_r - e_k) delta, which avoids an ill-conditioned general fit.  The
    fitted linear term must vanish for a correctly normalized family and
    is the most sensitive detector of measure-handling errors.  Every
    stencil point is checked against ``in_domain`` before any family call,
    and F0 and all stencil overlaps are one stacked :func:`overlap`.
    """
    cfg = cfg or EngineConfig()
    sus_cfg = sus_cfg or SusceptibilityConfig()
    lamv = param_values(lam)
    n = as_quantum_number(n)
    m = lamv.size
    steps = np.array(sorted(sus_cfg.delta_steps, reverse=True), dtype=float)

    unit = np.eye(m)
    upper = np.triu_indices(m, 1)
    directions = [*unit, *(unit[r] + sign * unit[k]
                           for r, k in zip(*upper) for sign in (1.0, -1.0))]
    # per direction, per step (largest first): +delta, then -delta
    targets = np.array([lamv + sign * d * u for u in directions
                        for d in steps for sign in (1.0, -1.0)])
    if in_domain is not None:
        for target in targets:
            if not in_domain(target):
                raise ParameterBoundaryError(
                    f"susceptibility stencil point {target} leaves the parameter domain"
                )
    val, _ = overlap(psi, metric, domain, lamv, np.vstack([lamv, targets]), n, cfg)
    fid = np.abs(val)
    f0 = fid[0]
    fid = fid[1:].reshape(len(directions), steps.size, 2)

    # c2 in F(delta)/F0 = 1 + c2 delta^2 + O(delta^4), and the linear c1,
    # per direction and step from the overlaps F(+-delta)
    fp, fm = fid[..., 0], fid[..., 1]
    c2 = ((fp + fm) / (2.0 * f0) - 1.0) / (steps * steps)
    c1 = (fp - fm) / (2.0 * steps * f0)
    value, residual = _richardson(c2)
    q = -2.0 * value
    chi = np.diag(q[:m])
    chi[upper] = chi[upper[::-1]] = 0.25 * (q[m::2] - q[m + 1::2])
    worst_residual = float(np.max(residual))
    # the raw c1 estimates carry the cubic term at O(delta^2);
    # the same extrapolation isolates the true linear coefficient
    worst_linear = float(np.max(np.abs(_richardson(c1)[0])))

    scale = max(1.0, float(np.max(np.abs(q[:m]))))
    if worst_residual > sus_cfg.residual_threshold * scale:
        raise FitResidualError(worst_residual, sus_cfg.residual_threshold * scale)
    if worst_linear > LINEAR_TERM_WARN:
        warnings.warn(
            f"fidelity expansion linear term {worst_linear:.3e} should vanish "
            "for a normalized family; check the measure handling",
            LinearTermWarning,
            stacklevel=2,
        )
    return SusceptibilityResult(
        chi=chi, linear_term_max=worst_linear,
        residual=worst_residual, f0=f0,
    )


def fidelity_susceptibility(psi, metric, domain, lam, n,
                            cfg: Optional[EngineConfig] = None,
                            sus_cfg: Optional[SusceptibilityConfig] = None,
                            in_domain: Optional[Callable] = None) -> np.ndarray:
    """Symmetric susceptibility matrix chi; see the detailed variant."""
    return fidelity_susceptibility_detailed(
        psi, metric, domain, lam, n, cfg, sus_cfg, in_domain
    ).chi
