"""Fidelity-susceptibility route to the quantum metric.

The overlap between states at nearby parameter points, each weighted by
its own quarter-root metric determinant, expands as

    |<g^(1/4)(l')psi(l') | g^(1/4)(l)psi(l)>| = 1 - (1/2) chi_rk dl^r dl^k

and chi equals the quantum metric tensor.  The estimate here never
differentiates anything: it evaluates the overlap on symmetric
displacement stencils, extracts the quadratic coefficient, and
Richardson-extrapolates the step-size series.  That makes it an
independent cross-check of the bracket-assembled metric.
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
        if not all(d > 0 for d in self.delta_steps):
            raise ValueError("all displacement steps must be positive")


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
    """
    cfg = cfg or EngineConfig()
    lamv = param_values(lam)
    lamv2 = param_values(lam_shifted)
    n = as_quantum_number(n)

    def f(*axes):
        w = metric.quarter_root_det(lamv, *axes) \
            * metric.quarter_root_det(lamv2, *axes)
        return w * np.conj(np.asarray(psi.eval(lamv2, n, *axes))) \
            * np.asarray(psi.eval(lamv, n, *axes))

    if domain.dim == 1:
        return integrate(f, domain, cfg.quad)
    return integrate_2d_product(f, domain.axes[0], domain.axes[1], cfg.quad)


def _richardson(values, p: int = 2, r: float = 2.0):
    """Eliminate the leading O(h^p) error from a step-halving series."""
    vals = [float(v) for v in values]
    n = len(vals)
    for j in range(1, n):
        factor = r ** (p * j)
        for k in range(n - 1, j - 1, -1):
            vals[k] = (factor * vals[k] - vals[k - 1]) / (factor - 1.0)
    residual = abs(vals[-1] - vals[-2]) if n >= 2 else 0.0
    return vals[-1], residual


def _quadratic_coefficient(fid, direction, steps, f0):
    """c2 in F(delta)/F0 = 1 + c2 delta^2 + O(delta^4), per step size."""
    c2 = []
    c1 = []
    for d in steps:
        fp = fid(d * direction)
        fm = fid(-d * direction)
        c2.append(((fp + fm) / (2.0 * f0) - 1.0) / (d * d))
        c1.append((fp - fm) / (2.0 * d * f0))
    return np.array(c2), np.array(c1)


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
    is the most sensitive detector of measure-handling errors.
    """
    cfg = cfg or EngineConfig()
    sus_cfg = sus_cfg or SusceptibilityConfig()
    lamv = param_values(lam)
    n = as_quantum_number(n)
    m = lamv.size
    steps = tuple(sorted(sus_cfg.delta_steps, reverse=True))

    def fid(displacement):
        target = lamv + displacement
        if in_domain is not None and not in_domain(target):
            raise ParameterBoundaryError(
                f"susceptibility stencil point {target} leaves the parameter domain"
            )
        val, _ = overlap(psi, metric, domain, lamv, target, n, cfg)
        return abs(val)

    f0, _ = overlap(psi, metric, domain, lamv, lamv, n, cfg)
    f0 = abs(f0)

    def fit(direction):
        c2, c1 = _quadratic_coefficient(fid, direction, steps, f0)
        value, residual = _richardson(c2)
        # the raw c1 estimates carry the cubic term at O(delta^2);
        # the same extrapolation isolates the true linear coefficient
        lin = abs(_richardson(c1)[0])
        return -2.0 * value, residual, lin

    chi = np.zeros((m, m))
    worst_residual = 0.0
    worst_linear = 0.0
    unit = np.eye(m)
    diag_scale = np.zeros(m)
    for r in range(m):
        q, res, lin = fit(unit[r])
        chi[r, r] = q
        diag_scale[r] = abs(q)
        worst_residual = max(worst_residual, res)
        worst_linear = max(worst_linear, lin)
    for r in range(m):
        for k in range(r + 1, m):
            q_plus, res_p, lin_p = fit(unit[r] + unit[k])
            q_minus, res_m, lin_m = fit(unit[r] - unit[k])
            chi[r, k] = chi[k, r] = 0.25 * (q_plus - q_minus)
            worst_residual = max(worst_residual, res_p, res_m)
            worst_linear = max(worst_linear, lin_p, lin_m)

    scale = max(1.0, float(np.max(diag_scale)))
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
