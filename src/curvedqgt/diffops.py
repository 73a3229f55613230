"""Finite-difference parameter derivatives.

Derivatives act on the external parameters only; nothing here
differentiates in the configuration variable.  Steps scale with the
parameter magnitude so relative truncation error stays uniform across
sweep grids.  A stencil never crosses a declared parameter-domain
boundary: one that would raises ParameterBoundaryError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    MetricFamily,
    ParameterBoundaryError,
    WavefunctionFamily,
    as_quantum_number,
    param_values,
)

__all__ = ["FdConfig", "fd_derivative", "d_psi", "d_log_det_g",
           "sigma_from_contraction"]

_STENCILS = {
    "central-2": ((-1.0, 1.0), (-0.5, 0.5)),
    "central-4": ((-2.0, -1.0, 1.0, 2.0),
                  (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)),
}


@dataclass(frozen=True)
class FdConfig:
    """Step policy: h_rho = base_step * max(1, |lambda_rho|)."""

    base_step: float = 1e-4
    scheme: str = "central-4"  # "central-2" | "central-4"

    def __post_init__(self):
        if not 0 < self.base_step < np.inf:
            raise ValueError("base_step must be positive and finite")
        if self.scheme not in _STENCILS:
            raise ValueError(f"unknown scheme '{self.scheme}'")

    def step(self, lam_rho: float) -> float:
        return self.base_step * max(1.0, abs(lam_rho))


def _stencil_points(lamv, rho, offsets, h):
    pts = []
    for off in offsets:
        shifted = lamv.copy()
        shifted[rho] += off * h
        pts.append(shifted)
    return pts


def _check_stencil(lamv, rho, offsets, h, in_domain):
    if in_domain is None:
        return True
    return all(in_domain(p) for p in _stencil_points(lamv, rho, offsets, h))


def fd_derivative(fn: Callable, lam, rho: int, cfg: Optional[FdConfig] = None,
                  in_domain: Optional[Callable] = None):
    """d fn / d lambda_rho for fn taking the full parameter vector.

    A stencil leaving the parameter domain raises ParameterBoundaryError.
    """
    if cfg is None:
        cfg = FdConfig()
    lamv = param_values(lam)
    h = cfg.step(lamv[rho])
    offs, coeffs = _STENCILS[cfg.scheme]
    if not _check_stencil(lamv, rho, offs, h, in_domain):
        raise ParameterBoundaryError(
            f"finite-difference stencil for parameter {rho} at {lamv} crosses "
            "a domain boundary"
        )
    return sum(c * fn(p) for c, p in
               zip(coeffs, _stencil_points(lamv, rho, offs, h))) / h


def d_psi(psi: WavefunctionFamily, n, lam, cfg: Optional[FdConfig] = None, *axes,
          in_domain: Optional[Callable] = None):
    """d psi_n / d lambda_r for every r at the given configuration points,
    stacked ``(m, *values)``.

    Returns the analytic gradient whenever the family supplies one, also
    for a stack of points on a broadcasting family, and otherwise central
    differences in each parameter in turn, in the dtype of ``psi.eval``: a
    real family keeps a real gradient.
    """
    n = as_quantum_number(n)
    lamv = lam if np.ndim(lam) > 1 else param_values(lam)
    if psi.analytic_param_grad is not None:
        return np.asarray(psi.analytic_param_grad(lamv, n, *axes))
    return np.stack([fd_derivative(
        lambda p: np.asarray(psi.eval(p, n, *axes)),
        lamv, rho, cfg, in_domain=in_domain) for rho in range(lamv.size)])


def d_log_det_g(metric: MetricFamily, lam, cfg: Optional[FdConfig] = None, *axes,
                in_domain: Optional[Callable] = None):
    """d ln det g / d lambda_r for every r, the source of every curvature
    correction: a leading axis of length m that broadcasts against the
    values at the nodes, analytic when the family supplies it."""
    lamv = lam if np.ndim(lam) > 1 else param_values(lam)
    if metric.analytic_log_det_grad is not None:
        return np.asarray(metric.analytic_log_det_grad(lamv, *axes))
    return np.stack([fd_derivative(
        lambda p: np.log(np.asarray(metric.det_at(p, *axes))),
        lamv, rho, cfg, in_domain=in_domain) for rho in range(lamv.size)])


def sigma_from_contraction(metric: MetricFamily, lam, cfg: Optional[FdConfig] = None,
                           *axes, in_domain: Optional[Callable] = None):
    """sigma_r = g_munu d g^munu / d lambda_r for every r, stacked
    ``(m, *nodes)``: the entrywise route.

    Differentiates the inverse metric entry by entry and contracts with
    the metric; used as the independent cross-check of the log-det route.
    """
    lamv = param_values(lam)
    g = np.asarray(metric.eval(lamv, *axes))

    def inv_entries(p):
        return np.linalg.inv(np.asarray(metric.eval(p, *axes)))

    return np.stack([np.einsum("...ij,...ij->...", g, fd_derivative(
        inv_entries, lamv, rho, cfg, in_domain=in_domain)) for rho in range(lamv.size)])
