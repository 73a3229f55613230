"""Shared domain types, error hierarchy, and validation.

Conventions used across the package:

* Parameter vectors are ordered 1-D float arrays (see :func:`param_values`).
* Configuration-space points are passed to evaluation callables as one
  broadcastable array per axis, e.g. ``eval(lam, n, x)`` in one dimension
  and ``eval(lam, n, x, y)`` in two.
* Quantum numbers are tuples; a bare integer is promoted to a 1-tuple.

:func:`validate` is the one validation path, whose report ``curvedqgt
validate`` serializes: it checks the metric and sigma on a fixed sample,
then the fidelity route, gauge covariance, the normalization identity and
the norm against their tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "EngineError",
    "DimensionMismatchError",
    "MetricPositivityError",
    "ParameterBoundaryError",
    "QuadratureError",
    "QuadratureConvergenceError",
    "IntegrandNaNError",
    "NoAnalyticReferenceError",
    "LevelCrossingError",
    "EigensolveError",
    "FitResidualError",
    "EngineWarning",
    "ImaginaryResidueWarning",
    "LinearTermWarning",
    "NormalizationWarning",
    "MetricFamily",
    "WavefunctionFamily",
    "over_points",
    "AxisTransform",
    "Axis",
    "Domain",
    "GeometricTensors",
    "ValidationReport",
    "param_values",
    "as_quantum_number",
    "validate",
]


# ---------------------------------------------------------------------------
# Errors and warnings
# ---------------------------------------------------------------------------

class EngineError(Exception):
    """Base class for all engine failures."""


class DimensionMismatchError(EngineError):
    """Inputs disagree on the configuration-space dimension."""

    def __init__(self, field_name: str, expected: int, got: int):
        self.field_name = field_name
        self.expected = expected
        self.got = got
        super().__init__(
            f"dimension mismatch in '{field_name}': expected {expected}, got {got}"
        )


class MetricPositivityError(EngineError):
    """The metric failed a positive-definiteness, symmetry or finiteness check."""

    def __init__(self, message: str, location=None):
        self.location = location
        super().__init__(message)


class ParameterBoundaryError(EngineError):
    """A finite-difference stencil would leave the parameter domain."""


class QuadratureError(EngineError):
    """Base class for quadrature failures."""


class QuadratureConvergenceError(QuadratureError):
    """Requested tolerance was not reached; carries the best estimate."""

    def __init__(self, message: str, best_value: complex, err_estimate: float):
        self.best_value = best_value
        self.err_estimate = err_estimate
        super().__init__(
            f"{message} (best value {best_value}, error estimate {err_estimate:.3e})"
        )


class IntegrandNaNError(QuadratureError):
    """The integrand returned a non-finite value; carries the location."""

    def __init__(self, location):
        self.location = location
        super().__init__(f"integrand returned a non-finite value at x = {location}")


class NoAnalyticReferenceError(EngineError):
    """No analytic reference exists for the requested quantity."""


class LevelCrossingError(EngineError):
    """Two eigenvalues approach within the gap threshold; names the pair."""

    def __init__(self, n_low: int, n_high: int, gap: float):
        self.pair = (n_low, n_high)
        super().__init__(
            f"eigenvalue gap between levels {n_low} and {n_high} is {gap:.3e}; "
            "phase alignment across the stencil is unreliable"
        )


class EigensolveError(EngineError):
    """The eigensolver failed to converge."""


class FitResidualError(EngineError):
    """The susceptibility fit residual exceeded its threshold."""

    def __init__(self, residual: float, threshold: float):
        self.residual = residual
        self.threshold = threshold
        super().__init__(
            f"susceptibility fit residual {residual:.3e} exceeds threshold "
            f"{threshold:.3e}; the state may sit near a cusp or domain boundary"
        )


class EngineWarning(UserWarning):
    """Base class for engine diagnostics raised as warnings."""


class ImaginaryResidueWarning(EngineWarning):
    """A nominally real quantity carried a noticeable imaginary part."""


class LinearTermWarning(EngineWarning):
    """The fidelity expansion showed a non-vanishing linear term."""


class NormalizationWarning(EngineWarning):
    """A state's curved norm <psi|psi> differs noticeably from 1."""


def param_values(lam) -> np.ndarray:
    """Normalize a parameter argument to a 1-D float array."""
    arr = np.atleast_1d(np.asarray(lam, dtype=float))
    if arr.ndim != 1:
        raise ValueError("parameter point must be one-dimensional")
    return arr


def as_quantum_number(n) -> tuple:
    if isinstance(n, tuple):
        return n
    if isinstance(n, (list, np.ndarray)):
        return tuple(int(k) for k in n)
    return (int(n),)


# ---------------------------------------------------------------------------
# Metric and wavefunction families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricFamily:
    """Spatial metric g_ij(x, lambda) with determinant helpers.

    ``eval(lam, *axes)`` returns the metric with shape ``(..., dim, dim)``
    where ``...`` broadcasts over the axis arrays.  ``det`` is an optional
    vectorized fast path for det g; ``analytic_log_det_grad(lam, *axes)``
    optionally returns the whole gradient d ln det g / d lambda_r, every r
    in one call: a leading axis of length m whose entries broadcast
    against the nodes.  ``broadcasts`` declares that ``eval``, ``det`` and
    ``analytic_log_det_grad`` also take a stack of P points, ``lam[r]`` of
    shape ``(P, 1, ..., 1)`` with one 1 per node axis, and return
    ``(P, *nodes)`` (``eval`` adds its two metric axes, the gradient puts
    its m axis first); ``det_at`` and ``sqrt_det`` pass such a stack
    through, and :func:`over_points` hands it one.
    """

    dim: int
    eval: Callable
    det: Optional[Callable] = None
    analytic_log_det_grad: Optional[Callable] = None
    broadcasts: bool = False

    def det_at(self, lam, *axes) -> np.ndarray:
        lamv = lam if np.ndim(lam) > 1 else param_values(lam)
        if self.det is not None:
            return np.asarray(self.det(lamv, *axes))
        g = np.asarray(self.eval(lamv, *axes))
        return np.linalg.det(g)

    def _positive_det(self, lam, *axes) -> np.ndarray:
        """det g, raising when it is not positive at some node.

        The error names the first such node, which it also carries as
        ``location``, and its parameter point (of a stack, the failing one).
        """
        d = self.det_at(lam, *axes)
        bad = np.asarray(d) <= 0
        if np.any(bad):
            bad, *nodes = np.broadcast_arrays(bad, *axes)
            idx = np.unravel_index(np.argmax(bad), bad.shape)
            stacked = np.ndim(lam) > 1
            point = np.asarray(lam)[:, idx[0]].ravel() if stacked else param_values(lam)
            loc = tuple(float(a[idx]) for a in nodes)
            raise MetricPositivityError(
                f"metric not positive-definite: det g <= 0 at x = {loc} "
                f"for parameters {point}", location=loc)
        return d

    def sqrt_det(self, lam, *axes) -> np.ndarray:
        return np.sqrt(self._positive_det(lam, *axes))

    def quarter_root_det(self, lam, *axes) -> np.ndarray:
        return np.power(self._positive_det(lam, *axes), 0.25)


@dataclass(frozen=True)
class WavefunctionFamily:
    """Amplitude psi_n(x, lambda) with optional analytic derivatives.

    ``eval(lam, n, *axes)`` returns amplitudes broadcast over the axis
    arrays, real or complex: a real family (and its gradient) may return
    real values, and its brackets then integrate a real Gram in real
    arithmetic.  ``analytic_param_grad(lam, n, *axes)``, when present,
    returns the whole gradient, d psi / d lambda_r for every r stacked
    ``(m, *values)``, and is used as the default derivative route; one
    call serves all m partials, so a family computes what they share
    once.  ``broadcasts`` declares that both also take a stack of P
    points, ``lam[r]`` of shape ``(P, 1, ..., 1)`` with one 1 per node
    axis, and return ``(P, *nodes)``, behind the m axis for the gradient;
    :func:`over_points` then samples a stack of brackets or overlaps in
    one call.  Every registry family broadcasts; a family without the flag
    is sampled point by point.
    """

    dim: int
    eval: Callable
    analytic_param_grad: Optional[Callable] = None
    broadcasts: bool = False


def over_points(fn: Callable, points: np.ndarray, axes, broadcasts: bool) -> np.ndarray:
    """The k columns ``fn(p, *axes)`` of each point of a stack ``(P, m)``,
    stacked ``(P, k, *nodes)``.  A ``broadcasts`` family is called once for
    a stack of several points, with ``p[r]`` of shape ``(P, 1, ..., 1)``,
    one 1 per node axis; any other family, and a single point, point by
    point with ``p`` of shape ``(m,)``."""
    if broadcasts and len(points) > 1:
        nodes = np.broadcast_shapes(*(np.shape(a) for a in axes))
        p = points.T.reshape(points.shape[::-1] + (1,) * len(nodes))
        return np.stack(np.broadcast_arrays(*fn(p, *axes)), axis=1)
    cols = [np.stack(np.broadcast_arrays(*fn(p, *axes))) for p in points]
    return cols[0][None] if len(cols) == 1 else np.stack(np.broadcast_arrays(*cols))


# ---------------------------------------------------------------------------
# Integration domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxisTransform:
    """Change of variables u = fwd(x) taming one integration axis.

    ``inv`` maps the computational variable back to the physical one and
    ``inv_jac`` is |dx/du| > 0 on the interior.  ``u_lo < u_hi`` are the
    computational bounds (may be infinite; the double-exponential rule
    handles them).
    """

    fwd: Callable
    inv: Callable
    inv_jac: Callable
    u_lo: float
    u_hi: float


@dataclass(frozen=True)
class Axis:
    """One integration axis: physical bounds plus optional taming devices.

    ``even_fold`` asserts the integrand is even under x -> -x so the full
    line can be folded onto (0, inf) with weight 2.
    """

    lo: float = -np.inf
    hi: float = np.inf
    transform: Optional[AxisTransform] = None
    even_fold: bool = False

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"empty axis [{self.lo}, {self.hi}]")
        if self.even_fold and not (self.lo == -self.hi):
            raise ValueError("even_fold requires a symmetric axis")


@dataclass(frozen=True)
class Domain:
    """Integration region, a product of 1-D axes."""

    dim: int
    axes: tuple

    def __post_init__(self):
        if len(self.axes) != self.dim:
            raise ValueError(f"{self.dim}-dimensional domain needs {self.dim} axes")

    @staticmethod
    def full_line(transform=None, even_fold=False) -> "Domain":
        return Domain(1, (Axis(-np.inf, np.inf, transform, even_fold),))

    @staticmethod
    def half_line(transform=None) -> "Domain":
        return Domain(1, (Axis(0.0, np.inf, transform),))

    @staticmethod
    def interval(lo: float, hi: float) -> "Domain":
        return Domain(1, (Axis(lo, hi),))

    @staticmethod
    def product(ax: Axis, ay: Axis) -> "Domain":
        return Domain(2, (ax, ay))


# ---------------------------------------------------------------------------
# Bundled geometric output
# ---------------------------------------------------------------------------

@dataclass
class GeometricTensors:
    """All parameter-space tensors for one state at one parameter point.

    ``qgt`` is the complex Hermitian tensor; ``qmt`` its real symmetric
    part; ``berry_curvature`` the antisymmetric curvature F with
    F = 2 Im(qgt); ``berry_connection`` the real connection vector.
    ``quad_error`` sums the entrywise quadrature error estimates (the
    change over the last level, plus the mass of the unrefined tails) of
    the Gram matrix that holds every bracket of the assembly, and
    ``fd_steps`` records the parameter steps used for derivatives.
    """

    qgt: np.ndarray
    qmt: np.ndarray
    berry_curvature: np.ndarray
    berry_connection: np.ndarray
    quad_error: float
    fd_steps: np.ndarray

    def tolerance(self, floor: float = 1e-10) -> float:
        """Assertion tolerance policy: 10x summed Gram error, floored."""
        return max(floor, 10.0 * self.quad_error)

    def invariant_residues(self) -> dict:
        g = self.qgt
        return {
            "hermiticity": float(np.max(np.abs(g - g.conj().T))),
            "qmt_symmetry": float(np.max(np.abs(self.qmt - self.qmt.T))),
            "curvature_antisymmetry": float(
                np.max(np.abs(self.berry_curvature + self.berry_curvature.T))
            ),
            "qmt_vs_re_qgt": float(np.max(np.abs(self.qmt - g.real))),
            "curvature_vs_im_qgt": float(
                np.max(np.abs(self.berry_curvature - 2.0 * g.imag))
            ),
        }

    def check_invariants(self, atol: float = 1e-10) -> None:
        for name, res in self.invariant_residues().items():
            if res > atol:
                raise EngineError(f"tensor invariant '{name}' violated: {res:.3e} > {atol:.1e}")


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

# the metric and sigma are checked on this interior sample of each point's
# domain before anything is integrated
_SAMPLE_SIZE = 64
_SAMPLE_SEED = 2023
_SYMMETRY_TOL = 1e-10
# the gauge checks apply the phase alpha = 0.37 lambda_0^2
_GAUGE_COEFF = 0.37
_CHECK_TOLERANCES = {"gauge_invariance": 1e-7, "connection_shift": 1e-8,
                     "normalization_identity": 1e-7, "norm_deviation": 1e-6}


def _gauge_grad(lamv) -> np.ndarray:
    """The gradient of the gauge checks' phase alpha."""
    grad = np.zeros(lamv.size)
    grad[0] = 2 * _GAUGE_COEFF * lamv[0]
    return grad


@dataclass
class ValidationReport:
    """Checks over ``points``: each name maps to (max_deviation, tolerance)."""

    points: list
    checks: dict

    @property
    def ok(self) -> bool:
        return all(dev <= tol for dev, tol in self.checks.values())


def _check_metric_samples(metric: MetricFamily, domain: Domain, lamv,
                          fd, in_domain) -> None:
    """Raise unless g is finite, symmetric and positive-definite and every
    sigma_rho is finite on a fixed interior sample of ``domain``."""
    from .diffops import d_log_det_g

    rng = np.random.default_rng(_SAMPLE_SEED)
    axes = []
    for ax in domain.axes:
        q = rng.uniform(0.05, 0.95, size=_SAMPLE_SIZE)
        lo, hi = (0.0 if ax.even_fold else ax.lo), ax.hi
        if np.isinf(lo) and np.isinf(hi):
            axes.append(np.tan(np.pi * (q - 0.5)) * 1.5)
        elif np.isinf(lo) or np.isinf(hi):
            end, sign = (hi, -1.0) if np.isinf(lo) else (lo, 1.0)
            axes.append(end + sign * np.tan(0.5 * np.pi * q) * 1.5)
        else:
            axes.append(lo + (hi - lo) * q)

    def fail(what, bad):
        loc = tuple(float(s[bad]) for s in axes)
        raise MetricPositivityError(f"{what} at sampled x = {loc}", location=loc)

    g = np.asarray(metric.eval(lamv, *axes))
    finite = np.all(np.isfinite(g), axis=(-2, -1))
    if not np.all(finite):
        fail("metric eval returned a non-finite value", np.argmin(finite))
    asym = np.max(np.abs(g - np.swapaxes(g, -1, -2)), axis=(-2, -1))
    if np.max(asym) > _SYMMETRY_TOL:
        fail(f"metric asymmetry {np.max(asym):.3e}", np.argmax(asym))
    min_eig = np.min(np.linalg.eigvalsh(g), axis=-1)
    if np.min(min_eig) <= 0.0:
        fail("metric not positive-definite", np.argmin(min_eig))
    sigma = d_log_det_g(metric, lamv, fd, *axes, in_domain=in_domain)
    bad = ~np.isfinite(np.broadcast_to(sigma, (lamv.size,) + min_eig.shape))
    if np.any(bad):
        rho, at = np.unravel_index(np.argmax(bad), bad.shape)
        fail(f"sigma_{rho} non-finite", at)


def validate(psi: WavefunctionFamily, metric: MetricFamily, domain_for: Callable,
             points: Sequence, n=(0,), cfg=None, in_domain=None,
             route_tol: float = 1e-4) -> ValidationReport:
    """Cross-check a (state, metric) family at each parameter point.

    At each point a non-finite, asymmetric or non-positive-definite metric,
    or a non-finite sigma, on a fixed interior sample of ``domain_for(lam)``
    raises ``MetricPositivityError`` with its location.  Five checks then
    keep their largest deviation over the points: ``route_equivalence``
    (fidelity susceptibility against the metric), ``gauge_invariance`` (G
    and F under psi -> exp(i alpha) psi), ``connection_shift`` (beta moves
    by grad alpha), ``normalization_identity`` (2 Re w = 0 for
    w_rho = <psi|d_rho psi> - <sigma_rho>/4, the bracket_set row) and
    ``norm_deviation`` (|<psi|psi> - 1|).  The tensors, the normalization
    identity and the norm all come from one Gram matrix per point, and the
    gauge-transformed family from one more.
    """
    from . import fidelity, geometry

    if not len(points):
        raise ValueError("validation needs at least one parameter point")
    if psi.dim != metric.dim:
        raise DimensionMismatchError("psi.dim", metric.dim, psi.dim)
    n = as_quantum_number(n)
    cfg = cfg or geometry.EngineConfig()
    tolerances = {"route_equivalence": route_tol, **_CHECK_TOLERANCES}
    devs = dict.fromkeys(tolerances, 0.0)
    psi_g = geometry.gauge_transform(
        psi, lambda lv: _GAUGE_COEFF * lv[0] ** 2, alpha_grad=_gauge_grad)
    for lam in points:
        lamv = param_values(lam)
        domain = domain_for(lamv)
        if domain.dim != metric.dim:
            raise DimensionMismatchError("domain.dim", metric.dim, domain.dim)
        _check_metric_samples(metric, domain, lamv, cfg.fd, in_domain)

        br = geometry.GeometryEngine(
            psi, metric, domain, cfg, in_domain=in_domain).bracket_set(lamv, n)
        tensors = geometry.assemble_tensors(br)
        chi = fidelity.fidelity_susceptibility(
            psi, metric, domain, lamv, n, cfg, in_domain=in_domain)
        tensors_g = geometry.GeometryEngine(
            psi_g, metric, domain, cfg, in_domain=in_domain).qgt(lamv, n)
        residues = {
            "route_equivalence": [chi - tensors.qmt],
            "gauge_invariance": [tensors_g.qmt - tensors.qmt,
                                 tensors_g.berry_curvature - tensors.berry_curvature],
            "connection_shift": [tensors_g.berry_connection
                                 - tensors.berry_connection - _gauge_grad(lamv)],
            "normalization_identity": [2.0 * br["w"].real],
            "norm_deviation": [br["norm"] - 1.0],
        }
        # np.max, unlike max, keeps a NaN residue, which then fails its check
        for name, arrays in residues.items():
            devs[name] = float(np.max([devs[name], *(np.max(np.abs(a)) for a in arrays)]))

    return ValidationReport(
        points=[param_values(p) for p in points],
        checks={name: (dev, tolerances[name]) for name, dev in devs.items()},
    )
