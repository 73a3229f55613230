"""Built-in model registry: metrics, potentials, states, and references.

Four systems with parameter-dependent spatial metrics are provided, plus a
flat harmonic oscillator used for flat-limit and solver sanity checks:

* ``anharmonic-1d``        g = 4 lam x^2, quartic oscillator states psi_n.
* ``morse-like``           g = (lam^2/4) e^(-lam x), ground state only.
* ``coupled-anharmonic-2d``g = diag(a^2 x^2, b^2 y^2), coupled ground state.
* ``generalized-anharmonic`` g = 4 lam x^2 with a momentum-coupling phase,
  the one family here with nonzero Berry curvature.
* ``flat-oscillator-1d``   g = 1, textbook oscillator.

The three Hermite families share one kernel, ``_oscillator``: the flat
oscillator state psi_n(u) in a flat coordinate u, the proper length
u = int sqrt(g) dx.  The flat model uses u = x; the quartic metric
g = 4 lam x^2 gives u = sqrt(lam) x^2, so every quartic state is a flat
oscillator state of u, and its parameter derivatives are the state and
its dilation u d psi/du with scalar coefficients.

Closed-form reference tensors are exposed through ``analytic_reference``.
The curvature reference for the generalized model is normalized so that it
is the exterior derivative of the connection (it integrates consistently
against loop integrals of beta); see the registry docstring of
``generalized_anharmonic`` for the explicit matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (
    Axis,
    AxisTransform,
    Domain,
    EngineError,
    MetricFamily,
    NoAnalyticReferenceError,
    ParameterBoundaryError,
    WavefunctionFamily,
    as_quantum_number,
    param_values,
)

__all__ = [
    "ModelSpec",
    "SpectralHint",
    "hermite",
    "get_model",
    "available_models",
    "analytic_reference",
    "coupled_ground_state",
    "phase_portrait_hamiltonian",
    "morse_critical_omega",
]

_EXP_FLOOR = -700.0  # exp underflows well before this; guards inf*0


def hermite(n: int, z):
    """Physicists' Hermite polynomial H_n via the three-term recurrence."""
    if not 0 <= int(n) <= 30:
        raise ValueError(f"Hermite order {n} outside supported range 0..30")
    return _hermite_pair(int(n), np.asarray(z, dtype=float))[1]


def _hermite_pair(n: int, z):
    """(H_{n-1}, H_n) from one pass of the recurrence, with H_{-1} = 0."""
    h_prev, h = np.zeros_like(z), np.ones_like(z)
    for k in range(n):
        h_prev, h = h, 2.0 * z * h - 2.0 * k * h_prev
    return h_prev, h


def _node_shape(lamv, x):
    """Shape of a 1-D family value: that of the nodes ``x``, behind the
    points axis of a stacked ``lamv``."""
    return np.shape(lamv[0])[:1] + np.shape(x)


def _oscillator_norm(n: int, omega, hbar: float):
    return (omega / (math.pi * hbar)) ** 0.25 / math.sqrt(2.0 ** n * math.factorial(n))


def _oscillator(u, omega, n, hbar, dilation=True):
    """(psi_n(u), u d psi_n/du) of the flat oscillator state, or psi_n(u)
    alone without ``dilation``.

    psi_n(u) = N_n e^(-z^2/2) H_n(z) with z = sqrt(omega/hbar) u, and
    u d psi_n/du = N_n e^(-z^2/2) (z H_n'(z) - z^2 H_n(z)), H_n' = 2n H_{n-1};
    one exponential and one Hermite recurrence serve both.  psi_n depends
    on omega only through omega^(1/4) and sqrt(omega) u, so
    d psi_n/d omega = psi_n/(4 omega) + (u d psi_n/du)/(2 omega), and every
    parameter derivative is a combination of the pair.  Where e^(-z^2/2)
    underflows, z is zeroed before the recurrence, which would overflow
    there, and both values are zero.  omega may be a per-point array
    ``(P, 1)`` against nodes ``u``.
    """
    z = np.sqrt(omega / hbar) * np.asarray(u, dtype=float)
    arg = -0.5 * z * z
    live = arg > _EXP_FLOOR
    z = np.where(live, z, 0.0)
    h_prev, h = _hermite_pair(n, z)
    envelope = np.where(live, _oscillator_norm(n, omega, hbar) * np.exp(arg), 0.0)
    if not dilation:
        return envelope * h
    return envelope * h, envelope * (z * (2.0 * n * h_prev - z * h))


def _omega_derivative(psi, dil, omega):
    """d psi_n / d omega from the pair of :func:`_oscillator`."""
    return psi / (4.0 * omega) + dil / (2.0 * omega)


# ---------------------------------------------------------------------------
# Model container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralHint:
    """How to grid one model for the 1-D spectral solver.

    The grid variable is the computational variable of the model's
    quadrature axis (see ``spectrum.make_grid``).  ``u_range(lam, n_max)``
    returns the grid span in it; ``left_boundaries`` the boundary condition
    passes at the inner edge.  Two entries, one "neumann" and one
    "dirichlet", request a parity-split solve: the Dirichlet matrix is the
    Neumann one plus a positive rank-one term, so their spectra interlace,
    E_j(N) <= E_j(D) <= E_{j+1}(N), and k levels take ceil(k/2) from the
    Neumann pass and floor(k/2) from the Dirichlet one.
    ``effective_potential`` overrides the model potential when a
    similarity transform turns the raw operator into a real one.
    """

    u_range: Callable
    left_boundaries: tuple = ("dirichlet",)
    effective_potential: Optional[Callable] = None


@dataclass(frozen=True)
class ModelSpec:
    """A named system binding metric, potential, states, and references."""

    name: str
    dim: int
    parameter_names: tuple
    hbar: float
    metric: MetricFamily
    psi: WavefunctionFamily
    potential: Callable
    domain_factory: Callable
    in_domain: Callable
    sample_window: dict
    analytic_refs: dict = field(default_factory=dict)
    supported_n: Callable = lambda n: True
    spectral: Optional[SpectralHint] = None

    @property
    def m(self) -> int:
        return len(self.parameter_names)

    def domain_for(self, lam) -> Domain:
        return self.domain_factory(param_values(lam))

    def check_in_domain(self, lam) -> bool:
        lamv = param_values(lam)
        if lamv.size != self.m:
            return False
        return bool(self.in_domain(lamv))

    def sample_parameters(self, rng: np.random.Generator) -> np.ndarray:
        for _ in range(200):
            vals = np.array([
                rng.uniform(*self.sample_window[name])
                for name in self.parameter_names
            ])
            if self.in_domain(vals):
                return vals
        raise EngineError(f"could not sample admissible parameters for {self.name}")


def _squared_axis() -> Axis:
    """Full line folded onto x >= 0 and integrated in p = x^2.

    The |x| factor carried by the measure of the quartic models cancels
    the dp/(2 sqrt(p)) Jacobian, leaving a smooth half-line integrand.
    """
    tr = AxisTransform(
        fwd=lambda x: np.square(x),
        inv=lambda p: np.sqrt(p),
        inv_jac=lambda p: 0.5 / np.sqrt(p),
        u_lo=0.0,
        u_hi=np.inf,
    )
    return Axis(-np.inf, np.inf, transform=tr, even_fold=True)


# ---------------------------------------------------------------------------
# Quartic oscillator family (shared by the plain and generalized models)
# ---------------------------------------------------------------------------

def _quartic_u(lam, x):
    """Proper length u = sqrt(lam) x^2 of the metric g = 4 lam x^2."""
    return np.sqrt(lam) * np.square(np.asarray(x, dtype=float))


def _quartic_metric() -> MetricFamily:
    """g = 4 lam x^2, with lam the first model parameter."""
    def det(lamv, x):
        return 4.0 * lamv[0] * np.square(np.asarray(x, dtype=float))

    def log_det_grad(lamv, x):
        out = np.zeros((len(lamv),) + _node_shape(lamv, x))
        out[0] = 1.0 / lamv[0]
        return out

    return MetricFamily(
        dim=1,
        eval=lambda lamv, x: det(lamv, x)[..., None, None],
        det=det,
        analytic_log_det_grad=log_det_grad,
        broadcasts=True,
    )


def _quartic_hint(hbar: float, omega_of: Callable,
                  effective_potential: Optional[Callable] = None) -> SpectralHint:
    """Parity-split grid in p = x^2 for a quartic model of frequency omega_of."""
    return SpectralHint(
        u_range=lambda lamv, n_max: (
            0.0,
            math.sqrt(hbar / (omega_of(lamv) * lamv[0]))
            * (math.sqrt(2 * n_max + 1) + 8.0),
        ),
        left_boundaries=("neumann", "dirichlet"),
        effective_potential=effective_potential,
    )


def _anharmonic_refs(hbar: float) -> dict:
    def qmt(n, lamv):
        k = n[0]
        lam, om = lamv
        base = np.array([
            [1.0 / (8 * lam * lam), 1.0 / (8 * lam * om)],
            [1.0 / (8 * lam * om), 1.0 / (8 * om * om)],
        ])
        return (k * k + k + 1) * base

    return {
        "qmt": qmt,
        "berry_curvature": lambda n, lamv: np.zeros((2, 2)),
        "energy": lambda n, lamv: hbar * lamv[1] * (n[0] + 0.5),
    }


def anharmonic_1d(hbar: float = 1.0) -> ModelSpec:
    def psi_grad(lamv, n, x):
        lam, om = lamv
        psi, dil = _oscillator(_quartic_u(lam, x), om, n[0], hbar)
        return np.stack([dil / (2.0 * lam), _omega_derivative(psi, dil, om)])

    psi = WavefunctionFamily(
        dim=1,
        eval=lambda lamv, n, x: _oscillator(
            _quartic_u(lamv[0], x), lamv[1], n[0], hbar, dilation=False),
        analytic_param_grad=psi_grad,
        broadcasts=True,
    )

    domain = Domain(1, (_squared_axis(),))

    return ModelSpec(
        name="anharmonic-1d",
        dim=1,
        parameter_names=("lambda", "omega"),
        hbar=hbar,
        metric=_quartic_metric(),
        psi=psi,
        potential=lambda lamv, x: 0.5 * lamv[1] ** 2 * lamv[0] * np.asarray(x) ** 4,
        domain_factory=lambda lamv: domain,
        in_domain=lambda lamv: lamv[0] > 0 and lamv[1] > 0,
        sample_window={"lambda": (0.4, 2.5), "omega": (0.4, 2.5)},
        analytic_refs=_anharmonic_refs(hbar),
        supported_n=lambda n: len(n) == 1 and 0 <= n[0] <= 12,
        spectral=_quartic_hint(hbar, lambda lamv: lamv[1]),
    )


# ---------------------------------------------------------------------------
# Morse-like model
# ---------------------------------------------------------------------------

def _morse(x, lam, omega, hbar):
    """(psi_0, e^(-lam x)) of the Morse-like ground state; where e^(-lam x)
    would overflow, psi underflows to zero and e is held at 1."""
    arg = lam * np.asarray(x, dtype=float)
    live = arg > _EXP_FLOOR
    e = np.exp(-np.where(live, arg, 0.0))
    pref = math.sqrt(2.0) * (omega / (math.pi * hbar)) ** 0.25
    return np.where(live, pref * np.exp(-omega * e / (2.0 * hbar)), 0.0), e


def morse_g_ll(lam: float, omega: float, hbar: float = 1.0) -> float:
    """Closed form of the lam-lam metric component for the Morse-like model."""
    g = np.euler_gamma
    w = omega / hbar
    val = (
        4.0
        + 2.0 * (g - 4.0) * g
        + math.pi ** 2
        + 2.0 * math.log(4.0) ** 2
        + 4.0 * (g - 2.0) * math.log(4.0 * w)
        + 2.0 * math.log(w) * math.log(16.0 * w)
    )
    return val / (16.0 * lam * lam)


def morse_g_lw(lam: float, omega: float, hbar: float = 1.0) -> float:
    """Closed form of the lam-omega metric component for the Morse-like model.

    In u = e^(-lam x / 2) the measure sqrt(g) dx is du and the state is a
    half-line Gaussian, so s = omega u^2 / hbar follows Gamma(1/2).  The
    metric is the covariance of the log-derivatives of g^(1/4) psi,
    d_omega = (1/2 - s) / (2 omega) and d_lam = 1/(2 lam) + x (s - 1/2) / 2
    with x = -ln(hbar s / omega) / lam.  With E[s^p ln s] =
    Gamma(1/2 + p) digamma(1/2 + p) / Gamma(1/2), the mean of
    ln s (s - 1/2)^2 is 1 + digamma(1/2) / 2 and that of (s - 1/2)^2 is 1/2;
    with digamma(1/2) = -gamma_E - 2 ln 2 this gives
    G_lw = (2 - gamma_E - ln(4 omega / hbar)) / (8 lam omega), which changes
    sign at omega_c = (hbar / 4) e^(2 - gamma_E).
    """
    return (2.0 - np.euler_gamma - math.log(4.0 * omega / hbar)) / (8.0 * lam * omega)


def morse_like(hbar: float = 1.0) -> ModelSpec:
    def metric_det(lamv, x):
        lam = lamv[0]
        expo = -lam * np.asarray(x, dtype=float)
        return np.where(expo < 700.0, lam * lam / 4.0 * np.exp(np.minimum(expo, 700.0)),
                        np.inf)

    def log_det_grad(lamv, x):
        out = np.zeros((2,) + _node_shape(lamv, x))
        out[0] = 2.0 / lamv[0] - np.asarray(x, dtype=float)
        return out

    metric = MetricFamily(
        dim=1,
        eval=lambda lamv, x: metric_det(lamv, x)[..., None, None],
        det=metric_det,
        analytic_log_det_grad=log_det_grad,
        broadcasts=True,
    )

    def only_ground(n):
        return len(n) == 1 and n[0] == 0

    def psi_eval(lamv, n, x):
        if not only_ground(n):
            raise EngineError("morse-like exposes the ground state only")
        return _morse(x, lamv[0], lamv[1], hbar)[0]

    def psi_grad(lamv, n, x):
        lam, om = lamv
        psi, e = _morse(x, lam, om, hbar)
        return np.stack([psi * (om * np.asarray(x, dtype=float) * e / (2.0 * hbar)),
                         psi * (1.0 / (4.0 * om) - e / (2.0 * hbar))])

    psi = WavefunctionFamily(dim=1, eval=psi_eval, analytic_param_grad=psi_grad,
                             broadcasts=True)

    # one Domain per lambda, so that the points of an omega sweep share it
    @functools.lru_cache(maxsize=64)
    def lam_domain(lam):
        tr = AxisTransform(
            fwd=lambda x: np.exp(-0.5 * lam * np.asarray(x, dtype=float)),
            inv=lambda u: -(2.0 / lam) * np.log(u),
            inv_jac=lambda u: 2.0 / (abs(lam) * u),
            u_lo=0.0,
            u_hi=np.inf,
        )
        return Domain(1, (Axis(-np.inf, np.inf, transform=tr),))

    hint = SpectralHint(
        u_range=lambda lamv, n_max: (
            0.0,
            math.sqrt(hbar / lamv[1]) * (math.sqrt(2 * n_max + 1) + 8.0),
        ),
        left_boundaries=("neumann",),
    )

    def ref_energy(n, lamv):
        if n[0] != 0:
            raise NoAnalyticReferenceError("morse-like energies known for n=0 only")
        return 0.5 * hbar * lamv[1]

    refs = {
        "qmt_ll": lambda n, lamv: morse_g_ll(lamv[0], lamv[1], hbar),
        "qmt_lw": lambda n, lamv: morse_g_lw(lamv[0], lamv[1], hbar),
        "qmt_ww": lambda n, lamv: 1.0 / (8.0 * lamv[1] ** 2),
        "berry_curvature": lambda n, lamv: np.zeros((2, 2)),
        "energy": ref_energy,
    }

    return ModelSpec(
        name="morse-like",
        dim=1,
        parameter_names=("lambda", "omega"),
        hbar=hbar,
        metric=metric,
        psi=psi,
        potential=lambda lamv, x: 0.5 * lamv[1] ** 2 * np.exp(-lamv[0] * np.asarray(x)),
        domain_factory=lambda lamv: lam_domain(float(lamv[0])),
        in_domain=lambda lamv: lamv[0] != 0 and lamv[1] > 0,
        sample_window={"lambda": (0.4, 2.5), "omega": (0.4, 2.5)},
        analytic_refs=refs,
        supported_n=only_ground,
        spectral=hint,
    )


# ---------------------------------------------------------------------------
# Coupled 2-D model
# ---------------------------------------------------------------------------

def _coupled_constants(k1, k2, hbar: float, ab_sign=1.0):
    """Normal-mode frequencies wp and wm, the arctan argument r and the
    normalization of the coupled ground state.

    r = sqrt(wm/wp), except that for a b < 0 the mode built from
    a x^2/2 + b y^2/2 carries the other frequency, which makes it
    sqrt(wp/wm).  The parameters may be per-point arrays ``(P, 1, 1)``.
    """
    wp = np.sqrt(k1)
    wm = np.sqrt(k1 + 2.0 * k2)
    r = np.sqrt(np.where(ab_sign > 0, wm / wp, wp / wm))
    amp2 = np.sqrt(wp * wm) / (4.0 * hbar * np.arctan(r))
    return wp, wm, r, np.sqrt(amp2)


def _coupled_exponent(x, y, wp, wm, a, b, hbar):
    up = (a * np.square(x) / 2.0 + b * np.square(y) / 2.0) / math.sqrt(2.0)
    um = (a * np.square(x) / 2.0 - b * np.square(y) / 2.0) / math.sqrt(2.0)
    return -(wp * up * up + wm * um * um) / (2.0 * hbar), up, um


def coupled_ground_state(x, y, k1, k2, a, b, hbar: float = 1.0):
    """Normalized 2-D coupled ground state on the curved plane.

    The exponent carries the normal-mode frequencies: written in the
    direct quartic variables it reads
    -w a^2 x^4/(8 hbar) - w b^2 y^4/(8 hbar) - beta a b x^2 y^2/(4 hbar)
    with w = (sqrt(k1) + sqrt(k1 + 2 k2))/2 and
    beta = (sqrt(k1) - sqrt(k1 + 2 k2))/2 < 0 for k2 > 0.  At k2 = 0 it
    factorizes into two decoupled quartic-oscillator ground states.  The
    parameters may be per-point arrays ``(P, 1, 1)``, giving ``(P, *nodes)``.
    """
    if not np.all((k1 > 0) & (k1 + 2.0 * k2 > 0) & (a != 0) & (b != 0)):
        raise ParameterBoundaryError(
            f"coupled model needs k1 > 0, k1 + 2 k2 > 0, a != 0, b != 0; "
            f"got ({k1}, {k2}, {a}, {b})"
        )
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    wp, wm, _, amp = _coupled_constants(k1, k2, hbar, ab_sign=a * b)
    arg, _, _ = _coupled_exponent(x, y, wp, wm, a, b, hbar)
    return amp * np.exp(arg)


def coupled_anharmonic_2d(hbar: float = 1.0) -> ModelSpec:
    def metric_eval(lamv, x, y):
        _, _, a, b = lamv
        gx = a * a * np.square(np.asarray(x, dtype=float))
        gy = b * b * np.square(np.asarray(y, dtype=float))
        gx, gy = np.broadcast_arrays(gx, gy)
        g = np.zeros(gx.shape + (2, 2))
        g[..., 0, 0] = gx
        g[..., 1, 1] = gy
        return g

    def log_det_grad(lamv, x, y):
        out = np.zeros((4,) + np.broadcast_shapes(np.shape(lamv[0]), np.shape(x), np.shape(y)))
        out[2], out[3] = 2.0 / lamv[2], 2.0 / lamv[3]
        return out

    metric = MetricFamily(
        dim=2,
        eval=metric_eval,
        det=lambda lamv, x, y: (lamv[2] * lamv[3]) ** 2
        * np.square(np.asarray(x, dtype=float))
        * np.square(np.asarray(y, dtype=float)),
        analytic_log_det_grad=log_det_grad,
        broadcasts=True,
    )

    def only_ground(n):
        return tuple(n) == (0, 0)

    def psi_eval(lamv, n, x, y):
        if not only_ground(n):
            raise EngineError("coupled-anharmonic-2d exposes the ground state only")
        return coupled_ground_state(x, y, *lamv, hbar=hbar)

    def psi_grad(lamv, n, x, y):
        k1, k2, a, b = lamv
        wp, wm, r, amp = _coupled_constants(k1, k2, hbar, ab_sign=a * b)
        arg, up, um = _coupled_exponent(x, y, wp, wm, a, b, hbar)
        sign = np.where(a * b > 0, 1.0, -1.0)

        def d_log_psi(dwp, dwm):
            """d ln psi when the frequencies move by (dwp, dwm): through the
            normalization, whose arctan takes r, and through the exponent."""
            dr = 0.5 * sign * r * (dwm / wm - dwp / wp)
            dlog_amp = 0.5 * (0.5 * (dwp / wp + dwm / wm) - dr / (1.0 + r * r) / np.arctan(r))
            return dlog_amp - (dwp * up ** 2 + dwm * um ** 2) / (2.0 * hbar)

        c = 2.0 * math.sqrt(2.0) * hbar
        x2, y2 = np.square(np.asarray(x, dtype=float)), np.square(np.asarray(y, dtype=float))
        # k1 moves both frequencies and k2 only wm = sqrt(k1 + 2 k2)
        return amp * np.exp(arg) * np.stack([
            d_log_psi(1.0 / (2.0 * wp), 1.0 / (2.0 * wm)), d_log_psi(0.0, 1.0 / wm),
            -(wp * up + wm * um) * x2 / c, -(wp * up - wm * um) * y2 / c])

    psi = WavefunctionFamily(dim=2, eval=psi_eval, analytic_param_grad=psi_grad,
                             broadcasts=True)

    domain = Domain.product(_squared_axis(), _squared_axis())

    def potential(lamv, x, y):
        k1, k2, a, b = lamv
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        quart = 0.5 * k1 * (a * a * x ** 4 + b * b * y ** 4) / 4.0
        cross = 0.5 * k2 * (a * x * x / 2.0 - b * y * y / 2.0) ** 2
        return quart + cross

    def ref_energy(n, lamv):
        if not only_ground(n):
            raise NoAnalyticReferenceError("coupled model energy known for (0,0) only")
        wp, wm, _, _ = _coupled_constants(lamv[0], lamv[1], hbar)
        return 0.5 * hbar * (wp + wm)

    refs = {
        "berry_curvature": lambda n, lamv: np.zeros((4, 4)),
        "energy": ref_energy,
    }

    return ModelSpec(
        name="coupled-anharmonic-2d",
        dim=2,
        parameter_names=("k1", "k2", "a", "b"),
        hbar=hbar,
        metric=metric,
        psi=psi,
        potential=potential,
        domain_factory=lambda lamv: domain,
        in_domain=lambda lamv: (
            lamv[0] > 0 and lamv[0] + 2 * lamv[1] > 0
            and lamv[2] != 0 and lamv[3] != 0
        ),
        sample_window={
            "k1": (0.6, 2.0), "k2": (0.1, 1.5), "a": (0.6, 1.8), "b": (0.6, 1.8),
        },
        analytic_refs=refs,
        supported_n=only_ground,
    )


# ---------------------------------------------------------------------------
# Generalized anharmonic model (nonzero Berry curvature)
# ---------------------------------------------------------------------------

def generalized_anharmonic(hbar: float = 1.0) -> ModelSpec:
    """Quartic oscillator with a momentum coupling of strength b.

    Parameters are ordered (lambda, b, c) with effective frequency
    omega = sqrt(c - b^2).  The states carry the position-dependent phase
    exp(-i b lam x^4 / (2 hbar)), so the Berry connection is
    beta = -(2n+1)/(4 omega) * (b/lam', 1, 0) evaluated componentwise as
    (-b(2n+1)/(4 omega lam), -(2n+1)/(4 omega), 0), and the curvature,
    the exterior derivative of beta, is

        F[n] = (2n+1)/(8 omega^3 lam) * [[0, 2c, -b], [-2c, 0, -lam],
                                         [b, lam, 0]].

    The circulating (2n+1)/(16 omega^3 lam) matrix is Im(QGT), i.e. F/2.
    """
    def omega_of(lamv):
        return np.sqrt(lamv[2] - lamv[1] ** 2)

    def phased(lamv, n, x, dilation=False):
        """(x^4, the :func:`_oscillator` value of the state without its
        phase, the phase exp(-i b lam x^4 / (2 hbar)))."""
        lam, b, _ = lamv
        x = np.asarray(x, dtype=float)
        x4 = x ** 4
        base = _oscillator(_quartic_u(lam, x), omega_of(lamv), n[0], hbar, dilation)
        return x4, base, np.exp(-1j * b * lam * x4 / (2.0 * hbar))

    def psi_eval(lamv, n, x):
        _, base, phase = phased(lamv, n, x)
        return base * phase

    def psi_grad(lamv, n, x):
        # omega = sqrt(c - b^2) moves with b and c, the phase with lam and b
        lam, b, _ = lamv
        om = omega_of(lamv)
        x4, (base, dil), phase = phased(lamv, n, x, dilation=True)
        d_om = _omega_derivative(base, dil, om)
        theta = 1j * x4 / (2.0 * hbar) * base
        return np.stack([dil / (2.0 * lam) - b * theta, -b / om * d_om - lam * theta,
                         d_om / (2.0 * om)]) * phase

    psi = WavefunctionFamily(dim=1, eval=psi_eval, analytic_param_grad=psi_grad,
                             broadcasts=True)

    domain = Domain(1, (_squared_axis(),))

    def qmt_ref(n, lamv):
        k = n[0]
        lam, b, c = lamv
        om2 = c - b * b
        om4 = om2 * om2
        base = np.array([
            [c / (8 * om2 * lam * lam), 0.0, 1.0 / (16 * om2 * lam)],
            [0.0, c / (8 * om4), -b / (16 * om4)],
            [1.0 / (16 * om2 * lam), -b / (16 * om4), 1.0 / (32 * om4)],
        ])
        return (k * k + k + 1) * base

    def berry_ref(n, lamv):
        k = n[0]
        lam, b, c = lamv
        om3 = (c - b * b) ** 1.5
        pref = (2 * k + 1) / (8.0 * om3 * lam)
        return pref * np.array([
            [0.0, 2.0 * c, -b],
            [-2.0 * c, 0.0, -lam],
            [b, lam, 0.0],
        ])

    def beta_ref(n, lamv):
        k = n[0]
        lam, b, c = lamv
        om = math.sqrt(c - b * b)
        return np.array([
            -b * (2 * k + 1) / (4.0 * om * lam),
            -(2 * k + 1) / (4.0 * om),
            0.0,
        ])

    refs = {
        "qmt": qmt_ref,
        "berry_curvature": berry_ref,
        "berry_connection": beta_ref,
        "energy": lambda n, lamv: hbar * omega_of(lamv) * (n[0] + 0.5),
    }

    # the position-dependent phase is a similarity transform removing the
    # first-order momentum coupling; the remaining real operator is the
    # quartic oscillator with omega^2 = c - b^2
    hint = _quartic_hint(
        hbar, omega_of,
        effective_potential=lambda lamv, x: 0.5 * (lamv[2] - lamv[1] ** 2)
        * lamv[0] * np.asarray(x) ** 4,
    )

    return ModelSpec(
        name="generalized-anharmonic",
        dim=1,
        parameter_names=("lambda", "b", "c"),
        hbar=hbar,
        metric=_quartic_metric(),
        psi=psi,
        potential=lambda lamv, x: 0.5 * lamv[2] * lamv[0] * np.asarray(x) ** 4,
        domain_factory=lambda lamv: domain,
        in_domain=lambda lamv: lamv[0] > 0 and lamv[2] - lamv[1] ** 2 > 0,
        sample_window={"lambda": (0.5, 2.0), "b": (-0.5, 0.5), "c": (0.9, 2.2)},
        analytic_refs=refs,
        supported_n=lambda n: len(n) == 1 and 0 <= n[0] <= 12,
        spectral=hint,
    )


# ---------------------------------------------------------------------------
# Flat oscillator (flat-limit reference and solver sanity checks)
# ---------------------------------------------------------------------------

def flat_oscillator_1d(hbar: float = 1.0) -> ModelSpec:
    metric = MetricFamily(
        dim=1,
        eval=lambda lamv, x: np.ones(_node_shape(lamv, x))[..., None, None],
        det=lambda lamv, x: np.ones(_node_shape(lamv, x)),
        analytic_log_det_grad=lambda lamv, x: np.zeros((1,) + _node_shape(lamv, x)),
        broadcasts=True,
    )
    psi = WavefunctionFamily(
        dim=1,
        eval=lambda lamv, n, x: _oscillator(x, lamv[0], n[0], hbar, dilation=False),
        analytic_param_grad=lambda lamv, n, x: _omega_derivative(
            *_oscillator(x, lamv[0], n[0], hbar), lamv[0])[None],
        broadcasts=True,
    )
    domain = Domain.full_line()
    hint = SpectralHint(
        u_range=lambda lamv, n_max: (
            -math.sqrt(hbar / lamv[0]) * (math.sqrt(2 * n_max + 1) + 8.0),
            math.sqrt(hbar / lamv[0]) * (math.sqrt(2 * n_max + 1) + 8.0),
        ),
        left_boundaries=("dirichlet",),
    )
    refs = {
        "qmt": lambda n, lamv: np.array(
            [[(n[0] ** 2 + n[0] + 1) / (8.0 * lamv[0] ** 2)]]
        ),
        "berry_curvature": lambda n, lamv: np.zeros((1, 1)),
        "energy": lambda n, lamv: hbar * lamv[0] * (n[0] + 0.5),
    }
    return ModelSpec(
        name="flat-oscillator-1d",
        dim=1,
        parameter_names=("omega",),
        hbar=hbar,
        metric=metric,
        psi=psi,
        potential=lambda lamv, x: 0.5 * lamv[0] ** 2 * np.square(np.asarray(x)),
        domain_factory=lambda lamv: domain,
        in_domain=lambda lamv: lamv[0] > 0,
        sample_window={"omega": (0.4, 2.5)},
        analytic_refs=refs,
        supported_n=lambda n: len(n) == 1 and 0 <= n[0] <= 12,
        spectral=hint,
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_FACTORIES = {
    "anharmonic-1d": anharmonic_1d,
    "morse-like": morse_like,
    "coupled-anharmonic-2d": coupled_anharmonic_2d,
    "generalized-anharmonic": generalized_anharmonic,
    "flat-oscillator-1d": flat_oscillator_1d,
}


def available_models() -> tuple:
    return tuple(sorted(_FACTORIES))


def get_model(name: str, hbar: float = 1.0) -> ModelSpec:
    """Look up a registered model.

    Runs no normalization check: a Gram whose <psi|psi> is off 1 warns with
    NormalizationWarning, and ``validate`` reports the norm deviation.
    """
    if name not in _FACTORIES:
        raise KeyError(f"unknown model '{name}'; available: {available_models()}")
    return _FACTORIES[name](hbar=hbar)


# ---------------------------------------------------------------------------
# Classical phase portrait of the Morse-like system
# ---------------------------------------------------------------------------

def phase_portrait_hamiltonian(x, p, omega: float, lam: float) -> np.ndarray:
    """Classical energy (2/lam^2) e^(lam x) p^2 + (omega^2/2) e^(-lam x)."""
    if lam == 0:
        raise ParameterBoundaryError("the phase portrait needs lam != 0")
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    return (2.0 / lam ** 2) * np.exp(lam * x) * p ** 2 \
        + 0.5 * omega ** 2 * np.exp(-lam * x)


def morse_critical_omega(lam: float = 0.05, bracket=(0.9, 1.2),
                         hbar: float = 1.0, cfg=None, xtol: float = 1e-6) -> float:
    """Locate the sign change of the off-diagonal metric component.

    Root-brackets the numerically computed G_{lam omega} of the Morse-like
    model in omega at fixed lam; the zero is independent of lam.
    """
    from scipy.optimize import brentq

    from . import geometry

    model = get_model("morse-like", hbar=hbar)
    if cfg is None:
        cfg = geometry.EngineConfig()

    def g_lw(om):
        lamv = np.array([lam, om])
        eng = geometry.GeometryEngine(
            model.psi, model.metric, model.domain_for(lamv), cfg,
            in_domain=model.in_domain,
        )
        return eng.qmt(lamv, (0,))[0, 1]

    lo, hi = bracket
    return float(brentq(g_lw, lo, hi, xtol=xtol))


# ---------------------------------------------------------------------------
# Analytic references
# ---------------------------------------------------------------------------

def analytic_reference(model: ModelSpec, quantity: str, n, lam):
    """Evaluate a closed-form reference; raises when none exists."""
    n = as_quantum_number(n)
    lamv = param_values(lam)
    if not model.supported_n(n):
        raise NoAnalyticReferenceError(
            f"model {model.name} has no analytic reference at n = {n}"
        )
    ref = model.analytic_refs.get(quantity)
    if ref is None:
        raise NoAnalyticReferenceError(
            f"no analytic reference for '{quantity}' on model {model.name}"
        )
    return ref(n, lamv)
