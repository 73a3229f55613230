"""Curved-space geometric objects on parameter space.

Every quantity here is assembled from curved brackets

    <A|B>       = integral sqrt(g) conj(A) B,
    <A|s|B>     = integral sqrt(g) conj(A) s B,

with the sqrt(g) factor split symmetrically between bra and ket.  The
bracket family entering the tensors is

    A[r,k] = <d_r psi | d_k psi>        c[r] = <psi | d_r psi>
    B[r,k] = <psi | sigma_r | d_k psi>  s[r] = <sigma_r>
    S[r,k] = <sigma_r sigma_k>

where sigma_r = -d ln det g / d lambda_r.  All of them, and the norm, are
blocks of one Gram matrix: the columns
U = [psi, d_1 psi .. d_m psi, sigma_1 psi .. sigma_m psi] are sampled once
per quadrature node and contracted as U^H diag(sqrt(g) w) U, so a point
costs one pass over the nodes however many brackets it needs, and the
sigma factors, which may depend on x, stay inside the integrand.  Each
entry's error is its change over the last quadrature level, plus in 2-D
the mass of the tails the product rule leaves unrefined.  The quantum
geometric tensor comes from one assembly formula; the projector form
<d_r(g^(1/4)psi)| P |d_k(g^(1/4)psi)> is kept as a test oracle with a Gram
of its own columns v_r = d_r psi - sigma_r psi / 4.  A Berry loop needs
only the connection along each segment delta, so it integrates the
three-column Gram of [psi, d_delta psi, sigma_delta psi], with
d_delta = sum_r delta_r d_r taken over the nonzero delta_r only.  A
bracket also takes a stack of points and integrates all their Grams in
one pass over shared nodes; a loop hands it the points of one
Gauss-Kronrod panel at a time, and a sweep a batch of grid points.
When the state and the metric both broadcast over points (their
``broadcasts`` flag) and differentiate analytically, each integrand call
samples the whole stack in one family call per column; any other family
is sampled point by point.
Conventions:

    qmt              = Re(qgt)                  (symmetric)
    berry_curvature  = 2 Im(qgt) = d beta       (antisymmetric)
    berry_connection = -i c + (i/4) s           (real up to diagnostics)
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (
    Domain,
    EngineError,
    GeometricTensors,
    ImaginaryResidueWarning,
    MetricFamily,
    NormalizationWarning,
    ParameterBoundaryError,
    WavefunctionFamily,
    as_quantum_number,
    param_values,
)
from .diffops import FdConfig, d_log_det_g, d_psi, fd_derivative
from .quadrature import GramColumns, QuadratureConfig, integrate, integrate_2d_product

__all__ = [
    "EngineConfig",
    "GeometryEngine",
    "assemble_tensors",
    "gauge_transform",
    "reparameterize",
    "berry_phase_loop",
]

# largest |qgt - qgt^H| the assembly accepts from consistent brackets
HERMITICITY_GATE = 1e-7
# largest imaginary connection part before ImaginaryResidueWarning
CONNECTION_RESIDUE_WARN = 1e-6
# largest |<psi|psi> - 1| before NormalizationWarning; the registry models
# stay within 1e-15 and the grid-eigenvector families within 1e-10
NORM_WARN = 1e-6
# loosest relative tolerance of a Berry-loop segment integration
SEGMENT_TOL = 1e-7
# connection points per bracket call of a Berry loop: one 7/15
# Gauss-Kronrod panel, so a subdivision step never stacks more
SEGMENT_POINTS = 15
# central differences of a gauge phase given without alpha_grad
_ALPHA_FD = FdConfig(base_step=1e-6, scheme="central-2")


@dataclass(frozen=True)
class EngineConfig:
    quad: QuadratureConfig = field(default_factory=QuadratureConfig)
    fd: FdConfig = field(default_factory=FdConfig)


def _connection(c, s):
    """beta = -i c + (i/4) s from c = <psi|d psi> and s = <sigma>, entry by
    entry or along one direction; the imaginary part is a residue that
    vanishes for a normalized family."""
    return -1j * c + 0.25j * s


def _integrate(f, domain: Domain, quad: QuadratureConfig):
    """One integration over the domain: the 1-D rule or the 2-D product rule."""
    if domain.dim == 1:
        return integrate(f, domain, quad)
    return integrate_2d_product(f, domain.axes[0], domain.axes[1], quad)


def assemble_tensors(br):
    """The tensors of a :meth:`GeometryEngine.bracket_set` result: one
    :class:`GeometricTensors` for one point, a list of them for a stack.

    The one assembly formula of the QGT; every point passes the Hermiticity
    gate, and no bracket is integrated here.
    """
    A, B, S, c, s = br["A"], br["B"], br["S"], br["c"], br["s"]
    c_col, c_row = np.conj(c)[..., None], c[..., None, :]
    s_col, s_row = s[..., None], s[..., None, :]
    g = (
        A
        - c_col * c_row
        - 0.25 * (B + np.conj(np.swapaxes(B, -1, -2)))
        + 0.25 * (s_col * c_row + c_col * s_row)
        + (S - s_col * s_row) / 16.0
    )
    gh = np.conj(np.swapaxes(g, -1, -2))
    residue = float(np.max(np.abs(g - gh)))
    if residue > HERMITICITY_GATE:
        raise EngineError(
            f"QGT Hermiticity residue {residue:.3e} exceeds "
            f"{HERMITICITY_GATE:.1e}; the assembled brackets "
            "are inconsistent"
        )
    g, m = 0.5 * (g + gh), c.shape[-1]
    tensors = [
        GeometricTensors(qgt=gp, qmt=gp.real.copy(), berry_curvature=2.0 * gp.imag,
                         berry_connection=bp, quad_error=float(ep), fd_steps=hp)
        for gp, bp, ep, hp in zip(g.reshape(-1, m, m), _connection(c, s).real.reshape(-1, m),
                                  np.reshape(br["err"], -1), br["fd_steps"].reshape(-1, m))
    ]
    return tensors[0] if np.ndim(br["err"]) == 0 else tensors


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

class GeometryEngine:
    """Assembles geometric tensors for one (state family, metric, domain).

    Stateless: every call integrates its Gram matrix once and returns what
    it assembles, so an engine may be shared across threads.  Read several
    quantities from one :meth:`qgt` or :meth:`bracket_set` call rather than
    calling once per quantity.
    """

    def __init__(self, psi: WavefunctionFamily, metric: MetricFamily,
                 domain: Domain, cfg: Optional[EngineConfig] = None,
                 in_domain: Optional[Callable] = None):
        if psi.dim != metric.dim or domain.dim != metric.dim:
            raise EngineError("psi, metric, and domain disagree on dimension")
        self.psi = psi
        self.metric = metric
        self.domain = domain
        self.cfg = cfg or EngineConfig()
        self.in_domain = in_domain

    # -- integrand plumbing -------------------------------------------------

    def _sample(self, lamv, n, axes, rs):
        """psi, [d_r psi] and [sigma_r] for the parameters r in ``rs`` at the
        given nodes, for one point ``(m,)`` or, on broadcasting families,
        for a stack ``(m, P, 1, ..., 1)``."""
        if lamv.ndim > 1:
            return (self.psi.eval(lamv, n, *axes),
                    [self.psi.analytic_param_grad(lamv, n, r, *axes) for r in rs],
                    [-self.metric.analytic_log_det_grad(lamv, r, *axes) for r in rs])
        fd, in_domain = self.cfg.fd, self.in_domain
        psi = np.asarray(self.psi.eval(lamv, n, *axes))
        dpsi = [d_psi(self.psi, n, lamv, r, fd, *axes, in_domain=in_domain)
                for r in rs]
        sigma = [-d_log_det_g(self.metric, lamv, r, fd, *axes, in_domain=in_domain)
                 for r in rs]
        return psi, dpsi, sigma

    def bracket(self, lamv, columns):
        """Gram matrices of column functions at one point ``(m,)`` or at a
        stack of points ``(P, m)``: (value, error).

        ``columns(p, *axes)`` returns the k column values of the point p at
        the quadrature nodes, a normalized state first; the overlaps of
        several states are the Gram of their columns.  Entry [a, b] of a
        point's value is <U_a|U_b> = integral sqrt(g) conj(U_a) U_b, and the
        error matrix holds each entry's error estimate; both are ``(k, k)``
        for one point and ``(P, k, k)`` for a stack.  A stack takes one
        integration, and the rule stops once every entry of every point is
        within tolerance.  When both families broadcast (see
        :class:`~curvedqgt.core.WavefunctionFamily`), each integrand call
        hands ``columns`` and ``sqrt_det`` the whole stack at once as
        ``p[r]`` of shape ``(P, 1, ..., 1)``; otherwise it samples the
        points in turn.  Either way the columns are contracted in one
        batched product.  Before any family call, a point outside
        ``in_domain`` raises :class:`ParameterBoundaryError` naming it.
        Each call integrates once and warns with
        :class:`NormalizationWarning`, naming the point, for each point
        whose <psi|psi> is off 1 by more than ``NORM_WARN``: the connection
        and the tensors assume a normalized family, and a constant factor
        leaves no other trace in them.
        """
        metric = self.metric
        points = lamv.reshape(-1, lamv.shape[-1])
        stacked = (lamv.ndim > 1 and self.psi.broadcasts and metric.broadcasts
                   and self.psi.analytic_param_grad is not None
                   and metric.analytic_log_det_grad is not None)

        def weighted(p, axes):
            cols = np.stack(np.broadcast_arrays(*columns(p, *axes)))
            return cols * np.sqrt(metric.sqrt_det(p, *axes))

        def integrand(*axes):
            if stacked:
                # every point at once: p[r] is (P, 1, ..., 1), columns (P, k, *nodes)
                nodes = np.broadcast_shapes(*(np.shape(a) for a in axes))
                p = points.T.reshape(points.shape[::-1] + (1,) * len(nodes))
                cols = np.stack(np.broadcast_arrays(*columns(p, *axes)), axis=1)
                cols = cols * np.sqrt(metric.sqrt_det(p, *axes))[:, None]
            else:
                stack = [weighted(p, axes) for p in points]
                cols = stack[0][None] if len(stack) == 1 else np.stack(np.broadcast_arrays(*stack))
            return cols.view(GramColumns)

        if self.in_domain is not None:
            for p in points:
                if not self.in_domain(p):
                    raise ParameterBoundaryError(
                        f"parameter point {p} lies outside the parameter domain")
        gram, err = _integrate(integrand, self.domain, self.cfg.quad)
        for p, norm in zip(points, gram[:, 0, 0].real):
            if abs(norm - 1.0) > NORM_WARN:
                warnings.warn(
                    f"<psi|psi> = {norm:.12g} at {p}; the family is not "
                    "normalized there",
                    NormalizationWarning,
                    stacklevel=2,
                )
        return (gram[0], err[0]) if lamv.ndim == 1 else (gram, err)

    # -- bracket families ---------------------------------------------------

    def bracket_set(self, lam, n):
        """All brackets entering the tensors at one parameter point ``(m,)``,
        or at each point of a stack ``(P, m)`` under a leading P axis.

        They are blocks of one Gram matrix of the columns
        [psi, d_1 psi .. d_m psi, sigma_1 psi .. sigma_m psi], integrated on
        shared nodes; a stack is one bracket call.  ``gram_err`` holds the
        error of each Gram entry and ``err`` their sum; ``norm`` and ``err``
        are floats for one point and arrays ``(P,)`` for a stack.
        """
        lamv = param_values(lam) if np.ndim(lam) < 2 else np.asarray(lam, dtype=float)
        n = as_quantum_number(n)
        m = lamv.shape[-1]

        def columns(p, *axes):
            psi, dpsi, sigma = self._sample(p, n, axes, range(m))
            return [psi, *dpsi, *(s * psi for s in sigma)]

        gram, err = self.bracket(lamv, columns)
        d, s = slice(1, m + 1), slice(m + 1, 2 * m + 1)
        steps = np.array([self.cfg.fd.step(v) for v in lamv.ravel()]).reshape(lamv.shape)
        out = float if lamv.ndim == 1 else np.asarray
        return {"A": gram[..., d, d], "B": gram[..., s, d], "S": gram[..., s, s].real,
                "c": gram[..., 0, d], "s": gram[..., 0, s].real,
                "norm": out(gram[..., 0, 0].real), "err": out(err.sum(axis=(-2, -1))),
                "gram_err": err, "fd_steps": steps}

    # -- assembled quantities ------------------------------------------------

    def norm(self, lam, n):
        br = self.bracket_set(lam, n)
        return br["norm"], float(br["gram_err"][0, 0])

    def _real_connection(self, c, s):
        """Real part of the connection formula; warns on a large imaginary part."""
        raw = _connection(c, s)
        residue = float(np.max(np.abs(raw.imag)))
        if residue > CONNECTION_RESIDUE_WARN:
            warnings.warn(
                f"Berry connection imaginary residue {residue:.3e}; check "
                "normalization and differentiation steps",
                ImaginaryResidueWarning,
                stacklevel=3,
            )
        return raw.real

    def berry_connection(self, lam, n):
        br = self.bracket_set(lam, n)
        return self._real_connection(br["c"], br["s"])

    def berry_connection_along(self, lam, n, delta):
        """beta . delta at one point ``(m,)``, a float, or at each point of a
        stack ``(P, m)``, an array ``(P,)``; from the Gram of the
        three columns [psi, d_delta psi, sigma_delta psi].

        Equals ``berry_connection(lam, n) @ delta`` but samples only the
        parameter derivatives with delta_r != 0.  A stack is one bracket
        call, so its points share one integration.  The imaginary-residue
        warning covers every point.
        """
        lamv = param_values(lam) if np.ndim(lam) < 2 else np.asarray(lam, dtype=float)
        n = as_quantum_number(n)
        delta = np.asarray(delta, dtype=float)
        rs = np.flatnonzero(delta)

        def columns(p, *axes):
            # d_delta = sum_r delta_r d_r, over the nonzero delta_r only
            psi, dpsi, sigma = self._sample(p, n, axes, rs)
            d = sum(delta[r] * v for r, v in zip(rs, dpsi))
            s = sum(delta[r] * v for r, v in zip(rs, sigma))
            return [psi, d, s * psi]

        gram, _ = self.bracket(lamv, columns)
        beta = self._real_connection(gram[..., 0, 1], gram[..., 0, 2].real)
        return float(beta) if lamv.ndim == 1 else beta

    def qmt(self, lam, n):
        return self.qgt(lam, n).qmt

    def berry_curvature(self, lam, n):
        return self.qgt(lam, n).berry_curvature

    def qgt(self, lam, n):
        """The tensors at one point ``(m,)``, a :class:`GeometricTensors`, or
        at each point of a stack ``(P, m)``, a list of them from one bracket
        call; see :func:`assemble_tensors`."""
        return assemble_tensors(self.bracket_set(lam, n))

    def qgt_projector_oracle(self, lam, n):
        """QGT via <v_r|P|v_k> with v_r = d_r psi - sigma_r psi / 4.

        The sigma corrections sit inside the columns [psi, v_1 .. v_m] of a
        Gram matrix of its own instead of being assembled from the bracket
        family.  Kept as a cross-check of the expanded formula.
        """
        lamv = param_values(lam)
        n = as_quantum_number(n)

        def columns(p, *axes):
            psi, dpsi, sigma = self._sample(p, n, axes, range(lamv.size))
            return [psi, *(d - 0.25 * s * psi for d, s in zip(dpsi, sigma))]

        gram, _ = self.bracket(lamv, columns)
        vp = gram[1:, 0]
        return gram[1:, 1:] - np.outer(vp, np.conj(vp))


# ---------------------------------------------------------------------------
# Family transformations
# ---------------------------------------------------------------------------

def gauge_transform(psi: WavefunctionFamily, alpha: Callable,
                    alpha_grad: Optional[Callable] = None) -> WavefunctionFamily:
    """Multiply the family by exp(i alpha(lambda)).

    The connection shifts by the gradient of alpha; metric-derived
    quantities are untouched.  Analytic parameter derivatives are adjusted
    when present, differentiating alpha by central differences if no
    gradient callable is supplied.
    """
    def grad_alpha(lamv, rho):
        if alpha_grad is not None:
            return alpha_grad(lamv, rho)
        return fd_derivative(alpha, lamv, rho, _ALPHA_FD)

    def new_eval(lamv, n, *axes):
        return np.exp(1j * alpha(lamv)) * np.asarray(psi.eval(lamv, n, *axes))

    new_grad = None
    if psi.analytic_param_grad is not None:
        def new_grad(lamv, n, rho, *axes):
            phase = np.exp(1j * alpha(lamv))
            base = np.asarray(psi.analytic_param_grad(lamv, n, rho, *axes))
            state = np.asarray(psi.eval(lamv, n, *axes))
            return phase * (base + 1j * grad_alpha(lamv, rho) * state)

    return WavefunctionFamily(dim=psi.dim, eval=new_eval, analytic_param_grad=new_grad)


def reparameterize(psi: WavefunctionFamily, metric: MetricFamily,
                   map_fn: Callable, jacobian_fn: Callable):
    """Pull (psi, metric) back along lambda = map_fn(lambda').

    ``jacobian_fn(lam')`` returns J[a, r] = d lambda_a / d lambda'_r.
    Analytic derivatives transform by the chain rule.
    """
    def checked_jacobian(lamv):
        jac = np.asarray(jacobian_fn(lamv), dtype=float)
        if abs(np.linalg.det(jac)) < 1e-12:
            raise EngineError(f"singular reparameterization Jacobian at {lamv}")
        return jac

    def psi_eval(lamv, n, *axes):
        return psi.eval(np.asarray(map_fn(lamv), dtype=float), n, *axes)

    psi_grad = None
    if psi.analytic_param_grad is not None:
        def psi_grad(lamv, n, rho, *axes):
            jac = checked_jacobian(lamv)
            base = np.asarray(map_fn(lamv), dtype=float)
            total = 0
            for a in range(base.size):
                if jac[a, rho] != 0.0:
                    total = total + jac[a, rho] * np.asarray(
                        psi.analytic_param_grad(base, n, a, *axes)
                    )
            return total

    metric_grad = None
    if metric.analytic_log_det_grad is not None:
        def metric_grad(lamv, rho, *axes):
            jac = checked_jacobian(lamv)
            base = np.asarray(map_fn(lamv), dtype=float)
            total = 0
            for a in range(base.size):
                if jac[a, rho] != 0.0:
                    total = total + jac[a, rho] * np.asarray(
                        metric.analytic_log_det_grad(base, a, *axes)
                    )
            return total

    new_psi = WavefunctionFamily(dim=psi.dim, eval=psi_eval, analytic_param_grad=psi_grad)
    new_metric = MetricFamily(
        dim=metric.dim,
        eval=lambda lamv, *axes: metric.eval(np.asarray(map_fn(lamv), dtype=float), *axes),
        det=(None if metric.det is None else (
            lambda lamv, *axes: metric.det(np.asarray(map_fn(lamv), dtype=float), *axes)
        )),
        analytic_log_det_grad=metric_grad,
    )
    return new_psi, new_metric


def berry_phase_loop(psi, metric, domain, loop, n, cfg=None, in_domain=None) -> float:
    """Line integral of the connection around a closed polyline.

    The loop is a sequence of parameter points; it is closed automatically
    when the last vertex differs from the first.  Each segment delta is
    integrated by adaptive Gauss-Kronrod bisection, and at every node
    beta . delta comes from the directional Gram of
    [psi, d_delta psi, sigma_delta psi]
    (:meth:`GeometryEngine.berry_connection_along`), so an edge along one
    parameter samples one derivative instead of all of them.  The nodes of
    each rule call go to the engine in stacks of at most ``SEGMENT_POINTS``,
    one panel, and each stack is one bracket call: one integration over
    the family's domain, whatever the number of points.  On families that
    broadcast over points, each integrand call of that integration samples
    the whole panel in one family call per column.  A stacked point outside
    ``in_domain`` raises :class:`ParameterBoundaryError` before any family
    call.  The connection's imaginary-residue warning still applies at
    every node.
    """
    cfg = cfg or EngineConfig()
    pts = [param_values(p) for p in loop]
    if pts[-1] is not pts[0] and not np.allclose(pts[-1], pts[0]):
        pts.append(pts[0])
    engine = GeometryEngine(psi, metric, domain, cfg, in_domain=in_domain)

    seg_cfg = QuadratureConfig(
        rel_tol=max(SEGMENT_TOL, cfg.quad.rel_tol),
        abs_tol=max(SEGMENT_TOL * 1e-2, cfg.quad.abs_tol),
        max_subdivisions=cfg.quad.max_subdivisions,
    )
    total = 0.0
    for start, end in zip(pts[:-1], pts[1:]):
        delta = end - start
        if not np.any(delta):
            continue

        def integrand(ts):
            ts = np.atleast_1d(ts)
            return np.concatenate([
                engine.berry_connection_along(start + ts[i:i + SEGMENT_POINTS, None] * delta,
                                              n, delta)
                for i in range(0, ts.size, SEGMENT_POINTS)])

        val, _ = integrate(integrand, Domain.interval(0.0, 1.0), seg_cfg)
        total += val.real
    return total
