"""Curved-space geometric objects on parameter space.

Every quantity here comes from curved brackets

    <A|B> = integral sqrt(g) conj(A) B,

with the sqrt(g) factor split symmetrically between bra and ket.  The
curved QGT is the ordinary QGT of phi = g^(1/4) psi, whose derivatives are
d_r phi = g^(1/4) v_r with

    v_r = d_r psi - sigma_r psi / 4,    sigma_r = -d ln det g / d lambda_r,

so it is the projector form <v_r|(1 - |psi><psi|)|v_k> (Provost & Vallee
1980).  Everything it needs, and the norm, are entries of one Gram matrix:
the columns U = [psi, v_1 .. v_m] are sampled once per quadrature node and
contracted as U^H diag(sqrt(g) w) U, so a point costs one pass over the
nodes, and the sigma factors, which may depend on x, stay inside the
integrand.  With w_r = <psi|v_r> and G[r,k] = <v_r|v_k>,

    qgt[r,k] = G[r,k] - conj(w_r) w_k,    beta_r = Im w_r,

and Re w_r = Re<psi|d_r psi> - <sigma_r>/4 vanishes for a normalized
family.  A real family has real columns and integrates a real Gram in
real arithmetic, so its beta and curvature are exact zeros; only the qgt
it returns is complex.  Each entry's error is its change over the last
quadrature level, plus the mass of the tails the quadrature windows
leave unrefined.  A Berry loop needs only the connection along each
segment delta, so it integrates the two-column Gram of [psi, v_delta], with
v_delta = sum_r delta_r v_r.  At each integrand call the columns come from
three family calls: psi, the gradient [d_r psi] and the gradient
[d_r ln det g], each returning every parameter's partial at once.  A
bracket also takes a stack of points and integrates all their Grams in
one pass over shared nodes; a loop hands it the points of one
Gauss-Kronrod panel at a time, and a sweep a batch of grid points.
One adapter, :func:`~curvedqgt.core.over_points`, shared with the
fidelity overlaps, samples a stack: in one call per family callable when
the state and the metric both broadcast and differentiate analytically,
and any other family, or a single point, point by point.
Conventions:

    qmt              = Re(qgt)                  (symmetric)
    berry_curvature  = 2 Im(qgt) = d beta       (antisymmetric)
    berry_connection = Im<psi|v> = -i c + (i/4) s, with c = <psi|d psi> and
                       s = <sigma>              (real up to diagnostics)
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
    over_points,
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


def _integrate(f, domain: Domain, quad: QuadratureConfig):
    """One integration over the domain: the 1-D rule or the 2-D product rule."""
    if domain.dim == 1:
        return integrate(f, domain, quad)
    return integrate_2d_product(f, domain.axes[0], domain.axes[1], quad)


def _qgt(br):
    """qgt = G - conj(w)_r w_k of a :meth:`GeometryEngine.bracket_set`
    result, ``(m, m)`` or ``(P, m, m)``: its Hermitian part, since the
    batched Gram product is Hermitian only to rounding."""
    w = br["w"]
    g = br["G"] - np.conj(w)[..., :, None] * w[..., None, :]
    return 0.5 * (g + np.conj(np.swapaxes(g, -1, -2)))


def _real_connection(w):
    """beta = Im w, a new writable array (zeros for a real w); warns when
    Re w, which vanishes for a normalized family, exceeds
    ``CONNECTION_RESIDUE_WARN``."""
    residue = float(np.max(np.abs(np.real(w))))
    if residue > CONNECTION_RESIDUE_WARN:
        warnings.warn(
            f"Berry connection imaginary residue {residue:.3e}; check "
            "normalization and differentiation steps",
            ImaginaryResidueWarning,
            stacklevel=3,
        )
    return np.imag(w).copy()


def assemble_tensors(br):
    """The tensors of a :meth:`GeometryEngine.bracket_set` result: one
    :class:`GeometricTensors` for one point, a list of them for a stack.

    The one assembly formula of the QGT, qgt = G - conj(w)_r w_k, with
    beta = Im w; no bracket is integrated here.  The qgt of a real Gram is
    returned as complex too, so every family gives the same types.
    """
    g, m = _qgt(br).astype(complex, copy=False), br["w"].shape[-1]
    tensors = [
        GeometricTensors(qgt=gp, qmt=gp.real.copy(), berry_curvature=2.0 * gp.imag,
                         berry_connection=bp, quad_error=float(ep), fd_steps=hp)
        for gp, bp, ep, hp in zip(g.reshape(-1, m, m), br["w"].imag.reshape(-1, m).copy(),
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

    def _sample(self, lamv, n, axes):
        """psi and the gradients [d_r psi] and [sigma_r] at the given nodes,
        for one point ``(m,)`` or, on broadcasting families, for a stack
        ``(m, P, 1, ..., 1)``."""
        fd, in_domain = self.cfg.fd, self.in_domain
        return (np.asarray(self.psi.eval(lamv, n, *axes)),
                d_psi(self.psi, n, lamv, fd, *axes, in_domain=in_domain),
                -d_log_det_g(self.metric, lamv, fd, *axes, in_domain=in_domain))

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
        within tolerance.  Each integrand call samples the columns, with
        sqrt(sqrt(g)) folded into each, through
        :func:`~curvedqgt.core.over_points`, and contracts them in one
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
        broadcasts = (self.psi.broadcasts and metric.broadcasts
                      and self.psi.analytic_param_grad is not None
                      and metric.analytic_log_det_grad is not None)

        def weighted(p, *axes):
            cols = columns(p, *axes)
            root = np.sqrt(metric.sqrt_det(p, *axes))
            return [c * root for c in cols]

        def integrand(*axes):
            return over_points(weighted, points, axes, broadcasts).view(GramColumns)

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

    def _v_columns(self, n, delta=None):
        """The column function of [psi, v_1 .. v_m], or of [psi, v_delta],
        v_delta = sum_r delta_r v_r, given delta."""
        def columns(p, *axes):
            psi, dpsi, sigma = self._sample(p, n, axes)
            if delta is not None:
                # d_delta = sum_r delta_r d_r, over the nonzero delta_r only
                dpsi, sigma = ([sum(delta[r] * g[r] for r in np.flatnonzero(delta))]
                               for g in (dpsi, sigma))
            # strict: a gradient without all m partials fails instead of
            # silently dropping columns
            return [psi, *(d - 0.25 * s * psi for d, s in zip(dpsi, sigma, strict=True))]

        return columns

    def bracket_set(self, lam, n):
        """The brackets entering the tensors at one parameter point ``(m,)``,
        or at each point of a stack ``(P, m)`` under a leading P axis.

        They are the entries of one Gram matrix of the columns
        [psi, v_1 .. v_m], v_r = d_r psi - sigma_r psi / 4, integrated on
        shared nodes; a stack is one bracket call.  ``norm`` is <psi|psi>,
        ``w`` the row w_r = <psi|v_r> = <psi|d_r psi> - <sigma_r>/4 and
        ``G`` the block G[r,k] = <v_r|v_k>, both real for a real family.
        ``gram_err`` holds the error of each Gram entry and ``err`` their
        sum; ``norm`` and ``err`` are floats for one point and arrays
        ``(P,)`` for a stack.
        """
        lamv = param_values(lam) if np.ndim(lam) < 2 else np.asarray(lam, dtype=float)
        n = as_quantum_number(n)
        gram, err = self.bracket(lamv, self._v_columns(n))
        steps = np.array([self.cfg.fd.step(v) for v in lamv.ravel()]).reshape(lamv.shape)
        out = float if lamv.ndim == 1 else np.asarray
        return {"norm": out(gram[..., 0, 0].real), "w": gram[..., 0, 1:],
                "G": gram[..., 1:, 1:], "err": out(err.sum(axis=(-2, -1))),
                "gram_err": err, "fd_steps": steps}

    # -- assembled quantities ------------------------------------------------

    def norm(self, lam, n):
        """<psi|psi> and its error: floats for one point, arrays ``(P,)`` for
        a stack."""
        br = self.bracket_set(lam, n)
        err = br["gram_err"][..., 0, 0]
        return br["norm"], float(err) if err.ndim == 0 else err

    def berry_connection(self, lam, n):
        return _real_connection(self.bracket_set(lam, n)["w"])

    def berry_connection_along(self, lam, n, delta):
        """beta . delta at one point ``(m,)``, a float, or at each point of a
        stack ``(P, m)``, an array ``(P,)``; Im <psi|v_delta> from the Gram
        of the two columns [psi, v_delta], v_delta = sum_r delta_r v_r.

        Equals ``berry_connection(lam, n) @ delta`` but integrates a
        two-column Gram instead of an (m + 1)-column one: the family
        gradients are sampled whole and contracted with delta at every
        node.  A stack is one bracket call, so its points share one
        integration.  The imaginary-residue warning covers every point.
        """
        lamv = param_values(lam) if np.ndim(lam) < 2 else np.asarray(lam, dtype=float)
        n = as_quantum_number(n)
        gram, _ = self.bracket(lamv, self._v_columns(n, np.asarray(delta, dtype=float)))
        beta = _real_connection(gram[..., 0, 1])
        return float(beta) if lamv.ndim == 1 else beta

    def qmt(self, lam, n):
        """Re(qgt): ``(m, m)`` for one point, ``(P, m, m)`` for a stack."""
        return _qgt(self.bracket_set(lam, n)).real

    def berry_curvature(self, lam, n):
        """2 Im(qgt): ``(m, m)`` for one point, ``(P, m, m)`` for a stack."""
        return 2.0 * _qgt(self.bracket_set(lam, n)).imag

    def qgt(self, lam, n):
        """The tensors at one point ``(m,)``, a :class:`GeometricTensors`, or
        at each point of a stack ``(P, m)``, a list of them from one bracket
        call; see :func:`assemble_tensors`."""
        return assemble_tensors(self.bracket_set(lam, n))


# ---------------------------------------------------------------------------
# Family transformations
# ---------------------------------------------------------------------------

def gauge_transform(psi: WavefunctionFamily, alpha: Callable,
                    alpha_grad: Optional[Callable] = None) -> WavefunctionFamily:
    """Multiply the family by exp(i alpha(lambda)).

    The connection shifts by the gradient of alpha; metric-derived
    quantities are untouched.  An analytic gradient of the family gains
    i (d_r alpha) psi in each partial; ``alpha_grad(lam)`` returns the
    ``(m,)`` gradient of alpha, which central differences supply when it
    is not given.
    """
    def grad_alpha(lamv):
        if alpha_grad is not None:
            return np.asarray(alpha_grad(lamv), dtype=float)
        return np.array([fd_derivative(alpha, lamv, r, _ALPHA_FD) for r in range(lamv.size)])

    def new_eval(lamv, n, *axes):
        return np.exp(1j * alpha(lamv)) * np.asarray(psi.eval(lamv, n, *axes))

    new_grad = None
    if psi.analytic_param_grad is not None:
        def new_grad(lamv, n, *axes):
            base = np.asarray(psi.analytic_param_grad(lamv, n, *axes))
            state = np.asarray(psi.eval(lamv, n, *axes))
            return np.exp(1j * alpha(lamv)) * (
                base + 1j * np.multiply.outer(grad_alpha(lamv), state))

    return WavefunctionFamily(dim=psi.dim, eval=new_eval, analytic_param_grad=new_grad)


def reparameterize(psi: WavefunctionFamily, metric: MetricFamily,
                   map_fn: Callable, jacobian_fn: Callable):
    """Pull (psi, metric) back along lambda = map_fn(lambda').

    ``jacobian_fn(lam')`` returns J[a, r] = d lambda_a / d lambda'_r.
    Analytic gradients transform by the chain rule, J^T times the gradient
    at map_fn(lam').
    """
    def base(lamv):
        return np.asarray(map_fn(lamv), dtype=float)

    def pulled_back(grad):
        def new_grad(lamv, *args):
            jac = np.asarray(jacobian_fn(lamv), dtype=float)
            if abs(np.linalg.det(jac)) < 1e-12:
                raise EngineError(f"singular reparameterization Jacobian at {lamv}")
            return np.tensordot(jac.T, np.asarray(grad(base(lamv), *args)), axes=1)

        return None if grad is None else new_grad

    new_psi = WavefunctionFamily(
        dim=psi.dim, eval=lambda lamv, n, *axes: psi.eval(base(lamv), n, *axes),
        analytic_param_grad=pulled_back(psi.analytic_param_grad))
    new_metric = MetricFamily(
        dim=metric.dim,
        eval=lambda lamv, *axes: metric.eval(base(lamv), *axes),
        det=(None if metric.det is None else (
            lambda lamv, *axes: metric.det(base(lamv), *axes))),
        analytic_log_det_grad=pulled_back(metric.analytic_log_det_grad),
    )
    return new_psi, new_metric


def berry_phase_loop(psi, metric, domain, loop, n, cfg=None, in_domain=None) -> float:
    """Line integral of the connection around a closed polyline.

    The loop is a sequence of parameter points; it is closed automatically
    when the last vertex differs from the first.  Each segment delta is
    integrated by adaptive Gauss-Kronrod bisection, and at every node
    beta . delta comes from the directional Gram of [psi, v_delta]
    (:meth:`GeometryEngine.berry_connection_along`), two columns whatever
    the number of parameters.  The nodes of each rule call go to the
    engine in stacks of at most ``SEGMENT_POINTS``, one panel, and each
    stack is one bracket call: one integration over the family's domain,
    whatever the number of points.  On families that broadcast over
    points, each integrand call of that integration samples the whole
    panel in one call per family callable.  A stacked point outside
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
