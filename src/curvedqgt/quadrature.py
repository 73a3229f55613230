"""Adaptive numerical integration of real or complex integrands.

Two schemes back every curved inner product:

* finite intervals use adaptive bisection with an embedded 7/15-point
  Gauss-Kronrod error estimate;
* unbounded (or transform-tamed) axes use double-exponential rules
  (tanh-sinh, exp-sinh, sinh-sinh) refined by mesh halving.  The levels
  nest: each one evaluates only the nodes it adds and reuses the sum over
  all earlier ones, and integrable endpoint behaviour is tolerated.  The
  rule never stops before level 2, so levels 0-2 share one pass over the
  level-2 mesh (one integrand call per 1-D axis) whose sum is split by the
  level that adds each node; later levels take one pass each.  A 2-D
  product rule also reads from that pass one t window per axis, outside
  of which the integrand's mass is negligible; later levels refine only
  inside the windows, and the mass left out joins the error estimate.

Integrands receive physical coordinates as arrays, one argument per axis,
and must return values broadcast to the same shape.  Real values are
integrated in real arithmetic and give real results; only a complex
integrand pays for complex products.  An integrand may be array-valued:
leading axes then index entries, trailing axes nodes, and the value and
the error estimate come back per entry.  An integrand that
returns its stacked columns ``U`` (shape ``(k, *nodes)``) viewed as
:class:`GramColumns` gets the k-by-k Gram matrix
``G[a, b] = integral conj(U_a) U_b``, contracted as one matrix product per
chunk of nodes rather than k*k per-node products; a stack of P such
column sets, shape ``(P, k, *nodes)``, gets P Grams ``(P, k, k)`` from one
batched product per chunk.  Nodes are evaluated in
chunks of at most ``_CHUNK``, so memory stays flat at fine levels.  Axis
transforms and even-symmetry folding declared on the
:class:`~curvedqgt.core.Domain` are applied here, so callers always write
integrands in physical variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .core import (
    Axis,
    Domain,
    IntegrandNaNError,
    QuadratureConvergenceError,
)

__all__ = ["QuadratureConfig", "GramColumns", "integrate", "integrate_2d_product"]

_Q = math.pi / 2.0
# first level at which the nested rules may stop; the change over level 1
# is too coarse to serve as an error estimate
_FIRST_STOP = 2


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and effort caps for one integration call."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000
    max_levels: int = 10

    def __post_init__(self):
        # NaN fails every comparison, so it is refused with infinity
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")
        if self.max_levels < _FIRST_STOP:
            raise ValueError(f"max_levels must be at least {_FIRST_STOP}: "
                             "the double-exponential rules cannot stop earlier")

    def tolerance(self, value):
        """Error allowed for a value, entry by entry for arrays."""
        return np.maximum(self.abs_tol, self.rel_tol * np.abs(value))


class GramColumns(np.ndarray):
    """Integrand value asking for the Gram matrix of its columns.

    Build it as ``np.stack(columns).view(GramColumns)``, shape
    ``(k, *nodes)``; the integral is then the k-by-k matrix
    ``sum_i w_i conj(U[:, i]) U[:, i]^T`` over the quadrature nodes i.  A
    stack ``(P, k, *nodes)`` integrates to one such matrix per leading
    index, ``(P, k, k)``.  Real columns give a real Gram, contracted in
    real arithmetic; complex columns a complex Hermitian one.
    """


# ---------------------------------------------------------------------------
# Double-exponential maps
# ---------------------------------------------------------------------------

def _de_map(lo: float, hi: float):
    """Return (x(t), w(t), t_cap) realizing the interval (lo, hi)."""
    lo_inf, hi_inf = math.isinf(lo), math.isinf(hi)
    if lo_inf and hi_inf:
        def x_of(t):
            return np.sinh(_Q * np.sinh(t))

        def w_of(t):
            return _Q * np.cosh(t) * np.cosh(_Q * np.sinh(t))

        return x_of, w_of, 5.0
    if hi_inf:
        def x_of(t):
            return lo + np.exp(_Q * np.sinh(t))

        def w_of(t):
            return _Q * np.cosh(t) * np.exp(_Q * np.sinh(t))

        return x_of, w_of, 5.0
    if lo_inf:
        def x_of(t):
            return hi - np.exp(_Q * np.sinh(t))

        def w_of(t):
            return _Q * np.cosh(t) * np.exp(_Q * np.sinh(t))

        return x_of, w_of, 5.0
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def x_of(t):
        return mid + half * np.tanh(_Q * np.sinh(t))

    def w_of(t):
        return half * _Q * np.cosh(t) / np.cosh(_Q * np.sinh(t)) ** 2

    return x_of, w_of, 4.0


def _axis_node_maker(axis: Axis):
    """Return (node_fn, label) with node_fn(t) -> (x_physical, weight).

    The weight combines the double-exponential factor dx/dt with any axis
    transform Jacobian and the even-symmetry fold factor; the trapezoid
    step h is applied by the caller.
    """
    fold = 2.0 if axis.even_fold else 1.0
    if axis.transform is not None:
        tr = axis.transform
        u_of, w_of, t_cap = _de_map(tr.u_lo, tr.u_hi)

        def nodes(t):
            u = u_of(t)
            x = tr.inv(u)
            w = fold * w_of(t) * tr.inv_jac(u)
            return x, w

        return nodes, t_cap
    lo = 0.0 if axis.even_fold else axis.lo
    x_of, w_of, t_cap = _de_map(lo, axis.hi)

    def nodes(t):
        return x_of(t), fold * w_of(t)

    return nodes, t_cap


# ---------------------------------------------------------------------------
# Chunked evaluation and contraction
# ---------------------------------------------------------------------------

_H0 = 0.5
# nodes per integrand call: large enough to amortize the call, small enough
# that its temporaries stay small and peak memory flat (2-D Gram columns
# evaluated fastest per node between about 2.5k and 5k nodes per call)
_CHUNK = 4096
# a 2-D axis leaves unrefined the end runs of level-2 nodes whose summed
# envelope mass stays below this fraction of abs_tol
_TAIL_FRACTION = 1e-3


def _node_values(out, x, ny=None):
    """Integrand output as (entries..., nodes), complex if it is complex and
    float otherwise; non-finite values raise.

    ``x`` holds the nodes of the first axis; in 2-D each of them carries a
    row of ``ny`` nodes of the second.
    """
    node_shape = (x.size,) if ny is None else (x.size, ny)
    vals = np.asarray(out, dtype=complex if np.iscomplexobj(out) else float)
    lead = vals.shape[:max(0, vals.ndim - len(node_shape))]
    vals = np.broadcast_to(vals, lead + node_shape).reshape(lead + (-1,))
    bad = ~np.isfinite(vals)
    if np.any(bad):
        node = int(np.argmax(bad.reshape(-1, vals.shape[-1]).any(axis=0)))
        raise IntegrandNaNError(x[node // (ny or 1)])
    return vals


def _block_sum(f, x, wx, y=None, wy=None, gx=None, gy=None, marginals=False):
    """Weighted sums of ``f`` over the nodes x, or over the grid x times y.

    ``gx`` (``gy``) labels each node of x (y) with a group 0, 1, ...; a grid
    node belongs to the larger group of its two coordinates.  Label every
    axis or none; no labels means one group.  Returns one sum per group.
    The integrand is called once per chunk of at most ``_CHUNK`` nodes
    (whole rows of the grid in 2-D), whatever the groups.  Real values are
    summed in real arithmetic.  In 2-D, ``marginals`` also returns the row
    and the column sums of each node's envelope, which bounds the node's
    share of an entry: ``w * sum_c |U_c|^2`` over the columns of each
    point of a Gram stack, shape ``(P, 1, 1, nodes)`` (``(1, 1, nodes)``
    without a stack), and ``w * |f|`` per entry otherwise, so each
    broadcasts against the entries it bounds.
    """
    groups = 1 + max(0 if g is None else int(g.max()) for g in (gx, gy))
    step = max(1, _CHUNK // (1 if y is None else y.size))
    totals = [0.0] * groups
    rows, cols = [], 0.0
    for i in range(0, x.size, step):
        xs, w = x[i:i + step], wx[i:i + step]
        g = None if gx is None else gx[i:i + step]
        if y is None:
            out = f(xs)
            vals = _node_values(out, xs)
        else:
            out = f(xs[:, None], y[None, :])
            vals = _node_values(out, xs, y.size)
            w = np.outer(w, wy).ravel()
            if g is not None:
                g = np.maximum.outer(g, gy).ravel()
        gram = isinstance(out, GramColumns)
        for j in range(groups):
            v, wj = (vals, w) if groups == 1 else (vals[..., g == j], w[g == j])
            totals[j] = totals[j] + ((v.conj() * wj) @ v.swapaxes(-1, -2) if gram
                                     else v @ wj)
        if marginals:
            if gram:
                # einsum over the real and imaginary views makes no
                # (columns, nodes) temporaries; a real array has no
                # imaginary view, its .imag is a fresh block of zeros
                size = np.einsum("...cn,...cn->...n", vals.real, vals.real)
                if np.iscomplexobj(vals):
                    size += np.einsum("...cn,...cn->...n", vals.imag, vals.imag)
                size = size[..., None, None, :]
            else:
                size = np.abs(vals)
            env = (w * size).reshape(size.shape[:-1] + (xs.size, y.size))
            rows.append(env.sum(axis=-1))
            cols = cols + env.sum(axis=-2)
    return (totals, np.concatenate(rows, axis=-1), cols) if marginals else totals


def _axis_level(node_fn, span, first: int, last: int):
    """(t, x, w, group) at the nodes levels ``first`` to ``last`` add in ``span``.

    Level 0 holds every multiple of _H0 in the t range ``span``; each later
    level adds the odd multiples of its own step h = _H0 / 2^level.  On the
    mesh of the last step, node k * h is added at the last level minus the
    number of trailing zero bits of k (level 0 for k = 0); ``group`` is
    that level minus ``first``.
    """
    h = _H0 / 2 ** last
    k = np.arange(math.ceil(span[0] / h), math.floor(span[1] / h) + 1)
    added = np.full(k.shape, last)
    for j in range(1, last + 1):
        added -= k % 2 ** j == 0
    keep = added >= first
    t = k[keep] * h
    x, w = node_fn(t)
    return t, x, w, added[keep] - first


def _tail_window(mass, limit: float):
    """Nodes [lo, hi) worth refining, and the mass of the nodes left out.

    ``mass`` holds each node's share in t order along its last axis, one
    row per bounded entry (or stack point); the window is chosen from the
    sum of the rows, so all of them share it.  The longest run of nodes at
    each end whose summed mass stays below ``limit`` is dropped, except
    for its innermost node: refinement stops at the last node it keeps, so
    without it the panel between the kept edge node and the first dropped
    one would never be refined, an error of order h that halves with every
    level instead of vanishing.  The mass each row holds in both runs,
    innermost nodes included, is returned as that row's bound, shaped like
    ``mass`` without its last axis.
    """
    total = mass.reshape(-1, mass.shape[-1]).sum(axis=0)
    head, tail = np.cumsum(total), np.cumsum(total[::-1])
    lo = int(np.searchsorted(head, limit))
    hi = min(int(np.searchsorted(tail, limit)), total.size - lo)
    dropped = mass[..., :lo].sum(axis=-1) + mass[..., total.size - hi:].sum(axis=-1)
    return max(lo - 1, 0), total.size - max(hi - 1, 0), dropped


def _refine(sums, level_sum, dim: int, cfg: QuadratureConfig, rule: str,
            dropped: float = 0.0):
    """Nested trapezoid refinement over the steps h = _H0 / 2^level.

    ``sums`` holds, for each level up to ``_FIRST_STOP``, the sum of w * f
    over the nodes that level adds: no level before ``_FIRST_STOP`` can end
    the rule, so one pass covers them all.  ``level_sum(level)`` returns
    that sum for one later level.  The earlier nodes keep their sum, scaled
    by 1/2 per axis as h halves.  The error of each entry is its change over
    the last level plus ``dropped``, the mass of any nodes the later levels
    leave unrefined, and the rule stops once every entry is within
    tolerance.
    """
    h = _H0
    acc = sums[0] * h ** dim
    prev, err = acc, np.inf
    for level in range(1, cfg.max_levels + 1):
        h *= 0.5
        s = sums[level] if level <= _FIRST_STOP else level_sum(level)
        acc = acc * 0.5 ** dim + s * h ** dim
        err = np.abs(acc - prev) + dropped
        if level >= _FIRST_STOP and np.all(err <= cfg.tolerance(acc)):
            return acc, err
        prev = acc
    raise QuadratureConvergenceError(
        f"{rule} did not converge in {cfg.max_levels} levels", acc, float(np.max(err)),
    )


# ---------------------------------------------------------------------------
# Gauss-Kronrod 7/15 adaptive bisection
# ---------------------------------------------------------------------------

_XGK_HALF = [  # QUADPACK qk15 abscissae, outermost first
    .991455371120812639206854697526329, .949107912342758524526189684047851,
    .864864423359769072789712788640926, .741531185599394439863864773280788,
    .586087235467691130294144845693013, .405845151377397166906606412076961,
    .207784955007898467600689403773245, 0.0,
]
_WGK_HALF = [
    .022935322010529224963732008058970, .063092092629978553290700663189204,
    .104790010322250183839876322541518, .140653259715525918745189590510238,
    .169004726639267902826583426598550, .190350578064785409913256402421014,
    .204432940075298892414161999234649, .209482141084727828012999174891714,
]
_WG_HALF = [
    .129484966168869693270611432679082, .279705391489276667901467771423780,
    .381830050505118944950369775488975, .417959183673469387755102040816327,
]
_XGK = np.array([-x for x in _XGK_HALF[:-1]] + _XGK_HALF[::-1])
_WGK = np.array(_WGK_HALF + _WGK_HALF[-2::-1])
_WG = np.array(_WG_HALF + _WG_HALF[-2::-1])
_GAUSS_IDX = np.arange(1, 15, 2)


def _gk_panels(f, a: np.ndarray, b: np.ndarray):
    """Evaluate the 7/15 pair on a batch of panels: (values, errors).

    Both come back as (entries..., panels).  Gram columns are expanded to
    per-node products here, within each column set of a stack; finite axes
    are short, so the cost is small.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = (mid[:, None] + half[:, None] * _XGK[None, :]).ravel()
    out = f(x)
    vals = _node_values(out, x)
    if isinstance(out, GramColumns):
        vals = vals.conj()[..., :, None, :] * vals[..., None, :, :]
    vals = vals.reshape(vals.shape[:-1] + (a.size, _XGK.size))
    k15 = (vals @ _WGK) * half
    g7 = (vals[..., _GAUSS_IDX] @ _WG) * half
    return k15, np.abs(k15 - g7)


def _integrate_gk(f, lo: float, hi: float, cfg: QuadratureConfig):
    a = np.array([lo], dtype=float)
    b = np.array([hi], dtype=float)
    vals, errs = _gk_panels(f, a, b)
    while True:
        total = vals.sum(axis=-1)
        total_err = errs.sum(axis=-1)
        if np.all(total_err <= cfg.tolerance(total)):
            return total, total_err
        if a.size >= cfg.max_subdivisions:
            raise QuadratureConvergenceError(
                f"adaptive subdivision exceeded {cfg.max_subdivisions} panels",
                total, float(np.max(total_err)),
            )
        n_split = max(1, min(a.size // 2 + 1, 64, cfg.max_subdivisions - a.size))
        order = np.argsort(errs.reshape(-1, a.size).max(axis=0))[::-1]
        split, keep = order[:n_split], order[n_split:]
        mids = 0.5 * (a[split] + b[split])
        new_a = np.concatenate([a[keep], a[split], mids])
        new_b = np.concatenate([b[keep], mids, b[split]])
        sub_vals, sub_errs = _gk_panels(f, new_a[keep.size:], new_b[keep.size:])
        a, b = new_a, new_b
        vals = np.concatenate([vals[..., keep], sub_vals], axis=-1)
        errs = np.concatenate([errs[..., keep], sub_errs], axis=-1)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def integrate(f: Callable, domain: Domain, cfg: QuadratureConfig | None = None
              ) -> Tuple[float | complex | np.ndarray, float | np.ndarray]:
    """Integrate ``f`` over a 1-D domain; returns (value, error estimate).

    ``f`` maps an array of physical coordinates to real or complex values,
    or to an array of them (see the module docstring); value and error
    then come back per entry.  The value is real when ``f`` returns real
    values and complex when it returns complex ones.  The scheme is
    picked from the domain: plain finite intervals use adaptive
    Gauss-Kronrod bisection, anything unbounded or transform-tamed uses
    the double-exponential rule, which calls ``f`` once per chunk of each
    level's new nodes.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    if domain.dim != 1:
        raise ValueError("integrate expects a 1-D domain; see integrate_2d_product")
    axis = domain.axes[0]
    if (axis.transform is None and not axis.even_fold
            and math.isfinite(axis.lo) and math.isfinite(axis.hi)):
        return _integrate_gk(f, axis.lo, axis.hi, cfg)
    node_fn, t_cap = _axis_node_maker(axis)
    span = (-t_cap, t_cap)
    _, x, w, group = _axis_level(node_fn, span, 0, _FIRST_STOP)

    def level_sum(level):
        _, x, w, _ = _axis_level(node_fn, span, level, level)
        return _block_sum(f, x, w)[0]

    return _refine(_block_sum(f, x, w, gx=group), level_sum, 1, cfg,
                   "double-exponential rule")


def _as_axis(d) -> Axis:
    if isinstance(d, Domain):
        if d.dim != 1:
            raise ValueError("expected a 1-D domain per axis")
        return d.axes[0]
    if isinstance(d, Axis):
        return d
    raise TypeError("axis specification must be a Domain or Axis")


def integrate_2d_product(f: Callable, domain_x, domain_y,
                         cfg: QuadratureConfig | None = None
                         ) -> Tuple[float | complex | np.ndarray, float | np.ndarray]:
    """Tensor-product integration over two axes; returns (value, error).

    ``f(x, y)`` must broadcast over a column of x values against a row of
    y values; it may be array-valued, and real or complex, like a 1-D
    integrand.  Both axes are refined together on nested double-exponential
    meshes.  The first pass covers the whole level-2 product mesh out to
    each axis' t cap.  From the row and column sums of its node envelope
    (see ``_block_sum``), kept per point of a Gram stack and per entry
    otherwise, each axis keeps one t window shared by all of them,
    dropping the end runs of level-2 nodes whose summed mass stays below
    ``_TAIL_FRACTION * abs_tol`` (see ``_tail_window``).  Each later
    level evaluates only its new rows inside the x window (against every
    y node in the y window) and its new columns inside the y window
    (against the x nodes in the x window).  The error of each entry is
    its change over the last level plus the mass the windows drop from
    its own envelope, that of its point in a Gram stack.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    ax, ay = _as_axis(domain_x), _as_axis(domain_y)
    nodes_x, cap_x = _axis_node_maker(ax)
    nodes_y, cap_y = _axis_node_maker(ay)
    tx, x, wx, gx = _axis_level(nodes_x, (-cap_x, cap_x), 0, _FIRST_STOP)
    ty, y, wy, gy = _axis_level(nodes_y, (-cap_y, cap_y), 0, _FIRST_STOP)
    sums, rows, cols = _block_sum(f, x, wx, y, wy, gx, gy, marginals=True)
    h2 = (_H0 / 2 ** _FIRST_STOP) ** 2
    limit = _TAIL_FRACTION * cfg.abs_tol
    i0, i1, dropped_x = _tail_window(h2 * rows, limit)
    j0, j1, dropped_y = _tail_window(h2 * cols, limit)
    span_x, span_y = (tx[i0], tx[i1 - 1]), (ty[j0], ty[j1 - 1])
    grid = [x[i0:i1], wx[i0:i1], y[j0:j1], wy[j0:j1]]  # in-window nodes so far

    def level_sum(level):
        _, x, wx, _ = _axis_level(nodes_x, span_x, level, level)
        _, y, wy, _ = _axis_level(nodes_y, span_y, level, level)
        x0, wx0, y0, wy0 = grid
        y_all, wy_all = np.concatenate([y0, y]), np.concatenate([wy0, wy])
        total = _block_sum(f, x, wx, y_all, wy_all)[0] + _block_sum(f, x0, wx0, y, wy)[0]
        grid[:] = [np.concatenate([x0, x]), np.concatenate([wx0, wx]), y_all, wy_all]
        return total

    return _refine(sums, level_sum, 2, cfg, "product rule", dropped_x + dropped_y)
