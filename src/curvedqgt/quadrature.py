"""Adaptive numerical integration of real or complex integrands.

Two schemes back every curved inner product:

* finite intervals use adaptive bisection with an embedded 7/15-point
  Gauss-Kronrod error estimate;
* unbounded (or transform-tamed) axes, and every product of axes, use
  double-exponential rules (tanh-sinh, exp-sinh, sinh-sinh) refined by
  mesh halving, one driver for any number of axes.  The levels nest: each
  one evaluates only the nodes it adds and reuses the sum over all
  earlier ones, and integrable endpoint behaviour is tolerated.  The rule
  never stops before level 2, so levels 0-2 share one pass over the
  level-2 mesh whose sum is split by the level that adds each node; later
  levels take one pass each.  The rule also reads from that pass one t
  window per axis, outside of which the integrand's mass is negligible;
  later levels refine only inside the windows, and the mass left out
  joins the error estimate, in one dimension as in two.

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

import functools
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
# an axis leaves unrefined the end runs of level-2 nodes whose summed
# envelope mass stays below this fraction of abs_tol
_TAIL_FRACTION = 1e-3


def _node_values(out, nodes):
    """Integrand output as (entries..., nodes), complex if it is complex and
    float otherwise; non-finite values raise, naming the first coordinate.

    ``nodes`` holds the node coordinates of each axis; the values span
    their product grid.
    """
    node_shape = tuple(x.size for x in nodes)
    vals = np.asarray(out, dtype=complex if np.iscomplexobj(out) else float)
    lead = vals.shape[:max(0, vals.ndim - len(node_shape))]
    vals = np.broadcast_to(vals, lead + node_shape).reshape(lead + (-1,))
    bad = ~np.isfinite(vals)
    if np.any(bad):
        node = int(np.argmax(bad.reshape(-1, vals.shape[-1]).any(axis=0)))
        raise IntegrandNaNError(nodes[0][np.unravel_index(node, node_shape)[0]])
    return vals


def _block_sum(f, axes, groups=None, marginals=False):
    """Weighted sums of ``f`` over the product grid of ``axes``.

    ``axes`` holds one (nodes, weights) pair per axis.  ``groups`` labels
    the nodes of each axis with a group 0, 1, ...; a grid node belongs to
    the largest group of its coordinates, and no labels means one group.
    Returns one sum per group.  The integrand is called once per chunk of
    at most ``_CHUNK`` nodes (whole slices of the grid along the first
    axis), whatever the groups, with axis a's coordinates shaped to
    broadcast along grid axis a.  Real values are summed in real
    arithmetic.  ``marginals`` also returns, for each axis, the sums of
    each node's envelope over the other axes, which bound the node's
    share of an entry: ``w * sum_c |U_c|^2`` over the columns of each
    point of a Gram stack, shape ``(P, 1, 1, nodes)`` (``(1, 1, nodes)``
    without a stack), and ``w * |f|`` per entry otherwise, so each
    broadcasts against the entries it bounds.
    """
    dim = len(axes)
    (x0, w0), rest = axes[0], axes[1:]
    # the other axes are whole in every chunk, so they are shaped once
    shaped = [x.reshape([-1 if b == a else 1 for b in range(dim)])
              for a, (x, _) in enumerate(rest, 1)]
    sizes = tuple(x.size for x, _ in rest)
    n_groups = 1 if groups is None else 1 + max(int(g.max()) for g in groups)
    step = max(1, _CHUNK // math.prod(sizes))
    totals = [0.0] * n_groups
    first, other = [], [0.0] * len(rest)
    for i in range(0, x0.size, step):
        xs = x0[i:i + step]
        out = f(xs.reshape((-1,) + (1,) * len(rest)), *shaped)
        vals = _node_values(out, [xs, *(x for x, _ in rest)])
        w = functools.reduce(np.multiply.outer, [w0[i:i + step], *(w for _, w in rest)]).ravel()
        if groups is not None:
            g = functools.reduce(np.maximum.outer, [groups[0][i:i + step], *groups[1:]]).ravel()
        gram = isinstance(out, GramColumns)
        for j in range(n_groups):
            v, wj = (vals, w) if n_groups == 1 else (vals[..., g == j], w[g == j])
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
            env = (w * size).reshape(size.shape[:-1] + (xs.size,) + sizes)
            sums = [env.sum(axis=tuple(b - dim for b in range(dim) if b != a))
                    for a in range(dim)]
            first.append(sums[0])
            other = [o + s for o, s in zip(other, sums[1:])]
    return (totals, [np.concatenate(first, axis=-1), *other]) if marginals else totals


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


def _double_exponential(f, axes, cfg: QuadratureConfig):
    """Nested double-exponential refinement over the product of ``axes``.

    Trapezoid sums on the steps h = _H0 / 2^level: each level adds the
    nodes of its own step, and the earlier nodes keep their sum, scaled by
    1/2 per axis as h halves.  No level before ``_FIRST_STOP`` can end the
    rule, so the first pass covers the whole level-``_FIRST_STOP`` product
    mesh out to each axis' t cap and splits its sum by the level that adds
    each node.  From the marginals of its node envelope (see
    ``_block_sum``), kept per point of a Gram stack and per entry
    otherwise, each axis keeps one t window shared by all of them,
    dropping the end runs of level-2 nodes whose summed mass stays below
    ``_TAIL_FRACTION * abs_tol`` (see ``_tail_window``).  Each later level
    evaluates only the in-window nodes it adds: for each axis in turn, its
    new nodes against the old nodes of the axes before it and all nodes of
    the axes after it (in 2-D, new rows against every column, then old
    rows against the new columns).  The error of each entry is its change
    over the last level plus the mass the windows drop from its own
    envelope, that of its point in a Gram stack, and the rule stops once
    every entry is within tolerance.
    """
    dim = len(axes)
    makers = [_axis_node_maker(axis) for axis in axes]
    mesh = [_axis_level(nodes, (-cap, cap), 0, _FIRST_STOP) for nodes, cap in makers]
    sums, margins = _block_sum(f, [(x, w) for _, x, w, _ in mesh],
                               [g for *_, g in mesh], marginals=True)
    cell = (_H0 / 2 ** _FIRST_STOP) ** dim
    limit = _TAIL_FRACTION * cfg.abs_tol
    spans, kept, dropped = [], [], 0.0
    for (t, x, w, _), mass in zip(mesh, margins):
        lo, hi, tail = _tail_window(cell * mass, limit)
        spans.append((t[lo], t[hi - 1]))
        kept.append((x[lo:hi], w[lo:hi]))  # in-window nodes so far
        dropped = dropped + tail

    h = _H0
    acc = sums[0] * h ** dim
    prev, err = acc, np.inf
    for level in range(1, cfg.max_levels + 1):
        h *= 0.5
        if level <= _FIRST_STOP:
            s = sums[level]
        else:
            new = [_axis_level(nodes, span, level, level)[1:3]
                   for (nodes, _), span in zip(makers, spans)]
            joined = [(np.concatenate([x0, x]), np.concatenate([w0, w]))
                      for (x0, w0), (x, w) in zip(kept, new)]
            s = 0.0
            for a in range(dim):
                s = s + _block_sum(f, [*kept[:a], new[a], *joined[a + 1:]])[0]
            kept = joined
        acc = acc * 0.5 ** dim + s * h ** dim
        err = np.abs(acc - prev) + dropped
        if level >= _FIRST_STOP and np.all(err <= cfg.tolerance(acc)):
            return acc, err
        prev = acc
    raise QuadratureConvergenceError(
        f"double-exponential rule did not converge in {cfg.max_levels} levels",
        acc, float(np.max(err)),
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
    vals = _node_values(out, [x])
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
    """Integrate ``f`` over a domain; returns (value, error estimate).

    ``f`` takes one array of physical coordinates per axis of the domain,
    shaped to broadcast against each other (a column of x against a row
    of y in 2-D), and maps them to real or complex values, or to an array
    of them (see the module docstring); value and error then come back
    per entry.  The value is real when ``f`` returns real values and
    complex when it returns complex ones.  A plain finite 1-D interval
    uses adaptive Gauss-Kronrod bisection; any other domain the nested
    double-exponential rule (see ``_double_exponential``).
    """
    if cfg is None:
        cfg = QuadratureConfig()
    axis = domain.axes[0]
    if (domain.dim == 1 and axis.transform is None and not axis.even_fold
            and math.isfinite(axis.lo) and math.isfinite(axis.hi)):
        return _integrate_gk(f, axis.lo, axis.hi, cfg)
    return _double_exponential(f, domain.axes, cfg)


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
    """:func:`integrate` over the product of two axes, each an Axis or a
    1-D Domain; ``f(x, y)`` must broadcast a column of x against a row of y."""
    return integrate(f, Domain.product(_as_axis(domain_x), _as_axis(domain_y)), cfg)
