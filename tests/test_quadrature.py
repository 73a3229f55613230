import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvedqgt.core import (
    Domain,
    IntegrandNaNError,
    QuadratureConvergenceError,
)
from curvedqgt import models, quadrature
from curvedqgt.quadrature import (
    GramColumns,
    QuadratureConfig,
    integrate,
    integrate_2d_product,
)


CFG = QuadratureConfig()


def test_gaussian_full_line():
    val, err = integrate(lambda x: np.exp(-x * x), Domain.full_line(), CFG)
    assert abs(val - math.sqrt(math.pi)) < 1e-10
    assert err <= max(CFG.abs_tol, CFG.rel_tol * abs(val)) * 10


def test_anharmonic_norm(anharmonic):
    """Curved norm of the quartic ground state is 1."""
    lam = np.array([1.0, 1.0])

    def f(x):
        w = anharmonic.metric.sqrt_det(lam, x)
        psi = anharmonic.psi.eval(lam, (0,), x)
        return w * np.abs(psi) ** 2

    val, _ = integrate(f, anharmonic.domain_for(lam), CFG)
    assert abs(val - 1.0) < 1e-8


def test_coupled_norm_2d(coupled):
    lam = np.array([1.0, 1.0, 1.0, 1.0])
    domain = coupled.domain_for(lam)

    def f(x, y):
        w = coupled.metric.sqrt_det(lam, x, y)
        psi = coupled.psi.eval(lam, (0, 0), x, y)
        return w * np.abs(psi) ** 2

    val, _ = integrate_2d_product(f, domain.axes[0], domain.axes[1], CFG)
    assert abs(val - 1.0) < 1e-6


def test_2d_separable_gaussian():
    val, _ = integrate_2d_product(
        lambda x, y: np.exp(-x * x - y * y),
        Domain.full_line(), Domain.full_line(), CFG,
    )
    assert abs(val - math.pi) < 1e-9


def test_2d_zero_integrand():
    val, err = integrate_2d_product(
        lambda x, y: np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y))),
        Domain.full_line(), Domain.full_line(), CFG,
    )
    assert (val, err) == (0, 0)


def _gauss(x, centre, width):
    return np.exp(-0.5 * ((x - centre) / width) ** 2)


def _gauss_overlap(c1, s1, c2, s2):
    """Integral over the line of _gauss(x, c1, s1) * _gauss(x, c2, s2)."""
    v = s1 * s1 + s2 * s2
    return math.sqrt(2.0 * math.pi * s1 * s1 * s2 * s2 / v) * math.exp(-0.5 * (c1 - c2) ** 2 / v)


_WIDTH = st.floats(-0.5, 0.5).map(lambda e: 10.0 ** e)


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(widths=st.lists(_WIDTH, min_size=4, max_size=4),
       centres=st.lists(st.floats(-3, 3), min_size=4, max_size=4),
       amp=st.floats(-8, 0).map(lambda e: 10.0 ** e),
       squared=st.booleans())
def test_gaussian_sums_within_reported_error(dim, widths, centres, amp, squared):
    """Two Gaussians on the full line or plane, or two even ones on the
    squared axes of the quartic models: the reported error bounds the error
    against the closed form, up to roundoff (1e-14 of the value), which it
    does not count."""
    if squared:
        axis, centres = models._squared_axis(), [0.0] * 4
    else:
        axis = Domain.full_line().axes[0]
    # (centre, width) per axis of each Gaussian
    first = list(zip(centres[:2], widths[:2]))[:dim]
    second = list(zip(centres[2:], widths[2:]))[:dim]

    def f(*axes):
        return (math.prod(_gauss(x, c, s) for x, (c, s) in zip(axes, first))
                + amp * math.prod(_gauss(x, c, s) for x, (c, s) in zip(axes, second)))

    ref = (2.0 * math.pi) ** (dim / 2) * (math.prod(s for _, s in first)
                                          + amp * math.prod(s for _, s in second))
    val, err = integrate(f, Domain(dim, (axis,) * dim), CFG)
    assert abs(val - ref) <= err + 1e-14 * ref


@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_gram_error_covers_the_dropped_tail(dim):
    """The third column lives at (3.5, -3.5) (3.5 in 1-D), far out in the
    tails of the narrow first two, with a norm below the mass a window may
    drop; every Gram entry stays within its reported error of the closed
    form, up to roundoff (1e-14 of sqrt(G_aa G_bb))."""
    # amplitude, then (centre, width) per axis
    cols = [(1.0, [(0.0, 0.3), (0.0, 0.3)]), (1.0, [(0.2, 0.5), (-0.1, 0.5)]),
            (1e-8, [(3.5, 1.0), (-3.5, 1.0)])]
    cols = [(a, axes[:dim]) for a, axes in cols]

    def integrand(*axes):
        return np.stack(np.broadcast_arrays(
            *(a * math.prod(_gauss(x, c, s) for x, (c, s) in zip(axes, shape))
              for a, shape in cols))).view(GramColumns)

    ref = np.array([[a1 * a2 * math.prod(_gauss_overlap(c1, s1, c2, s2)
                                         for (c1, s1), (c2, s2) in zip(shape1, shape2))
                     for a2, shape2 in cols]
                    for a1, shape1 in cols])
    gram, err = integrate(integrand, Domain(dim, Domain.full_line().axes * dim), CFG)
    assert ref[2, 2] < 1e-3 * CFG.abs_tol  # within the mass a window may drop
    scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
    assert np.all(np.abs(gram - ref) <= err + 1e-14 * scale)


def test_product_entry_is_the_2d_integrate():
    """``integrate_2d_product`` over two axes and ``integrate`` over their
    product domain give the same Gram and errors, bit for bit."""
    ax, ay = Domain.full_line().axes[0], models._squared_axis()

    def integrand(x, y):
        g = np.exp(-0.5 * (x * x + y * y))
        return np.stack(np.broadcast_arrays(g, x * g, (1.0 + 1j * y) * g)).view(GramColumns)

    gram, err = integrate(integrand, Domain.product(ax, ay), CFG)
    gram_2d, err_2d = integrate_2d_product(integrand, ax, ay, CFG)
    assert np.array_equal(gram, gram_2d) and np.array_equal(err, err_2d)


def test_2d_gram_stack_errors_hold_each_point_own_tail():
    """The points of a 2-D Gram stack share one window, but each point's
    error holds only the tail mass of its own columns: a copy of a point
    scaled by 1e-3 gets Grams and errors 1e-6 times the original's, where
    one tail mass added to every point would dominate the copy's errors.
    The columns are those of the dropped-tail test, whose far column holds
    a mass the window drops."""
    cols = [(1.0, 0.0, 0.3, 0.0, 0.3), (1.0, 0.2, 0.5, -0.1, 0.5),
            (1e-8, 3.5, 1.0, -3.5, 1.0)]

    def integrand(x, y):
        point = np.stack(np.broadcast_arrays(
            *(a * _gauss(x, cx, sx) * _gauss(y, cy, sy) for a, cx, sx, cy, sy in cols)))
        return np.stack([point, 1e-3 * point]).view(GramColumns)

    grams, errs = integrate_2d_product(integrand, Domain.full_line(), Domain.full_line(), CFG)
    assert grams.shape == errs.shape == (2, 3, 3)
    assert np.max(np.abs(grams[1] - 1e-6 * grams[0])) <= 1e-15 * np.max(np.abs(grams[1]))
    assert np.max(errs[1]) <= 1e-5 * np.max(errs[0])


def test_finite_interval_gauss_kronrod():
    val, err = integrate(np.sin, Domain.interval(0.0, math.pi), CFG)
    assert abs(val - 2.0) < 1e-10
    assert err < 1e-8


@pytest.mark.parametrize("nodes, weights, degree", [
    (quadrature._XGK, quadrature._WGK, 22),
    (quadrature._XGK[quadrature._GAUSS_IDX], quadrature._WG, 13),
])
def test_gauss_kronrod_tables_exact_for_polynomials(nodes, weights, degree):
    # K15 is exact through x^22 and G7 through x^13 on [-1, 1]
    for k in range(degree + 1):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.sum(weights * nodes ** k) - exact) <= 1e-15, k


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    coeffs_f=st.lists(st.floats(-3, 3), min_size=1, max_size=5),
    coeffs_g=st.lists(st.floats(-3, 3), min_size=1, max_size=5),
    a=st.floats(-2, 2),
    b=st.floats(-2, 2),
)
def test_linearity(coeffs_f, coeffs_g, a, b):
    """integrate(a f + b g) == a integrate(f) + b integrate(g)."""
    def f(x):
        return np.polyval(coeffs_f, x) * np.exp(-x * x)

    def g(x):
        return np.polyval(coeffs_g, x) * np.exp(-x * x)

    dom = Domain.full_line()
    vf, ef = integrate(f, dom, CFG)
    vg, eg = integrate(g, dom, CFG)
    vc, ec = integrate(lambda x: a * f(x) + b * g(x), dom, CFG)
    budget = 10.0 * (abs(a) * ef + abs(b) * eg + ec) + 1e-12
    assert abs(vc - (a * vf + b * vg)) <= budget


def test_even_symmetry_full_vs_half():
    """2 sqrt(lam)|x| measure: doubling the half line matches the full line."""
    f = lambda x: 2.0 * np.abs(x) * np.exp(-x ** 4)
    cfg = QuadratureConfig(rel_tol=1e-6, abs_tol=1e-9, max_levels=12)
    vf, ef = integrate(f, Domain.full_line(), cfg)
    vh, eh = integrate(f, Domain.half_line(), cfg)
    assert abs(vf - 2.0 * vh) <= 10.0 * (ef + 2.0 * eh)


def test_even_fold_flag_matches_half_line():
    f = lambda x: np.abs(x) * np.exp(-x * x)
    folded, _ = integrate(f, Domain.full_line(even_fold=True), CFG)
    half, _ = integrate(f, Domain.half_line(), CFG)
    assert abs(folded - 2.0 * half) < 1e-12


def test_nonconvergence_carries_best_value():
    cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-16, max_levels=3)
    with pytest.raises(QuadratureConvergenceError) as err:
        integrate(lambda x: np.exp(-x * x) * np.cos(7 * x), Domain.full_line(), cfg)
    exact = math.sqrt(math.pi) * math.exp(-49.0 / 4.0)
    assert abs(err.value.best_value - exact) < 1e-2
    assert err.value.err_estimate > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("domain", [Domain.full_line(), Domain.interval(-6.0, 6.0)],
                         ids=["double-exponential", "gauss-kronrod"])
def test_nan_integrand_reports_location(domain, bad):
    """A NaN or an infinity in a real integrand raises, naming the node."""
    def f(x):
        out = np.exp(-x * x)
        return np.where(x > 3.0, bad, out)

    with pytest.raises(IntegrandNaNError) as err:
        integrate(f, domain, CFG)
    assert err.value.location > 3.0


def test_real_integrands_give_real_values():
    """Real integrands and real Gram columns integrate to float64 on every
    scheme, and a complex integrand to complex128."""
    line, box = Domain.full_line(), Domain.interval(-6.0, 6.0)

    def cols(x):
        return np.stack([np.exp(-x * x), x * np.exp(-x * x)]).view(GramColumns)

    def cols_2d(x, y):
        return np.stack(np.broadcast_arrays(np.exp(-x * x - y * y),
                                            x * np.exp(-x * x - y * y))).view(GramColumns)

    for unit, dtype in ((1.0, np.float64), (1.0 + 0j, np.complex128)):
        for domain in (line, box):
            val, _ = integrate(lambda x: unit * np.exp(-x * x), domain, CFG)
            gram, _ = integrate(lambda x: (unit * cols(x)).view(GramColumns), domain, CFG)
            assert np.asarray(val).dtype == gram.dtype == dtype
            assert abs(val - math.sqrt(math.pi)) < 1e-12
        gram, _ = integrate_2d_product(lambda x, y: (unit * cols_2d(x, y)).view(GramColumns),
                                       line, line, CFG)
        assert gram.dtype == dtype and abs(gram[0, 0] - math.pi / 2.0) < 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    # NaN would run every level and then fail to converge, infinity would
    # stop at the first level whatever the error: both are refused up front
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            QuadratureConfig(rel_tol=bad)
        with pytest.raises(ValueError, match="positive and finite"):
            QuadratureConfig(abs_tol=bad)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=0)


@pytest.mark.parametrize("max_levels", [-1, 0, 1])
def test_config_rejects_levels_the_rule_cannot_stop_at(max_levels):
    # the nested rules never stop before level 2, whose mesh the first
    # integrand call already covers
    with pytest.raises(ValueError, match="max_levels"):
        QuadratureConfig(max_levels=max_levels)
    assert QuadratureConfig(max_levels=2).max_levels == 2


def test_gk_subdivision_limit():
    cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=1e-15, max_subdivisions=4)
    with pytest.raises(QuadratureConvergenceError):
        integrate(lambda x: np.cos(40.0 * x * x), Domain.interval(0.0, 6.0), cfg)


# ---------------------------------------------------------------------------
# Array-valued integrands, Gram columns and nested levels
# ---------------------------------------------------------------------------

def _gauss_columns(x):
    g = np.exp(-0.5 * x * x)
    return [g, x * g, (1.0 + 1j * x) * g * np.cos(x)]


@pytest.mark.parametrize("domain", [Domain.full_line(), Domain.interval(-6.0, 6.0)],
                         ids=["double-exponential", "gauss-kronrod"])
def test_array_valued_matches_scalar_entries(domain):
    val, err = integrate(lambda x: np.stack(_gauss_columns(x)), domain, CFG)
    assert val.shape == err.shape == (3,)
    for j in range(3):
        ref, _ = integrate(lambda x: _gauss_columns(x)[j], domain, CFG)
        assert abs(val[j] - ref) <= 1e-12
    assert np.all(err <= CFG.tolerance(val))


@pytest.mark.parametrize("domain", [Domain.full_line(), Domain.interval(-6.0, 6.0)],
                         ids=["double-exponential", "gauss-kronrod"])
def test_gram_columns_match_entrywise_integrals(domain):
    gram, err = integrate(
        lambda x: np.stack(_gauss_columns(x)).view(GramColumns), domain, CFG)
    assert gram.shape == err.shape == (3, 3)
    for a in range(3):
        for b in range(3):
            ref, _ = integrate(
                lambda x: np.conj(_gauss_columns(x)[a]) * _gauss_columns(x)[b],
                domain, CFG)
            assert abs(gram[a, b] - ref) <= 1e-12
    assert abs(gram[0, 0] - math.sqrt(math.pi)) < 1e-12


@pytest.mark.parametrize("domain", [Domain.full_line(), Domain.interval(-6.0, 6.0)],
                         ids=["double-exponential", "gauss-kronrod"])
def test_gram_stack_matches_per_point_grams(domain):
    """A (P, k, nodes) stack integrates to P Grams, each the Gram its own
    columns give alone; no entry mixes two column sets."""
    shifts = [0.0, 0.4, -0.7]

    def stack(x):
        return np.stack([np.stack(_gauss_columns(x - s)) for s in shifts]).view(GramColumns)

    grams, errs = integrate(stack, domain, CFG)
    assert grams.shape == errs.shape == (3, 3, 3)
    for p, s in enumerate(shifts):
        ref, _ = integrate(lambda x: np.stack(_gauss_columns(x - s)).view(GramColumns),
                           domain, CFG)
        assert np.max(np.abs(grams[p] - ref)) <= 1e-12
    assert np.all(errs <= CFG.tolerance(grams))


def test_2d_gram_columns_match_entrywise_integrals():
    def columns(x, y):
        g = np.exp(-0.5 * (x * x + y * y))
        return [g, x * y * g, (1.0 + 1j * y) * g]

    gram, err = integrate_2d_product(
        lambda x, y: np.stack(np.broadcast_arrays(*columns(x, y))).view(GramColumns),
        Domain.full_line(), Domain.full_line(), CFG)
    assert gram.shape == err.shape == (3, 3)
    for a in range(3):
        for b in range(3):
            ref, _ = integrate_2d_product(
                lambda x, y: np.conj(columns(x, y)[a]) * columns(x, y)[b],
                Domain.full_line(), Domain.full_line(), CFG)
            assert abs(gram[a, b] - ref) <= 1e-12
    assert abs(gram[0, 0] - math.pi) < 1e-12


def _full_line_rule(level):
    """Nodes and weights (h included) of the full-line DE trapezoid rule at
    h = _H0 / 2^level, out to its t cap."""
    node_fn, t_cap = quadrature._axis_node_maker(Domain.full_line().axes[0])
    h = quadrature._H0 / 2 ** level
    k_max = int(t_cap / h)
    x, w = node_fn(np.arange(-k_max, k_max + 1) * h)
    return x, h * w


def _stop_level(integrator):
    """First level at which the rule converges: it fails one level below."""
    for level in range(2, 11):
        try:
            integrator(QuadratureConfig(max_levels=level))
        except QuadratureConvergenceError:
            continue
        with pytest.raises(QuadratureConvergenceError):
            integrator(QuadratureConfig(max_levels=level - 1))
        return level
    raise AssertionError("no convergence by level 10")


def _same_nodes(got, want):
    got, want = np.sort(got), np.sort(want)
    return got.size == want.size and np.allclose(got, want, rtol=1e-15, atol=0)


@pytest.mark.parametrize("freq", [1.0, 3.0, 6.0])
def test_1d_calls_fuse_levels_0_to_2(freq):
    """One call covers the level-2 mesh, then one call per level: a rule
    that stops at level L calls the integrand L - 1 times."""
    seen = []

    def f(x):
        seen.append(x.copy())
        return np.exp(-x * x) * np.cos(freq * x)

    stop = _stop_level(lambda cfg: integrate(f, Domain.full_line(), cfg))
    seen.clear()
    integrate(f, Domain.full_line(), CFG)
    assert _same_nodes(seen[0], _full_line_rule(2)[0])
    assert len(seen) == stop - 1


def _reference_window(mass, limit):
    """Level-2 nodes [lo, hi) the rule refines on one axis, and the mass it
    drops: a plain scan drops the end runs whose summed mass stays below
    ``limit``, then takes back the innermost dropped node of each run,
    whose mass still counts as dropped."""
    lo = 0
    while lo < mass.size and mass[:lo + 1].sum() < limit:
        lo += 1
    hi = mass.size
    while hi > lo and mass[hi - 1:].sum() < limit:
        hi -= 1
    return max(lo - 1, 0), min(hi + 1, mass.size), mass[:lo].sum() + mass[hi:].sum()


def _mesh_index(mesh, x):
    """Index of each x on the increasing mesh; every x must be a mesh node."""
    i = np.clip(np.searchsorted(mesh, x), 1, mesh.size - 1)
    i -= np.abs(mesh[i - 1] - x) < np.abs(mesh[i] - x)
    assert np.allclose(mesh[i], x, rtol=1e-15, atol=0)
    return i


def _windowed_rule_nodes(f, dim):
    """Run the full-line rule in ``dim`` dimensions on a scalar ``f`` as in
    ``CFG``.

    Returns the evaluated nodes as codes of their index tuples on the final
    mesh of n nodes per axis (i in 1-D, i * n + j in 2-D), the codes that
    the level-2 mesh plus the product of each axis' window on the final
    mesh predict, the reference window (lo, hi per axis) on the level-2
    mesh, n, and the nodes in the largest integrand call.
    """
    seen = []

    def g(*axes):
        seen.append(np.broadcast_arrays(*axes))
        return f(*axes)

    domain = Domain(dim, Domain.full_line().axes * dim)
    stop = _stop_level(lambda cfg: integrate(g, domain, cfg))
    seen.clear()
    integrate(g, domain, CFG)
    mesh = _full_line_rule(stop)[0]
    shape = (mesh.size,) * dim

    def codes(*index):
        return np.ravel_multi_index(np.ix_(*index), shape).ravel()

    got = np.concatenate([np.ravel_multi_index([_mesh_index(mesh, x.ravel()) for x in axes],
                                               shape) for axes in seen])
    x2, w2 = _full_line_rule(2)
    envelope = np.abs(f(*np.ix_(*[x2] * dim))) * math.prod(np.ix_(*[w2] * dim))
    limit = quadrature._TAIL_FRACTION * CFG.abs_tol
    window = [_reference_window(envelope.sum(axis=tuple(b for b in range(dim) if b != a)),
                                limit)[:2] for a in range(dim)]
    scale = 2 ** (stop - 2)
    want = np.union1d(codes(*[np.arange(x2.size) * scale] * dim),
                      codes(*(np.arange(lo * scale, (hi - 1) * scale + 1) for lo, hi in window)))
    return got, want, sum(window, ()), mesh.size, max(x.size for x, *_ in seen)


@pytest.mark.parametrize("dim, f", [
    (1, lambda x: np.exp(-x * x) * np.cos(3.0 * x)),
    (2, lambda x, y: np.exp(-x * x - y * y) * np.cos(3.0 * x * y)),
], ids=["1d", "2d"])
def test_levels_nest_without_repeating_nodes(dim, f):
    """The evaluated nodes are the level-2 mesh plus the product of the
    final meshes inside each axis' window, each node once, in calls of at
    most ``_CHUNK``."""
    codes, want, window, n, largest = _windowed_rule_nodes(f, dim)
    assert np.unique(codes).size == codes.size
    assert np.array_equal(np.sort(codes), want)
    level2 = _full_line_rule(2)[0].size
    assert window[0] > 0 and window[1] < level2  # the window drops both tails
    assert codes.size < n ** dim
    assert largest <= quadrature._CHUNK


def test_product_rule_keeps_the_full_mesh_without_decay():
    """(1 + x^2)^-0.6 still carries mass at the t cap, so no window drops a
    node: the product rule evaluates the whole product of its final meshes.
    The narrow Gaussian keeps the rule refining past level 2."""
    pairs, want, window, n, _ = _windowed_rule_nodes(
        lambda x, y: ((1.0 + x * x) * (1.0 + y * y)) ** -0.6
        + np.exp(-50.0 * (x * x + y * y)), 2)
    level2 = _full_line_rule(2)[0].size
    assert window == (0, level2, 0, level2)
    assert np.unique(pairs).size == pairs.size == n ** 2
    assert np.array_equal(np.sort(pairs), want)


@pytest.mark.parametrize("cfg", [CFG, QuadratureConfig(rel_tol=0.2, abs_tol=0.05)],
                         ids=["default", "stops-at-2"])
def test_fused_levels_keep_value_and_error(cfg):
    """Against plain trapezoid sums T_L on each mesh, from level 3 on only
    inside the reference window and at the level-2 nodes: the rule stops at
    the first L >= 2 with |T_L - T_(L-1)| plus the dropped tail mass within
    tolerance and returns T_L with that sum as its error, as if every level
    had its own call."""
    f = lambda x: np.exp(-x * x) * np.cos(3.0 * x)  # noqa: E731
    x2, w2 = _full_line_rule(2)
    lo, hi, dropped = _reference_window(np.abs(w2 * f(x2)),
                                        quadrature._TAIL_FRACTION * cfg.abs_tol)
    sums = []
    for level in range(cfg.max_levels + 1):
        x, w = _full_line_rule(level)
        index, scale = np.arange(x.size), 2 ** max(level - 2, 0)
        keep = (level <= 2) | (index % scale == 0) | (
            (index >= lo * scale) & (index <= (hi - 1) * scale))
        sums.append(np.sum(w[keep] * f(x[keep])))
    stop = next(level for level in range(2, cfg.max_levels + 1)
                if abs(sums[level] - sums[level - 1]) + dropped <= cfg.tolerance(sums[level]))
    val, err = integrate(f, Domain.full_line(), cfg)
    assert abs(val - sums[stop]) < 1e-15
    assert abs(err - (abs(sums[stop] - sums[stop - 1]) + dropped)) < 1e-15
    if cfg is not CFG:
        assert stop == 2 and dropped > 0


def test_array_nonconvergence_reports_worst_entry():
    cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-16, max_levels=3)
    with pytest.raises(QuadratureConvergenceError) as err:
        integrate(lambda x: np.stack([np.exp(-x * x), np.exp(-x * x) * np.cos(7 * x)]),
                  Domain.full_line(), cfg)
    assert err.value.best_value.shape == (2,)
    assert err.value.err_estimate > 0
