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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(widths=st.lists(_WIDTH, min_size=4, max_size=4),
       centres=st.lists(st.floats(-3, 3), min_size=4, max_size=4),
       amp=st.floats(-8, 0).map(lambda e: 10.0 ** e),
       squared=st.booleans())
def test_2d_gaussian_sums_within_reported_error(widths, centres, amp, squared):
    """Two Gaussians on the full plane, or two even ones on the squared axes
    of the quartic models: the reported error bounds the error against the
    closed form, up to roundoff (1e-14 of the value), which it does not
    count."""
    if squared:
        axis, centres = models._squared_axis(), [0.0] * 4
    else:
        axis = Domain.full_line()
    sx1, sy1, sx2, sy2 = widths
    cx1, cy1, cx2, cy2 = centres

    def f(x, y):
        return (_gauss(x, cx1, sx1) * _gauss(y, cy1, sy1)
                + amp * _gauss(x, cx2, sx2) * _gauss(y, cy2, sy2))

    ref = 2.0 * math.pi * (sx1 * sy1 + amp * sx2 * sy2)
    val, err = integrate_2d_product(f, axis, axis, CFG)
    assert abs(val - ref) <= err + 1e-14 * ref


def test_2d_gram_error_covers_the_dropped_tail():
    """The third column lives at (3.5, -3.5), far out in the tails of the
    narrow first two, with a norm below the mass a window may drop; every
    Gram entry stays within its reported error of the closed form, up to
    roundoff (1e-14 of sqrt(G_aa G_bb))."""
    cols = [(1.0, 0.0, 0.3, 0.0, 0.3), (1.0, 0.2, 0.5, -0.1, 0.5),
            (1e-8, 3.5, 1.0, -3.5, 1.0)]  # amplitude, x centre and width, y centre and width

    def integrand(x, y):
        return np.stack(np.broadcast_arrays(
            *(a * _gauss(x, cx, sx) * _gauss(y, cy, sy) for a, cx, sx, cy, sy in cols)
        )).view(GramColumns)

    ref = np.array([[a1 * a2 * _gauss_overlap(cx1, sx1, cx2, sx2)
                     * _gauss_overlap(cy1, sy1, cy2, sy2)
                     for a2, cx2, sx2, cy2, sy2 in cols]
                    for a1, cx1, sx1, cy1, sy1 in cols])
    gram, err = integrate_2d_product(integrand, Domain.full_line(), Domain.full_line(), CFG)
    assert ref[2, 2] < 1e-3 * CFG.abs_tol  # within the mass a window may drop
    scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
    assert np.all(np.abs(gram - ref) <= err + 1e-14 * scale)


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


def test_nan_integrand_reports_location():
    def f(x):
        out = np.exp(-x * x)
        return np.where(x > 3.0, np.nan, out)

    with pytest.raises(IntegrandNaNError) as err:
        integrate(f, Domain.full_line(), CFG)
    assert err.value.location > 3.0


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
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
    """Level-2 nodes [lo, hi) the product rule refines on one axis: a plain
    scan drops the end runs whose summed mass stays below ``limit``, then
    takes back the innermost dropped node of each run."""
    lo = 0
    while lo < mass.size and mass[:lo + 1].sum() < limit:
        lo += 1
    hi = mass.size
    while hi > lo and mass[hi - 1:].sum() < limit:
        hi -= 1
    return max(lo - 1, 0), min(hi + 1, mass.size)


def _mesh_index(mesh, x):
    """Index of each x on the increasing mesh; every x must be a mesh node."""
    i = np.clip(np.searchsorted(mesh, x), 1, mesh.size - 1)
    i -= np.abs(mesh[i - 1] - x) < np.abs(mesh[i] - x)
    assert np.allclose(mesh[i], x, rtol=1e-15, atol=0)
    return i


def _product_rule_nodes(f):
    """Run the full-line product rule on a scalar ``f`` as in ``CFG``.

    Returns the evaluated nodes as codes i * n + j of the index pairs (i, j)
    on the final mesh of n nodes per axis, the codes that the level-2 product
    mesh plus the product of each axis' window on the final mesh predict,
    the reference window (lo_x, hi_x, lo_y, hi_y) on the level-2 mesh, n,
    and the nodes in the largest integrand call.
    """
    seen = []

    def g(x, y):
        seen.append(np.broadcast_arrays(x, y))
        return f(x, y)

    stop = _stop_level(lambda cfg: integrate_2d_product(
        g, Domain.full_line(), Domain.full_line(), cfg))
    seen.clear()
    integrate_2d_product(g, Domain.full_line(), Domain.full_line(), CFG)
    mesh = _full_line_rule(stop)[0]
    got = np.concatenate([_mesh_index(mesh, x.ravel()) * mesh.size
                          + _mesh_index(mesh, y.ravel()) for x, y in seen])

    x2, w2 = _full_line_rule(2)
    envelope = np.abs(f(x2[:, None], x2[None, :])) * np.outer(w2, w2)
    limit = quadrature._TAIL_FRACTION * CFG.abs_tol
    window = (*_reference_window(envelope.sum(axis=1), limit),
              *_reference_window(envelope.sum(axis=0), limit))
    scale = 2 ** (stop - 2)
    coarse = np.arange(x2.size) * scale
    fine_x, fine_y = (np.arange(lo * scale, (hi - 1) * scale + 1)
                      for lo, hi in (window[:2], window[2:]))
    want = np.union1d((coarse[:, None] * mesh.size + coarse).ravel(),
                      (fine_x[:, None] * mesh.size + fine_y).ravel())
    return got, want, window, mesh.size, max(x.size for x, _ in seen)


def test_levels_nest_without_repeating_nodes():
    """The evaluated nodes are the final mesh (1-D), or the level-2 product
    mesh plus the product of the final meshes inside each axis' window
    (2-D), each node once, in calls of at most ``_CHUNK``."""
    seen_1d = []

    def f1(x):
        seen_1d.append(x.copy())
        return np.exp(-x * x) * np.cos(3.0 * x)

    stop_1d = _stop_level(lambda cfg: integrate(f1, Domain.full_line(), cfg))
    seen_1d.clear()
    integrate(f1, Domain.full_line(), CFG)

    nodes = np.concatenate(seen_1d)
    assert np.unique(nodes).size == nodes.size
    assert _same_nodes(nodes, _full_line_rule(stop_1d)[0])
    pairs, want, window, n, largest = _product_rule_nodes(
        lambda x, y: np.exp(-x * x - y * y) * np.cos(3.0 * x * y))
    assert np.unique(pairs).size == pairs.size
    assert np.array_equal(np.sort(pairs), want)
    level2 = _full_line_rule(2)[0].size
    assert window[0] > 0 and window[1] < level2  # the window drops both tails
    assert pairs.size < n ** 2
    chunk = quadrature._CHUNK
    assert max(v.size for v in seen_1d) <= chunk
    assert largest <= chunk


def test_product_rule_keeps_the_full_mesh_without_decay():
    """(1 + x^2)^-0.6 still carries mass at the t cap, so no window drops a
    node: the product rule evaluates the whole product of its final meshes.
    The narrow Gaussian keeps the rule refining past level 2."""
    pairs, want, window, n, _ = _product_rule_nodes(
        lambda x, y: ((1.0 + x * x) * (1.0 + y * y)) ** -0.6
        + np.exp(-50.0 * (x * x + y * y)))
    level2 = _full_line_rule(2)[0].size
    assert window == (0, level2, 0, level2)
    assert np.unique(pairs).size == pairs.size == n ** 2
    assert np.array_equal(np.sort(pairs), want)


@pytest.mark.parametrize("cfg", [CFG, QuadratureConfig(rel_tol=0.2, abs_tol=0.05)],
                         ids=["default", "stops-at-2"])
def test_fused_levels_keep_value_and_error(cfg):
    """Against plain trapezoid sums T_L on each whole mesh: the rule stops
    at the first L >= 2 with |T_L - T_(L-1)| within tolerance and returns T_L
    with that difference as its error, as if every level had its own call."""
    f = lambda x: np.exp(-x * x) * np.cos(3.0 * x)  # noqa: E731
    sums = []
    for level in range(cfg.max_levels + 1):
        x, w = _full_line_rule(level)
        sums.append(np.sum(w * f(x)))
    stop = next(level for level in range(2, cfg.max_levels + 1)
                if abs(sums[level] - sums[level - 1]) <= cfg.tolerance(sums[level]))
    val, err = integrate(f, Domain.full_line(), cfg)
    assert abs(val - sums[stop]) < 1e-15
    assert abs(err - abs(sums[stop] - sums[stop - 1])) < 1e-15
    if cfg is not CFG:
        assert stop == 2


def test_array_nonconvergence_reports_worst_entry():
    cfg = QuadratureConfig(rel_tol=1e-14, abs_tol=1e-16, max_levels=3)
    with pytest.raises(QuadratureConvergenceError) as err:
        integrate(lambda x: np.stack([np.exp(-x * x), np.exp(-x * x) * np.cos(7 * x)]),
                  Domain.full_line(), cfg)
    assert err.value.best_value.shape == (2,)
    assert err.value.err_estimate > 0
