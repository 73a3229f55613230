import dataclasses
import warnings

import numpy as np
import pytest
from scipy import integrate as scipy_integrate

from curvedqgt import geometry as geo
from curvedqgt import models
from curvedqgt.core import (
    Domain,
    EngineError,
    ImaginaryResidueWarning,
    MetricFamily,
    MetricPositivityError,
    NormalizationWarning,
    ParameterBoundaryError,
    WavefunctionFamily,
)
from curvedqgt.quadrature import QuadratureConfig, integrate

from conftest import make_engine


# ---------------------------------------------------------------------------
# Overlaps of states and sigma expectations
# ---------------------------------------------------------------------------

def _state_gram(model, lam, ns):
    """<psi_a|psi_b> for the states a, b in ``ns``: the Gram of their columns."""
    lam = np.asarray(lam, dtype=float)
    gram, _ = make_engine(model, lam).bracket(
        lam, lambda p, *axes: [model.psi.eval(p, n, *axes) for n in ns])
    return gram


def test_state_gram_norms(anharmonic, morse):
    lam = np.array([1.0, 1.0])
    # morse-like exposes the ground state only
    for model, ns in ((anharmonic, [(0,), (1,), (2,)]), (morse, [(0,)])):
        gram = _state_gram(model, lam, ns)
        assert np.max(np.abs(np.diag(gram) - 1.0)) < 1e-8


def test_state_gram_cross_state_overlap(anharmonic):
    """<psi_0|psi_1> equals sqrt(2/pi), frozen from direct quadrature.

    The curved measure folds the line onto the half range of the
    transformed variable, where opposite-parity oscillator functions are
    not orthogonal; the n = 0 and n = 1 states attach to different
    boundary conditions at the degenerate point (their spectra interleave)
    and carry a nonzero mutual overlap.
    """
    gram = _state_gram(anharmonic, [1.0, 1.0], [(0,), (1,), (2,)])
    assert abs(gram[0, 1] - np.sqrt(2.0 / np.pi)) < 1e-8
    assert abs(gram[1, 0] - np.sqrt(2.0 / np.pi)) < 1e-8
    # same-index overlaps stay orthonormal within each boundary tower
    assert abs(gram[0, 2]) < 1e-8


def test_sigma_expectation_values(anharmonic, morse, engine_factory):
    lam = np.array([1.0, 1.0])
    eng = engine_factory(anharmonic, lam)
    s = eng.bracket_set(lam, (0,))["s"]
    assert abs(s[1]) < 1e-10
    assert abs(s[0] - (-1.0)) < 1e-8

    eng_m = engine_factory(morse, lam)
    # independent oracle: <x> under the curved measure by library quadrature
    x_avg, _ = scipy_integrate.quad(
        lambda x: 0.5 * np.exp(-0.5 * x) * 2.0 / np.sqrt(np.pi)
        * x * np.exp(-np.exp(-x)),
        -30.0, 60.0, limit=400,
    )
    assert abs(eng_m.bracket_set(lam, (0,))["s"][0] - (x_avg - 2.0)) < 1e-8


# ---------------------------------------------------------------------------
# Berry connection
# ---------------------------------------------------------------------------

def test_connection_vanishes_for_real_family(anharmonic, engine_factory):
    lam = np.array([1.3, 0.8])
    beta = engine_factory(anharmonic, lam).berry_connection(lam, (1,))
    assert np.max(np.abs(beta)) < 1e-8


def test_connection_generalized_oracle(generalized, engine_factory):
    """Analytic differentiation of the quartic phase under the measure."""
    for n in (0, 1):
        lam = np.array([1.0, 0.25, 1.2])
        beta = engine_factory(generalized, lam).berry_connection(lam, (n,))
        ref = models.analytic_reference(generalized, "berry_connection", n, lam)
        assert np.max(np.abs(beta - ref)) < 1e-9


def test_connection_gauge_shift(anharmonic, engine_factory):
    lam = np.array([1.0, 1.0])
    base = engine_factory(anharmonic, lam).berry_connection(lam, (0,))
    shifted_family = geo.gauge_transform(
        anharmonic.psi, lambda lv: lv[0] ** 2,
        alpha_grad=lambda lv, rho: 2.0 * lv[0] if rho == 0 else 0.0,
    )
    eng = geo.GeometryEngine(shifted_family, anharmonic.metric,
                             anharmonic.domain_for(lam),
                             in_domain=anharmonic.in_domain)
    beta = eng.berry_connection(lam, (0,))
    assert np.max(np.abs(beta - base - np.array([2.0, 0.0]))) < 1e-8

    # without alpha_grad the gradient of alpha comes from central differences
    fd_family = geo.gauge_transform(anharmonic.psi, lambda lv: lv[0] ** 2)
    eng = geo.GeometryEngine(fd_family, anharmonic.metric,
                             anharmonic.domain_for(lam),
                             in_domain=anharmonic.in_domain)
    beta = eng.berry_connection(lam, (0,))
    assert np.max(np.abs(beta - base - np.array([2.0, 0.0]))) < 1e-8


def test_connection_residue_warning(anharmonic):
    scaled = WavefunctionFamily(
        dim=1,
        eval=lambda lamv, n, x: (1.0 + 0.2 * (lamv[0] - 1.0))
        * anharmonic.psi.eval(lamv, n, x),
    )
    eng = geo.GeometryEngine(scaled, anharmonic.metric,
                             anharmonic.domain_for([1.0, 1.0]),
                             in_domain=anharmonic.in_domain)
    with pytest.warns(ImaginaryResidueWarning):
        eng.berry_connection(np.array([1.0, 1.0]), (0,))


def test_constant_mis_normalization_warns_once_per_gram(anharmonic):
    """A constant factor leaves the connection real, so only the norm entry
    of the Gram shows it; the warning comes with the Gram's computation, and
    each engine call computes one Gram."""
    scaled = WavefunctionFamily(
        dim=1, eval=lambda lamv, n, x: 1.01 * anharmonic.psi.eval(lamv, n, x))
    lam = np.array([1.0, 1.0])
    eng = geo.GeometryEngine(scaled, anharmonic.metric, anharmonic.domain_for(lam),
                             in_domain=anharmonic.in_domain)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        eng.qgt(lam, (0,))
        eng.berry_connection(lam, (0,))
        eng.norm(lam, (0,))
    assert [w.category for w in caught] == [NormalizationWarning] * 3
    assert all("1.0201" in str(w.message) for w in caught)


@pytest.mark.filterwarnings("error::curvedqgt.core.NormalizationWarning")
def test_registry_models_do_not_warn_on_normalization(all_models, flat):
    rng = np.random.default_rng(11)
    for model in (*all_models, flat):
        for _ in range(2):
            lam = model.sample_parameters(rng)
            norm, _ = make_engine(model, lam).norm(lam, (0,) * model.dim)
            assert abs(norm - 1.0) < 1e-12, model.name


# ---------------------------------------------------------------------------
# gamma, QMT, curvature, QGT
# ---------------------------------------------------------------------------

def test_gamma_anharmonic_ground(engine_factory, anharmonic):
    """gamma, the QMT before the connection product is subtracted, equals the
    QMT on the real families of these gamma tests, where beta = 0."""
    lam = np.array([1.0, 1.0])
    G = engine_factory(anharmonic, lam).qmt(lam, (0,))
    assert np.max(np.abs(G - 0.125)) < 1e-8


def test_gamma_zero_for_constant_family():
    metric = MetricFamily(
        dim=1,
        eval=lambda lamv, x: np.ones(np.shape(x))[..., None, None],
        det=lambda lamv, x: np.ones(np.shape(x)),
        analytic_log_det_grad=lambda lamv, rho, x: np.zeros(np.shape(x)),
    )
    fam = WavefunctionFamily(
        dim=1,
        eval=lambda lamv, n, x: np.pi ** -0.25 * np.exp(-np.asarray(x) ** 2 / 2) + 0j,
    )
    eng = geo.GeometryEngine(fam, metric, Domain.full_line())
    G = eng.qmt(np.array([1.0]), (0,))
    assert np.max(np.abs(G)) < 1e-10


def test_gamma_flat_reduces_to_overlap_form(flat, engine_factory):
    """With g = 1 all sigma correction groups vanish."""
    lam = np.array([1.0])
    eng = engine_factory(flat, lam)
    br = eng.bracket_set(lam, (0,))
    assert np.max(np.abs(br["s"])) < 1e-12
    assert np.max(np.abs(br["B"])) < 1e-12
    G = eng.qmt(lam, (0,))
    assert abs(G[0, 0] - 0.125) < 1e-9


def test_qmt_anharmonic_printed_values(anharmonic):
    for n in (0, 1, 2):
        lam = np.array([2.0, 0.5])
        G = make_engine(anharmonic, lam).qmt(lam, (n,))
        ref = models.analytic_reference(anharmonic, "qmt", n, lam)
        assert np.max(np.abs(G - ref) / np.abs(ref)) < 1e-6


def test_qmt_morse_closed_forms(morse, engine_factory):
    lam = np.array([1.0, 1.0])
    G = engine_factory(morse, lam).qmt(lam, (0,))
    assert abs(G[1, 1] - 0.125) < 1e-6
    g_ll = models.analytic_reference(morse, "qmt_ll", 0, lam)
    assert abs(G[0, 0] - g_ll) < 1e-4
    # frozen value of the closed form, derived independently
    assert g_ll == pytest.approx(0.36701671484320453, abs=1e-14)


def test_qmt_generalized_printed_matrix(generalized):
    for n, lam in ((0, [1.0, 0.5, 1.0]), (1, [2.0, 0.3, 1.0])):
        lamv = np.array(lam)
        G = make_engine(generalized, lamv).qmt(lamv, (n,))
        ref = models.analytic_reference(generalized, "qmt", n, lamv)
        mask = np.abs(ref) > 1e-12
        assert np.max(np.abs((G - ref)[mask] / ref[mask])) < 1e-6
        assert np.max(np.abs((G - ref)[~mask])) < 1e-8


def test_curvature_zero_for_real_families(anharmonic, morse, engine_factory):
    lam = np.array([1.0, 1.0])
    for model in (anharmonic, morse):
        F = engine_factory(model, lam).berry_curvature(lam, (0,))
        assert np.max(np.abs(F)) < 1e-8


def test_curvature_generalized_matches_connection_derivative(generalized):
    """F equals the exterior derivative of the analytic connection."""
    for n in (0, 1):
        lamv = np.array([1.0, 0.3, 1.3])
        F = make_engine(generalized, lamv).berry_curvature(lamv, (n,))
        ref = models.analytic_reference(generalized, "berry_curvature", n, lamv)
        assert np.max(np.abs(F - ref)) < 1e-8
        # cross-check the reference against d(beta) by finite differences
        h = 1e-6
        dbeta = np.zeros((3, 3))
        for r in range(3):
            for k in range(3):
                up, dn = lamv.copy(), lamv.copy()
                up[r] += h
                dn[r] -= h
                bu = models.analytic_reference(generalized, "berry_connection", n, up)
                bd = models.analytic_reference(generalized, "berry_connection", n, dn)
                dbeta[r, k] = (bu[k] - bd[k]) / (2 * h)
        assert np.max(np.abs((dbeta - dbeta.T) - ref)) < 1e-7


def test_curvature_antisymmetry(generalized, engine_factory):
    lam = np.array([1.4, 0.2, 1.1])
    F = engine_factory(generalized, lam).berry_curvature(lam, (0,))
    assert np.max(np.abs(F + F.T)) == 0.0


def test_qgt_bundle(generalized, engine_factory):
    lam = np.array([1.0, 0.5, 1.0])
    eng = engine_factory(generalized, lam)
    tensors = eng.qgt(lam, (0,))
    assert np.max(np.abs(tensors.qmt - tensors.qgt.real)) < 1e-9
    assert np.max(np.abs(tensors.berry_curvature - 2.0 * tensors.qgt.imag)) < 1e-9
    eigs = np.linalg.eigvalsh(tensors.qgt)
    assert eigs.min() >= -1e-9
    # independent projector-form route
    proj = eng.qgt_projector_oracle(lam, (0,))
    assert np.max(np.abs(proj - tensors.qgt)) < 1e-9


def test_qgt_hermiticity_gate(anharmonic, monkeypatch):
    lam = np.array([1.0, 1.3])
    eng = make_engine(anharmonic, lam)
    assert geo.HERMITICITY_GATE == 1e-7
    clean = eng.qgt(lam, (2,))
    assert np.all(np.isfinite(clean.qgt))

    # an anti-Hermitian 1e-6 perturbation of A is what inconsistent brackets
    # look like to the assembly; the default gate must refuse it
    exact = eng.bracket_set

    def skewed(lam, n):
        br = dict(exact(lam, n))
        m = br["A"].shape[0]
        br["A"] = br["A"] + 1e-6j * np.ones((m, m))
        return br

    monkeypatch.setattr(eng, "bracket_set", skewed)
    with pytest.raises(EngineError, match="Hermiticity"):
        eng.qgt(lam, (2,))


# ---------------------------------------------------------------------------
# Gauge invariance, normalization identity, degeneracy
# ---------------------------------------------------------------------------

def test_gauge_invariance_random_phases(generalized):
    """G, F, and the full tensor are unchanged under 20 random phases."""
    lam = np.array([1.0, 0.3, 1.2])
    base = make_engine(generalized, lam).qgt(lam, (0,))
    rng = np.random.default_rng(17)
    for _ in range(20):
        c = rng.uniform(-1.0, 1.0, size=4)

        def alpha(lv, c=c):
            return c[0] * lv[0] ** 2 + c[1] * lv[1] + c[2] * lv[2] ** 2 \
                + c[3] * lv[0] * lv[2]

        def alpha_grad(lv, rho, c=c):
            return (2 * c[0] * lv[0] + c[3] * lv[2],
                    c[1],
                    2 * c[2] * lv[2] + c[3] * lv[0])[rho]

        fam = geo.gauge_transform(generalized.psi, alpha, alpha_grad)
        eng = geo.GeometryEngine(fam, generalized.metric,
                                 generalized.domain_for(lam),
                                 in_domain=generalized.in_domain)
        t = eng.qgt(lam, (0,))
        assert np.max(np.abs(t.qmt - base.qmt)) < 1e-7
        assert np.max(np.abs(t.berry_curvature - base.berry_curvature)) < 1e-7
        assert np.max(np.abs(t.qgt - base.qgt)) < 1e-7
        grad = np.array([alpha_grad(lam, r) for r in range(3)])
        assert np.max(np.abs(t.berry_connection - base.berry_connection - grad)) < 1e-8


def test_gauge_identity_transform(anharmonic):
    fam = geo.gauge_transform(anharmonic.psi, lambda lv: 0.0,
                              alpha_grad=lambda lv, rho: 0.0)
    lam = np.array([1.0, 1.0])
    x = np.linspace(0.1, 2.0, 7)
    assert np.allclose(fam.eval(lam, (0,), x),
                       anharmonic.psi.eval(lam, (0,), x))


def test_normalization_identity_all_models(all_models, engine_factory):
    """2 Re<psi|d_rho psi> - <sigma_rho>/2 vanishes for every model."""
    rng = np.random.default_rng(3)
    for model in all_models:
        lamv = model.sample_parameters(rng)
        eng = make_engine(model, lamv)
        br = eng.bracket_set(lamv, (0,) * model.dim)
        residual = np.max(np.abs(2.0 * br["c"].real - 0.5 * br["s"]))
        assert residual < 1e-7, model.name


def test_degeneracy_detection(anharmonic, generalized):
    for lam in ([1.0, 1.0], [2.0, 0.5], [0.5, 3.0]):
        lamv = np.array(lam)
        G = make_engine(anharmonic, lamv).qmt(lamv, (1,))
        assert abs(np.linalg.det(G)) < 1e-10
    lamv = np.array([1.0, 0.5, 1.0])
    G = make_engine(generalized, lamv).qmt(lamv, (0,))
    assert abs(np.linalg.det(G)) < 1e-10


def test_flat_limit(flat, anharmonic):
    """Flat g = 1 oscillator carries the same omega-omega component."""
    for n in (0, 1):
        lam_flat = np.array([1.2])
        G_flat = make_engine(flat, lam_flat).qmt(lam_flat, (n,))
        expected = (n * n + n + 1) / (8.0 * 1.2 ** 2)
        assert abs(G_flat[0, 0] - expected) / expected < 1e-8
        lam = np.array([0.7, 1.2])
        G_curved = make_engine(anharmonic, lam).qmt(lam, (n,))
        assert abs(G_curved[1, 1] - G_flat[0, 0]) < 1e-8


# ---------------------------------------------------------------------------
# Reparameterization
# ---------------------------------------------------------------------------

def _cube_map():
    map_fn = lambda lp: np.array([lp[0], lp[1] ** (1.0 / 3.0)])
    jac_fn = lambda lp: np.array([
        [1.0, 0.0],
        [0.0, (1.0 / 3.0) * lp[1] ** (-2.0 / 3.0)],
    ])
    return map_fn, jac_fn


def test_reparameterize_identity(anharmonic):
    psi2, metric2 = geo.reparameterize(
        anharmonic.psi, anharmonic.metric,
        lambda lp: lp, lambda lp: np.eye(2),
    )
    lam = np.array([1.0, 1.0])
    x = np.linspace(0.2, 1.5, 5)
    assert np.allclose(psi2.eval(lam, (0,), x), anharmonic.psi.eval(lam, (0,), x))
    assert np.allclose(metric2.det_at(lam, x), anharmonic.metric.det_at(lam, x))


def test_reparameterize_qmt_covariance(anharmonic):
    """G transforms as a rank-2 covariant tensor under lam' = (lam, w^3)."""
    map_fn, jac_fn = _cube_map()
    psi2, metric2 = geo.reparameterize(anharmonic.psi, anharmonic.metric,
                                       map_fn, jac_fn)
    for n in (0, 1):
        lamp = np.array([1.0, 1.728])
        base = np.asarray(map_fn(lamp))
        eng = geo.GeometryEngine(psi2, metric2, anharmonic.domain_for(base),
                                 in_domain=lambda lv: lv[0] > 0 and lv[1] > 0)
        G2 = eng.qmt(lamp, (n,))
        jac = jac_fn(lamp)
        expected = jac.T @ models.analytic_reference(anharmonic, "qmt", n, base) @ jac
        assert np.max(np.abs(G2 - expected) / np.abs(expected)) < 1e-6


def test_reparameterize_connection_covector_law(generalized):
    """Direct evaluation of the pulled-back connection obeys the chain rule."""
    map_fn = lambda lp: np.array([lp[0], lp[1] ** (1.0 / 3.0), lp[2]])
    jac_fn = lambda lp: np.diag([1.0, (1.0 / 3.0) * lp[1] ** (-2.0 / 3.0), 1.0])
    lamp = np.array([1.0, 0.027, 1.2])
    base = map_fn(lamp)
    domain = generalized.domain_for(base)
    psi2, metric2 = geo.reparameterize(generalized.psi, generalized.metric,
                                       map_fn, jac_fn)
    beta_direct = geo.GeometryEngine(
        psi2, metric2, domain,
        in_domain=lambda lv: lv[0] > 0 and lv[2] - lv[1] ** (2.0 / 3.0) > 0,
    ).berry_connection(lamp, (0,))
    beta_base = geo.GeometryEngine(
        generalized.psi, generalized.metric, domain, in_domain=generalized.in_domain,
    ).berry_connection(base, (0,))
    assert np.max(np.abs(beta_direct - jac_fn(lamp).T @ beta_base)) < 1e-6


def test_reparameterize_singular_jacobian(anharmonic):
    psi2, _ = geo.reparameterize(anharmonic.psi, anharmonic.metric,
                                 lambda lp: lp, lambda lp: np.zeros((2, 2)))
    with pytest.raises(EngineError, match="singular"):
        psi2.analytic_param_grad(np.array([1.0, 1.0]), (0,), 0, np.array([1.0]))


# ---------------------------------------------------------------------------
# Berry phase loops
# ---------------------------------------------------------------------------

def test_loop_real_family_is_zero(anharmonic):
    loop = [np.array([1.0, 1.0]), np.array([1.4, 1.0]),
            np.array([1.4, 1.5]), np.array([1.0, 1.5])]
    phase = geo.berry_phase_loop(anharmonic.psi, anharmonic.metric,
                                 anharmonic.domain_for(loop[0]), loop, (0,),
                                 in_domain=anharmonic.in_domain)
    assert abs(phase) < 1e-6


def test_loop_matches_surface_integral(generalized):
    """Loop integral equals the curvature flux through the rectangle."""
    b0, b1, c0, c1 = -0.3, 0.3, 0.9, 1.4
    loop = [np.array([1.0, b0, c0]), np.array([1.0, b1, c0]),
            np.array([1.0, b1, c1]), np.array([1.0, b0, c1])]
    phase = geo.berry_phase_loop(generalized.psi, generalized.metric,
                                 generalized.domain_for(loop[0]), loop, (0,),
                                 in_domain=generalized.in_domain)
    flux, _ = scipy_integrate.dblquad(
        lambda c, b: -1.0 / (8.0 * (c - b * b) ** 1.5),
        b0, b1, c0, c1, epsabs=1e-12,
    )
    assert abs(phase - flux) < 1e-4


def test_loop_matches_surface_integral_lambda_b(generalized):
    """Loop integral in the (lambda, b) plane equals the flux of F_lam,b.

    F_lam,b = c / (4 lam (c - b^2)^(3/2)) for n = 0 is d(beta), twice the
    Im(QGT) entry of the tabulated curvature matrix.
    """
    l0, l1, b0, b1, c = 0.8, 1.3, -0.2, 0.3, 1.2
    loop = [np.array([l0, b0, c]), np.array([l1, b0, c]),
            np.array([l1, b1, c]), np.array([l0, b1, c])]
    phase = geo.berry_phase_loop(generalized.psi, generalized.metric,
                                 generalized.domain_for(loop[0]), loop, (0,),
                                 in_domain=generalized.in_domain)
    flux, _ = scipy_integrate.dblquad(
        lambda b, lam: c / (4.0 * lam * (c - b * b) ** 1.5),
        l0, l1, b0, b1, epsabs=1e-12,
    )
    assert abs(phase - flux) < 1e-4


def test_loop_degenerate_is_zero(generalized):
    pts = [np.array([1.0, 0.1, 1.0]), np.array([1.0, 0.2, 1.2]),
           np.array([1.0, 0.1, 1.0])]
    phase = geo.berry_phase_loop(generalized.psi, generalized.metric,
                                 generalized.domain_for(pts[0]), pts, (0,),
                                 in_domain=generalized.in_domain)
    assert abs(phase) < 1e-8


def _closed(loop):
    return list(zip(loop, loop[1:] + loop[:1]))


def test_connection_along_matches_full_connection(generalized, engine_factory):
    lam = np.array([1.1, 0.2, 1.3])
    eng = engine_factory(generalized, lam)
    beta = eng.berry_connection(lam, (1,))
    for delta in ([0.0, 0.4, 0.0], [0.3, -0.2, 0.5], [-1.0, 0.0, 2.0]):
        along = eng.berry_connection_along(lam, (1,), np.array(delta))
        assert abs(along - beta @ delta) < 1e-14


def test_loop_samples_only_the_segment_direction(generalized):
    """Edges along b and c never differentiate in lambda."""
    rhos = set()

    def grad(lamv, n, rho, *axes):
        rhos.add(rho)
        return generalized.psi.analytic_param_grad(lamv, n, rho, *axes)

    psi = WavefunctionFamily(dim=1, eval=generalized.psi.eval, analytic_param_grad=grad)
    loop = [np.array([1.0, -0.3, 0.9]), np.array([1.0, 0.3, 0.9]),
            np.array([1.0, 0.3, 1.4]), np.array([1.0, -0.3, 1.4])]
    geo.berry_phase_loop(psi, generalized.metric, generalized.domain_for(loop[0]),
                         loop, (0,), in_domain=generalized.in_domain)
    assert rhos == {1, 2}


def test_loop_with_diagonal_edges_matches_full_connection(generalized):
    """A polygon whose edges move several parameters at once gives the phase
    of the full connection contracted with each edge, on the same GK rule."""
    loop = [np.array([0.9, -0.2, 1.1]), np.array([1.2, 0.1, 1.1]),
            np.array([1.0, 0.2, 1.4])]
    domain = generalized.domain_for(loop[0])
    phase = geo.berry_phase_loop(generalized.psi, generalized.metric, domain,
                                 loop, (0,), in_domain=generalized.in_domain)
    cfg = geo.EngineConfig()
    eng = geo.GeometryEngine(generalized.psi, generalized.metric, domain, cfg,
                             in_domain=generalized.in_domain)
    seg_cfg = QuadratureConfig(rel_tol=max(1e-7, cfg.quad.rel_tol),
                               abs_tol=max(1e-9, cfg.quad.abs_tol),
                               max_subdivisions=cfg.quad.max_subdivisions)
    ref = 0.0
    for start, end in _closed(loop):
        delta = end - start

        def integrand(ts):
            return np.array([eng.berry_connection(start + t * delta, (0,)) @ delta
                             for t in ts])

        ref += integrate(integrand, Domain.interval(0.0, 1.0), seg_cfg)[0].real
    assert abs(ref) > 1e-3
    assert abs(phase - ref) < 1e-12


def test_loop_phase_is_gauge_invariant(generalized):
    loop = [np.array([0.8, -0.2, 1.2]), np.array([1.3, -0.2, 1.2]),
            np.array([1.1, 0.3, 1.3])]
    gauged = geo.gauge_transform(generalized.psi, lambda lv: 0.37 * lv[0] ** 2)
    phases = [geo.berry_phase_loop(psi, generalized.metric,
                                   generalized.domain_for(loop[0]), loop, (0,),
                                   in_domain=generalized.in_domain)
              for psi in (generalized.psi, gauged)]
    assert abs(phases[0]) > 1e-3
    assert abs(phases[1] - phases[0]) < 1e-10


def _boosted_gaussian():
    """psi = pi^(-1/4) exp(-(x - a)^2 / 2 + i b x), lambda = (a, b), on a flat
    line cut to [-12, 12]: a finite interval, so every Gram is a
    Gauss-Kronrod integral.  beta = (0, a) and F_ab = 1, so a loop's phase
    is the (a, b) area it encloses."""
    metric = MetricFamily(
        dim=1,
        eval=lambda lamv, x: np.ones(np.shape(x))[..., None, None],
        det=lambda lamv, x: np.ones(np.shape(x)),
        analytic_log_det_grad=lambda lamv, rho, x: np.zeros(np.shape(x)),
    )

    def psi(lamv, n, x):
        a, b = lamv
        return np.pi ** -0.25 * np.exp(-0.5 * (x - a) ** 2 + 1j * b * x)

    def grad(lamv, n, rho, x):
        return ((x - lamv[0]) if rho == 0 else 1j * x) * psi(lamv, n, x)

    return WavefunctionFamily(dim=1, eval=psi, analytic_param_grad=grad), metric


def test_connection_stack_on_a_finite_interval_matches_points():
    """A stack of points on a Gauss-Kronrod domain gives each point the
    connection it gets alone, and the loop closes on the enclosed area."""
    fam, metric = _boosted_gaussian()
    domain = Domain.interval(-12.0, 12.0)
    eng = geo.GeometryEngine(fam, metric, domain)
    delta = np.array([0.3, -0.5])
    pts = np.array([[0.1, 0.2], [0.5, -0.3], [0.9, 0.7]])
    stacked = eng.berry_connection_along(pts, (0,), delta)
    assert stacked.shape == (3,)
    for p, beta in zip(pts, stacked):
        single = eng.berry_connection_along(p, (0,), delta)
        assert isinstance(single, float)
        assert abs(beta - single) < 1e-12
        assert abs(single - delta[1] * p[0]) < 1e-10
    loop = [np.array([0.1, 0.2]), np.array([0.6, 0.2]),
            np.array([0.6, 0.9]), np.array([0.1, 0.9])]
    phase = geo.berry_phase_loop(fam, metric, domain, loop, (0,))
    assert abs(phase - 0.5 * 0.7) < 1e-8


def _counting_loop(psi, generalized, monkeypatch, loop):
    """Run a loop while counting family evaluations, the points of each
    bracket call, and the integrand calls of each family-domain
    integration."""
    import dataclasses

    calls = {"psi": 0, "integrand": [], "points": []}

    def counted_eval(*args):
        calls["psi"] += 1
        return psi.eval(*args)

    real_integrate, real_bracket = geo.integrate, geo.GeometryEngine.bracket
    domain = generalized.domain_for(loop[0])

    def counting_integrate(f, dom, cfg=None):
        if dom is not domain:  # the segment rule on [0, 1]
            return real_integrate(f, dom, cfg)
        calls["integrand"].append(0)

        def counted(*axes):
            calls["integrand"][-1] += 1
            return f(*axes)

        return real_integrate(counted, dom, cfg)

    def counting_bracket(self, lamv, columns):
        calls["points"].append(len(np.atleast_2d(lamv)))
        return real_bracket(self, lamv, columns)

    monkeypatch.setattr(geo, "integrate", counting_integrate)
    monkeypatch.setattr(geo.GeometryEngine, "bracket", counting_bracket)
    phase = geo.berry_phase_loop(dataclasses.replace(psi, eval=counted_eval),
                                 generalized.metric, domain, loop, (0,),
                                 in_domain=generalized.in_domain)
    monkeypatch.undo()
    return phase, calls


_BC_RECTANGLE = [np.array([1.0, -0.3, 0.9]), np.array([1.0, 0.3, 0.9]),
                 np.array([1.0, 0.3, 1.4]), np.array([1.0, -0.3, 1.4])]


def test_loop_integrates_each_panel_in_one_pass(generalized, monkeypatch):
    """A rectangle whose edges converge on their first Gauss-Kronrod panel
    takes one family-domain integration per edge, for all 15 points of the
    panel: the family broadcasts, so psi is evaluated once per integrand
    call for the whole panel."""
    _, calls = _counting_loop(generalized.psi, generalized, monkeypatch, _BC_RECTANGLE)
    assert calls["points"] == [geo.SEGMENT_POINTS] * 4
    assert len(calls["integrand"]) == 4
    assert calls["psi"] == sum(calls["integrand"])


def test_loop_warns_for_each_mis_normalized_point(generalized):
    """A stack warns once per point whose <psi|psi> is off 1, naming it."""
    scaled = WavefunctionFamily(
        dim=1, eval=lambda lamv, n, x: 1.01 * generalized.psi.eval(lamv, n, x),
        analytic_param_grad=lambda lamv, n, rho, x: 1.01 * generalized.psi.analytic_param_grad(
            lamv, n, rho, x))
    with pytest.warns(NormalizationWarning) as record:
        geo.berry_phase_loop(scaled, generalized.metric,
                             generalized.domain_for(_BC_RECTANGLE[0]), _BC_RECTANGLE,
                             (0,), in_domain=generalized.in_domain)
    named = {str(w.message).split(" at ")[1] for w in record
             if issubclass(w.category, NormalizationWarning)}
    assert len(named) == 4 * geo.SEGMENT_POINTS


def test_subdivided_loop_stacks_at_most_one_panel(generalized, monkeypatch):
    """A gauge phase that oscillates along b forces Gauss-Kronrod
    subdivision: many panels are evaluated, no bracket call stacks more than
    one panel's points, and the closed loop cancels the gauge term.  A
    gauge-transformed family does not broadcast, so every integrand call
    samples each point of its stack in turn."""
    gauged = geo.gauge_transform(generalized.psi, lambda lv: 0.3 * np.sin(40.0 * lv[1]))
    assert not gauged.broadcasts
    phase, calls = _counting_loop(gauged, generalized, monkeypatch, _BC_RECTANGLE)
    assert sum(calls["points"]) > 4 * geo.SEGMENT_POINTS
    assert max(calls["points"]) <= geo.SEGMENT_POINTS
    assert len(calls["integrand"]) == len(calls["points"])
    assert calls["psi"] == sum(p * k for p, k in zip(calls["points"], calls["integrand"]))
    plain = geo.berry_phase_loop(generalized.psi, generalized.metric,
                                 generalized.domain_for(_BC_RECTANGLE[0]), _BC_RECTANGLE,
                                 (0,), in_domain=generalized.in_domain)
    assert abs(phase - plain) < 1e-8


def _stack_gram(model, psi, metric, stack, n):
    """Grams of [psi, d_r psi, sigma_r psi] at every point of a stack, and
    the parameter shapes the columns were sampled at."""
    eng = geo.GeometryEngine(psi, metric, model.domain_for(stack[0]),
                             in_domain=model.in_domain)
    rs = range(stack.shape[1])
    shapes = set()

    def columns(p, x):
        shapes.add(p.shape)
        state = psi.eval(p, n, x)
        return [state, *(psi.analytic_param_grad(p, n, r, x) for r in rs),
                *(-metric.analytic_log_det_grad(p, r, x) * state for r in rs)]

    return eng.bracket(stack, columns)[0], shapes


_BROADCAST_STACKS = [
    ("anharmonic-1d", [[1.0, 1.0], [1.2, 0.9], [0.8, 1.3]], 2),
    ("morse-like", [[1.0, 1.0], [1.1, 0.9], [0.9, 1.2]], 0),
    ("generalized-anharmonic", [[1.0, -0.2, 1.2], [1.1, 0.1, 1.0], [0.9, 0.3, 1.4]], 1),
    ("flat-oscillator-1d", [[1.0], [1.5], [0.7]], 3),
]


@pytest.mark.parametrize("name,stack,n", _BROADCAST_STACKS)
def test_broadcast_stack_matches_per_point_stack(name, stack, n):
    """A registry family samples a stack in one call per column, and its
    Grams equal those of the same family sampled point by point."""
    model = models.get_model(name)
    stack = np.array(stack)
    fast, fast_shapes = _stack_gram(model, model.psi, model.metric, stack, (n,))
    slow, slow_shapes = _stack_gram(
        model, dataclasses.replace(model.psi, broadcasts=False),
        dataclasses.replace(model.metric, broadcasts=False), stack, (n,))
    m = stack.shape[1]
    assert fast_shapes == {(m, 3, 1)} and slow_shapes == {(m,)}
    assert fast.shape == slow.shape == (3, 2 * m + 1, 2 * m + 1)
    assert np.max(np.abs(fast - slow)) <= 1e-15 * np.max(np.abs(slow))


@pytest.mark.parametrize("name,stack,n", _BROADCAST_STACKS)
def test_qgt_of_a_stack_matches_each_point(name, stack, n):
    """qgt and bracket_set take a stack (P, m): qgt returns one set of
    tensors per point, equal to that point's own to rounding, while a single
    point keeps its types (float norm, err and quad_error)."""
    model = models.get_model(name)
    stack = np.array(stack)
    eng = make_engine(model, stack[0])
    stacked = eng.qgt(stack, (n,))
    assert len(stacked) == len(stack)
    for p, tensors in zip(stack, stacked):
        solo = eng.qgt(p, (n,))
        scale = np.max(np.abs(solo.qgt))
        assert np.max(np.abs(tensors.qgt - solo.qgt)) <= 1e-13 * scale
        assert np.max(np.abs(tensors.berry_connection - solo.berry_connection)) <= 1e-13 * scale
        assert tensors.quad_error <= solo.quad_error + 1e-14
        assert np.array_equal(tensors.fd_steps, solo.fd_steps)
    assert type(solo.quad_error) is float
    one, many = eng.bracket_set(stack[0], (n,)), eng.bracket_set(stack, (n,))
    assert type(one["norm"]) is float and type(one["err"]) is float
    assert many["norm"].shape == many["err"].shape == (len(stack),)


def test_broadcast_stack_with_a_non_positive_det_raises(anharmonic):
    """det g = 4 lam x^2 (omega - 1.05) is negative at the last point of the
    stack: the broadcast path raises instead of integrating a NaN."""
    shapes = set()

    def det(lamv, x):
        shapes.add(np.shape(lamv))
        return (lamv[1] - 1.05) * anharmonic.metric.det(lamv, x)

    def log_det_grad(lamv, rho, x):
        if rho == 0:
            return anharmonic.metric.analytic_log_det_grad(lamv, rho, x)
        return np.full(np.broadcast_shapes(np.shape(lamv[1]), np.shape(x)),
                       1.0 / (lamv[1] - 1.05))

    metric = MetricFamily(dim=1, eval=lambda lamv, x: det(lamv, x)[..., None, None],
                          det=det, analytic_log_det_grad=log_det_grad, broadcasts=True)
    stack = np.array([[1.0, 1.2], [1.0, 1.1], [1.0, 1.0]])
    eng = geo.GeometryEngine(anharmonic.psi, metric, anharmonic.domain_for(stack[0]))
    with pytest.raises(MetricPositivityError, match="not positive-definite") as info:
        eng.berry_connection_along(stack, (0,), np.array([0.0, 0.2]))
    assert shapes == {(2, 3, 1)}
    # the error names the failing (last) point and a node where its det g <= 0
    assert f"for parameters {stack[2]}" in str(info.value)
    (x,) = info.value.location
    assert f"x = {info.value.location}" in str(info.value)
    assert (stack[2, 1] - 1.05) * anharmonic.metric.det(stack[2], np.array([x])) <= 0


def _loop_with_counted_psi(model, loop, calls):
    """Run a loop on the model, appending to ``calls`` at every psi.eval."""
    def counted_eval(*args):
        calls.append(args)
        return model.psi.eval(*args)

    psi = dataclasses.replace(model.psi, eval=counted_eval)
    return geo.berry_phase_loop(psi, model.metric, model.domain_for(loop[0]), loop,
                                (0,), in_domain=model.in_domain)


def test_loop_reaching_c_below_b_squared_raises(generalized):
    """Where c < b^2 the frequency sqrt(c - b^2) is not real: the first
    edge's panel holds such points, and the loop fails typed, naming one,
    before any family call."""
    loop = [np.array([1.0, -0.6, 0.3]), np.array([1.0, 0.6, 0.3]),
            np.array([1.0, 0.6, 1.0]), np.array([1.0, -0.6, 1.0])]
    calls = []
    with pytest.raises(ParameterBoundaryError, match=r"point \[ 1\. +-0\.59"):
        _loop_with_counted_psi(generalized, loop, calls)
    assert not calls


def test_loop_crossing_morse_lambda_zero_raises(morse):
    """The Gauss-Kronrod midpoint of an edge from lambda = -0.2 to 0.2 is
    lambda = 0, where the Morse metric degenerates: the loop fails typed,
    naming that point, before any family call."""
    loop = [np.array([-0.2, 1.0]), np.array([0.2, 1.0]),
            np.array([0.2, 1.3]), np.array([-0.2, 1.3])]
    calls = []
    with pytest.raises(ParameterBoundaryError, match=r"point \[0\. 1\.\]"):
        _loop_with_counted_psi(morse, loop, calls)
    assert not calls


@pytest.mark.filterwarnings("ignore::curvedqgt.core.NormalizationWarning")
def test_loop_warns_on_imaginary_residue(anharmonic):
    """A norm that drifts with lambda (psi scaled by 1.01 per unit) leaves an
    imaginary residue in the connection along every lambda edge.  A constant
    factor would not: the residue is -(1/2) d<psi|psi>.  Every Gram of the
    loop also warns that the norm is off 1, which is expected here."""
    drifting = WavefunctionFamily(
        dim=1,
        eval=lambda lamv, n, x: 1.01 ** lamv[0] * anharmonic.psi.eval(lamv, n, x),
    )
    loop = [np.array([1.0, 1.0]), np.array([1.2, 1.0]),
            np.array([1.2, 1.2]), np.array([1.0, 1.2])]
    with pytest.warns(ImaginaryResidueWarning):
        geo.berry_phase_loop(drifting, anharmonic.metric, anharmonic.domain_for(loop[0]),
                             loop, (0,), in_domain=anharmonic.in_domain)


# ---------------------------------------------------------------------------
# Statelessness and concurrency
# ---------------------------------------------------------------------------

def test_repeated_qgt_integrates_again_and_matches(anharmonic, monkeypatch):
    """An engine keeps no Gram: a second qgt at the same point integrates
    again and returns equal arrays."""
    lam = np.array([1.0, 1.0])
    eng = make_engine(anharmonic, lam)
    real_bracket, calls = geo.GeometryEngine.bracket, []

    def counting_bracket(self, lamv, columns):
        calls.append(lamv.shape)
        return real_bracket(self, lamv, columns)

    monkeypatch.setattr(geo.GeometryEngine, "bracket", counting_bracket)
    first, second = eng.qgt(lam, (0,)), eng.qgt(lam, (0,))
    assert calls == [(2,), (2,)]
    assert np.array_equal(first.qgt, second.qgt)
    assert np.array_equal(first.berry_connection, second.berry_connection)
    assert first.quad_error == second.quad_error


def test_concurrent_evaluations_deterministic(generalized):
    from concurrent.futures import ThreadPoolExecutor

    lam = np.array([1.0, 0.4, 1.1])
    eng = make_engine(generalized, lam)
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: eng.qmt(lam, (0,)), range(4)))
    for r in results[1:]:
        assert np.array_equal(results[0], r)


def test_one_family_pass_per_point(generalized, monkeypatch):
    """psi is sampled once per integrand call, not once per bracket.

    Every integrand call covers one chunk of one quadrature level, so a
    qgt costs (levels reached x node chunks) evaluations of psi.  Norm,
    bracket set and connection at the same point each integrate that Gram
    once more, at the same cost: the engine keeps nothing between calls.
    """
    import dataclasses

    calls = {"psi": 0, "integrand": 0, "integrate": 0}
    base_eval = generalized.psi.eval

    def counted_eval(*args):
        calls["psi"] += 1
        return base_eval(*args)

    real_integrate = geo.integrate

    def counting_integrate(f, domain, cfg=None):
        calls["integrate"] += 1

        def counted(*axes):
            calls["integrand"] += 1
            return f(*axes)

        return real_integrate(counted, domain, cfg)

    monkeypatch.setattr(geo, "integrate", counting_integrate)
    psi = dataclasses.replace(generalized.psi, eval=counted_eval)
    lam = np.array([1.1, 0.2, 1.3])
    eng = geo.GeometryEngine(psi, generalized.metric, generalized.domain_for(lam),
                             in_domain=generalized.in_domain)
    eng.qgt(lam, (1,))
    n_brackets = 30  # c, s: 3 each; A, B: 9 each; S: 6
    assert calls["integrate"] == 1
    assert calls["psi"] == calls["integrand"] <= eng.cfg.quad.max_levels + 1 < n_brackets
    first = dict(calls)
    for later in (eng.norm, eng.bracket_set, eng.berry_connection):
        before = dict(calls)
        later(lam, (1,))
        assert {k: calls[k] - before[k] for k in calls} == first


_CLOSED_FORM_CASES = [("anharmonic-1d", 0), ("anharmonic-1d", 2),
                      ("generalized-anharmonic", 0), ("generalized-anharmonic", 1),
                      ("flat-oscillator-1d", 0)]


@pytest.mark.parametrize("name,n", _CLOSED_FORM_CASES)
def test_reported_error_bounds_closed_form(name, n):
    """|result - closed form| stays within the tolerance the bundle reports."""
    model = models.get_model(name)
    rng = np.random.default_rng(11 + n)
    for _ in range(3):
        lamv = model.sample_parameters(rng)
        tensors = make_engine(model, lamv).qgt(lamv, (n,))
        ref = models.analytic_reference(model, "qmt", n, lamv)
        assert np.max(np.abs(tensors.qmt - ref)) <= tensors.tolerance(), lamv
        if name == "generalized-anharmonic":
            beta = models.analytic_reference(model, "berry_connection", n, lamv)
            assert np.max(np.abs(tensors.berry_connection - beta)) <= tensors.tolerance()


def test_coupled_qgt_refines_only_inside_the_windows(coupled):
    """The product rule refines only where the level-2 envelope has mass:
    a coupled-2d QGT at (1, 0.1, 1.5, 1.5) evaluates at most 35,000
    distinct nodes, where the whole level-4 product mesh has 103,041."""
    seen = []

    def counted(lamv, n, x, y):
        seen.append(np.stack(np.broadcast_arrays(x, y)).reshape(2, -1))
        return coupled.psi.eval(lamv, n, x, y)

    family = WavefunctionFamily(dim=2, eval=counted,
                                analytic_param_grad=coupled.psi.analytic_param_grad)
    lam = np.array([1.0, 0.1, 1.5, 1.5])
    geo.GeometryEngine(family, coupled.metric, coupled.domain_for(lam),
                       in_domain=coupled.in_domain).qgt(lam, (0, 0))
    assert np.unique(np.concatenate(seen, axis=1), axis=1).shape[1] <= 35_000
