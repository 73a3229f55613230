"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[criterion N]` line with the measured deviation, so
`pytest -v -s tests/test_acceptance.py` reads as a checklist.

The Berry curvature follows the convention F = 2 Im(QGT) = d(beta), the
one under which criterion 7's loop/surface (Stokes) identity holds.  The
curvature matrix tabulated for the generalized model,
(2n+1)/(16 w^3 lam) [[0, 2c, -b], [-2c, 0, -lam], [b, lam, 0]], is printed
in the Im(QGT) normalization, i.e. it is F/2; criterion 3 checks both
Im(QGT) against it and F against twice it.
"""

import math

import numpy as np
import pytest
from scipy import integrate as scipy_integrate

from curvedqgt import fidelity as fid
from curvedqgt import geometry as geo
from curvedqgt import models
from curvedqgt import spectrum as sp
from curvedqgt.fidelity import SusceptibilityConfig

from conftest import make_engine


def _report(criterion, label, value, bound, ok=None):
    ok = value <= bound if ok is None else ok
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {label}: {status} "
          f"(measured {value:.3e}, bound {bound:.1e})")
    return ok


# ---------------------------------------------------------------------------
# Criterion 1: quartic-oscillator metric, three states, three points
# ---------------------------------------------------------------------------

def test_criterion_1_quartic_metric(anharmonic):
    worst_rel = 0.0
    worst_det = 0.0
    for n in (0, 1, 2):
        for lam in ((1.0, 1.0), (2.0, 0.5), (0.5, 3.0)):
            lamv = np.array(lam)
            G = make_engine(anharmonic, lamv).qmt(lamv, (n,))
            ref = models.analytic_reference(anharmonic, "qmt", n, lamv)
            worst_rel = max(worst_rel, float(np.max(np.abs(G - ref) / np.abs(ref))))
            worst_det = max(worst_det, abs(float(np.linalg.det(G))))
    ok = _report(1, "quartic QMT relative error", worst_rel, 1e-6)
    ok &= _report(1, "quartic QMT determinant", worst_det, 1e-10)
    assert ok


# ---------------------------------------------------------------------------
# Criterion 2: exponential-metric model closed forms and critical point
# ---------------------------------------------------------------------------

def test_criterion_2_morse_components(morse, engine_factory):
    worst_ww = 0.0
    for om in (0.5, 1.0, 2.0):
        lamv = np.array([1.0, om])
        G = make_engine(morse, lamv).qmt(lamv, (0,))
        worst_ww = max(worst_ww, abs(G[1, 1] - 1.0 / (8 * om * om)))
    ok = _report(2, "G_ww closed form", worst_ww, 1e-6)

    lamv = np.array([1.0, 1.0])
    G = engine_factory(morse, lamv).qmt(lamv, (0,))
    g_ll_ref = models.analytic_reference(morse, "qmt_ll", 0, lamv)
    ok &= _report(2, "G_ll closed form", abs(G[0, 0] - g_ll_ref), 1e-4)

    chi = fid.fidelity_susceptibility(
        morse.psi, morse.metric, morse.domain_for(lamv), lamv, (0,),
        in_domain=morse.in_domain,
    )
    ok &= _report(2, "G_lw dual-route agreement", abs(chi[0, 1] - G[0, 1]), 1e-4)

    w0 = models.morse_critical_omega(lam=0.05, bracket=(0.9, 1.2), xtol=1e-7)
    ok &= _report(2, "critical omega bracket |w0 - 1.037|", abs(w0 - 1.037), 1e-3)
    assert ok


# ---------------------------------------------------------------------------
# Criterion 3: generalized model tensors
# ---------------------------------------------------------------------------

_CRIT3_POINTS = ((1.0, 0.0, 1.0), (1.0, 0.5, 1.0), (2.0, 0.3, 1.0))


def test_criterion_3_qmt_and_degeneracy(generalized):
    worst_rel = 0.0
    worst_sv = 0.0
    for n in (0, 1):
        for lam in _CRIT3_POINTS:
            lamv = np.array(lam)
            G = make_engine(generalized, lamv).qmt(lamv, (n,))
            ref = models.analytic_reference(generalized, "qmt", n, lamv)
            mask = np.abs(ref) > 1e-12
            worst_rel = max(worst_rel, float(
                np.max(np.abs((G - ref)[mask] / ref[mask]))))
            worst_rel = max(worst_rel, float(np.max(np.abs((G - ref)[~mask]))))
            worst_sv = max(worst_sv, float(
                np.linalg.svd(G, compute_uv=False)[-1]))
    ok = _report(3, "generalized QMT vs printed matrix", worst_rel, 1e-6)
    ok &= _report(3, "generalized QMT smallest singular value", worst_sv, 1e-8)
    assert ok


def test_criterion_3_curvature_printed_normalization(generalized):
    """Curvature against the tabulated (2n+1)/(16 w^3 lam) matrix.

    The tabulated matrix is Im(QGT) = F/2.  With F = 2 Im(QGT) = d(beta),
    the exterior derivative of the closed-form connection
    beta = (-b(2n+1)/(4 w lam), -(2n+1)/(4 w), 0) gives
    F_lam,b = (2n+1) c / (4 lam w^3), twice the tabulated entry; the
    loop/surface identity pins this normalization in both the (b, c) plane
    (test_criterion_7_property_suite) and the (lam, b) plane
    (tests/test_geometry.py).  The check asserts that Im(QGT) equals the
    tabulated matrix and that berry_curvature equals twice it.
    """
    worst_im = 0.0
    worst_f = 0.0
    for n in (0, 1):
        for lam in _CRIT3_POINTS:
            lamv = np.array(lam)
            l, b, c = lamv
            om3 = (c - b * b) ** 1.5
            stated = (2 * n + 1) / (16.0 * om3 * l) * np.array([
                [0.0, 2.0 * c, -b], [-2.0 * c, 0.0, -l], [b, l, 0.0],
            ])
            engine = make_engine(generalized, lamv)
            im_qgt = engine.qgt(lamv, (n,)).qgt.imag
            F = engine.berry_curvature(lamv, (n,))
            mask = np.abs(stated) > 1e-12
            worst_im = max(worst_im, float(
                np.max(np.abs((im_qgt - stated)[mask] / stated[mask]))))
            worst_f = max(worst_f, float(
                np.max(np.abs((F - 2.0 * stated)[mask] / (2.0 * stated[mask])))))
    ok = _report(3, "generalized Im(QGT) vs tabulated matrix", worst_im, 1e-6)
    ok &= _report(3, "generalized curvature F vs 2 x tabulated matrix",
                  worst_f, 1e-6)
    assert ok


# ---------------------------------------------------------------------------
# Criterion 4: coupled 2-D model properties
# ---------------------------------------------------------------------------

def test_criterion_4_coupled_properties(coupled):
    lamv = np.array([1.0, 1.0, 1.0, 1.0])
    norm, _ = make_engine(coupled, lamv).norm(lamv, (0, 0))
    ok = _report(4, "ground-state norm", abs(norm - 1.0), 1e-6)

    lam_a = np.array([1.0, 1.0, 1.3, 0.7])
    lam_b = np.array([1.0, 1.0, 0.7, 1.3])
    G_a = make_engine(coupled, lam_a).qmt(lam_a, (0, 0))
    G_b = make_engine(coupled, lam_b).qmt(lam_b, (0, 0))
    perm = [0, 1, 3, 2]
    ok &= _report(4, "a-b exchange symmetry",
                  float(np.max(np.abs(G_a - G_b[np.ix_(perm, perm)]))), 1e-5)
    ok &= _report(4, "full 4x4 determinant", abs(float(np.linalg.det(G_a))), 1e-8)

    rng = np.random.default_rng(23)
    min_subdet = math.inf
    for _ in range(5):
        lamv = coupled.sample_parameters(rng)
        G = make_engine(coupled, lamv).qmt(lamv, (0, 0))
        min_subdet = min(min_subdet, float(np.linalg.det(G[:3, :3])))
    ok &= _report(4, "fixed-b 3x3 subdeterminant positive", 0.0, 1.0,
                  ok=min_subdet > 0.0)

    gab = []
    gk1 = []
    for k2 in (1e-2, 1e-3, 1e-4):
        lamv = np.array([1.0, k2, 1.0, 1.0])
        G = make_engine(coupled, lamv).qmt(lamv, (0, 0))
        gab.append(abs(G[2, 3]))
        gk1.append(G[0, 0])  # k1 = 1, so k1^2 G_k1k1 = G_k1k1
    ok &= _report(4, "G_ab -> 0 along k2 ladder", gab[-1], 1e-4,
                  ok=(gab[0] > gab[1] > gab[2] and gab[-1] < 1e-4))
    spread = (max(gk1) - min(gk1)) / gk1[-1]
    ok &= _report(4, "k1^2 G_k1k1 constant within 2%", spread, 0.02)
    assert ok


# ---------------------------------------------------------------------------
# Criterion 5: dual-route equivalence for every model
# ---------------------------------------------------------------------------

def test_criterion_5_route_equivalence(all_models):
    rng = np.random.default_rng(31)
    worst = {}
    for model in all_models:
        n = (0,) * model.dim
        dev = 0.0
        for _ in range(5):
            lamv = model.sample_parameters(rng)
            G = make_engine(model, lamv).qmt(lamv, n)
            chi = fid.fidelity_susceptibility(
                model.psi, model.metric, model.domain_for(lamv), lamv, n,
                in_domain=model.in_domain,
            )
            dev = max(dev, float(np.max(np.abs(chi - G))))
        worst[model.name] = dev
    ok = True
    for name, dev in worst.items():
        ok &= _report(5, f"|chi - G| for {name}", dev, 1e-4)
    assert ok


# ---------------------------------------------------------------------------
# Criterion 6: spectra
# ---------------------------------------------------------------------------

def test_criterion_6_spectra(anharmonic, morse, generalized):
    lamv = np.array([1.0, 1.0])
    levels = sp.model_spectrum(anharmonic, lamv, 4, n_points=2000)
    dev = max(abs(e - (j + 0.5)) / (j + 0.5) for j, (e, _) in enumerate(levels))
    ok = _report(6, "quartic levels n<=3", dev, 1e-4)

    levels = sp.model_spectrum(morse, lamv, 1, n_points=2000)
    ok &= _report(6, "exponential-metric ground level", abs(levels[0][0] - 0.5), 1e-4)

    lam6 = np.array([1.0, 0.5, 1.0])
    om = math.sqrt(0.75)
    levels = sp.model_spectrum(generalized, lam6, 3, n_points=2000)
    dev = max(abs(e - (j + 0.5) * om) / ((j + 0.5) * om)
              for j, (e, _) in enumerate(levels))
    ok &= _report(6, "generalized levels", dev, 1e-4)
    assert ok


# ---------------------------------------------------------------------------
# Criterion 7: property suite
# ---------------------------------------------------------------------------

def test_criterion_7_property_suite(anharmonic, generalized, all_models):
    lam = np.array([1.0, 0.3, 1.2])
    base = make_engine(generalized, lam).qgt(lam, (0,))

    rng = np.random.default_rng(41)
    gauge_dev = 0.0
    shift_dev = 0.0
    for _ in range(20):
        coeffs = rng.uniform(-1.0, 1.0, size=3)

        def alpha(lv, c=coeffs):
            return c[0] * lv[0] ** 2 + c[1] * lv[1] + c[2] * lv[2] ** 2

        def alpha_grad(lv, rho, c=coeffs):
            return (2 * c[0] * lv[0], c[1], 2 * c[2] * lv[2])[rho]

        fam = geo.gauge_transform(generalized.psi, alpha, alpha_grad)
        eng = geo.GeometryEngine(fam, generalized.metric,
                                 generalized.domain_for(lam),
                                 in_domain=generalized.in_domain)
        t = eng.qgt(lam, (0,))
        gauge_dev = max(
            gauge_dev,
            float(np.max(np.abs(t.qmt - base.qmt))),
            float(np.max(np.abs(t.berry_curvature - base.berry_curvature))),
            float(np.max(np.abs(t.qgt - base.qgt))),
        )
        grad = np.array([alpha_grad(lam, r) for r in range(3)])
        shift_dev = max(shift_dev, float(np.max(np.abs(
            t.berry_connection - base.berry_connection - grad))))
    ok = _report(7, "gauge invariance of G, F, QGT (20 phases)", gauge_dev, 1e-7)
    ok &= _report(7, "connection shift equals grad(alpha)", shift_dev, 1e-8)

    norm_dev = 0.0
    rng2 = np.random.default_rng(43)
    for model in all_models:
        lamv = model.sample_parameters(rng2)
        br = make_engine(model, lamv).bracket_set(lamv, (0,) * model.dim)
        norm_dev = max(norm_dev, float(np.max(np.abs(
            2.0 * br["c"].real - 0.5 * br["s"]))))
    ok &= _report(7, "normalization identity residual", norm_dev, 1e-7)

    # rank-2 covariant transformation under lam' = (lam, w^3)
    map_fn = lambda lp: np.array([lp[0], lp[1] ** (1.0 / 3.0)])
    jac_fn = lambda lp: np.array([
        [1.0, 0.0], [0.0, (1.0 / 3.0) * lp[1] ** (-2.0 / 3.0)],
    ])
    psi2, metric2 = geo.reparameterize(anharmonic.psi, anharmonic.metric,
                                       map_fn, jac_fn)
    lamp = np.array([1.0, 1.728])
    basep = np.asarray(map_fn(lamp))
    eng2 = geo.GeometryEngine(psi2, metric2, anharmonic.domain_for(basep),
                              in_domain=lambda lv: lv[0] > 0 and lv[1] > 0)
    G2 = eng2.qmt(lamp, (0,))
    jac = jac_fn(lamp)
    expected = jac.T @ models.analytic_reference(anharmonic, "qmt", 0, basep) @ jac
    cov_dev = float(np.max(np.abs(G2 - expected) / np.abs(expected)))
    ok &= _report(7, "QMT rank-2 covariant transformation", cov_dev, 1e-6)

    min_eig = float(np.min(np.linalg.eigvalsh(base.qgt)))
    ok &= _report(7, "QGT positive semidefinite (min eigenvalue)", -min_eig, 1e-9)

    from curvedqgt.diffops import FdConfig, d_log_det_g, sigma_from_contraction
    rng3 = np.random.default_rng(47)
    sigma_dev = 0.0
    for model in all_models:
        lamv = model.sample_parameters(rng3)
        axes = [rng3.uniform(0.3, 1.4, size=20) for _ in range(model.dim)]
        for rho in range(model.m):
            s1 = -d_log_det_g(model.metric, lamv, rho, FdConfig(), *axes,
                              in_domain=model.in_domain)
            s2 = sigma_from_contraction(model.metric, lamv, rho, FdConfig(),
                                        *axes, in_domain=model.in_domain)
            sigma_dev = max(sigma_dev, float(np.max(np.abs(s1 - s2))))
    ok &= _report(7, "sigma two-route identity", sigma_dev, 1e-8)

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
    ok &= _report(7, "Berry phase loop vs curvature flux", abs(phase - flux), 1e-4)
    assert ok
