import math

import numpy as np
import pytest
from scipy import integrate as scipy_integrate

from curvedqgt import models
from curvedqgt.core import NoAnalyticReferenceError, ParameterBoundaryError
from curvedqgt.models import (
    coupled_ground_state,
    hermite,
    morse_critical_omega,
    phase_portrait_hamiltonian,
)

from conftest import make_engine


# ---------------------------------------------------------------------------
# Hermite polynomials
# ---------------------------------------------------------------------------

def test_hermite_low_orders():
    z = np.linspace(-2, 2, 9)
    assert np.all(hermite(0, z) == 1.0)
    assert hermite(1, 0.5) == pytest.approx(1.0)
    assert hermite(2, 1.0) == pytest.approx(2.0)
    assert hermite(3, 0.7) == pytest.approx(8 * 0.7 ** 3 - 12 * 0.7)


def test_hermite_range_guard():
    with pytest.raises(ValueError):
        hermite(31, 0.0)
    with pytest.raises(ValueError):
        hermite(-1, 0.0)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def test_registry_names():
    names = models.available_models()
    for expected in ("anharmonic-1d", "morse-like", "coupled-anharmonic-2d",
                     "generalized-anharmonic"):
        assert expected in names
    with pytest.raises(KeyError):
        models.get_model("no-such-model")


def test_hbar_scaling():
    m = models.get_model("anharmonic-1d", hbar=2.0)
    lam = np.array([1.0, 1.0])
    G = make_engine(m, lam).qmt(lam, (0,))
    # the metric components are hbar-free for this family
    assert np.max(np.abs(G - 0.125)) < 1e-8
    E = models.analytic_reference(m, "energy", 1, lam)
    assert E == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# Analytic references
# ---------------------------------------------------------------------------

def test_reference_anharmonic_qmt():
    m = models.get_model("anharmonic-1d")
    ref = models.analytic_reference(m, "qmt", 1, np.array([1.0, 2.0]))
    expected = 3.0 * np.array([[1 / 8, 1 / 16], [1 / 16, 1 / 32]])
    assert np.allclose(ref, expected)


def test_reference_morse_components():
    m = models.get_model("morse-like")
    assert models.analytic_reference(m, "qmt_ww", 0, np.array([1.0, 2.0])) \
        == pytest.approx(1.0 / 32.0)
    val = models.analytic_reference(m, "qmt_ll", 0, np.array([1.0, 1.0]))
    assert val == pytest.approx(0.36701671484320453, abs=1e-14)


def test_reference_generalized_curvature_consistency():
    """The curvature reference is the exterior derivative of the connection.

    Its overall normalization is therefore twice the tabulated matrix that
    circulates with this model (see the curvature discussion in the
    registry docstring); the spot value is checked against d(beta).
    """
    m = models.get_model("generalized-anharmonic")
    lam = np.array([1.0, 0.0, 1.0])
    ref = models.analytic_reference(m, "berry_curvature", 1, lam)
    expected = (3.0 / 8.0) * np.array([
        [0.0, 2.0, 0.0], [-2.0, 0.0, -1.0], [0.0, 1.0, 0.0],
    ])
    assert np.allclose(ref, expected)


def test_references_satisfy_tensor_invariants(anharmonic, generalized):
    """Reference matrices carry the symmetry structure of the live tensors."""
    rng = np.random.default_rng(9)
    for model in (anharmonic, generalized):
        for n in (0, 1):
            lamv = model.sample_parameters(rng)
            G = models.analytic_reference(model, "qmt", n, lamv)
            F = models.analytic_reference(model, "berry_curvature", n, lamv)
            assert np.max(np.abs(G - G.T)) < 1e-14
            assert np.max(np.abs(F + F.T)) < 1e-14
            assert np.all(np.linalg.eigvalsh(G) > -1e-12)


def test_reference_unavailable_raises():
    m = models.get_model("morse-like")
    with pytest.raises(NoAnalyticReferenceError):
        models.analytic_reference(m, "qmt", 0, np.array([1.0, 1.0]))
    with pytest.raises(NoAnalyticReferenceError):
        models.analytic_reference(m, "energy", 1, np.array([1.0, 1.0]))
    c = models.get_model("coupled-anharmonic-2d")
    with pytest.raises(NoAnalyticReferenceError):
        models.analytic_reference(c, "qmt", (0, 0), np.array([1.0, 1.0, 1.0, 1.0]))


# ---------------------------------------------------------------------------
# Coupled ground state
# ---------------------------------------------------------------------------

def test_coupled_ground_state_normalized():
    val, _ = scipy_integrate.dblquad(
        lambda y, x: 4.0 * x * y * coupled_ground_state(x, y, 1.0, 1.0, 1.0, 1.0) ** 2,
        0, np.inf, 0, np.inf, epsabs=1e-10,
    )
    assert abs(val - 1.0) < 1e-6


def test_coupled_exchange_symmetry():
    xs = np.linspace(0.1, 1.4, 7)
    ys = np.linspace(0.2, 1.2, 7)
    a, b = 1.3, 0.7
    v1 = coupled_ground_state(xs, ys, 1.0, 0.8, a, b)
    v2 = coupled_ground_state(ys, xs, 1.0, 0.8, b, a)
    assert np.allclose(v1, v2, atol=1e-14)


def test_coupled_decoupling_factorizes(anharmonic):
    """At k2 = 0 the state is a product of two quartic ground states."""
    k1, a, b = 1.44, 1.1, 0.9
    xs = np.linspace(0.1, 1.5, 6)
    ys = np.linspace(0.2, 1.3, 6)
    prod = coupled_ground_state(xs, ys, k1, 0.0, a, b)
    om = math.sqrt(k1)
    fx = anharmonic.psi.eval(np.array([a * a / 4.0, om]), (0,), xs)
    fy = anharmonic.psi.eval(np.array([b * b / 4.0, om]), (0,), ys)
    assert np.max(np.abs(prod - (fx * fy).real)) < 1e-12


def test_coupled_negative_scale_parameters(coupled):
    """Negative a or b swaps the normal-mode roles; norm must stay 1."""
    from conftest import make_engine as _mk

    for lam in ([1.0, 0.5, -1.1, 0.9], [1.3, 0.4, -0.8, -1.2]):
        lamv = np.array(lam)
        norm, _ = _mk(coupled, lamv).norm(lamv, (0, 0))
        assert abs(norm - 1.0) < 1e-8


def test_coupled_domain_violation():
    with pytest.raises(ParameterBoundaryError):
        coupled_ground_state(1.0, 1.0, -1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ParameterBoundaryError):
        coupled_ground_state(1.0, 1.0, 1.0, -0.6, 1.0, 1.0)
    with pytest.raises(ParameterBoundaryError):
        coupled_ground_state(1.0, 1.0, 1.0, 1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Coupled-model metric properties
# ---------------------------------------------------------------------------

def test_coupled_qmt_exchange_and_determinants(coupled):
    lam = np.array([1.0, 1.0, 1.3, 0.7])
    G = make_engine(coupled, lam).qmt(lam, (0, 0))
    swapped = np.array([1.0, 1.0, 0.7, 1.3])
    G_swapped = make_engine(coupled, swapped).qmt(swapped, (0, 0))
    perm = [0, 1, 3, 2]
    assert np.max(np.abs(G - G_swapped[np.ix_(perm, perm)])) < 1e-5
    assert abs(np.linalg.det(G)) < 1e-8
    sub = np.linalg.det(G[:3, :3])
    assert sub > 0.0


def test_coupled_decoupling_limit(coupled):
    """As k2 -> 0 the a-b coupling dies and k1^2 G_k1k1 levels off."""
    values = []
    for k2 in (1e-2, 1e-3, 1e-4):
        lam = np.array([1.0, k2, 1.0, 1.0])
        G = make_engine(coupled, lam).qmt(lam, (0, 0))
        values.append((abs(G[2, 3]), G[0, 0]))
    gab = [v[0] for v in values]
    assert gab[0] > gab[1] > gab[2]
    assert gab[2] < 1e-4
    gk = [v[1] for v in values]
    spread = (max(gk) - min(gk)) / gk[-1]
    assert spread < 0.02


def test_morse_determinant_positive(morse):
    """Unlike the quartic family, the exponential-metric QMT is regular."""
    for lam, om in ((0.7, 0.8), (1.0, 1.0), (1.6, 1.8)):
        lamv = np.array([lam, om])
        G = make_engine(morse, lamv).qmt(lamv, (0,))
        assert np.linalg.det(G) > 0.0


def test_morse_stack_with_different_underflow_masks_matches_points(morse):
    """Each point of a stack floors lam x at -700 on its own nodes: a
    broadcast call gives every point the values it gets alone, up to the
    last bit of a per-point power."""
    stack = np.array([[1.0, 1.0], [1.6, 0.9], [2.5, 1.2]])
    x = np.linspace(-800.0, 5.0, 200)
    masks = stack[:, :1] * x > -700.0
    assert len({int(row.sum()) for row in masks}) == 3
    lam = stack.T.reshape(2, 3, 1)
    calls = [
        lambda p: morse.psi.eval(p, (0,), x),
        lambda p: morse.psi.analytic_param_grad(p, (0,), 0, x),
        lambda p: morse.psi.analytic_param_grad(p, (0,), 1, x),
        lambda p: morse.metric.det(p, x),
        lambda p: morse.metric.analytic_log_det_grad(p, 0, x),
        lambda p: morse.metric.analytic_log_det_grad(p, 1, x),
    ]
    for call in calls:
        out = call(lam)
        assert out.shape == (3, x.size)
        for row, p in zip(out, stack):
            np.testing.assert_allclose(row, call(p), rtol=1e-15, atol=0.0)


def test_coupled_k1_scaling_when_decoupled(coupled):
    """Near k2 = 0 the k1-k1 component scales like 1/k1^2."""
    k2 = 1e-4
    vals = {}
    for k1 in (0.8, 1.6):
        lamv = np.array([k1, k2, 1.0, 1.0])
        G = make_engine(coupled, lamv).qmt(lamv, (0, 0))
        vals[k1] = G[0, 0] * k1 * k1
    assert abs(vals[0.8] - vals[1.6]) / vals[1.6] < 0.02


# ---------------------------------------------------------------------------
# Phase portrait
# ---------------------------------------------------------------------------

def test_phase_portrait_turning_point():
    omega, lam, energy = 1.0, 1.0, 1.0
    x_turn = -math.log(2.0 * energy / omega ** 2) / lam
    assert phase_portrait_hamiltonian(x_turn, 0.0, omega, lam) \
        == pytest.approx(energy, abs=1e-12)


def test_phase_portrait_parity():
    rng = np.random.default_rng(2)
    x = rng.uniform(-2, 2, 100)
    p = rng.uniform(-2, 2, 100)
    h1 = phase_portrait_hamiltonian(x, p, 1.3, 0.8)
    h2 = phase_portrait_hamiltonian(-x, p, 1.3, -0.8)
    assert np.allclose(h1, h2, rtol=1e-13)


def test_phase_portrait_nonnegative():
    rng = np.random.default_rng(4)
    x = rng.uniform(-3, 3, 200)
    p = rng.uniform(-3, 3, 200)
    assert np.all(phase_portrait_hamiltonian(x, p, 0.7, 1.2) >= 0.0)


def test_phase_portrait_needs_nonzero_lambda():
    with pytest.raises(ParameterBoundaryError):
        phase_portrait_hamiltonian(0.0, 0.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# Critical point of the off-diagonal Morse component
# ---------------------------------------------------------------------------

def test_morse_critical_omega_redetected():
    w0 = morse_critical_omega(lam=0.05, bracket=(0.9, 1.2), xtol=1e-7)
    assert abs(w0 - 1.037) < 1e-3


def test_morse_critical_omega_matches_closed_form():
    """The engine's root sits on omega_c = (hbar/4) e^(2 - gamma_E)."""
    omega_c = 0.25 * math.exp(2.0 - np.euler_gamma)
    assert omega_c == pytest.approx(1.0371639053380866, abs=1e-15)
    w0 = morse_critical_omega(lam=0.05, bracket=(0.9, 1.2), xtol=1e-13)
    assert abs(w0 - 1.037) < 1e-3
    assert abs(w0 - omega_c) < 1e-12


@pytest.mark.parametrize("hbar", [0.7, 1.0, 2.0])
def test_morse_off_diagonal_matches_closed_form(hbar):
    model = models.get_model("morse-like", hbar=hbar)
    for lam in ((-0.8, 0.3), (0.05, 1.0), (0.5, 1.7), (1.0, 1.0), (1.3, 3.0),
                (2.0, 0.6)):
        lamv = np.array(lam)
        qmt = make_engine(model, lamv).qmt(lamv, (0,))
        ref = models.analytic_reference(model, "qmt_lw", 0, lamv)
        assert abs(qmt[0, 1] - ref) <= 1e-13 * np.max(np.abs(qmt)), (hbar, lam)
