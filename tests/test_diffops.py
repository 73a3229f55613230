import math

import numpy as np
import pytest

from curvedqgt.core import ParameterBoundaryError, WavefunctionFamily
from curvedqgt.diffops import (
    FdConfig,
    d_log_det_g,
    d_psi,
    fd_derivative,
    sigma_from_contraction,
)


def _fd_psi(psi, n, lamv, rho, cfg, *axes, in_domain):
    """The finite-difference d psi_n / d lambda_rho, bypassing the analytic one."""
    return fd_derivative(lambda p: psi.eval(p, n, *axes), lamv, rho, cfg,
                         in_domain=in_domain)


def _fd_log_det(metric, lamv, rho, cfg, *axes, in_domain):
    """The finite-difference d ln det g / d lambda_rho."""
    return fd_derivative(lambda p: np.log(metric.det_at(p, *axes)), lamv, rho, cfg,
                         in_domain=in_domain)


def test_constant_in_parameter_derivative_is_zero():
    fam = WavefunctionFamily(
        dim=1,
        eval=lambda lamv, n, x: np.exp(-np.asarray(x) ** 2 / 2.0) + 0j,
    )
    d = d_psi(fam, (0,), np.array([1.0, 2.0]), FdConfig(), np.array([0.3, 1.1]))
    assert d.shape == (2, 2)
    assert np.max(np.abs(d)) < 1e-10


@pytest.mark.parametrize("unit, dtype", [(1.0, np.float64), (1.0 + 0j, np.complex128)])
def test_fd_gradient_keeps_the_dtype_of_eval(unit, dtype):
    """Without analytic_param_grad, d_psi's central differences of a real
    family stay float64, and those of a complex family complex128."""
    fam = WavefunctionFamily(
        dim=1, eval=lambda lamv, n, x: unit * np.exp(-lamv[0] * np.asarray(x) ** 2 / 2.0))
    x = np.array([0.3, 1.1])
    d = d_psi(fam, (0,), np.array([1.0]), FdConfig(), x)
    assert d.dtype == dtype and d.shape == (1, 2)
    assert np.max(np.abs(d[0] + 0.5 * x * x * np.exp(-x * x / 2.0))) < 1e-10


def test_quartic_ground_state_hand_derivative(anharmonic):
    """d psi_0 / d omega at x=1 equals psi_0 (1/(4w) - lam x^4/2)."""
    lam = np.array([1.0, 1.0])
    x = np.array([1.0])
    psi0 = anharmonic.psi.eval(lam, (0,), x)
    expected = psi0 * (1.0 / 4.0 - 0.5)
    analytic = d_psi(anharmonic.psi, (0,), lam, FdConfig(), x)[1]
    fd = _fd_psi(anharmonic.psi, (0,), lam, 1, FdConfig(), x,
                 in_domain=anharmonic.in_domain)
    assert abs(analytic[0] - expected[0]) < 1e-12
    assert abs(fd[0] - expected[0]) < 1e-8


def test_fourth_order_convergence_rate():
    """Error of the 4th-order stencil on e^lam shrinks like h^4."""
    errors = []
    steps = (1e-2, 5e-3, 2.5e-3)
    for h in steps:
        cfg = FdConfig(base_step=h, scheme="central-4")
        d = fd_derivative(lambda lv: math.exp(lv[0]), np.array([0.0]), 0, cfg)
        errors.append(abs(d - 1.0))
    order = np.polyfit(np.log(steps), np.log(errors), 1)[0]
    assert order >= 3.7


def test_boundary_guard_requires_explicit_opt_in(anharmonic):
    """A stencil that would cross the parameter boundary raises; there is no
    one-sided fallback to opt in to."""
    lam = np.array([5e-5, 1.0])
    with pytest.raises(ParameterBoundaryError, match="crosses a domain boundary"):
        _fd_psi(anharmonic.psi, (0,), lam, 0, FdConfig(), np.array([1.0]),
                in_domain=anharmonic.in_domain)


def test_analytic_grad_matches_fd_on_all_models(all_models, flat):
    """FD and analytic parameter derivatives agree at random samples, for
    the ground state and the excited states a model supports, on both
    signs of every coordinate."""
    rng = np.random.default_rng(11)
    cfg = FdConfig(base_step=1e-4, scheme="central-4")
    for model in [*all_models, flat]:
        for n in [(0,) * model.dim, (1,), (4,), (12,)]:
            if not model.supported_n(n):
                continue
            worst = 0.0
            for _ in range(5):
                lamv = model.sample_parameters(rng)
                axes = [rng.uniform(0.2, 1.6, size=20) * rng.choice([-1.0, 1.0], size=20)
                        for _ in range(model.dim)]
                grad = d_psi(model.psi, n, lamv, cfg, *axes)
                for rho in range(model.m):
                    ana = grad[rho]
                    fd = _fd_psi(model.psi, n, lamv, rho, cfg, *axes,
                                 in_domain=model.in_domain)
                    scale = np.max(np.abs(ana)) + 1e-12
                    worst = max(worst, float(np.max(np.abs(ana - fd)) / scale))
            assert worst < 1e-7, f"{model.name} n = {n}: {worst:.2e}"



def test_coupled_grad_matches_fd_on_both_signs_of_ab(coupled):
    """FD and analytic derivatives agree on the coupled model at a < 0 and
    at b < 0, where a b < 0 swaps the arctan argument of the normalization;
    the sample window holds only a, b > 0."""
    rng = np.random.default_rng(13)
    cfg = FdConfig(base_step=1e-4, scheme="central-4")
    axes = [rng.uniform(0.2, 1.6, size=20) * rng.choice([-1.0, 1.0], size=20)
            for _ in range(2)]
    for lamv in ([1.0, 0.5, 1.2, -1.4], [1.0, 0.5, -1.2, 1.4], [0.8, 0.3, -1.1, -0.9]):
        lamv = np.array(lamv)
        grad = d_psi(coupled.psi, (0, 0), lamv, cfg, *axes)
        for rho in range(coupled.m):
            fd = _fd_psi(coupled.psi, (0, 0), lamv, rho, cfg, *axes,
                         in_domain=coupled.in_domain)
            gap = np.max(np.abs(grad[rho] - fd)) / (np.max(np.abs(grad[rho])) + 1e-12)
            assert gap < 1e-7, f"{lamv}, parameter {rho}: {gap:.2e}"

def test_log_det_grad_examples(anharmonic, morse):
    cfg = FdConfig()
    x = np.array([0.7, 1.4])
    val = _fd_log_det(anharmonic.metric, np.array([2.0, 1.0]), 0, cfg, x,
                      in_domain=anharmonic.in_domain)
    assert np.max(np.abs(val - 0.5)) < 1e-9

    lam = np.array([1.5, 1.0])
    val = _fd_log_det(morse.metric, lam, 0, cfg, x, in_domain=morse.in_domain)
    assert np.max(np.abs(val - (2.0 / 1.5 - x))) < 1e-9

    # a parameter the metric does not contain
    val = _fd_log_det(anharmonic.metric, np.array([2.0, 1.0]), 1, cfg, x,
                      in_domain=anharmonic.in_domain)
    assert np.max(np.abs(val)) < 1e-10


def test_sigma_two_route_identity(all_models):
    """-d ln det g equals the inverse-metric contraction route."""
    rng = np.random.default_rng(5)
    cfg = FdConfig(base_step=1e-4, scheme="central-4")
    for model in all_models:
        for _ in range(4):
            lamv = model.sample_parameters(rng)
            axes = [rng.uniform(0.3, 1.5, size=25) for _ in range(model.dim)]
            s1 = -d_log_det_g(model.metric, lamv, cfg, *axes, in_domain=model.in_domain)
            s2 = sigma_from_contraction(model.metric, lamv, cfg, *axes,
                                        in_domain=model.in_domain)
            assert s2.shape == (model.m, 25)
            assert np.max(np.abs(s1 - s2)) < 1e-8, model.name


def test_step_scales_with_parameter():
    cfg = FdConfig(base_step=1e-4)
    assert cfg.step(0.5) == 1e-4
    assert cfg.step(-30.0) == pytest.approx(3e-3)


def test_config_validation():
    with pytest.raises(ValueError):
        FdConfig(base_step=0.0)
    for step in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            FdConfig(base_step=step)
    with pytest.raises(ValueError):
        FdConfig(scheme="upwind")
    with pytest.raises(ValueError):
        FdConfig(scheme="richardson")
