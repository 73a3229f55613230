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
    sigma_from_log_det,
)


def test_constant_in_parameter_derivative_is_zero():
    fam = WavefunctionFamily(
        dim=1,
        eval=lambda lamv, n, x: np.exp(-np.asarray(x) ** 2 / 2.0) + 0j,
    )
    d = d_psi(fam, (0,), np.array([1.0, 2.0]), 1, FdConfig(), np.array([0.3, 1.1]))
    assert np.max(np.abs(d)) < 1e-10


def test_quartic_ground_state_hand_derivative(anharmonic):
    """d psi_0 / d omega at x=1 equals psi_0 (1/(4w) - lam x^4/2)."""
    lam = np.array([1.0, 1.0])
    x = np.array([1.0])
    psi0 = anharmonic.psi.eval(lam, (0,), x)
    expected = psi0 * (1.0 / 4.0 - 0.5)
    analytic = d_psi(anharmonic.psi, (0,), lam, 1, FdConfig(), x)
    fd = d_psi(anharmonic.psi, (0,), lam, 1, FdConfig(), x, force_fd=True,
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
    lam = np.array([5e-5, 1.0])
    with pytest.raises(ParameterBoundaryError, match="one-sided"):
        d_psi(anharmonic.psi, (0,), lam, 0, FdConfig(), np.array([1.0]),
              in_domain=anharmonic.in_domain, force_fd=True)
    one_sided = d_psi(anharmonic.psi, (0,), lam, 0,
                      FdConfig(base_step=1e-5, scheme="central-2"),
                      np.array([1.0]), in_domain=anharmonic.in_domain,
                      force_fd=True, allow_one_sided=True)
    analytic = d_psi(anharmonic.psi, (0,), lam, 0, FdConfig(), np.array([1.0]))
    assert abs(one_sided[0] - analytic[0]) / abs(analytic[0]) < 1e-3


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
                for rho in range(model.m):
                    ana = d_psi(model.psi, n, lamv, rho, cfg, *axes)
                    fd = d_psi(model.psi, n, lamv, rho, cfg, *axes, force_fd=True,
                               in_domain=model.in_domain)
                    scale = np.max(np.abs(ana)) + 1e-12
                    worst = max(worst, float(np.max(np.abs(ana - fd)) / scale))
            assert worst < 1e-7, f"{model.name} n = {n}: {worst:.2e}"


def test_log_det_grad_examples(anharmonic, morse):
    cfg = FdConfig()
    x = np.array([0.7, 1.4])
    val = d_log_det_g(anharmonic.metric, np.array([2.0, 1.0]), 0, cfg, x,
                      force_fd=True, in_domain=anharmonic.in_domain)
    assert np.max(np.abs(val - 0.5)) < 1e-9

    lam = np.array([1.5, 1.0])
    val = d_log_det_g(morse.metric, lam, 0, cfg, x, force_fd=True,
                      in_domain=morse.in_domain)
    assert np.max(np.abs(val - (2.0 / 1.5 - x))) < 1e-9

    # a parameter the metric does not contain
    val = d_log_det_g(anharmonic.metric, np.array([2.0, 1.0]), 1, cfg, x,
                      force_fd=True, in_domain=anharmonic.in_domain)
    assert np.max(np.abs(val)) < 1e-10


def test_sigma_two_route_identity(all_models):
    """-d ln det g equals the inverse-metric contraction route."""
    rng = np.random.default_rng(5)
    cfg = FdConfig(base_step=1e-4, scheme="central-4")
    for model in all_models:
        for _ in range(4):
            lamv = model.sample_parameters(rng)
            axes = [rng.uniform(0.3, 1.5, size=25) for _ in range(model.dim)]
            for rho in range(model.m):
                s1 = sigma_from_log_det(model.metric, lamv, rho, cfg, *axes,
                                        force_fd=True,
                                        in_domain=model.in_domain)
                s2 = sigma_from_contraction(model.metric, lamv, rho, cfg, *axes,
                                            in_domain=model.in_domain)
                assert np.max(np.abs(s1 - s2)) < 1e-8, (model.name, rho)


def test_step_scales_with_parameter():
    cfg = FdConfig(base_step=1e-4)
    assert cfg.step(0.5) == 1e-4
    assert cfg.step(-30.0) == pytest.approx(3e-3)


def test_config_validation():
    with pytest.raises(ValueError):
        FdConfig(base_step=0.0)
    with pytest.raises(ValueError):
        FdConfig(scheme="upwind")
    with pytest.raises(ValueError):
        FdConfig(scheme="richardson")
