import dataclasses

import numpy as np
import pytest

from curvedqgt import fidelity as fid
from curvedqgt import geometry as geo
from curvedqgt.core import (
    Domain,
    FitResidualError,
    LinearTermWarning,
    MetricFamily,
    MetricPositivityError,
    ParameterBoundaryError,
    WavefunctionFamily,
)
from curvedqgt.fidelity import SusceptibilityConfig

from conftest import make_engine


def test_overlap_at_same_point_is_one(anharmonic):
    lam = np.array([1.0, 1.0])
    val, _ = fid.overlap(anharmonic.psi, anharmonic.metric,
                         anharmonic.domain_for(lam), lam, lam, (0,))
    assert abs(val - 1.0) < 1e-8


def test_overlap_strictly_below_one_for_distinct_states(anharmonic):
    lam = np.array([1.0, 1.0])
    lam2 = np.array([1.0, 1.01])
    val, _ = fid.overlap(anharmonic.psi, anharmonic.metric,
                         anharmonic.domain_for(lam), lam, lam2, (0,))
    assert abs(val) < 1.0


def test_overlap_second_order_expansion(anharmonic):
    """|overlap|^2 follows the metric quadratic form to cubic order."""
    lam = np.array([1.0, 1.0])
    d = np.array([7e-3, -4e-3])
    G = make_engine(anharmonic, lam + 0.5 * d).qmt(lam + 0.5 * d, (0,))
    val, _ = fid.overlap(anharmonic.psi, anharmonic.metric,
                         anharmonic.domain_for(lam), lam, lam + d, (0,))
    predicted = 1.0 - 0.5 * d @ G @ d
    assert abs(abs(val) - predicted) < np.linalg.norm(d) ** 3


def test_susceptibility_anharmonic_value(anharmonic):
    lam = np.array([1.0, 1.0])
    chi = fid.fidelity_susceptibility(
        anharmonic.psi, anharmonic.metric, anharmonic.domain_for(lam), lam,
        (0,), in_domain=anharmonic.in_domain,
    )
    assert np.max(np.abs(chi - 0.125)) < 1e-4


def test_susceptibility_matches_morse_metric(morse, engine_factory):
    lam = np.array([1.0, 1.0])
    chi = fid.fidelity_susceptibility(
        morse.psi, morse.metric, morse.domain_for(lam), lam, (0,),
        in_domain=morse.in_domain,
    )
    G = engine_factory(morse, lam).qmt(lam, (0,))
    assert abs(chi[0, 1] - G[0, 1]) < 1e-4
    assert np.max(np.abs(chi - G)) < 1e-4


def _two_parameter_flat_family():
    metric = MetricFamily(
        dim=1,
        eval=lambda lamv, x: np.ones(np.shape(x))[..., None, None],
        det=lambda lamv, x: np.ones(np.shape(x)),
        analytic_log_det_grad=lambda lamv, rho, x: np.zeros(np.shape(x)),
    )

    def ev(lamv, n, x):
        om = lamv[0]
        x = np.asarray(x, dtype=float)
        return (om / np.pi) ** 0.25 * np.exp(-om * x * x / 2.0) + 0j

    return WavefunctionFamily(dim=1, eval=ev), metric


def test_susceptibility_unused_parameter_row_vanishes():
    psi, metric = _two_parameter_flat_family()
    lam = np.array([1.0, 0.5])
    chi = fid.fidelity_susceptibility(psi, metric, Domain.full_line(), lam, (0,))
    assert np.max(np.abs(chi[1, :])) < 1e-6
    assert np.max(np.abs(chi[:, 1])) < 1e-6
    assert abs(chi[0, 0] - 0.125) < 1e-4


@pytest.mark.filterwarnings("ignore::curvedqgt.core.LinearTermWarning")
def test_step_halving_second_order(anharmonic):
    """chi estimates tighten by about 4x per step halving.

    Single-step stencils cannot separate the cubic contamination from the
    linear diagnostic, so its warning is expected noise here.
    """
    lam = np.array([1.0, 1.0])
    devs = []
    for step in (2e-2, 1e-2):
        chi = fid.fidelity_susceptibility(
            anharmonic.psi, anharmonic.metric, anharmonic.domain_for(lam), lam,
            (0,), sus_cfg=SusceptibilityConfig(delta_steps=(step,)),
            in_domain=anharmonic.in_domain,
        )
        devs.append(abs(chi[0, 0] - 0.125))
    ratio = devs[0] / devs[1]
    assert 3.0 < ratio < 5.0


def test_residual_error_raised(anharmonic):
    lam = np.array([1.0, 1.0])
    cfg = SusceptibilityConfig(delta_steps=(0.4, 0.2, 0.1),
                               residual_threshold=1e-9)
    with pytest.raises(FitResidualError):
        fid.fidelity_susceptibility(
            anharmonic.psi, anharmonic.metric, anharmonic.domain_for(lam),
            lam, (0,), sus_cfg=cfg, in_domain=anharmonic.in_domain,
        )


def test_stencil_respects_parameter_domain(anharmonic):
    lam = np.array([5e-3, 1.0])
    with pytest.raises(ParameterBoundaryError):
        fid.fidelity_susceptibility(
            anharmonic.psi, anharmonic.metric, anharmonic.domain_for(lam),
            lam, (0,), in_domain=anharmonic.in_domain,
        )


def test_linear_term_flags_norm_drift(anharmonic):
    """A family whose norm drifts with the parameter trips the diagnostic."""
    drifting = WavefunctionFamily(
        dim=1,
        eval=lambda lamv, n, x: (1.0 + 0.3 * (lamv[0] - 1.0))
        * anharmonic.psi.eval(lamv, n, x),
    )
    lam = np.array([1.0, 1.0])
    with pytest.warns(LinearTermWarning):
        fid.fidelity_susceptibility(
            drifting, anharmonic.metric, anharmonic.domain_for(lam), lam, (0,),
            in_domain=anharmonic.in_domain,
        )


def test_non_positive_metric_rejected(flat):
    """det g < 0 is a typed failure on the fidelity route too, as in the
    bracket route, not a NaN found mid-integration."""
    broken = dataclasses.replace(
        flat,
        metric=MetricFamily(
            dim=1,
            eval=lambda lamv, x: -np.ones(np.shape(x))[..., None, None],
            det=lambda lamv, x: -np.ones(np.shape(x)),
        ),
    )
    lam = np.array([1.0])
    with pytest.raises(MetricPositivityError):
        fid.fidelity_susceptibility(broken.psi, broken.metric,
                                    broken.domain_for(lam), lam, (0,),
                                    in_domain=broken.in_domain)


def test_config_validation():
    with pytest.raises(ValueError):
        SusceptibilityConfig(delta_steps=(1e-2, -1e-3))


@pytest.mark.parametrize("kwargs", [{"delta_steps": ()}, {"residual_threshold": 0.0},
                                    {"residual_threshold": -1.0}])
def test_config_rejects_empty_steps_and_non_positive_threshold(kwargs):
    with pytest.raises(ValueError):
        SusceptibilityConfig(**kwargs)
