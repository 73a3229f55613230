import dataclasses

import numpy as np
import pytest

from curvedqgt.core import (
    Axis,
    DimensionMismatchError,
    Domain,
    LruCache,
    MetricFamily,
    MetricPositivityError,
    NormalizationWarning,
    WavefunctionFamily,
    validate,
)

from conftest import make_engine


def test_axis_validation():
    with pytest.raises(ValueError):
        Axis(2.0, 1.0)
    with pytest.raises(ValueError):
        Axis(0.0, np.inf, even_fold=True)
    with pytest.raises(ValueError):
        Domain(2, (Axis(),))


def test_domain_transform_roundtrip(anharmonic, morse, coupled):
    """Composing each registered transform with its inverse is identity."""
    for model, lam in ((anharmonic, [1.0, 1.0]), (morse, [1.3, 0.8]),
                       (coupled, [1.0, 0.5, 1.2, 0.9])):
        domain = model.domain_for(np.array(lam))
        for axis in domain.axes:
            tr = axis.transform
            assert tr is not None
            u = np.geomspace(1e-6, 50.0, 40)
            err = np.abs(tr.fwd(tr.inv(u)) - u) / np.maximum(1.0, np.abs(u))
            assert np.max(err) < 1e-12


def test_validate_anharmonic_norm(anharmonic):
    report = validate(anharmonic.psi, anharmonic.metric, anharmonic.domain_for,
                      [np.array([1.0, 1.0])], in_domain=anharmonic.in_domain)
    assert report.checks["norm_deviation"][0] <= 1e-8
    assert report.ok
    assert set(report.checks) == {"route_equivalence", "gauge_invariance",
                                  "connection_shift", "normalization_identity",
                                  "norm_deviation"}


def test_validate_integrates_two_grams_per_point(anharmonic, monkeypatch):
    """One Gram per point serves the tensors, the normalization identity and
    the norm; the gauge-transformed family takes one more."""
    from curvedqgt import geometry

    real_bracket, calls = geometry.GeometryEngine.bracket, []

    def counting_bracket(self, lamv, columns):
        calls.append(lamv.shape)
        return real_bracket(self, lamv, columns)

    monkeypatch.setattr(geometry.GeometryEngine, "bracket", counting_bracket)
    report = validate(anharmonic.psi, anharmonic.metric, anharmonic.domain_for,
                      [np.array([1.0, 1.0]), np.array([1.2, 0.8])],
                      in_domain=anharmonic.in_domain)
    assert report.ok
    assert calls == [(2,)] * 4


def test_validate_fails_a_mis_normalized_family(anharmonic):
    """psi scaled by 1.01 has <psi|psi> = 1.0201: its Grams warn and
    norm_deviation fails."""
    psi = dataclasses.replace(
        anharmonic.psi, eval=lambda lamv, n, x: 1.01 * anharmonic.psi.eval(lamv, n, x),
        analytic_param_grad=lambda lamv, n, rho, x: 1.01 * anharmonic.psi.analytic_param_grad(
            lamv, n, rho, x))
    with pytest.warns(NormalizationWarning, match="not normalized"):
        report = validate(psi, anharmonic.metric, anharmonic.domain_for,
                          [np.array([1.0, 1.0])], in_domain=anharmonic.in_domain)
    deviation, tolerance = report.checks["norm_deviation"]
    assert abs(deviation - 0.0201) < 1e-8 and deviation > tolerance
    assert not report.ok


def test_validate_coupled_norm(coupled):
    report = validate(coupled.psi, coupled.metric, coupled.domain_for,
                      [np.array([1.0, 1.0, 1.0, 1.0])], n=(0, 0),
                      in_domain=coupled.in_domain)
    assert report.checks["norm_deviation"][0] <= 1e-6


def _validate_with_metric(anharmonic, metric):
    return validate(anharmonic.psi, metric, anharmonic.domain_for,
                    [np.array([1.0, 1.0])])


def test_validate_rejects_non_positive_metric(anharmonic):
    bad = MetricFamily(
        dim=1,
        eval=lambda lamv, x: (-np.ones(np.shape(x)))[..., None, None],
        det=lambda lamv, x: -np.ones(np.shape(x)),
    )
    with pytest.raises(MetricPositivityError, match="not positive-definite"):
        _validate_with_metric(anharmonic, bad)


def test_validate_reports_non_finite_metric_location(anharmonic):
    def nan_eval(lamv, x):
        g = 4.0 * lamv[0] * np.square(np.asarray(x, dtype=float))
        g = np.where(np.abs(x) > 1.0, np.nan, g)
        return g[..., None, None]

    bad = MetricFamily(dim=1, eval=nan_eval)
    with pytest.raises(MetricPositivityError) as err:
        _validate_with_metric(anharmonic, bad)
    assert err.value.location is not None


def test_validate_rejects_asymmetric_metric(coupled):
    def skewed(lamv, x, y):
        g = np.array(coupled.metric.eval(lamv, x, y))
        g[..., 0, 1] += 1e-6
        return g

    bad = MetricFamily(dim=2, eval=skewed, det=coupled.metric.det,
                       analytic_log_det_grad=coupled.metric.analytic_log_det_grad)
    with pytest.raises(MetricPositivityError, match="asymmetry") as err:
        validate(coupled.psi, bad, coupled.domain_for,
                 [np.array([1.0, 1.0, 1.0, 1.0])], n=(0, 0))
    assert len(err.value.location) == 2


def test_validate_rejects_non_finite_sigma(anharmonic):
    metric = anharmonic.metric
    bad = dataclasses.replace(
        metric, analytic_log_det_grad=lambda lamv, rho, x: np.full(np.shape(x), np.inf))
    with pytest.raises(MetricPositivityError, match="sigma_0 non-finite"):
        _validate_with_metric(anharmonic, bad)


def test_validate_needs_a_point(anharmonic):
    with pytest.raises(ValueError, match="at least one parameter point"):
        validate(anharmonic.psi, anharmonic.metric, anharmonic.domain_for, [])


def test_validate_nan_residue_fails_its_check(anharmonic, monkeypatch):
    from curvedqgt import fidelity

    monkeypatch.setattr(fidelity, "fidelity_susceptibility",
                        lambda *args, **kw: np.full((2, 2), np.nan))
    report = validate(anharmonic.psi, anharmonic.metric, anharmonic.domain_for,
                      [np.array([1.0, 1.0])], in_domain=anharmonic.in_domain)
    assert np.isnan(report.checks["route_equivalence"][0])
    assert not report.ok


def test_validate_dimension_mismatch(anharmonic, coupled):
    with pytest.raises(DimensionMismatchError) as err:
        validate(coupled.psi, anharmonic.metric, anharmonic.domain_for,
                 [np.array([1.0, 1.0])])
    assert err.value.field_name == "psi.dim"
    with pytest.raises(DimensionMismatchError) as err:
        validate(anharmonic.psi, anharmonic.metric, coupled.domain_for,
                 [np.array([1.0, 1.0, 1.0, 1.0])])
    assert err.value.field_name == "domain.dim"


def test_geometric_tensors_invariants(generalized):
    """Every returned bundle satisfies the type invariants."""
    lam = np.array([1.0, 0.4, 1.1])
    tensors = make_engine(generalized, lam).qgt(lam, (0,))
    res = tensors.invariant_residues()
    assert res["hermiticity"] <= 1e-10
    assert res["qmt_symmetry"] <= 1e-10
    assert res["curvature_antisymmetry"] <= 1e-10
    assert res["qmt_vs_re_qgt"] <= 1e-10
    assert res["curvature_vs_im_qgt"] <= 1e-10
    tensors.check_invariants(atol=1e-10)
    assert tensors.tolerance() >= 1e-10
    assert tensors.fd_steps.shape == (3,)


def test_wavefunction_family_fields(anharmonic):
    assert isinstance(anharmonic.psi, WavefunctionFamily)
    assert anharmonic.psi.analytic_param_grad is not None
    assert anharmonic.psi.broadcasts
    assert [f.name for f in dataclasses.fields(WavefunctionFamily)] == [
        "dim", "eval", "analytic_param_grad", "broadcasts"]


def test_lru_cache_concurrent_counts_and_bound():
    """Eight threads on a small cache: no lost count, bound kept, values right."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    cache = LruCache(8)
    keys = [int(k) for k in np.random.default_rng(5).integers(0, 32, size=4000)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda chunk: [cache.get_or_compute(k, lambda k=k: (k, k * k))
                                                  for k in chunk], keys[i::8])
                       for i in range(8)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(v == (k, k * k) for i, got in enumerate(results)
               for k, v in zip(keys[i::8], got))
    assert cache.hits + cache.misses == len(keys)
    assert len(cache) <= 8
