import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate as scipy_integrate

from curvedqgt import geometry as geo
from curvedqgt import models
from curvedqgt import spectrum as sp
from curvedqgt.core import LevelCrossingError, MetricFamily, MetricPositivityError
from curvedqgt.diffops import FdConfig
from curvedqgt.quadrature import QuadratureConfig


def test_flat_oscillator_ground_state(flat):
    levels = sp.model_spectrum(flat, np.array([1.0]), 1, n_points=2000)
    assert abs(levels[0][0] - 0.5) < 1e-5


def test_anharmonic_spectrum_and_gaps(anharmonic):
    lam = np.array([1.0, 1.0])
    levels = sp.model_spectrum(anharmonic, lam, 4, n_points=2000)
    for n, (e, res) in enumerate(levels):
        assert abs(e - (n + 0.5)) / (n + 0.5) < 1e-4
        assert res < 1e-8
    gaps = np.diff([e for e, _ in levels])
    assert np.max(np.abs(gaps - 1.0)) < 1e-4


def test_morse_ground_level(morse):
    for om in (1.0, 2.0):
        levels = sp.model_spectrum(morse, np.array([1.0, om]), 1, n_points=2000)
        assert abs(levels[0][0] - 0.5 * om) / (0.5 * om) < 1e-4


def test_generalized_similarity_spectrum(generalized):
    """First-order coupling removed by the phase similarity transform."""
    lam = np.array([1.0, 0.5, 1.0])
    om = math.sqrt(1.0 - 0.25)
    levels = sp.model_spectrum(generalized, lam, 3, n_points=2000)
    for n, (e, _) in enumerate(levels):
        assert abs(e - (n + 0.5) * om) / ((n + 0.5) * om) < 1e-4


def test_eigenvector_w_orthonormality(anharmonic):
    lam = np.array([1.0, 1.0])
    grid = sp.make_grid(anharmonic, lam, 1500, n_max=8).with_boundary("neumann")
    dh = sp.build_hamiltonian(anharmonic, grid)
    pairs = sp.eigensolve(dh, 4)
    vecs = np.stack([phi for _, phi, _ in pairs], axis=1)
    gram = vecs.T @ (dh.weights[:, None] * vecs)
    assert np.max(np.abs(gram - np.eye(4))) < 1e-8


def test_grid_refinement_convergence(anharmonic):
    lam = np.array([1.0, 1.0])
    e_coarse = sp.model_spectrum(anharmonic, lam, 1, n_points=1000)[0][0]
    e_fine = sp.model_spectrum(anharmonic, lam, 1, n_points=2000)[0][0]
    assert abs(e_coarse - 0.5) / abs(e_fine - 0.5) >= 3.5


def test_grid_covers_state_mass(anharmonic):
    """The grid span holds all but 1e-10 of the ground-state mass."""
    lam = np.array([1.0, 1.0])
    grid = sp.make_grid(anharmonic, lam, 800, n_max=6)
    x_hi = float(grid.x_of(np.array([grid.u_hi]))[0])
    mass, _ = scipy_integrate.quad(
        lambda x: float(
            anharmonic.metric.sqrt_det(lam, np.array([x]))[0]
            * abs(anharmonic.psi.eval(lam, (0,), np.array([x]))[0]) ** 2
        ),
        0.0, x_hi, limit=200,
    )
    assert 2.0 * mass >= 1.0 - 1e-10
    assert grid.n >= 500


def test_eigensolve_bounds():
    flat = models.get_model("flat-oscillator-1d")
    grid = sp.make_grid(flat, np.array([1.0]), 600)
    dh = sp.build_hamiltonian(flat, grid)
    assert sp.eigensolve(dh, 0) == []
    with pytest.raises(ValueError):
        sp.eigensolve(dh, 11)
    coarse = sp.build_hamiltonian(flat, sp.make_grid(flat, np.array([1.0]), 3))
    with pytest.raises(ValueError, match="on 3 points"):
        sp.eigensolve(coarse, 4)
    with pytest.raises(ValueError, match="at least one point"):
        sp.make_grid(flat, np.array([1.0]), 0)


@pytest.mark.parametrize("name,lam,cap", [
    ("flat-oscillator-1d", [1.0], 10), ("morse-like", [1.0, 1.0], 10),
    ("anharmonic-1d", [1.0, 1.0], 20), ("generalized-anharmonic", [1.0, 0.3, 1.2], 20),
])
def test_spectrum_raises_beyond_level_cap(name, lam, cap):
    """Asking for more levels than the passes solve raises, naming the cap."""
    model = models.get_model(name)
    with pytest.raises(ValueError, match=f"0 to {cap} levels; asked for {cap + 1}"):
        sp.model_spectrum(model, np.array(lam), cap + 1)
    with pytest.raises(ValueError, match=f"0 to {cap} levels"):
        sp.model_spectrum(model, np.array(lam), -1)


_SPECTRAL_POINTS = [
    ("flat-oscillator-1d", [1.0]), ("morse-like", [1.0, 1.0]),
    ("anharmonic-1d", [1.0, 1.0]), ("generalized-anharmonic", [1.0, 0.3, 1.2]),
]


@pytest.mark.parametrize("name,lam", _SPECTRAL_POINTS[2:])
def test_split_passes_match_full_merge(name, lam):
    """Interlacing: k levels take ceil(k/2) Neumann and floor(k/2) Dirichlet
    levels, the same as merging both passes solved to 10 levels each."""
    model = models.get_model(name)
    lamv = np.array(lam)
    for k in range(1, 21):
        grid = sp.make_grid(model, lamv, 400, n_max=2 * k + 3)
        full = sorted(
            (e, idx)
            for idx, left in enumerate(model.spectral.left_boundaries)
            for e, _, _ in sp.eigensolve(
                sp.build_hamiltonian(model, grid.with_boundary(left)), 10)
        )[:k]
        split = sp.solve_levels(model, lamv, k, grid=grid)
        assert [idx for _, idx in full] == [idx for *_, idx in split]
        np.testing.assert_allclose([e for e, *_ in split], [e for e, _ in full],
                                   rtol=1e-10)


@pytest.mark.parametrize("name,lam", _SPECTRAL_POINTS)
def test_seeded_polish_matches_bisection(name, lam, monkeypatch):
    """At 40,000 points each pass is polished from a 2,500-point solve; its
    levels match bisection on the same matrix, with no larger residuals."""
    model = models.get_model(name)
    lamv = np.array(lam)
    grid = sp.make_grid(model, lamv, 40000, n_max=23)
    boundaries = model.spectral.left_boundaries
    passes = [(grid.with_boundary(left), count)
              for left, count in zip(boundaries, sp._pass_levels(boundaries, 10))]
    want = [sp.eigensolve(sp.build_hamiltonian(model, g), count) for g, count in passes]
    solved_on = []
    bisect = sp.eigensolve
    monkeypatch.setattr(sp, "eigensolve",
                        lambda dh, k: solved_on.append(dh.grid.n) or bisect(dh, k))
    got = [sp._solve_pass(model, g, lamv, count) for g, count in passes]
    assert solved_on == [2500] * len(passes)
    for got_pass, want_pass in zip(got, want):
        np.testing.assert_allclose([e for e, _, _ in got_pass],
                                   [e for e, _, _ in want_pass], rtol=1e-8)
        assert max(r for *_, r in got_pass) <= max(r for *_, r in want_pass)


def test_polish_falls_back_when_sturm_count_disagrees(flat, monkeypatch):
    """Seeds that skip a level, or sit between two levels, polish to real
    eigenpairs that are not the lowest; the Sturm count rejects them and
    bisection solves the pass."""
    from scipy.linalg import lapack

    lam = np.array([1.0])
    grid = sp.make_grid(flat, lam, 4096)
    coarse = grid.resampled(256)
    seed = sp.eigensolve(sp.build_hamiltonian(flat, coarse), 3)
    dh = sp.build_hamiltonian(flat, grid)
    counts = []
    real_dstebz = lapack.dstebz

    def counted(*args):
        out = real_dstebz(*args)
        if args[2] == 1:  # range "V": a Sturm count over an interval
            counts.append(out[0])
        return out

    monkeypatch.setattr(lapack, "dstebz", counted)
    (e0, _, _), (e1, phi1, r1), _ = seed
    skipping = [seed[0], seed[2]]
    between = [(0.4 * e0 + 0.6 * e1, phi1, r1)]
    for bad in (skipping, between):
        counts.clear()
        got = sp._polish(dh, coarse.points, bad)
        assert counts == [len(bad) + 1]
        want = sp.eigensolve(dh, len(bad))
        for (e, phi, r), (e_ref, phi_ref, r_ref) in zip(got, want):
            assert e == e_ref and r == r_ref
            assert np.array_equal(phi, phi_ref)
    counts.clear()
    polished = sp._polish(dh, coarse.points, seed[:2])
    assert counts == [2]
    np.testing.assert_allclose([e for e, _, _ in polished],
                               [e for e, _, _ in sp.eigensolve(dh, 2)], rtol=1e-8)


def test_non_positive_metric_rejected(flat):
    broken = dataclasses.replace(
        flat,
        metric=MetricFamily(
            dim=1,
            eval=lambda lamv, x: -np.ones(np.shape(x))[..., None, None],
            det=lambda lamv, x: -np.ones(np.shape(x)),
        ),
    )
    grid = sp.make_grid(broken, np.array([1.0]), 300)
    with pytest.raises(MetricPositivityError):
        sp.build_hamiltonian(broken, grid)


def test_crossing_detection_forced(anharmonic):
    with pytest.raises(LevelCrossingError) as err:
        sp.numerical_wavefunction_family(anharmonic, np.array([1.0, 1.0]),
                                         2, n_points=400, gap_threshold=10.0)
    assert err.value.pair[1] == err.value.pair[0] + 1


def _family_cfg():
    return geo.EngineConfig(
        quad=QuadratureConfig(rel_tol=1e-7, abs_tol=1e-9, max_levels=10),
        fd=FdConfig(base_step=1e-2, scheme="central-2"),
    )


def test_numerical_family_reproduces_metric(anharmonic):
    lam = np.array([1.0, 1.0])
    fam = sp.numerical_wavefunction_family(anharmonic, lam, 1, n_points=1500)
    eng = geo.GeometryEngine(fam, anharmonic.metric, anharmonic.domain_for(lam),
                             _family_cfg(), in_domain=anharmonic.in_domain)
    G = eng.qmt(lam, (0,))
    ref = models.analytic_reference(anharmonic, "qmt", 0, lam)
    assert np.max(np.abs(G - ref) / np.abs(ref)) < 5e-3


def test_numerical_family_flat_metric(flat):
    lam = np.array([1.0])
    fam = sp.numerical_wavefunction_family(flat, lam, 1, n_points=1500)
    eng = geo.GeometryEngine(fam, flat.metric, flat.domain_for(lam),
                             _family_cfg(), in_domain=flat.in_domain)
    G = eng.qmt(lam, (0,))
    assert abs(G[0, 0] - 0.125) / 0.125 < 5e-3


def test_numerical_family_morse_metric(morse):
    """The one unfolded grid whose variable u = exp(-lambda x / 2) moves
    with lambda; the grid stays frozen at the base point."""
    for lam in (np.array([1.0, 1.0]), np.array([0.8, 1.3])):
        fam = sp.numerical_wavefunction_family(morse, lam, 1, n_points=1500)
        eng = geo.GeometryEngine(fam, morse.metric, morse.domain_for(lam),
                                 _family_cfg(), in_domain=morse.in_domain)
        G = eng.qmt(lam, (0,))
        for (r, k), name in (((0, 0), "qmt_ll"), ((1, 1), "qmt_ww")):
            ref = models.analytic_reference(morse, name, 0, lam)
            assert abs(G[r, k] - ref) / abs(ref) < 5e-3


def test_numerical_family_solves_once_per_stencil_point(anharmonic, monkeypatch):
    """Every quadrature level reuses the cached solves of the FD stencil."""
    lam = np.array([1.0, 1.0])
    solves = []
    real_solve = sp.solve_levels

    def counted(model, lamv, *args, **kwargs):
        solves.append(np.asarray(lamv, dtype=float).tobytes())
        return real_solve(model, lamv, *args, **kwargs)

    monkeypatch.setattr(sp, "solve_levels", counted)
    fam = sp.numerical_wavefunction_family(anharmonic, lam, 1, n_points=400)
    eng = geo.GeometryEngine(fam, anharmonic.metric, anharmonic.domain_for(lam),
                             _family_cfg(), in_domain=anharmonic.in_domain)
    eng.qgt(lam, (0,))
    # the base point plus two central-difference points per parameter
    assert len(solves) == len(set(solves)) == 1 + 2 * lam.size


def test_numerical_family_solve_cache_is_bounded(anharmonic, monkeypatch):
    """The family keeps at most ``_SOLVE_CACHE_SIZE`` solves besides the
    pinned base: after one more distinct point, the least recently used
    point is solved again, while the most recent one and the base are not."""
    lam = np.array([1.0, 1.0])
    solves = []
    real_solve = sp.solve_levels

    def counted(model, lamv, *args, **kwargs):
        solves.append(np.asarray(lamv, dtype=float).tobytes())
        return real_solve(model, lamv, *args, **kwargs)

    monkeypatch.setattr(sp, "solve_levels", counted)
    fam = sp.numerical_wavefunction_family(anharmonic, lam, 1, n_points=400)
    x = np.linspace(0.1, 2.0, 8)
    points = [np.array([0.9 + 0.005 * j, 1.1]) for j in range(sp._SOLVE_CACHE_SIZE + 1)]
    for p in points:
        fam.eval(p, (0,), x)
    assert len(solves) == 1 + len(points)
    for p in (points[-1], lam):  # cached, and pinned
        fam.eval(p, (0,), x)
    assert len(solves) == 1 + len(points)
    fam.eval(points[0], (0,), x)  # evicted
    assert len(solves) == 2 + len(points) and solves[-1] == points[0].tobytes()


def test_numerical_family_thread_safe(anharmonic):
    """Four threads at shared and distinct points see the serial arrays.

    The 40 distinct points overflow the solve cache, so threads evict
    entries while others read them.
    """
    import sys
    from concurrent.futures import ThreadPoolExecutor

    lam = np.array([1.0, 1.0])
    x = np.linspace(0.05, 3.0, 64)
    shared = [np.array([1.0, 1.0]), np.array([1.05, 0.95])]
    distinct = [[np.array([0.9 + 0.01 * (10 * t + j), 1.1]) for j in range(10)]
                for t in range(4)]

    def sweep(fam, points):
        return [fam.eval(p, (0,), x) for p in points]

    serial_fam = sp.numerical_wavefunction_family(anharmonic, lam, 1, n_points=400)
    expected = [sweep(serial_fam, shared + d + shared) for d in distinct]
    fam = sp.numerical_wavefunction_family(anharmonic, lam, 1, n_points=400)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda d: sweep(fam, shared + d + shared), distinct,
                                timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for want_t, got_t in zip(expected, got):
        for want, have in zip(want_t, got_t):
            assert np.array_equal(want, have)
