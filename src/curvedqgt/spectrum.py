"""1-D spectral solver for the curved-space kinetic operator.

The kinetic term is the curved Laplacian (1/sqrt(g)) d_x (sqrt(g) g^xx d_x)
discretized in flux form on a uniform grid in the computational variable u
of the model's quadrature axis (the physical x when the axis has none):
with measure weight w(u) = sqrt(g) |dx/du| the flux coefficient collapses
to c(u) = 1/w(u), so the discrete operator is symmetric under the
w-weighted inner product by construction.  Eigenpairs solve the
generalized problem H phi = E W phi, reduced to a standard symmetric
tridiagonal one through the diagonal similarity W^(-1/2) H W^(-1/2).

Models whose measure degenerates at an endpoint are solved on the half
coordinate range; when two boundary passes are declared (zero-derivative
and zero-value at the inner edge) their spectra interlace, so the lowest
k levels are the lowest ceil(k/2) of the Neumann pass and floor(k/2) of
the Dirichlet pass.  Each pass on a grid of at least 16 x 256 points is
seeded from the same pass on a grid 16x coarser and polished by shifted
inverse iteration; the polish is kept only when its residuals, level
separations and a Sturm count certify it as the lowest levels, and
otherwise the pass is solved by bisection.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    EigensolveError,
    EngineError,
    LevelCrossingError,
    MetricPositivityError,
    WavefunctionFamily,
    as_quantum_number,
    param_values,
)
from .models import ModelSpec

# scipy costs more to import than most commands take to run, so each solver
# function imports the part it needs and `import curvedqgt` loads none of it

__all__ = [
    "Grid1D",
    "DiscreteHamiltonian",
    "make_grid",
    "build_hamiltonian",
    "eigensolve",
    "model_spectrum",
    "numerical_wavefunction_family",
]

_END_OFFSET = 1e-8  # inward nudge for coefficient evaluation at degenerate endpoints
_LEVELS_PER_PASS = 10  # most levels one boundary pass solves
# a pass on a grid holding at least _SEED_RATIO * _MIN_SEED_POINTS points is
# seeded from the same pass on a grid _SEED_RATIO times coarser
_SEED_RATIO = 16
_MIN_SEED_POINTS = 256
_POLISH_STEPS = 8  # inverse-iteration solves per level before giving up
_POLISH_RESIDUAL = 64  # accepted polish residual, in units of eps ||T||
# grid-family solves kept per family: every stencil point of a 4th-order
# derivative (4 per parameter) for up to 8 parameters
_SOLVE_CACHE_SIZE = 32


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered grid in the solver coordinate u."""

    points: np.ndarray
    spacing: float
    boundary: tuple  # (left, right), each "dirichlet" | "neumann"
    lam: np.ndarray
    x_of: Callable
    dxdu: Callable
    u_of: Callable
    u_lo: float
    u_hi: float

    def __post_init__(self):
        if not np.all(np.diff(self.points) > 0):
            raise ValueError("grid points must be strictly increasing")
        for side in self.boundary:
            if side not in ("dirichlet", "neumann"):
                raise ValueError(f"unknown boundary condition '{side}'")

    @property
    def n(self) -> int:
        return self.points.size

    def with_boundary(self, left: str, right: str = "dirichlet") -> "Grid1D":
        return dataclasses.replace(self, boundary=(left, right))

    def resampled(self, n: int) -> "Grid1D":
        """The same span and boundaries on n cells."""
        points, h = _cell_centers(self.u_lo, self.u_hi, n)
        return dataclasses.replace(self, points=points, spacing=h)


@dataclass(frozen=True)
class DiscreteHamiltonian:
    """Symmetric tridiagonal H and the diagonal measure weights W.

    H is held as its diagonal ``main`` (n,) and its one off-diagonal
    ``off`` (n - 1,), which serves above and below the diagonal, so H is
    symmetric by construction.
    """

    main: np.ndarray
    off: np.ndarray
    weights: np.ndarray
    grid: Grid1D

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise MetricPositivityError("non-positive measure weight on the grid")


def make_grid(model: ModelSpec, lam, n_points: int = 2000,
              n_max: int = 6) -> Grid1D:
    """Uniform grid spanning the region holding the bound-state mass.

    The grid variable is the computational variable of the model's
    quadrature axis at ``lam``, or x itself when the axis has no transform.
    """
    if model.spectral is None:
        raise EngineError(f"model {model.name} declares no spectral coordinate")
    if model.dim != 1:
        raise EngineError("the spectral solver is one-dimensional")
    if n_points < 1:
        raise ValueError(f"a grid needs at least one point, got {n_points}")
    lamv = param_values(lam)
    tr = model.domain_for(lamv).axes[0].transform
    if tr is None:
        x_of, dxdu, u_of = (lambda u: u, lambda u: np.ones(np.shape(u)),
                            lambda x: np.asarray(x, dtype=float))
    else:
        x_of, dxdu, u_of = tr.inv, tr.inv_jac, tr.fwd
    u_lo, u_hi = model.spectral.u_range(lamv, n_max)
    points, h = _cell_centers(u_lo, u_hi, n_points)
    return Grid1D(
        points=points, spacing=h,
        boundary=(model.spectral.left_boundaries[0], "dirichlet"), lam=lamv,
        x_of=x_of, dxdu=dxdu, u_of=u_of, u_lo=u_lo, u_hi=u_hi,
    )


def _cell_centers(u_lo: float, u_hi: float, n: int):
    h = (u_hi - u_lo) / n
    return u_lo + (np.arange(n) + 0.5) * h, h


def build_hamiltonian(model: ModelSpec, grid: Grid1D,
                      lam=None) -> DiscreteHamiltonian:
    """Flux-form discretization of -(hbar^2/2) Laplacian + V on the grid.

    Face coefficients are 1/w at the cell faces, with the outermost faces
    nudged inward since coordinate-degenerate endpoints (where the measure
    vanishes or the map blows up) sit exactly on them.
    """
    lamv = grid.lam if lam is None else param_values(lam)
    h = grid.spacing
    u_cells = grid.points
    x_cells = grid.x_of(u_cells)
    w = np.asarray(model.metric.sqrt_det(lamv, x_cells)) \
        * np.abs(np.asarray(grid.dxdu(u_cells)))
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise MetricPositivityError("sqrt(g) is not positive on the grid")

    u_faces = grid.u_lo + np.arange(grid.n + 1) * h
    u_faces = u_faces.astype(float)
    u_faces[0] += _END_OFFSET * h
    u_faces[-1] -= _END_OFFSET * h
    x_faces = grid.x_of(u_faces)
    w_faces = np.asarray(model.metric.sqrt_det(lamv, x_faces)) \
        * np.abs(np.asarray(grid.dxdu(u_faces)))
    c_faces = 1.0 / w_faces

    left, right = grid.boundary
    c_left = 0.0 if left == "neumann" else 2.0 * c_faces[0]
    c_right = 0.0 if right == "neumann" else 2.0 * c_faces[-1]

    diag = c_faces[1:-1].copy()
    main = np.empty(grid.n)
    main[0] = c_left + c_faces[1]
    main[-1] = c_faces[-2] + c_right
    if grid.n > 2:
        main[1:-1] = c_faces[1:-2] + c_faces[2:-1]
    off = -diag

    potential = model.potential
    if model.spectral is not None and model.spectral.effective_potential is not None:
        potential = model.spectral.effective_potential
    v_cells = np.asarray(potential(lamv, x_cells), dtype=float)

    hbar = model.hbar
    h_main = 0.5 * hbar * hbar * main / h + w * v_cells * h
    h_off = 0.5 * hbar * hbar * off / h
    return DiscreteHamiltonian(main=h_main, off=h_off, weights=w * h, grid=grid)


def _standard_form(dh: DiscreteHamiltonian):
    """Diagonal, off-diagonal and W^(-1/2) of T = W^(-1/2) H W^(-1/2)."""
    winv = 1.0 / np.sqrt(dh.weights)
    main = dh.main * winv * winv
    off = dh.off * winv[:-1] * winv[1:]
    return main, off, winv


def _pairs(dh: DiscreteHamiltonian, vals, vecs, winv):
    """(E, phi, residual) per row of T's eigenvectors, phi W-orthonormal."""
    out = []
    for e, v in zip(vals, vecs):
        phi = v * winv
        # row i of H phi summed as off[i-1] phi[i-1] + main[i] phi[i] + off[i] phi[i+1]
        h_phi = dh.main * phi
        h_phi[1:] = dh.off * phi[:-1] + h_phi[1:]
        h_phi[:-1] += dh.off * phi[1:]
        w_phi = dh.weights * phi
        residual = float(np.linalg.norm(h_phi - e * w_phi) / np.linalg.norm(w_phi))
        out.append((float(e), phi, residual))
    return out


def eigensolve(dh: DiscreteHamiltonian, k: int):
    """k lowest eigenpairs of H phi = E W phi, W-orthonormal, with residuals."""
    import scipy.linalg

    if k > min(_LEVELS_PER_PASS, dh.grid.n):
        raise ValueError(f"eigensolve serves at most {_LEVELS_PER_PASS} levels and "
                         f"one per grid point; asked for {k} on {dh.grid.n} points")
    if k <= 0:
        return []
    main, off, winv = _standard_form(dh)
    try:
        vals, vecs = scipy.linalg.eigh_tridiagonal(
            main, off, select="i", select_range=(0, k - 1)
        )
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise EigensolveError(f"tridiagonal eigensolve failed: {exc}") from exc
    return _pairs(dh, vals, vecs.T, winv)


def _polish(dh: DiscreteHamiltonian, seed_points: np.ndarray, seed):
    """The len(seed) lowest eigenpairs of dh, polished from a coarse solve.

    ``seed`` holds (E, phi, residual) of the same pass on ``seed_points``.
    Each level's phi is interpolated onto dh's grid and refined by inverse
    iteration with one LU factor of T - E I, until the residual stops
    halving; its Rayleigh quotient is the energy.  The result is kept
    only when it certifies itself:
    - every residual r_j is at roundoff (``_POLISH_RESIDUAL`` eps ||T||),
      and [E_j - r_j, E_j + r_j] holds an eigenvalue of T;
    - those intervals are disjoint and in the seed's order, so they hold
      distinct eigenvalues;
    - a Sturm count finds exactly len(seed) eigenvalues up to
      E_top + r_top, so they are the lowest.
    Otherwise bisection (``eigensolve``) solves the pass.
    """
    from scipy.linalg import lapack

    k = len(seed)
    main, off, winv = _standard_form(dh)
    radius = np.zeros_like(main)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    t_norm = float(np.max(np.abs(main) + radius))
    tol = _POLISH_RESIDUAL * np.finfo(float).eps * t_norm
    vecs = np.empty((k, dh.grid.n))
    vals = np.empty(k)
    res = np.full(k, np.inf)
    for j, (e_seed, phi_seed, _) in enumerate(seed):
        x = np.interp(dh.grid.points, seed_points, phi_seed) / winv
        lu = lapack.dgttrf(off, main - e_seed, off)
        if lu[-1] != 0:
            return eigensolve(dh, k)
        for _ in range(_POLISH_STEPS):
            x = lapack.dgttrs(*lu[:-1], x)[0]
            x /= np.linalg.norm(x)
            tx = main * x
            tx[:-1] += off * x[1:]
            tx[1:] += off * x[:-1]
            rho = float(x @ tx)
            tx -= rho * x
            r = float(np.linalg.norm(tx))
            if r >= 0.5 * res[j]:
                break
            vecs[j], vals[j], res[j] = x, rho, r
    if np.all(res <= tol) and np.all(np.diff(vals) > res[:-1] + res[1:]):
        lo = float(np.min(main - radius)) - 1.0
        hi = vals[-1] + res[-1]
        # a tolerance as wide as the range stops dstebz after its Sturm counts
        count, *_, info = lapack.dstebz(main, off, 1, lo, hi, 0, 0, hi - lo, "E")
        if info == 0 and count == k:
            return _pairs(dh, vals, vecs, winv)
    return eigensolve(dh, k)


def _solve_pass(model: ModelSpec, grid: Grid1D, lamv: np.ndarray, k: int):
    """k lowest eigenpairs of one boundary pass on ``grid``."""
    n_seed = grid.n // _SEED_RATIO
    if n_seed < _MIN_SEED_POINTS:
        return eigensolve(build_hamiltonian(model, grid, lamv), k)
    coarse = grid.resampled(n_seed)
    seed = _solve_pass(model, coarse, lamv, k)
    return _polish(build_hamiltonian(model, grid, lamv), coarse.points, seed)


def _pass_levels(boundaries: tuple, k: int) -> tuple:
    """How many of the lowest k merged levels each boundary pass holds.

    The Dirichlet pass adds a positive rank-one term at the inner edge to
    the Neumann pass's matrix, so their spectra interlace,
    E_j(N) <= E_j(D) <= E_{j+1}(N), and the lowest k levels are the lowest
    ceil(k/2) Neumann and floor(k/2) Dirichlet levels.
    """
    if len(boundaries) == 1:
        return (k,)
    if sorted(boundaries) != ["dirichlet", "neumann"]:
        raise EngineError(f"two boundary passes must be one Neumann and one "
                          f"Dirichlet, got {boundaries}")
    return tuple((k + 1) // 2 if b == "neumann" else k // 2 for b in boundaries)


def model_spectrum(model: ModelSpec, lam, k: int, n_points: int = 2000):
    """Lowest k levels, merging boundary-condition passes when declared.

    Returns a list of (energy, residual) sorted by energy.  A model with
    one pass gives at most 10 levels and one with two passes at most 20,
    which the two passes share by interlacing, so each pass solves at
    most 10 levels; asking for more, or for more levels than grid
    points, raises ValueError.
    """
    levels = solve_levels(model, lam, k, n_points)
    return [(e, r) for e, _, r, _ in levels]


def solve_levels(model: ModelSpec, lam, k: int, n_points: int = 2000,
                 grid: Optional[Grid1D] = None):
    """Merged eigenpairs (energy, phi, residual, pass_index) across passes.

    Each pass solves only the levels that interlacing lets reach the
    lowest k (see ``_pass_levels``).  A pass on a grid of at least
    16 x 256 points is polished from the same pass solved on a grid 16x
    coarser over the same span (recursively), and falls back to bisection
    when the polish does not certify itself (see ``_polish``).
    """
    if model.spectral is None:
        raise EngineError(f"model {model.name} declares no spectral coordinate")
    cap = _LEVELS_PER_PASS * len(model.spectral.left_boundaries)
    if not 0 <= k <= cap:
        raise ValueError(f"model {model.name} solves 0 to {cap} levels; asked for {k}")
    if k == 0:
        return []
    lamv = param_values(lam)
    base = grid or make_grid(model, lamv, n_points, n_max=2 * k + 3)
    if k > base.n:
        raise ValueError(f"a grid of {base.n} points holds at most {base.n} levels; "
                         f"asked for {k}")
    boundaries = model.spectral.left_boundaries
    merged = []
    for idx, (left, count) in enumerate(zip(boundaries, _pass_levels(boundaries, k))):
        if count:
            for e, phi, res in _solve_pass(model, base.with_boundary(left), lamv, count):
                merged.append((e, phi, res, idx))
    merged.sort(key=lambda t: t[0])
    return merged


def numerical_wavefunction_family(model: ModelSpec, lam, n_levels: int,
                                  n_points: int = 1500,
                                  gap_threshold: float = 1e-6
                                  ) -> WavefunctionFamily:
    """Wavefunction family backed by grid eigenvectors.

    Solves lazily at every requested parameter point on a frozen grid (the
    one built at the base point), aligns eigenvector signs against the
    base solve so parameter differentiation sees a smooth gauge, and
    interpolates in the solver coordinate.  Solves are kept in a bounded,
    thread-safe LRU cache that holds a full finite-difference stencil set,
    so evaluating every quadrature level reuses them; the base solve is
    pinned.  Accuracy is grid-limited; expect metric components at the
    few-1e-3 level.
    """
    from scipy.interpolate import CubicSpline

    base_lam = param_values(lam)
    grid = make_grid(model, base_lam, n_points, n_max=2 * n_levels + 3)

    def solve_aligned(lamv: np.ndarray, base):
        levels = solve_levels(model, lamv, n_levels + 1, grid=grid)
        gaps = np.diff([e for e, _, _, _ in levels])
        if np.any(gaps < gap_threshold):
            j = int(np.argmin(gaps))
            raise LevelCrossingError(j, j + 1, float(gaps[j]))
        splines = []
        for j, (e, phi, _, _) in enumerate(levels[:n_levels]):
            if base is not None:
                overlap = float(np.sum(phi * base[j][1] * grid.spacing))
                if overlap < 0:
                    phi = -phi
            splines.append((e, phi, CubicSpline(grid.points, phi)))
        return splines

    # the base solve is the sign reference, so it is pinned outside the cache
    base_key = base_lam.tobytes()
    base_splines = solve_aligned(base_lam, None)

    @functools.lru_cache(maxsize=_SOLVE_CACHE_SIZE)
    def cached(key: bytes):
        return solve_aligned(np.frombuffer(key), base_splines)

    def solve(lamv: np.ndarray):
        key = lamv.tobytes()
        return base_splines if key == base_key else cached(key)

    # a folded axis grids x >= 0 only, where a state of unit curved norm
    # on the line holds half its norm, so the grid state is rescaled
    scale = 1.0 / np.sqrt(2.0) if model.domain_for(base_lam).axes[0].even_fold else 1

    def ev(lamv, n, x):
        n = as_quantum_number(n)
        if len(n) != 1 or not 0 <= n[0] < n_levels:
            raise EngineError(f"numerical family holds levels 0..{n_levels - 1}")
        _, _, spline = solve(np.asarray(lamv, dtype=float))[n[0]]
        x = np.asarray(x, dtype=float)
        u = np.asarray(grid.u_of(x))
        out = np.zeros(u.shape)
        # extrapolate across the half-cell sliver at the inner edge; beyond
        # the outer edge the state has decayed to zero
        inside = (u >= grid.u_lo) & (u <= grid.points[-1])
        if np.any(inside):
            out[inside] = scale * spline(u[inside])
        return out

    return WavefunctionFamily(dim=1, eval=ev, analytic_param_grad=None)
