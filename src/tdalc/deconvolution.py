"""Regularized nonnegative deconvolution of BrAC from TAC.

The reconstructed input lives in a tensor basis: linear splines in time times
indicators over parameter cells (the ``tq`` variant), or linear splines in
time alone (the ``scalar`` variant, a single input common to all parameter
values).  Writing the discrete model as a convolution with its impulse
kernels turns the TAC fidelity term into a linear least-squares block; the
penalty  r1 * \\int ||u||^2 + r2 * \\int ||u'||^2  contributes a second block
through a positive-semidefinite square root.  The resulting stacked problem
is solved under a nonnegativity constraint by an active-set method.

Only the penalty depends on (r1, r2).  The weight search therefore builds
each training episode's kernels, design, temporal matrices and cell masses
once, rebuilds only the penalty per candidate (r1, r2), and warm-starts each
active-set solve from that episode's previous solution.  ``deconvolve`` is
the same solve at one (r1, r2), started from zero.

Column ordering of the tq design follows the global convention: temporal
index fastest, then the first parameter cell index, then the second.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import toeplitz
from scipy.optimize import minimize

from .data_io import Episode
from .errors import ConfigurationError, NumericalError
from .forward_model import (DeterministicOps, DiscreteTimeOps,
                            deterministic_kernels, impulse_kernels)
from .grid_basis import TensorIndex, TimeMesh, temporal_basis_matrices

#: below this value a regularization weight is treated as exactly zero
REG_FLOOR = 1e-6

_LOG_BOUNDS = (-6.0, 2.0)


def default_basis_count(horizon_minutes: float) -> int:
    """Temporal basis size rule: six spline nodes per hour of data."""
    return max(2, int(round(6.0 * horizon_minutes / 60.0)))


def sqrtm_psd(mat: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root; tiny negative eigenvalues are floored at 0."""
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def _toeplitz_design(kernel: np.ndarray, n_grid: int) -> np.ndarray:
    """Lower-triangular convolution matrix: row k pairs lags k..1 with
    inputs 0..k-1; row 0 is zero (the initial output is identically zero)."""
    col = np.zeros(n_grid)
    col[1:] = kernel[:n_grid - 1]
    return toeplitz(col, np.zeros(n_grid))


@dataclass(frozen=True)
class DeconvolutionProblem:
    """Assembled stacked least-squares data for one TAC signal."""

    variant: str
    tac: np.ndarray
    time_mesh: TimeMesh
    sample: np.ndarray        # grid evaluation of the temporal basis, K x m
    design: np.ndarray        # TAC model rows, K x n_cols
    penalty_sqrt: np.ndarray  # n_cols x n_cols
    r1: float
    r2: float
    cell_masses: np.ndarray | None   # None in the scalar variant
    g0: np.ndarray            # temporal value Gram, m x m
    g1: np.ndarray            # temporal derivative Gram, m x m

    @property
    def n_cols(self) -> int:
        return self.design.shape[1]

    @property
    def stacked(self) -> np.ndarray:
        return np.vstack([self.design, self.penalty_sqrt])

    @property
    def target(self) -> np.ndarray:
        return np.concatenate([self.tac, np.zeros(self.n_cols)])

    def with_regs(self, r1: float, r2: float) -> DeconvolutionProblem:
        """The same problem at other weights; only the penalty is rebuilt."""
        r1, r2 = _snap_regs(r1, r2)
        return replace(self, r1=r1, r2=r2, penalty_sqrt=_penalty_sqrt(
            self.g0, self.g1, self.cell_masses, r1, r2))

    def mean_curve(self, x: np.ndarray) -> np.ndarray:
        """Population-mean input on the grid for coefficient vector x."""
        if self.cell_masses is None:
            return self.sample @ x
        per_cell = x.reshape(self.cell_masses.size, self.time_mesh.m).T
        return self.sample @ (per_cell @ self.cell_masses)


def _snap_regs(r1: float, r2: float) -> tuple[float, float]:
    if r1 < 0 or r2 < 0:
        raise ConfigurationError(f"regularization weights must be >= 0, got {r1}, {r2}")
    return (0.0 if r1 < REG_FLOOR else float(r1),
            0.0 if r2 < REG_FLOOR else float(r2))


def _penalty_sqrt(g0: np.ndarray, g1: np.ndarray, masses: np.ndarray | None,
                  r1: float, r2: float) -> np.ndarray:
    reg_small = sqrtm_psd(r1 * g0 + r2 * g1)
    if masses is None:
        return reg_small
    # penalty of the tensor basis factorizes: cell masses times the
    # temporal quadratic form, cell-block diagonal
    return np.kron(np.diag(np.sqrt(masses)), reg_small)


def build_problem(ops: DiscreteTimeOps, tac: np.ndarray, r1: float, r2: float,
                  m: int | None = None, variant: str = "tq") -> DeconvolutionProblem:
    """Assemble the stacked problem for a TAC series on the ops' tau grid.

    ``tac`` holds the resampled signal at 0, tau, ..., including the leading
    t = 0 sample.
    """
    r1, r2 = _snap_regs(r1, r2)
    tac = np.asarray(tac, dtype=float)
    if tac.ndim != 1 or tac.size < 2:
        raise ConfigurationError("tac series must be 1-d with at least two samples")
    n_grid = tac.size
    horizon = (n_grid - 1) * ops.tau
    if m is None:
        m = default_basis_count(horizon)
    tm = TimeMesh(m, horizon, ops.tau)
    g0, g1, sample = temporal_basis_matrices(tm)
    kernels = impulse_kernels(ops, n_grid - 1)
    if not np.any(kernels.functional):
        raise NumericalError("impulse kernels are identically zero")
    if variant == "scalar":
        design = _toeplitz_design(kernels.mean, n_grid) @ sample
        masses = None
    elif variant == "tq":
        kappa = kernels.functional
        nc = kappa.shape[1]
        design = np.empty((n_grid, m * nc))
        for c in range(nc):
            design[:, c * m:(c + 1) * m] = _toeplitz_design(kappa[:, c], n_grid) @ sample
        masses = kernels.p
    else:
        raise ConfigurationError(f"unknown variant {variant!r}")
    return DeconvolutionProblem(variant=variant, tac=tac, time_mesh=tm,
                                sample=sample, design=design,
                                penalty_sqrt=_penalty_sqrt(g0, g1, masses, r1, r2),
                                r1=r1, r2=r2, cell_masses=masses, g0=g0, g1=g1)


# ---------------------------------------------------------------------------
# nonnegative least squares


@dataclass(frozen=True)
class NnlsResult:
    """Active-set solution; ``converged`` is False when the iteration cap hit
    and the best feasible iterate was returned instead."""

    x: np.ndarray
    converged: bool
    iterations: int
    residual: float


def nnls(a: np.ndarray, b: np.ndarray, tol: float | None = None,
         max_iter: int | None = None, x0: np.ndarray | None = None) -> NnlsResult:
    """Lawson-Hanson active-set method for min ||a x - b|| s.t. x >= 0.

    Runs on the normal equations with fresh solves per passive set, which is
    robust at the problem sizes used here.  ``tol`` bounds the admissible
    dual (KKT) violation and defaults to 1e-9 times the norm of a^T b.

    ``x0`` warm-starts the method from any nonnegative point, typically the
    solution of a nearby problem: the passive set starts as x0 > 0 and the
    iterate first moves from x0 toward that set's least-squares solution,
    dropping variables that reach zero, before the usual outer loop adds
    variables by dual violation (the initial-passive-set form of Bro and
    De Jong, 1997).  Without ``x0`` the method starts from zero.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 1 or a.shape[0] != b.size:
        raise ConfigurationError(
            f"incompatible nnls shapes {a.shape} and {b.shape}")
    m, n = a.shape
    if x0 is None:
        x = np.zeros(n)
    else:
        x = np.array(x0, dtype=float)
        if x.shape != (n,) or not np.all(np.isfinite(x)) or np.any(x < 0.0):
            raise ConfigurationError(
                f"nnls start x0 must be finite, nonnegative and of shape "
                f"({n},); got shape {x.shape}, min {np.min(x, initial=0.0)}")
    gram = a.T @ a
    f = a.T @ b
    fscale = float(np.linalg.norm(f))
    if tol is None:
        tol = 1e-9 * fscale
    if max_iter is None:
        max_iter = 3 * n
    btb = float(b @ b)

    passive = x > 0.0
    iterations = 0
    best_obj = btb - 2.0 * f @ x + x @ gram @ x
    best_x = x.copy()
    converged = False

    def solve_passive(idx: np.ndarray) -> np.ndarray:
        sub = gram[np.ix_(idx, idx)]
        try:
            return np.linalg.solve(sub, f[idx])
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(a[:, idx], b, rcond=None)[0]

    def descend() -> None:
        """Move from the feasible x toward the passive set's unconstrained
        solution, dropping variables that reach zero on the way, until
        that solution is strictly positive or the cap is hit."""
        nonlocal x, passive, iterations
        while True:
            iterations += 1
            idx = np.flatnonzero(passive)
            z = solve_passive(idx)
            if np.all(z > 0.0):
                x = np.zeros(n)
                x[idx] = z
                return
            xp = x[idx]
            neg = z <= 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(neg, xp / (xp - z), np.inf)
            alpha = float(np.min(ratios))
            xp = xp + alpha * (z - xp)
            xp[neg & (ratios <= alpha + 1e-14)] = 0.0
            x = np.zeros(n)
            x[idx] = np.maximum(xp, 0.0)
            passive = x > 0.0
            if iterations >= max_iter:
                return

    def record_best() -> None:
        nonlocal best_obj, best_x
        obj = btb - 2.0 * f @ x + x @ gram @ x
        if obj < best_obj:
            best_obj = obj
            best_x = x.copy()

    if np.any(passive) and max_iter > 0:
        descend()
        record_best()
    while iterations < max_iter:
        if not np.any(~passive):
            converged = True
            break
        w_free = np.where(passive, -np.inf, f - gram @ x)
        j = int(np.argmax(w_free))
        if w_free[j] <= tol:
            converged = True
            break
        passive[j] = True
        descend()
        record_best()

    if not converged:
        final_obj = btb - 2.0 * f @ x + x @ gram @ x
        if best_obj < final_obj:
            x = best_x
        warnings.warn("nnls hit the iteration cap; returning best feasible "
                      "iterate", RuntimeWarning, stacklevel=2)
    resid = float(np.linalg.norm(a @ x - b))
    return NnlsResult(x=x, converged=converged, iterations=iterations,
                      residual=resid)


# ---------------------------------------------------------------------------
# deconvolution driver


@dataclass(frozen=True)
class DeconvolutionResult:
    """Estimated input for one TAC signal."""

    variant: str
    r1: float
    r2: float
    coeffs: np.ndarray        # (m,) scalar variant; (m, m1, m2) tq variant
    mean_curve: np.ndarray    # population-mean input on the grid
    fitted_tac: np.ndarray    # model TAC reproduced from the estimate
    residual: float           # TAC misfit norm
    nnls: NnlsResult
    time_mesh: TimeMesh

    @property
    def converged(self) -> bool:
        return self.nnls.converged


def solve_problem(problem: DeconvolutionProblem,
                  x0: np.ndarray | None = None) -> NnlsResult:
    """NNLS solution of the stacked problem, optionally warm-started from a
    nonnegative full-length coefficient vector ``x0``."""
    stacked = problem.stacked
    col_norms = np.linalg.norm(stacked, axis=0)
    active = col_norms > 1e-12 * float(col_norms.max())
    if np.all(active):
        return nnls(stacked, problem.target, x0=x0)
    # columns of near-void parameter cells carry no information and only
    # poison the active-set solves; their coefficients stay zero
    red = nnls(stacked[:, active], problem.target,
               x0=None if x0 is None else x0[active])
    x = np.zeros(stacked.shape[1])
    x[active] = red.x
    return NnlsResult(x=x, converged=red.converged,
                      iterations=red.iterations, residual=red.residual)


def deconvolve(ops: DiscreteTimeOps, tac: np.ndarray, r1: float, r2: float,
               m: int | None = None, variant: str = "tq") -> DeconvolutionResult:
    """Reconstruct the input from a TAC series at fixed regularization."""
    problem = build_problem(ops, tac, r1, r2, m=m, variant=variant)
    sol = solve_problem(problem)
    mm = problem.time_mesh.m
    if variant == "tq":
        index = TensorIndex((mm, ops.grid.pm1.count, ops.grid.pm2.count))
        coeffs = index.reshape(sol.x)
    else:
        coeffs = sol.x.copy()
    mean_curve = problem.mean_curve(sol.x)
    fitted = problem.design @ sol.x
    residual = float(np.linalg.norm(fitted - problem.tac))
    return DeconvolutionResult(variant=variant, r1=problem.r1, r2=problem.r2,
                               coeffs=coeffs, mean_curve=mean_curve,
                               fitted_tac=fitted, residual=residual,
                               nnls=sol, time_mesh=problem.time_mesh)


def deconvolve_deterministic(det: DeterministicOps, tac: np.ndarray,
                             r1: float, r2: float,
                             m: int | None = None) -> tuple[np.ndarray, NnlsResult]:
    """Single-subject deconvolution at a fixed parameter pair.

    Returns the reconstructed input on the tau grid plus the solver result.
    """
    r1, r2 = _snap_regs(r1, r2)
    tac = np.asarray(tac, dtype=float)
    n_grid = tac.size
    horizon = (n_grid - 1) * det.tau
    if m is None:
        m = default_basis_count(horizon)
    tm = TimeMesh(m, horizon, det.tau)
    g0, g1, sample = temporal_basis_matrices(tm)
    kern = deterministic_kernels(det, n_grid - 1)
    design = _toeplitz_design(kern, n_grid) @ sample
    stacked = np.vstack([design, sqrtm_psd(r1 * g0 + r2 * g1)])
    target = np.concatenate([tac, np.zeros(m)])
    sol = nnls(stacked, target)
    return sample @ sol.x, sol


class SearchEpisode:
    """One training episode of the weight search.

    The (r1, r2)-independent part of its problem (impulse kernels, design,
    temporal matrices, cell masses) is built once; each score rebuilds only
    the penalty and warm-starts NNLS from the previous score's solution.
    """

    def __init__(self, ops: DiscreteTimeOps, episode: Episode,
                 m: int | None = None, variant: str = "tq"):
        self.problem = build_problem(ops, episode.y, 0.0, 0.0, m=m,
                                     variant=variant)
        self.brac = episode.u
        self.x: np.ndarray | None = None    # latest solution, next start

    def score(self, r1: float, r2: float) -> float:
        """Squared error of the estimated input against measured BrAC plus
        squared error of the refit TAC against measured TAC."""
        problem = self.problem.with_regs(r1, r2)
        self.x = solve_problem(problem, x0=self.x).x
        du = problem.mean_curve(self.x)[:-1] - self.brac[:-1]
        dy = (problem.design @ self.x)[1:] - problem.tac[1:]
        return float(du @ du) + float(dy @ dy)


def _selection_misfit(episodes: list[SearchEpisode], r1: float,
                      r2: float) -> float:
    """Reconstruction-quality score of the weight search, summed over the
    training episodes."""
    return float(sum(ep.score(r1, r2) for ep in episodes))


def select_regularization(ops: DiscreteTimeOps, episodes: list[Episode],
                          m: int | None = None, variant: str = "tq",
                          max_iter: int = 60) -> tuple[float, float]:
    """Pick (r1, r2) by direct search on training episodes with known BrAC.

    Nelder-Mead over the log10 weights inside a fixed search box; weights
    below the floor collapse to exactly zero.  On a degenerate simplex the
    search restarts once from a jittered start before flagging the result.
    """
    if not episodes:
        raise ConfigurationError("need at least one training episode")
    for ep in episodes:
        if not ep.has_brac:
            raise ConfigurationError(
                f"episode {ep.ident!r} has no BrAC; cannot score regularization")
        if abs(ep.tau - ops.tau) > 1e-12:
            raise ConfigurationError(
                f"episode {ep.ident!r} tau {ep.tau} does not match ops tau {ops.tau}")
    lo, hi = _LOG_BOUNDS
    search = [SearchEpisode(ops, ep, m=m, variant=variant) for ep in episodes]

    def objective(logr):
        penalty = 0.0
        for v in logr:
            if v < lo:
                penalty += 1e3 * (lo - v) ** 2
            elif v > hi:
                penalty += 1e3 * (v - hi) ** 2
        r = 10.0 ** np.clip(logr, lo, hi)
        r1, r2 = _snap_regs(r[0], r[1])
        return _selection_misfit(search, r1, r2) + penalty

    x0 = np.array([-1.0, 0.0])
    simplex = np.array([x0, x0 + [1.5, 0.0], x0 + [0.0, 1.5]])
    opts = {"maxiter": max_iter, "xatol": 0.02, "fatol": 1e-12,
            "initial_simplex": simplex}
    res = minimize(objective, x0, method="Nelder-Mead", options=opts)
    if not res.success:
        jitter = np.array([0.37, -0.41])
        opts2 = dict(opts)
        opts2["initial_simplex"] = simplex + jitter
        res2 = minimize(objective, x0 + jitter, method="Nelder-Mead", options=opts2)
        if res2.fun < res.fun:
            res = res2
        if not res.success:
            warnings.warn("regularization search did not converge; using the "
                          "best point found", RuntimeWarning, stacklevel=2)
    r = 10.0 ** np.clip(np.asarray(res.x, dtype=float), lo, hi)
    return _snap_regs(r[0], r[1])


def write_result_csv(path, times: np.ndarray, mean_curve: np.ndarray,
                     lower: np.ndarray, upper: np.ndarray,
                     fitted_tac: np.ndarray, measured_tac: np.ndarray) -> None:
    """Write the deconvolution result table."""
    cols = [np.asarray(c, dtype=float) for c in
            (times, mean_curve, lower, upper, fitted_tac, measured_tac)]
    n = cols[0].size
    if any(c.size != n for c in cols):
        raise ConfigurationError("result columns must share one length")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("t_minutes,mean_brac,lower_band,upper_band,fitted_tac,measured_tac\n")
        for row in zip(*cols):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
