"""Regularized nonnegative deconvolution of BrAC from TAC.

The reconstructed input lives in a tensor basis: linear splines in time times
indicators over parameter cells (the ``tq`` variant), or linear splines in
time alone (the ``scalar`` variant, a single input common to all parameter
values).  Writing the discrete model as a convolution with its impulse
kernels turns the TAC fidelity term into a linear least-squares block; the
penalty  r1 * \\int ||u||^2 + r2 * \\int ||u'||^2  contributes a second block
through a positive-semidefinite square root, block diagonal over the
parameter cells.  The resulting stacked problem is solved under a
nonnegativity constraint by an active-set method.

One builder makes the stacked problem from kernel columns: one per
parameter cell in the tq variant, one (the mean kernel) in the scalar
variant.  The kernels come from ``forward_model.impulse_kernels``.  A single
subject is the one-cell system of ``forward_model.deterministic_ops``, so
``deconvolve_deterministic`` is the scalar problem of that system, and
``deconvolve`` takes it too.  The temporal mesh, its Grams and sampled
basis, and the temporal penalty root are cached, so a band's many
single-subject solves on one TAC differ only in their kernel; they run in
batches (``_warm_scalar_solves``), which settle most of them with one
batched first active-set step.

Only the penalty depends on (r1, r2).  The weight search therefore builds
each training episode's kernels, design and cell masses once, rebuilds only
the penalty per candidate (r1, r2), and warm-starts each active-set solve
from that episode's previous solution.  ``deconvolve`` is the same solve at
one (r1, r2), started from zero.

Column ordering of the tq design follows the global convention: temporal
index fastest, then the first parameter cell index, then the second.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.blas import dtpsv
from scipy.optimize import minimize

from .data_io import Episode
from .errors import ConfigurationError, NumericalError, ParameterError
from .forward_model import DiscreteTimeOps, _spectral_kernels, impulse_kernels
from .grid_basis import SpatialMesh, TimeMesh, temporal_basis_matrices

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
    inputs 0..k-1; row 0 is zero (the initial output is identically zero).

    ``kernel`` may carry leading batch axes (one kernel per problem); the
    matrices then carry the same axes.  Entry (k, j) is
    vals[n_grid - 1 + k - j], read through a strided view and copied, the
    way ``scipy.linalg.toeplitz`` builds the same matrix.
    """
    batch = kernel.shape[:-1]
    vals = np.zeros((*batch, 2 * n_grid - 1))
    vals[..., n_grid:] = kernel[..., :n_grid - 1]
    step = vals.strides[-1]
    return as_strided(vals[..., n_grid - 1:], shape=(*batch, n_grid, n_grid),
                      strides=(*vals.strides[:-1], step, -step)).copy()


@dataclass(frozen=True)
class DeconvolutionProblem:
    """Assembled stacked least-squares data for one TAC signal."""

    variant: str
    tac: np.ndarray
    time_mesh: TimeMesh
    sample: np.ndarray        # grid evaluation of the temporal basis, K x m
    design: np.ndarray        # TAC model rows, K x n_cols
    penalty_sqrt: np.ndarray  # diagonal blocks of the penalty root, cells x m x m
    r1: float
    r2: float
    cell_masses: np.ndarray | None   # None in the scalar variant

    @property
    def n_cols(self) -> int:
        return self.design.shape[1]

    @property
    def stacked(self) -> np.ndarray:
        """Design rows over the block-diagonal penalty root."""
        n_grid, m = self.tac.size, self.time_mesh.m
        out = np.zeros((n_grid + self.n_cols, self.n_cols))
        out[:n_grid] = self.design
        for c, block in enumerate(self.penalty_sqrt):
            rows = slice(n_grid + c * m, n_grid + (c + 1) * m)
            out[rows, c * m:(c + 1) * m] = block
        return out

    @property
    def target(self) -> np.ndarray:
        return np.concatenate([self.tac, np.zeros(self.n_cols)])

    def with_regs(self, r1: float, r2: float) -> DeconvolutionProblem:
        """The same problem at other weights; only the penalty is rebuilt."""
        r1, r2 = _snap_regs(r1, r2)
        return replace(self, r1=r1, r2=r2, penalty_sqrt=_penalty_sqrt(
            self.time_mesh, self.cell_masses, r1, r2))

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


@functools.lru_cache(maxsize=8)
def _time_basis(tm: TimeMesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``temporal_basis_matrices(tm)``: the value and derivative Grams
    (m x m) and the basis sampled on the grid (K x m).  Cached, so the
    arrays are read-only."""
    mats = temporal_basis_matrices(tm)
    for arr in mats:
        arr.setflags(write=False)
    return mats


@functools.lru_cache(maxsize=8)
def _penalty_root(tm: TimeMesh, r1: float, r2: float) -> np.ndarray:
    """Root of the temporal penalty r1 * G0 + r2 * G1 (m x m, read-only)."""
    g0, g1, _ = _time_basis(tm)
    root = sqrtm_psd(r1 * g0 + r2 * g1)
    root.setflags(write=False)
    return root


def _penalty_sqrt(tm: TimeMesh, masses: np.ndarray | None,
                  r1: float, r2: float) -> np.ndarray:
    """Diagonal blocks of the penalty root, one per cell (one in the scalar
    variant).  The penalty of the tensor basis factorizes into cell masses
    times the temporal quadratic form, so it is cell-block diagonal."""
    root = _penalty_root(tm, r1, r2)
    if masses is None:
        return root[None]
    return np.sqrt(masses)[:, None, None] * root


def _time_mesh(n_grid: int, tau: float, m: int | None) -> TimeMesh:
    """Temporal mesh of a TAC of ``n_grid`` samples at step tau: ``m``
    basis functions, by default ``default_basis_count``."""
    if m is None:
        m = default_basis_count((n_grid - 1) * tau)
    return TimeMesh(m, (n_grid - 1) * tau, tau)


def _stacked_problem(columns: np.ndarray, masses: np.ndarray | None,
                     tac: np.ndarray, tau: float, r1: float, r2: float,
                     m: int | None) -> DeconvolutionProblem:
    """The stacked problem for kernel ``columns`` (K-1 lags x columns): one
    design block per column, and a penalty block per cell weighted by
    ``masses``, or None for the scalar variant's single column."""
    n_grid = tac.size
    tm = _time_mesh(n_grid, tau, m)
    sample = _time_basis(tm)[2]
    width = tm.m
    design = np.empty((n_grid, width * columns.shape[1]))
    for c, kernel in enumerate(columns.T):
        design[:, c * width:(c + 1) * width] = (
            _toeplitz_design(kernel, n_grid) @ sample)
    return DeconvolutionProblem(variant="scalar" if masses is None else "tq",
                                tac=tac, time_mesh=tm,
                                sample=sample, design=design,
                                penalty_sqrt=_penalty_sqrt(tm, masses, r1, r2),
                                r1=r1, r2=r2, cell_masses=masses)


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
    kernels = impulse_kernels(ops, tac.size - 1)
    if not np.any(kernels.functional):
        raise NumericalError("impulse kernels are identically zero")
    if variant == "scalar":
        columns, masses = kernels.mean[:, None], None
    elif variant == "tq":
        columns, masses = kernels.functional, ops.p
    else:
        raise ConfigurationError(f"unknown variant {variant!r}")
    return _stacked_problem(columns, masses, tac, ops.tau, r1, r2, m)


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


#: default stop rule of ``nnls``: dual (KKT) violation at most this times
#: the norm of a^T b
_DUAL_TOL = 1e-9

#: a stacked column whose norm falls below this fraction of the largest one
#: is void: ``solve_problem`` fixes its coefficient at zero
_VOID = 1e-12

#: a column whose pivot d^2 falls below this fraction of its Gram diagonal
#: is numerically dependent on the passive columns: the factor breaks down
_BREAKDOWN = 1e-14


class _PassiveFactor:
    """Upper Cholesky factor R of the Gram restricted to the passive
    variables, R^T R = G[order][:, order], packed by columns.

    Column j of R (rows 0..j) is stored right after column j - 1, so adding
    a variable appends one column at O(k^2) cost and the storage grows with
    the passive set.  ``order`` is None while the factor is invalid: after a
    breakdown or a dropped variable, until ``reset`` factors afresh.
    """

    def __init__(self, gram: np.ndarray):
        self.gram = gram
        self.order: list[int] | None = []
        self.packed = np.empty(0)
        self.used = 0

    def _append(self, column: np.ndarray) -> None:
        end = self.used + column.size
        if end > self.packed.size:
            grown = np.empty(max(2 * self.packed.size, end))
            grown[:self.used] = self.packed[:self.used]
            self.packed = grown
        self.packed[self.used:end] = column
        self.used = end

    def reset(self, idx: np.ndarray) -> None:
        """Factor the Gram of the passive set ``idx`` afresh."""
        sub = self.gram[np.ix_(idx, idx)]
        try:
            low = np.linalg.cholesky(sub)
        except np.linalg.LinAlgError:
            self.order = None
            return
        if np.any(np.diag(low) ** 2 <= _BREAKDOWN * np.diag(sub)):
            self.order = None
            return
        # row i of the lower factor is column i of R
        self.used = 0
        self._append(low[np.tril_indices(idx.size)])
        self.order = idx.tolist()

    def add(self, j: int) -> None:
        """Extend the factor by variable j, or invalidate it on breakdown."""
        k = len(self.order)
        col = np.empty(k + 1)
        if k:
            col[:k] = dtpsv(k, self.packed, self.gram[self.order, j], trans=1)
        d2 = self.gram[j, j] - col[:k] @ col[:k]
        if not d2 > _BREAKDOWN * self.gram[j, j]:
            self.order = None
            return
        col[k] = np.sqrt(d2)
        self._append(col)
        self.order.append(j)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solution of G[order][:, order] z = rhs."""
        k = len(self.order)
        return dtpsv(k, self.packed, dtpsv(k, self.packed, rhs, trans=1))


def nnls(a: np.ndarray, b: np.ndarray, tol: float | None = None,
         max_iter: int | None = None, x0: np.ndarray | None = None) -> NnlsResult:
    """Lawson-Hanson active-set method for min ||a x - b|| s.t. x >= 0.

    Runs on the normal equations.  The passive-set systems are solved on an
    upper Cholesky factor of the passive Gram that grows by one column per
    added variable (Lawson and Hanson, 1974, ch. 23); after a variable drops,
    or when an added column is numerically dependent on the passive ones,
    that step solves the passive system afresh (LU, least squares if it is
    singular), and the factor is rebuilt at the next added variable.
    ``tol`` bounds the admissible dual (KKT) violation and defaults to 1e-9
    times the norm of a^T b.

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
        tol = _DUAL_TOL * fscale
    if max_iter is None:
        max_iter = 3 * n
    btb = float(b @ b)

    passive = x > 0.0
    iterations = 0
    gx = gram @ x       # of the current iterate: dual and objective
    best_obj = btb - 2.0 * f @ x + x @ gx
    best_x = x.copy()
    converged = False
    factor = _PassiveFactor(gram)

    def solve_passive() -> tuple[np.ndarray, np.ndarray]:
        if factor.order is not None:
            idx = np.array(factor.order, dtype=np.intp)
            return idx, factor.solve(f[idx])
        idx = np.flatnonzero(passive)
        sub = gram[np.ix_(idx, idx)]
        try:
            return idx, np.linalg.solve(sub, f[idx])
        except np.linalg.LinAlgError:
            return idx, np.linalg.lstsq(a[:, idx], b, rcond=None)[0]

    def descend() -> None:
        """Move from the feasible x toward the passive set's unconstrained
        solution, dropping variables that reach zero on the way, until
        that solution is strictly positive or the cap is hit."""
        nonlocal x, passive, iterations, gx
        while True:
            iterations += 1
            idx, z = solve_passive()
            if np.all(z > 0.0):
                x = np.zeros(n)
                x[idx] = z
                break
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
            factor.order = None
            if iterations >= max_iter:
                break
        gx = gram @ x

    def record_best() -> None:
        nonlocal best_obj, best_x
        obj = btb - 2.0 * f @ x + x @ gx
        if obj < best_obj:
            best_obj = obj
            best_x = x.copy()

    if np.any(passive) and max_iter > 0:
        factor.reset(np.flatnonzero(passive))
        descend()
        record_best()
    while iterations < max_iter:
        if not np.any(~passive):
            converged = True
            break
        w_free = np.where(passive, -np.inf, f - gx)
        j = int(np.argmax(w_free))
        if w_free[j] <= tol:
            converged = True
            break
        passive[j] = True
        if factor.order is None:
            factor.reset(np.flatnonzero(passive))
        else:
            factor.add(j)
        descend()
        record_best()

    if not converged:
        final_obj = btb - 2.0 * f @ x + x @ gx
        if best_obj < final_obj:
            x = best_x
        warnings.warn("nnls hit the iteration cap; returning best feasible "
                      "iterate", RuntimeWarning, stacklevel=2)
    resid = float(np.linalg.norm(a @ x - b))
    return NnlsResult(x=x, converged=converged, iterations=iterations,
                      residual=resid)


def _first_step(gram: np.ndarray, f: np.ndarray,
                x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first Lawson-Hanson step from ``x0`` for a batch of problems with
    normal equations ``gram`` (n x c x c) and ``f`` (n x c), all at once.

    Each problem's passive system on P = {x0 > 0} is solved in one batched
    call.  A problem is settled when that solution z is positive and the
    dual f - G z over the variables outside P stays within ``nnls``'s stop
    rule: exactly the problems that ``nnls(a, b, x0=x0)`` finishes in one
    iteration, at the same x.  Returns the stepped points (n x c) and the
    settled flags; a batch whose solve fails settles nothing.
    """
    passive = x0 > 0.0
    x = np.zeros(f.shape)
    try:
        z = np.linalg.solve(gram[:, passive][:, :, passive],
                            f[:, passive, None])[..., 0]
    except np.linalg.LinAlgError:
        return x, np.zeros(f.shape[0], dtype=bool)
    x[:, passive] = z
    dual = f - (gram @ x[..., None])[..., 0]
    tol = _DUAL_TOL * np.linalg.norm(f, axis=1)
    settled = (np.all(z > 0.0, axis=1)
               & np.all(dual[:, ~passive] <= tol[:, None], axis=1))
    return x, settled


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
    active = col_norms > _VOID * float(col_norms.max())
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
        # temporal index fastest, then the first cell index, then the second
        coeffs = sol.x.reshape((mm, *ops.cells), order="F")
    else:
        coeffs = sol.x.copy()
    mean_curve = problem.mean_curve(sol.x)
    fitted = problem.design @ sol.x
    residual = float(np.linalg.norm(fitted - problem.tac))
    return DeconvolutionResult(variant=variant, r1=problem.r1, r2=problem.r2,
                               coeffs=coeffs, mean_curve=mean_curve,
                               fitted_tac=fitted, residual=residual,
                               nnls=sol, time_mesh=problem.time_mesh)


def deconvolve_deterministic(det: DiscreteTimeOps, tac: np.ndarray,
                             r1: float, r2: float, m: int | None = None,
                             x0: np.ndarray | None = None
                             ) -> tuple[np.ndarray, NnlsResult]:
    """Single-subject deconvolution: the scalar problem of the one-cell
    ``det`` (``deterministic_ops``) at a fixed parameter pair.

    Returns the reconstructed input on the tau grid plus the solver result;
    ``x0`` warm-starts the solver from nonnegative basis coefficients, such
    as ``sol.x`` of a nearby parameter pair on the same TAC.
    """
    r1, r2 = _snap_regs(r1, r2)
    tac = np.asarray(tac, dtype=float)
    kern = impulse_kernels(det, tac.size - 1).mean
    problem = _stacked_problem(kern[:, None], None, tac, det.tau, r1, r2, m)
    sol = solve_problem(problem, x0=x0)
    return problem.sample @ sol.x, sol


def _warm_scalar_solves(q: np.ndarray, mesh: SpatialMesh, tac: np.ndarray,
                        tau: float, r1: float, r2: float, m: int | None,
                        x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Single-subject deconvolutions of one TAC at the parameter pairs ``q``
    (n x 2), each warm-started from ``x0``.

    Row i of the returned curves (n x K) and its converged flag are those of
    ``deconvolve_deterministic(deterministic_ops(q[i], mesh, tau), tac, r1,
    r2, m, x0)``.  The kernels come from one batched spectral call, the
    designs from one batched Toeplitz build, and one batched first step
    (``_first_step``) on their Grams settles every problem that ``nnls``
    would finish in one iteration.  The rest go through ``solve_problem``
    on their already-built designs.  Memory grows with n * K^2.
    """
    bad = q[:, 0] <= 0.0
    if np.any(bad):
        raise ParameterError(
            f"diffusivity must be positive, got {q[bad, 0][0]}")
    r1, r2 = _snap_regs(r1, r2)
    n_grid = tac.size
    tm = _time_mesh(n_grid, tau, m)
    sample = _time_basis(tm)[2]
    root = _penalty_root(tm, r1, r2)
    kernels = q[:, 1:] * _spectral_kernels(mesh, q[:, 0], tau, n_grid - 1)
    designs = _toeplitz_design(kernels, n_grid) @ sample
    gram = np.swapaxes(designs, 1, 2) @ designs + root.T @ root
    x, settled = _first_step(gram, tac @ designs, x0)
    col_norms = np.sqrt(np.diagonal(gram, axis1=1, axis2=2))
    settled &= np.all(col_norms > _VOID * col_norms.max(axis=1, keepdims=True),
                      axis=1)
    converged = np.ones(q.shape[0], dtype=bool)
    for i in np.flatnonzero(~settled):
        problem = DeconvolutionProblem(
            variant="scalar", tac=tac, time_mesh=tm, sample=sample,
            design=designs[i], penalty_sqrt=root[None], r1=r1, r2=r2,
            cell_masses=None)
        sol = solve_problem(problem, x0=x0)
        x[i], converged[i] = sol.x, sol.converged
    return x @ sample.T, converged


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


@dataclass(frozen=True)
class RegularizationSearch:
    """Outcome of the weight search; unpacks as ``r1, r2``.

    ``path`` holds one (log10 r1, log10 r2, score) entry per objective
    evaluation, in order: the start grid, then the Nelder-Mead stage.
    ``at_bound`` is True when the selected point lies on an edge of the
    search box, so the optimum may lie outside it.
    """

    r1: float
    r2: float
    converged: bool
    evals: int
    at_bound: bool
    path: tuple[tuple[float, float, float], ...]

    def __iter__(self):
        return iter((self.r1, self.r2))


#: nodes per axis of the start grid over the search box
_GRID_NODES = 5


def select_regularization(ops: DiscreteTimeOps, episodes: list[Episode],
                          m: int | None = None, variant: str = "tq",
                          max_iter: int = 60) -> RegularizationSearch:
    """Pick (r1, r2) by direct search on training episodes with known BrAC.

    The search runs over the log10 weights inside the box ``_LOG_BOUNDS``.
    It first scores a 5 x 5 grid spanning the box, visited in snake order
    so each warm-started solve starts from a neighbouring point, then runs
    bounded Nelder-Mead from the best grid point with unit steps into the
    box; ``max_iter`` bounds that second stage only.  The box's lower edge
    is log10(``REG_FLOOR``), so the selected weights are never below the
    floor and never zero; ``at_bound`` on the returned record says whether
    the selection lies on an edge of the box.  A search that does not meet
    its tolerances warns and returns the best point found, with
    ``converged`` False.
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
    path: list[tuple[float, float, float]] = []

    def objective(logr):
        r1, r2 = _snap_regs(*(10.0 ** np.asarray(logr, dtype=float)))
        score = _selection_misfit(search, r1, r2)
        path.append((float(logr[0]), float(logr[1]), score))
        return score

    nodes = np.linspace(lo, hi, _GRID_NODES)
    for i, log_r2 in enumerate(nodes):
        for log_r1 in (nodes if i % 2 == 0 else nodes[::-1]):
            objective((log_r1, log_r2))
    start = np.array(min(path, key=lambda p: p[2])[:2])
    steps = np.where(start + 1.0 <= hi, 1.0, -1.0)
    simplex = np.array([start, start + [steps[0], 0.0],
                        start + [0.0, steps[1]]])
    res = minimize(objective, start, method="Nelder-Mead",
                   bounds=[_LOG_BOUNDS] * 2,
                   options={"maxiter": max_iter, "xatol": 0.02,
                            "fatol": 1e-12, "initial_simplex": simplex})
    if not res.success:
        warnings.warn("regularization search did not converge; using the "
                      "best point found", RuntimeWarning, stacklevel=2)
    best = res.x
    r1, r2 = _snap_regs(*(10.0 ** best))
    return RegularizationSearch(
        r1=r1, r2=r2, converged=bool(res.success), evals=len(path),
        at_bound=bool(np.any((best <= lo) | (best >= hi))), path=tuple(path))


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
