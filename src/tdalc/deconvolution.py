"""Regularized nonnegative deconvolution of BrAC from TAC.

The reconstructed input lives in a tensor basis: linear splines in time times
indicators over parameter cells (the ``tq`` variant), or linear splines in
time alone (the ``scalar`` variant, a single input common to all parameter
values).  Writing the discrete model as a convolution with its impulse
kernels turns the TAC fidelity term into a linear least-squares block; the
penalty  r1 * \\int ||u||^2 + r2 * \\int ||u'||^2  contributes a second block
through a positive-semidefinite square root, block diagonal over the
parameter cells.  The stacked problem is solved under a nonnegativity
constraint by block principal pivoting on its normal equations, read from
the design and the penalty blocks without forming them (``nnls``).

One builder, ``build_problem``, makes the stacked problem from kernel
columns and cell masses: one per parameter cell in the tq variant; the
scalar variant is the one-cell case, the mean kernel (the kernel rows
summed) on a cell of unit mass.  The kernels are the rows of
``forward_model.impulse_kernels``, and the designs
from products of the kernels with the sparse blocks of the lag tensor of the
sampled time basis (``_designs``), each over only the lags that reach its
hats.  A single subject is the one-cell system of
``forward_model.deterministic_ops``, so ``deconvolve_deterministic`` is
``build_problem``'s scalar problem of that system, with the same input
checks, and ``deconvolve`` takes it too.  The temporal mesh, its Grams,
sampled basis and lag blocks, and the temporal penalty root are cached, so a
band's many single-subject solves on one TAC differ only in their kernel;
they run in batches (``_warm_scalar_solves``), each batch's kernels one
``impulse_kernels`` call on a stack of one-cell systems, through ``nnls``'s
own exchanges (``_pivoting``, over a leading batch axis).

Only the penalty depends on (r1, r2).  The weight search therefore builds
each training episode's kernels, design and cell masses once, rebuilds only
the penalty per candidate (r1, r2), and starts each solve from the free set
of that episode's previous solution.  ``deconvolve`` solves at one (r1, r2)
from an empty free set.

Column ordering of the tq design follows the global convention: temporal
index fastest, then the first parameter cell index, then the second.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.lapack import dpotrf, dpotrs, dpstrf

from .data_io import Episode, check_training_episodes
from .errors import ConfigurationError, NumericalError
from .forward_model import DiscreteTimeOps, deterministic_ops, impulse_kernels
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


#: time rows and adjacent basis columns per block of the lag tensor
_ROWS, _HATS = 20, 4


@dataclass(frozen=True)
class _LagBlock:
    """The lag tensor of S over time rows [k0, k1) and basis columns
    [j0, j1), restricted to the lags l0, l0 + 1, ... that reach them:
    ``lag[l - l0, (j - j0) (k1 - k0) + k - k0] = S[k-1-l, j]``."""

    k0: int
    k1: int
    j0: int
    j1: int
    l0: int
    lag: np.ndarray


#: the shape K x m of S and the blocks of its lag tensor
_Lags = tuple[tuple[int, int], tuple[_LagBlock, ...]]


def _lag_blocks(sample: np.ndarray) -> _Lags:
    """The shape K x m of S and the nonzero blocks of its lag tensor
    Lambda[l, (j, k)] = S[k-1-l, j], by ``_ROWS`` time rows and ``_HATS``
    adjacent columns.  A block holds only the lags l < k1 - 1 for which
    S[k-1-l] meets the rows where its columns are nonzero, and a block that
    no lag reaches is left out: a hat spans two node spacings, so at K =
    199, m = 20 the blocks hold 132,752 entries, 3.4 per nonzero of the
    tensor.  Copied from a strided view of S under K zero rows; read-only."""
    n_grid, width = sample.shape
    nonzero = sample != 0.0
    first = np.where(nonzero.any(axis=0), np.argmax(nonzero, axis=0), n_grid)
    last = n_grid - 1 - np.argmax(nonzero[::-1], axis=0)
    padded = np.concatenate([np.zeros((n_grid, width)), sample])
    step, col = padded.strides
    blocks = []
    for k0 in range(0, n_grid, _ROWS):
        k1 = min(k0 + _ROWS, n_grid)
        for j0 in range(0, width, _HATS):
            j1 = min(j0 + _HATS, width)
            # row k reaches sample row k-1-l: in [first, last] for some column
            l0 = max(0, k0 - 1 - int(last[j0:j1].max()))
            l1 = k1 - 1 - int(first[j0:j1].min())
            if l1 <= l0:
                continue
            lag = np.ascontiguousarray(as_strided(
                padded[n_grid - 1 + k0 - l0:, j0:], strides=(-step, col, step),
                shape=(l1 - l0, j1 - j0, k1 - k0))).reshape(l1 - l0, -1)
            lag.setflags(write=False)
            blocks.append(_LagBlock(k0, k1, j0, j1, l0, lag))
    return (n_grid, width), tuple(blocks)


@functools.lru_cache(maxsize=1)
def _mesh_lags(tm: TimeMesh) -> _Lags:
    """``_lag_blocks`` of the mesh's sampled basis.  One mesh is kept (1 MB
    at K = 199): the problem build, the solve at q = mu and the band's
    groups on one record, and a run of records of one length, share it."""
    return _lag_blocks(_time_basis(tm)[2])


def _designs(kernels: np.ndarray, lags: _Lags) -> np.ndarray:
    """Transposed designs of lag kernels (n x at least K-1) with the sampled
    time basis S of ``lags`` (``_lag_blocks``): n x m x K, entry [j, k] of
    a design sum_l kernel[l] S[k-1-l, j] over the lags l < k (column 0 is
    zero: the initial output is identically zero).  Each block is one
    product with the kernels' lags that reach it, written as runs along
    time; the other entries are zero."""
    (n_grid, width), blocks = lags
    out = np.zeros((len(kernels), width, n_grid))
    for b in blocks:
        out[:, b.j0:b.j1, b.k0:b.k1] = (
            kernels[:, b.l0:b.l0 + len(b.lag)] @ b.lag).reshape(
            len(kernels), b.j1 - b.j0, b.k1 - b.k0)
    return out


@dataclass(frozen=True)
class DeconvolutionProblem:
    """Assembled stacked least-squares data for one TAC signal."""

    tac: np.ndarray
    time_mesh: TimeMesh
    sample: np.ndarray        # grid evaluation of the temporal basis, K x m
    design: np.ndarray        # TAC model rows, K x n_cols
    penalty_sqrt: np.ndarray  # diagonal blocks of the penalty root, cells x m x m
    r1: float
    r2: float
    cell_masses: np.ndarray   # [1.0] in the scalar variant

    @property
    def n_cols(self) -> int:
        return self.design.shape[1]

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
        per_cell = x.reshape(self.cell_masses.size, self.time_mesh.m).T
        return self.sample @ (per_cell @ self.cell_masses)


def _snap_regs(r1: float, r2: float) -> tuple[float, float]:
    if not (0.0 <= r1 < np.inf and 0.0 <= r2 < np.inf):    # NaN fails too
        raise ConfigurationError(f"r1 and r2 must be finite and >= 0, got {r1}, {r2}")
    return tuple(0.0 if r < REG_FLOOR else float(r) for r in (r1, r2))


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


def _penalty_sqrt(tm: TimeMesh, masses: np.ndarray,
                  r1: float, r2: float) -> np.ndarray:
    """Diagonal blocks of the penalty root, one per cell.  The penalty of
    the tensor basis factorizes into cell masses times the temporal
    quadratic form, so it is cell-block diagonal."""
    return np.sqrt(masses)[:, None, None] * _penalty_root(tm, r1, r2)


def _time_mesh(n_grid: int, tau: float, m: int | None) -> TimeMesh:
    """Temporal mesh of a TAC of ``n_grid`` samples at step tau: ``m``
    basis functions, by default ``default_basis_count``."""
    if m is None:
        m = default_basis_count((n_grid - 1) * tau)
    return TimeMesh(m, (n_grid - 1) * tau, tau)


def build_problem(ops: DiscreteTimeOps, tac: np.ndarray, r1: float, r2: float,
                  m: int | None = None, variant: str = "tq") -> DeconvolutionProblem:
    """Assemble the stacked problem for a TAC series on the ops' tau grid.

    ``tac`` holds the resampled signal at 0, tau, ..., including the leading
    t = 0 sample.  The tq variant has one design block per parameter cell
    and a penalty block weighted by the cell's mass; the scalar variant is
    the one-cell case, the mean kernel on a cell of unit mass.
    """
    r1, r2 = _snap_regs(r1, r2)
    tac = np.asarray(tac, dtype=float)
    if tac.ndim != 1 or tac.size < 2:
        raise ConfigurationError("tac series must be 1-d with at least two samples")
    kernels = impulse_kernels(ops, tac.size - 1)
    if not np.any(kernels):
        raise NumericalError("impulse kernels are identically zero")
    if variant == "scalar":
        kernels, masses = kernels.sum(axis=0, keepdims=True), np.ones(1)
    elif variant == "tq":
        masses = ops.p
    else:
        raise ConfigurationError(f"unknown variant {variant!r}")
    tm = _time_mesh(tac.size, ops.tau, m)
    # column c's block of m design columns is the design of kernel c
    design = np.ascontiguousarray(
        _designs(kernels, _mesh_lags(tm)).reshape(-1, tac.size).T)
    return DeconvolutionProblem(tac=tac, time_mesh=tm,
                                sample=_time_basis(tm)[2], design=design,
                                penalty_sqrt=_penalty_sqrt(tm, masses, r1, r2),
                                r1=r1, r2=r2, cell_masses=masses)


# ---------------------------------------------------------------------------
# nonnegative least squares


@dataclass(frozen=True)
class NnlsResult:
    """NNLS solution; ``converged`` is False when the iteration cap hit
    and the best feasible iterate was returned instead."""

    x: np.ndarray
    converged: bool
    iterations: int
    residual: float


#: stop rule of ``nnls``: dual (KKT) violation at most this times the norm
#: of a^T b
_DUAL_TOL = 1e-9

#: a stacked column whose norm falls below this fraction of the largest one
#: is void (``_void``): its coefficient stays at zero
_VOID = 1e-12

#: a free column whose Cholesky pivot d^2 falls below this fraction of its
#: Gram diagonal depends numerically on the others: it is held at zero
_BREAKDOWN = 1e-14

#: full exchanges that may leave no fewer infeasible variables before
#: ``nnls`` turns to single exchanges (Kim and Park's backup rule)
_BACKUP = 3

#: largest free-set Gram ``nnls`` forms, in bytes (8 n_F^2 for n_F columns)
_GRAM_BUDGET = 1 << 30


def _void(sq: np.ndarray) -> np.ndarray:
    """Void columns of stacked problems from their squared column norms
    (..., n): those whose norm is at most ``_VOID`` of their problem's
    largest.  Such columns, of near-void parameter cells, carry no
    information and only poison the free-set solves."""
    return sq <= _VOID ** 2 * sq.max(axis=-1, keepdims=True)


def _scales(diag: np.ndarray) -> np.ndarray:
    """Column norms from a Gram diagonal; a zero column keeps scale 1."""
    return np.where(diag > 0.0, np.sqrt(diag), 1.0)


class _StackedOperator:
    """The stacked matrix [design; block-diagonal penalty root] as a linear
    operator on vectors: ``shape``, ``a @ v`` and ``a.T @ r``, never dense;
    ``nnls`` solves on its blocks."""

    def __init__(self, design: np.ndarray, roots: np.ndarray):
        self.design, self.roots = design, roots
        self.shape = (sum(design.shape), design.shape[1])

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self._matvec(np.asarray(v, dtype=float))

    @property
    def T(self) -> _Adjoint:
        # built on access: an adjoint kept on the operator would form a
        # reference cycle, and the design would wait for the cyclic collector
        return _Adjoint(self)

    def _matvec(self, v: np.ndarray) -> np.ndarray:
        pen = self.roots @ v.reshape(*self.roots.shape[:2], 1)
        return np.concatenate([self.design @ v, pen.ravel()])

    def _rmatvec(self, v: np.ndarray) -> np.ndarray:
        k, (cells, m, _) = self.design.shape[0], self.roots.shape
        pen = np.swapaxes(self.roots, 1, 2) @ v[k:].reshape(cells, m, 1)
        return self.design.T @ v[:k] + pen.ravel()


class _Adjoint:
    """The transpose of a ``_StackedOperator``, applied by its ``_rmatvec``."""

    def __init__(self, op: _StackedOperator):
        self.op = op
        self.shape = op.shape[::-1]

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.op._rmatvec(np.asarray(v, dtype=float))


def _gram_solve(gram: np.ndarray, f: np.ndarray) -> np.ndarray:
    """A free set's scaled Gram system solved; when a Cholesky pivot d^2 falls
    to ``_BREAKDOWN``, a pivoted factor holds dependent columns at zero."""
    low, info = dpotrf(gram, lower=1)
    if info == 0 and np.all(np.diag(low) ** 2 > _BREAKDOWN):
        return dpotrs(low, f, lower=1)[0]
    z = np.zeros(f.size)
    low, piv, rank, _ = dpstrf(gram, tol=_BREAKDOWN, lower=1)
    if rank:
        z[piv[:rank] - 1] = dpotrs(low[:rank, :rank], f[piv[:rank] - 1], lower=1)[0]
    return z


class _Normal:
    """Column-scaled normal equations (D^T D + P) x = D^T t of a design D
    (K x n) and a penalty Gram P given by its diagonal blocks ``pen``
    (cells x m x m), one problem for ``_pivoting``; D^T D is never formed.
    A free set of at most K columns is solved on its scaled Gram; a larger
    one on the K x K capacitance system of the Woodbury identity,
    x_F = W (I + D_F W)^-1 t with W = P_FF^-1 D_F^T, when the penalty
    blocks factor on it (P with identity rows and columns at the bound
    variables, D with zero columns there).  Otherwise (P singular there, as
    at r1 = 0) its Gram is used, and so it is when the Woodbury solution
    leaves a free-set gradient beyond the stop rule's ``tol``:
    ill-conditioned blocks can pass their pivot check and still leave the
    capacitance system inaccurate."""

    def __init__(self, design: np.ndarray, pen: np.ndarray, t: np.ndarray):
        self.s = _scales(np.einsum("kj,kj->j", design, design)
                         + np.diagonal(pen, axis1=1, axis2=2).ravel())
        block_s = self.s.reshape(pen.shape[0], -1, 1)
        self.pen = pen / (block_s * np.swapaxes(block_s, 1, 2))
        self.dt = np.ascontiguousarray((design / self.s).T)
        self.t, self.f = t, self.dt @ t
        self.tol = _DUAL_TOL * float(np.linalg.norm(self.s * self.f))

    def gx(self, x: np.ndarray) -> np.ndarray:     # x: n, or B x n
        pen = self.pen @ x.reshape(-1, *self.pen.shape[:2], 1)
        return (x @ self.dt) @ self.dt.T + pen.reshape(x.shape)

    def solve(self, free: np.ndarray) -> np.ndarray:
        """The solution on the free set ``free[0]``, zero elsewhere (1 x n)."""
        free, x = free[0], np.zeros(free.shape)
        if np.count_nonzero(free) > self.t.size:
            z = self._capacitance_solve(free)
            if z is not None and np.all(
                    np.abs(self.s * (self.gx(z) - self.f))[free] <= self.tol):
                return z[None]
        idx = np.flatnonzero(free)
        if 8 * idx.size ** 2 > _GRAM_BUDGET:
            raise ConfigurationError(
                f"a free set of {idx.size} columns needs a "
                f"{8 * idx.size ** 2}-byte Gram, over the {_GRAM_BUDGET}-byte "
                f"budget; use r1 > 0 or a coarser cell grid")
        cell, t = np.divmod(idx, self.pen.shape[1])
        dt = self.dt[idx]
        gram = dt @ dt.T + np.where(cell[:, None] == cell,
                                    self.pen[cell[:, None], t[:, None], t], 0.0)
        x[0, idx] = _gram_solve(gram, self.f[idx])
        return x

    def _capacitance_solve(self, free: np.ndarray) -> np.ndarray | None:
        """The Woodbury solve; None unless the penalty blocks factor."""
        cells, m, _ = self.pen.shape
        on = free.reshape(cells, m)
        blocks = np.where(on[:, :, None] & on[:, None, :], self.pen, np.eye(m))
        try:
            low = np.linalg.cholesky(blocks)
        except np.linalg.LinAlgError:
            return None
        if np.any(np.diagonal(low, axis1=1, axis2=2) ** 2
                  <= _BREAKDOWN * np.diagonal(blocks, axis1=1, axis2=2)):
            return None
        # P = L L^T and V = L^-1 D^T give x = L^-T V (I + V^T V)^-1 t; numpy
        # solves it, as scipy's BLAS threads would contend with numpy's
        inv = np.linalg.inv(low)
        v = inv @ (self.dt * free[:, None]).reshape(cells, m, -1)
        flat = v.reshape(free.size, -1)[free]     # V is zero at bound rows
        cap = flat.T @ flat
        cap[np.diag_indices_from(cap)] += 1.0
        z = np.linalg.solve(cap, self.t)
        return (np.swapaxes(inv, 1, 2) @ (v @ z)[..., None]).ravel() * free


class _Grams(NamedTuple):
    """Column-scaled normal equations of a batch of problems from their Grams
    (B x c x c) and right-hand sides, void columns zeroed (``of``): the
    band's single-subject problems.  ``solve`` is one masked solve of fixed
    shape, identity at the bound rows and columns; a problem whose Cholesky
    pivot d^2 falls to ``_BREAKDOWN`` is solved alone (``_gram_solve``)."""

    gram: np.ndarray
    f: np.ndarray
    s: np.ndarray
    tol: np.ndarray
    keep: np.ndarray    # False at the void columns

    @classmethod
    def of(cls, gram: np.ndarray, f: np.ndarray) -> _Grams:
        if not (keep := ~_void(np.diagonal(gram, axis1=1, axis2=2))).all():
            gram, f = gram * (keep[:, :, None] & keep[:, None, :]), f * keep
        s = _scales(np.diagonal(gram, axis1=1, axis2=2))
        return cls(gram / (s[:, :, None] * s[:, None, :]), f / s, s,
                   _DUAL_TOL * np.linalg.norm(f, axis=1, keepdims=True), keep)

    def take(self, rows: np.ndarray) -> _Grams:
        return _Grams(*(v[rows] for v in self))

    def gx(self, x: np.ndarray) -> np.ndarray:
        return (self.gram @ x[..., None])[..., 0]

    def solve(self, free: np.ndarray) -> np.ndarray:
        eye = np.eye(free.shape[1])
        sub = np.where(free[:, :, None] & free[:, None, :], self.gram, eye)
        try:
            low = np.linalg.cholesky(sub)
            ok = np.all(np.diagonal(low, axis1=1, axis2=2) ** 2 > _BREAKDOWN, axis=1)
        except np.linalg.LinAlgError:   # solve each problem alone
            ok = ~np.any(free, axis=1)
        sub[~ok] = eye
        z = np.linalg.solve(sub, np.where(free & ok[:, None], self.f, 0.0)[..., None])
        for i in np.flatnonzero(~ok):
            idx = np.flatnonzero(free[i])
            z[i, idx, 0] = _gram_solve(self.gram[i][np.ix_(idx, idx)], self.f[i, idx])
        return z[..., 0]


def _pivoting(normal: _Normal | _Grams, x: np.ndarray, max_iter: int,
              descent: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block principal pivoting on the scaled normal equations of a batch of
    problems (``_Normal`` or ``_Grams``) in lockstep, from feasible scaled
    starts ``x`` (B x n), free where positive.  An iteration solves the free
    sets and exchanges every infeasible variable: free ones below zero,
    bound ones whose dual breaks ``normal.tol`` (Kim and Park, 2011).  After
    ``_BACKUP`` full exchanges that leave no fewer, a problem goes on alone
    from its best iterate (``descent``) by single exchanges that keep x
    feasible and lower the objective, so cannot cycle on a singular Gram
    (Lawson and Hanson, 1974).  As in their safeguard, a column whose entry
    moves x by a zero step (it solves negative on the new free set) may not
    enter again until x moves, and the stop rule ignores its dual until
    then.  A free column solved to exactly zero is bound.  Needing over
    ``max_iter`` iterations, a problem stops unconverged at the best of its
    start and projected iterates (in descent, its last).
    Returns the scaled x, the converged flags and the iteration counts."""
    n_prob, n = x.shape
    out = np.empty((n_prob, n)), np.zeros(n_prob, bool), np.zeros(n_prob, int)
    rows, its = np.arange(n_prob), np.zeros(n_prob, dtype=int)
    free, done = x > 0.0, np.zeros(n_prob, dtype=bool)
    barred = np.zeros(n, dtype=bool)    # in descent: entries that took a zero step
    best, best_obj = x, np.vecdot(x, normal.gx(x)) - np.vecdot(2.0 * normal.f, x)
    fewest, backup = its + (n + 1), its + _BACKUP
    while rows.size:
        if (stop := done | free.any(axis=1) & (its >= max_iter)).any():
            last = x if descent else np.where(done[:, None], x, best)
            for whole, part in zip(out, (last, done, its)):
                whole[rows[stop]] = part[stop]
            if stop.all():
                break
            rows, free, x, best, best_obj, its, fewest, backup = (
                v[~stop] for v in (rows, free, x, best, best_obj, its, fewest,
                                   backup))
            normal = normal.take(~stop)
        its = its + (solving := free.any(axis=1))
        z = normal.solve(free) if solving.any() else np.zeros(free.shape)
        if descent and (neg := free & (z < 0.0)).any():
            # from the feasible x toward z until a variable hits zero
            ratio = x[neg] / (x[neg] - z[neg])
            stuck = neg & (x == 0.0)    # entered, and x cannot move toward z
            barred = barred | stuck if stuck.any() else np.zeros_like(barred)
            x = np.maximum(np.where(free, x + ratio.min() * (z - x), 0.0), 0.0)
            x[0, np.flatnonzero(neg)[ratio == ratio.min()]] = 0.0
            free = x > 0.0
            continue
        if descent and (free & (x == 0.0)).any():   # an entry moves x
            barred = np.zeros_like(barred)
        x, free, was = z, free & (z != 0.0), free
        dual = normal.s * (normal.gx(x) - normal.f)
        # in single exchanges a column just held at zero stays: 0 < 0 fails
        infeasible = np.where(was if descent else free, x < 0.0,
                              dual < -normal.tol) & ~barred
        done = ~infeasible.any(axis=1)
        if descent:     # the bound variable of most negative dual enters
            infeasible = np.arange(n) == np.argmin(
                np.where(infeasible, dual, np.inf), axis=1)[:, None]
        elif not done.all():
            proj = np.maximum(x, 0.0)
            obj = np.vecdot(proj, normal.gx(proj)) - np.vecdot(2.0 * normal.f, proj)
            best = np.where((better := obj < best_obj)[:, None], proj, best)
            best_obj = np.where(better, obj, best_obj)
            count = infeasible.sum(axis=1)
            backup = np.where(count < fewest, _BACKUP, backup - 1)
            fewest = np.minimum(fewest, count)
            for i in (backup < 0).nonzero()[0]:     # rare; done rows reset it
                (xi,), (done[i],), (k,) = _pivoting(
                    normal if len(rows) == 1 else normal.take([i]), best[[i]],
                    max_iter - its[i], True)
                x[i] = best[i] = xi     # the next round stops it
                its[i], free[i], infeasible[i] = its[i] + k, True, False
        free = free ^ infeasible
    return out


def nnls(a: np.ndarray, b: np.ndarray, max_iter: int | None = None,
         x0: np.ndarray | None = None) -> NnlsResult:
    """Block principal pivoting (``_pivoting`` on ``_Normal``) for
    min ||a x - b|| s.t. x >= 0, to a dual (KKT) violation of at most
    ``_DUAL_TOL`` (1e-9) times the norm of a^T b.  One exception: in the
    single-exchange fallback, a column whose entry could not move x (it
    solved negative, so the step toward the new solution had length zero)
    is left out of that test, after Lawson and Hanson's safeguard; its dual
    may break the tolerance by rounding on a near-singular free set.  ``a``
    is a matrix or the stacked operator of ``solve_problem``; data that are
    not finite raise ``ConfigurationError``.  The free set starts as x0 > 0
    (empty without ``x0``).  A solve that hits ``max_iter`` (3 n by default)
    warns and returns the best of x0 and the iterates projected onto
    x >= 0."""
    b = np.asarray(b, dtype=float)
    stacked = isinstance(a, _StackedOperator)
    a = a if stacked else np.asarray(a, dtype=float)
    if len(a.shape) != 2 or b.ndim != 1 or a.shape[0] != b.size:
        raise ConfigurationError(f"incompatible nnls shapes {a.shape} and {b.shape}")
    if not np.all(np.isfinite(b)) or not (stacked or np.all(np.isfinite(a))):
        raise ConfigurationError("nnls data a and b must be finite")
    n = a.shape[1]
    x0 = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if x0.shape != (n,) or not np.all(np.isfinite(x0)) or np.any(x0 < 0.0):
        raise ConfigurationError(
            f"nnls start x0 must be finite, nonnegative and of shape "
            f"({n},); got shape {x0.shape}, min {np.min(x0, initial=0.0)}")
    if stacked:     # the target's penalty rows are zero
        normal = _Normal(a.design, np.swapaxes(a.roots, 1, 2) @ a.roots,
                         b[:a.design.shape[0]])
    else:           # a plain matrix is a design with a zero penalty
        normal = _Normal(a, np.zeros((1, n, n)), b)
    (x,), (converged,), (iterations,) = _pivoting(
        normal, normal.s * x0[None], 3 * n if max_iter is None else max_iter)
    if not converged:
        warnings.warn("nnls hit the iteration cap; returning best feasible "
                      "iterate", RuntimeWarning, stacklevel=2)
    x = x / normal.s
    return NnlsResult(x=x, converged=bool(converged), iterations=int(iterations),
                      residual=float(np.linalg.norm(a @ x - b)))


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
    nonnegative full-length coefficient vector ``x0``; ``nnls`` reads the
    matrix through its design and penalty blocks, never forming it."""
    design, roots = problem.design, problem.penalty_sqrt
    keep = ~_void(np.einsum("kj,kj->j", design, design)
                  + np.einsum("cij,cij->cj", roots, roots).ravel())
    if not np.all(keep):    # zeroed, their coefficients stay zero
        design = design * keep
        roots = roots * keep.reshape(roots.shape[0], 1, -1)
        x0 = None if x0 is None else x0 * keep
    return nnls(_StackedOperator(design, roots), problem.target, x0=x0)


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
    ``det`` (``deterministic_ops``) at a fixed parameter pair, built by
    ``build_problem`` and solved by ``solve_problem``.

    Returns the reconstructed input on the tau grid plus the solver result;
    ``x0`` warm-starts the solver from nonnegative basis coefficients, such
    as ``sol.x`` of a nearby parameter pair on the same TAC.  As in
    ``deconvolve``, a TAC that is not 1-d or has fewer than two samples
    raises ``ConfigurationError``, and a subject of zero gain (identically
    zero kernel) raises ``NumericalError``.
    """
    problem = build_problem(det, tac, r1, r2, m=m, variant="scalar")
    sol = solve_problem(problem, x0=x0)
    return problem.sample @ sol.x, sol


def _warm_scalar_solves(q: np.ndarray, mesh: SpatialMesh, tac: np.ndarray,
                        tau: float, r1: float, r2: float, m: int | None,
                        x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Single-subject deconvolutions of one TAC at the parameter pairs ``q``
    (n x 2), each warm-started from ``x0``.

    Row i of the returned curves (n x K) and its converged flag are those of
    ``deconvolve_deterministic(deterministic_ops(q[i], mesh, tau), tac, r1,
    r2, m, x0)``, up to rounding.  Groups of 8 K / m pairs (designs of at
    most 8 K^2 entries) get one ``impulse_kernels`` call on their stack of
    one-cell systems, one product with the lag tensor for their designs and
    one run of ``nnls``'s exchanges on their Grams.
    """
    r1, r2 = _snap_regs(r1, r2)
    n_grid = tac.size
    tm = _time_mesh(n_grid, tau, m)
    sample, root, lags = _time_basis(tm)[2], _penalty_root(tm, r1, r2), _mesh_lags(tm)
    curves, converged = np.empty((q.shape[0], n_grid)), np.empty(q.shape[0], bool)
    span = max(1, 8 * n_grid // sample.shape[1])
    for part in (slice(lo, lo + span) for lo in range(0, q.shape[0], span)):
        designs = _designs(impulse_kernels(deterministic_ops(q[part], mesh, tau),
                                           n_grid - 1), lags)
        normal = _Grams.of(designs @ np.swapaxes(designs, 1, 2) + root.T @ root,
                           designs @ tac)
        x, converged[part], _ = _pivoting(normal, normal.s * x0 * normal.keep,
                                          3 * sample.shape[1])
        curves[part] = (x / normal.s) @ sample.T
    return curves, converged


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

    ``path`` holds one (log10 r1, log10 r2, score) entry per point scored,
    in order: the start grid, then the compass stage.
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
#: the compass search stops once its step is below this many decades
_STEP_TOL = 1e-3


def select_regularization(ops: DiscreteTimeOps, episodes: list[Episode],
                          m: int | None = None, variant: str = "tq",
                          max_iter: int = 60) -> RegularizationSearch:
    """Pick (r1, r2) by direct search on training episodes with known BrAC.

    The search runs over the log10 weights inside the box ``_LOG_BOUNDS``.
    It first scores a 5 x 5 grid spanning the box, visited in snake order
    so each warm-started solve starts from a neighbouring point, then runs
    a compass search from the best grid point (Kolda, Lewis & Torczon,
    SIAM Rev. 45, 2003): it moves to the first of +r1, -r1, +r2 and -r2 one
    step away, clipped to the box, that scores strictly lower, and halves
    the step, from 1 decade, when none does, until it is below
    ``_STEP_TOL``.  As it only compares scores, its path does not depend on
    the data's units.  No point is scored twice; ``max_iter`` bounds the
    second stage's evaluations.  The box's lower edge is
    log10(``REG_FLOOR``), so the selected weights are never below the floor
    and never zero; ``at_bound`` on the returned record says whether the
    selection lies on an edge of the box.  A search that runs out of
    evaluations warns and returns the best point found, with ``converged``
    False.  Episodes that cannot train raise ``ConfigurationError``
    (``check_training_episodes``).
    """
    check_training_episodes(episodes, ops.tau)
    lo, hi = _LOG_BOUNDS
    search = [SearchEpisode(ops, ep, m=m, variant=variant) for ep in episodes]
    scores: dict[tuple[float, float], float] = {}     # in scoring order

    def objective(logr: tuple[float, float]) -> float:
        if logr not in scores:
            r1, r2 = _snap_regs(*(10.0 ** np.array(logr)))
            scores[logr] = _selection_misfit(search, r1, r2)
        return scores[logr]

    nodes = np.linspace(lo, hi, _GRID_NODES).tolist()
    for i, log_r2 in enumerate(nodes):
        for log_r1 in (nodes if i % 2 == 0 else nodes[::-1]):
            objective((log_r1, log_r2))
    best = min(scores, key=scores.get)
    budget = len(scores) + max_iter
    step, converged = 0.5 * (nodes[1] - nodes[0]), True
    while converged and step >= _STEP_TOL:
        for move in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            poll = tuple(np.clip(np.add(best, move), lo, hi).tolist())
            if poll not in scores and len(scores) == budget:
                converged = False
                break
            if objective(poll) < scores[best]:
                best = poll
                break
        else:
            step *= 0.5
    if not converged:
        warnings.warn("regularization search did not converge; using the "
                      "best point found", RuntimeWarning, stacklevel=2)
    r1, r2 = _snap_regs(*(10.0 ** np.array(best)))
    return RegularizationSearch(
        r1=r1, r2=r2, converged=converged, evals=len(scores),
        at_bound=any(v in (lo, hi) for v in best),
        path=tuple((*logr, score) for logr, score in scores.items()))


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
