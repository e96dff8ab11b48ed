"""Galerkin discretization of the population diffusion model.

State space: tensor products of spatial hats with indicator functions of the
parameter cells, under the density-weighted inner product.  Because the
indicators of distinct cells are orthogonal, every operator in the weak form
is block diagonal over parameter cells, and each cell block is the classical
single-subject Galerkin system evaluated at that cell's conditional-mean
parameters, scaled by the cell mass.  A cell is therefore fully described by
its mass and its conditional means (qbar1, qbar2).

The model has one object, ``DiscreteTimeOps``: the spatial mesh, the cell
grid, the sampling step tau, and the cell masses and means.  ``assemble``
returns it at the grid's tau.  A single subject at q is its one-cell case,
unit mass at qbar = q (``deterministic_ops``), so every function of the
population model (kernels, convolution, the reference recursion,
deconvolution) runs on a single subject unchanged.

Each cell is a linear time-invariant system whose generator is self-adjoint
in the mass inner product, so its impulse response is a short sum of
exponentials.  The spectral core (``_spectrum`` and the kernel functions
below it) whitens the pencil by the Cholesky factor of the mass matrix, runs
one batched symmetric eigensolve over the cells, and returns the lag kernels
in closed form together with their exact derivative in the diffusivity
(Daleckii-Krein divided differences).  The model's one representation is
the kernel array of ``impulse_kernels``, row c the kernel of cell c; a
caller that means the population-mean kernel sums the rows.  Every
production path reads its kernels through it, the scalar band and the seed
fits included; only the fit's gradient reads the core's derivatives.
Simulation is a convolution with the kernel; no ``expm`` or time loop is
involved.

The reference is the zero-order-hold recursion: the matrix exponential on
each sampling interval, which makes the discrete flow map a true semigroup
(stepping with 2*tau equals stepping twice with tau).  ``DiscreteTimeOps``
builds its matrices lazily, and ``state_trajectory`` and ``simulate`` march
it; the tests compare the spectral kernels against it.

A 1-d input ``u`` is common to every cell, a (steps, n_cells) one gives each
cell its own; any other shape raises ``ConfigurationError``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import density
from .errors import ConfigurationError, NumericalError, ParameterError
from .grid_basis import DiscretizationGrid, SpatialMesh, check_step


@dataclass(frozen=True)
class DiscreteTimeOps:
    """The density-weighted Galerkin system, cell by cell, sampled at step tau.

    Cell c, in flat cell order over the ``cells`` = (m1, m2) grid (first
    parameter index fastest), carries mass p[c] and the conditional means
    qbar1[c], qbar2[c] of the diffusivity and the input gain.  Its blocks are
    p[c] times the single-subject Galerkin system at (qbar1[c], qbar2[c]), so
    these three vectors determine it; a single subject is the one-cell case
    (``deterministic_ops``).

    Its kernels come from the spectral core (``impulse_kernels``).  The
    zero-order-hold recursion matrices are the reference, built on first
    use: ahat[c] is the cell's discrete flow map exp(tau * A_c) with
    A_c = M^{-1} (-boundary0 - qbar1[c] * stiffness); bhat[c] is the
    discretized input column of cell c (it doubles as the scalar-input block,
    a constant-in-q input drives every cell with the same coefficient);
    c_out[c] pairs the state with the density-weighted left trace.
    """

    spatial: SpatialMesh
    cells: tuple[int, int]
    tau: float
    p: np.ndarray            # cell masses, flat cell order
    qbar1: np.ndarray        # per-cell conditional mean of the diffusivity
    qbar2: np.ndarray        # per-cell conditional mean of the input gain

    @property
    def n_cells(self) -> int:
        return self.p.size

    @functools.cached_property
    def _generators(self) -> np.ndarray:
        """Per-cell continuous generators A_c (the cell mass cancels)."""
        gram = self.spatial.gram
        rhs = -(gram.boundary0[None, :, :]
                + self.qbar1[:, None, None] * gram.stiffness[None, :, :])
        return np.linalg.solve(gram.mass, rhs)

    @functools.cached_property
    def ahat(self) -> np.ndarray:
        """(ncells, nb, nb) flow maps."""
        from scipy.linalg import expm     # the reference recursion's alone

        return expm(self.tau * self._generators)

    @functools.cached_property
    def bhat(self) -> np.ndarray:
        """(ncells, nb) discretized input columns."""
        gram = self.spatial.gram
        # continuous input column of cell c is qbar2[c] * M^{-1} trace1
        mb = (self.qbar2[:, None]
              * np.linalg.solve(gram.mass, gram.trace1)[None, :])
        eye = np.eye(self.spatial.basis_size)
        rhs = np.einsum("cij,cj->ci", self.ahat - eye[None, :, :], mb)
        return np.linalg.solve(self._generators, rhs[..., None])[..., 0]

    @functools.cached_property
    def c_out(self) -> np.ndarray:
        """(ncells, nb) density-weighted left traces."""
        return self.p[:, None] * self.spatial.gram.trace0


def _flat_cells(arr: np.ndarray) -> np.ndarray:
    """(m1, m2) cell array -> flat vector with the first index fastest."""
    return np.asarray(arr).ravel(order="F")


def assemble(params: density.PopulationParams,
             grid: DiscretizationGrid) -> DiscreteTimeOps:
    """Assemble the density-weighted Galerkin system on ``grid``, sampled at
    the grid's tau.

    The grid's parameter meshes must span the support box of ``params``.
    """
    if not grid.matches_support(params):
        raise ConfigurationError(
            f"grid support [{grid.pm1.lo}, {grid.pm1.hi}] x "
            f"[{grid.pm2.lo}, {grid.pm2.hi}] does not match the distribution "
            f"box {params.a.tolist()} .. {params.b.tolist()}")
    weights = density.moment_weights(params, grid.pm1, grid.pm2)
    return assemble_from_weights(weights, grid)


def assemble_from_weights(weights: density.CellWeights,
                          grid: DiscretizationGrid) -> DiscreteTimeOps:
    """Assembly core, usable with externally supplied (or perturbed) weights.

    A cell whose mass underflows to zero (a far tail of a tight density) is
    kept in the block structure with its conditional means replaced by the
    cell midpoint; its zero mass removes it from the input, the output,
    and the mass, so it contributes nothing to the dynamics.
    """
    p = _flat_cells(weights.p)
    w1 = _flat_cells(weights.w1)
    w2 = _flat_cells(weights.w2)
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(w1)) and np.all(np.isfinite(w2))):
        raise NumericalError("cell weights are not finite")
    if np.any(p < 0.0):
        raise NumericalError(
            f"negative cell mass (min {p.min():.3e}); mass matrix would "
            f"not be positive definite")
    if not np.any(p > 0.0):
        raise NumericalError("all cell masses vanished; density does not "
                             "touch the support box")
    alive = p > 0.0
    c1, c2 = np.meshgrid(grid.pm1.centers, grid.pm2.centers, indexing="ij")
    centers1 = _flat_cells(c1)
    centers2 = _flat_cells(c2)
    with np.errstate(invalid="ignore"):
        qbar1 = np.where(alive, w1 / np.where(alive, p, 1.0), centers1)
        qbar2 = np.where(alive, w2 / np.where(alive, p, 1.0), centers2)
    if np.any(qbar1 <= 0.0):
        raise ParameterError(
            "support admits nonpositive diffusivity; cell conditional means "
            f"of q1 include {qbar1.min():.3e}")
    return DiscreteTimeOps(spatial=grid.spatial,
                           cells=(grid.pm1.count, grid.pm2.count),
                           tau=grid.tau, p=p, qbar1=qbar1, qbar2=qbar2)


def discrete_time(ops: DiscreteTimeOps,
                  tau: float | None = None) -> DiscreteTimeOps:
    """The system sampled at step tau (default: its own)."""
    if tau is None:
        return ops
    check_step(tau)
    return replace(ops, tau=tau)


def deterministic_ops(q, mesh: SpatialMesh, tau: float) -> DiscreteTimeOps:
    """Single-subject Galerkin model at q = (diffusivity, input gain): the
    one-cell system of unit mass at q.  A stack of n pairs (n x 2) gives n
    such systems side by side, cells (n, 1), for one ``impulse_kernels``
    call: not a population law, so nothing sums their kernels."""
    q = np.array(q, dtype=float)
    if q.ndim not in (1, 2) or q.shape[-1] != 2:
        raise ConfigurationError(f"q must be a pair or n x 2, got shape {q.shape}")
    q1, q2 = q.reshape(-1, 2).T
    bad = q1[~((q1 > 0.0) & (q1 < np.inf))]
    if bad.size:
        raise ParameterError(f"diffusivity must be positive and finite, got {bad[0]}")
    bad = q2[~np.isfinite(q2)]
    if bad.size:
        raise ParameterError(f"input gain must be finite, got {bad[0]}")
    check_step(tau)
    return DiscreteTimeOps(spatial=mesh, cells=(q1.size, 1), tau=tau,
                           p=np.ones(q1.size), qbar1=q1, qbar2=q2)


def _check_input(u: np.ndarray, n_cells: int) -> np.ndarray:
    """``u`` as floats: 1-d (one input common to every cell) or
    (steps, n_cells) (one input per cell)."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 and (u.ndim != 2 or u.shape[1] != n_cells):
        raise ConfigurationError(
            f"input must have shape (steps,) or (steps, {n_cells}), "
            f"got {u.shape}")
    return u


def state_trajectory(ops: DiscreteTimeOps,
                     u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """March the reference recursion from the zero state.

    Returns (states, y): states[j] is the block state before step j's output,
    j = 0..steps, and y[k-1] is the observed output after k steps, k = 1..steps.
    """
    u = _check_input(u, ops.n_cells)
    steps = u.shape[0]
    drives = (u[:, None] if u.ndim == 1 else u)[:, :, None]
    nc, nb = ops.bhat.shape
    states = np.zeros((steps + 1, nc, nb))
    y = np.zeros(steps)
    x = np.zeros((nc, nb))
    for j in range(steps):
        x = np.einsum("cij,cj->ci", ops.ahat, x) + ops.bhat * drives[j]
        states[j + 1] = x
        y[j] = float(np.sum(ops.c_out * x))
    return states, y


def simulate(ops: DiscreteTimeOps, u: np.ndarray) -> np.ndarray:
    """Output samples y_1..y_steps for a zero-order-hold input u_0..u_{steps-1},
    by the reference recursion."""
    _, y = state_trajectory(ops, u)
    return y


def impulse_kernels(ops: DiscreteTimeOps, count: int) -> np.ndarray:
    """First ``count`` impulse-response kernels h_l = C Ahat^{l-1} Bhat, cell
    by cell: an (n_cells, count) array whose row c is p[c] * qbar2[c] times
    the unit-gain kernel of cell c, so zero-mass cells carry none.  The
    population-mean kernel is the sum of the rows."""
    if count < 1:
        raise ConfigurationError(f"kernel count must be >= 1, got {count}")
    unit = _spectral_kernels(ops.spatial, ops.qbar1, ops.tau, count)
    return (ops.p * ops.qbar2)[:, None] * unit


def convolve(kernels: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Evaluate the output by kernel convolution instead of state marching.

    y_k = sum_{l=1..k} h_l u_{k-l}: one ``np.convolve`` with the mean kernel
    (the rows of ``kernels`` summed) for a 1-d ``u``, one per cell, summed,
    for a (steps, n_cells) ``u``.
    """
    u = _check_input(u, kernels.shape[0])
    steps = u.shape[0]
    if steps > kernels.shape[1]:
        raise ConfigurationError(
            f"need {steps} kernels for {steps} steps, have {kernels.shape[1]}")
    if steps == 0:
        return np.zeros(0)
    if u.ndim == 1:
        kernels, u = kernels.sum(axis=0, keepdims=True), u[:, None]
    return np.sum([np.convolve(kernels[c, :steps], u[:, c])[:steps]
                   for c in range(u.shape[1])], axis=0)


def simulate_deterministic(det: DiscreteTimeOps, u: np.ndarray) -> np.ndarray:
    """Output samples y_1..y_steps of a single subject: the input convolved
    with its kernel."""
    return convolve(impulse_kernels(det, max(len(u), 1)), u)


def deterministic_kernels(det: DiscreteTimeOps, count: int) -> np.ndarray:
    """Scalar impulse-response sequence of a single subject."""
    return impulse_kernels(det, count).sum(axis=0)


# ---------------------------------------------------------------------------
# spectral core: closed-form kernels of the cell systems

# eigenvalue pairs closer than this (relative) take the derivative in place
# of their divided difference
_CLOSE = 1e-8

# exp rounds to zero below log(2^-1075) = -745.13
_UNDERFLOW = -746.0


@dataclass(frozen=True)
class _Pencil:
    """The spatial Galerkin pencil in the mass-orthonormal frame, M = L L^T.

    The cell generator -M^-1 (B0 + q1 S) is similar to minus the symmetric
    boundary0 + q1 * stiffness below.  Read-only: instances are shared.
    """

    boundary0: np.ndarray    # L^-1 B0 L^-T
    stiffness: np.ndarray    # L^-1 S L^-T
    trace0: np.ndarray       # L^-1 t0
    trace1: np.ndarray       # L^-1 t1
    nodal: np.ndarray        # L^-T, whitened coordinates -> hat coefficients
    slopes: np.ndarray       # S = slopes^T slopes (scaled node differences)


@functools.lru_cache(maxsize=16)
def _pencil(mesh: SpatialMesh) -> _Pencil:
    gram = mesh.gram
    linv = np.linalg.inv(np.linalg.cholesky(gram.mass))
    # the hat stiffness is a sum over elements of (z_{e+1} - z_e)^2 / h_e
    slopes = (np.sqrt(-np.diagonal(gram.stiffness, 1))[:, None]
              * np.diff(np.eye(mesh.basis_size), axis=0))
    pen = _Pencil(boundary0=linv @ gram.boundary0 @ linv.T,
                  stiffness=linv @ gram.stiffness @ linv.T,
                  trace0=linv @ gram.trace0, trace1=linv @ gram.trace1,
                  nodal=linv.T, slopes=slopes)
    for arr in vars(pen).values():
        arr.setflags(write=False)
    return pen


def _spectrum(mesh: SpatialMesh, qbar1) -> tuple[np.ndarray, ...]:
    """Modes of the whitened generators at diffusivities ``qbar1`` (any shape).

    Returns the decay rates lam (positive), the eigenvectors, and the output
    and input traces in the eigenbasis, each with the leading shape of
    ``qbar1``.
    """
    pen = _pencil(mesh)
    q = np.asarray(qbar1, dtype=float)
    _, vecs = np.linalg.eigh(pen.boundary0 + q[..., None, None] * pen.stiffness)
    a = pen.trace0 @ vecs
    # eigh fixes a rate only to eps * |K|, far from relative accuracy for the
    # slow modes that carry the kernel; the Rayleigh quotient, a sum of
    # squares (B0 = t0 t0^T), restores it: its error is second order in the
    # eigenvector's
    z = pen.nodal @ vecs
    lam = ((a ** 2 + q[..., None] * np.sum((pen.slopes @ z) ** 2, axis=-2))
           / np.sum(vecs ** 2, axis=-2))
    return lam, vecs, a, pen.trace1 @ vecs


def _hold_gain(lam: np.ndarray, tau: float) -> np.ndarray:
    """Zero-order-hold gain (1 - exp(-tau lam)) / lam of each mode."""
    return -np.expm1(-tau * lam) / lam


def _decays(lam: np.ndarray, tau: float, count: int) -> np.ndarray:
    """exp(-tau lam (l - 1)) for lags l = 1..count, shape (..., count, nb).

    The exponentials are taken mode by mode, lags contiguous: the fast
    modes underflow after a few lags, and numpy's vectorized exp is several
    times slower on vectors that mix underflowing and normal values.  An
    argument below ``_UNDERFLOW``, where exp rounds to zero, is set to zero
    without calling it.
    """
    decay = -tau * np.arange(count) * lam[..., :, None]
    under = decay < _UNDERFLOW
    np.exp(decay, out=decay, where=~under)
    np.copyto(decay, 0.0, where=under)
    return np.ascontiguousarray(np.swapaxes(decay, -1, -2))


def _spectral_kernels(mesh: SpatialMesh, qbar1, tau: float,
                      count: int) -> np.ndarray:
    """Unit-gain lag kernels of the cell systems at diffusivities ``qbar1``.

    g_l = sum_k a_k b_k phi(lam_k) exp(-tau lam_k (l - 1)), l = 1..count, with
    a, b the output and input traces in the eigenbasis and phi the hold gain;
    shape (*qbar1.shape, count).  A cell of mass p and input gain qbar2
    contributes p * qbar2 * g to the population kernel.
    """
    lam, _, a, b = _spectrum(mesh, qbar1)
    return np.einsum("...lk,...k->...l", _decays(lam, tau, count),
                     a * b * _hold_gain(lam, tau))


def _spectral_kernel_derivatives(mesh: SpatialMesh, qbar1, tau: float,
                                 count: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit-gain kernels and their derivatives in the diffusivity.

    g_l = a^T f_l(K) b with K the whitened operator, dK/dq1 the whitened
    stiffness S, and f_l(lam) = phi(lam) exp(-tau lam (l - 1)).  By the
    Daleckii-Krein formula dg_l = sum_ij G_ij f_l[lam_i, lam_j] with
    G = diag(a) V^T S V diag(b) and f_l[., .] the divided difference (f_l' on
    the diagonal).  Writing f_l[lam_i, lam_j] = (f_l(lam_i) - f_l(lam_j)) /
    (lam_i - lam_j) splits this into sum_i c_i f_l(lam_i) + d_i f_l'(lam_i):
    c_i = sum_j (G_ij + G_ji) / (lam_i - lam_j) over separated pairs, and d_i
    collects G_ii plus half of (G_ij + G_ji) for each pair too close to
    divide.  Memory stays at (cells, count, nb).
    """
    s = _pencil(mesh).stiffness
    lam, vecs, a, b = _spectrum(mesh, qbar1)
    g = a[..., :, None] * (np.swapaxes(vecs, -1, -2) @ s @ vecs) * b[..., None, :]
    sym = g + np.swapaxes(g, -1, -2)
    li, lj = lam[..., :, None], lam[..., None, :]
    close = np.abs(li - lj) <= _CLOSE * np.maximum(li, lj)
    inv_gap = np.divide(1.0, li - lj, out=np.zeros_like(sym), where=~close)
    c = np.sum(sym * inv_gap, axis=-1)
    d = 0.5 * np.sum(np.where(close, sym, 0.0), axis=-1)
    phi = _hold_gain(lam, tau)
    dphi = (tau * np.exp(-tau * lam) - phi) / lam
    decay = _decays(lam, tau, count)
    kern = np.einsum("...lk,...k->...l", decay, a * b * phi)
    lags = tau * np.arange(count)
    dkern = (np.einsum("...lk,...k->...l", decay, c * phi + d * dphi)
             - lags * np.einsum("...lk,...k->...l", decay, d * phi))
    return kern, dkern

