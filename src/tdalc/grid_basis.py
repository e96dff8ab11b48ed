"""Meshes and finite-element bases used by every other module.

Three one-dimensional ingredients appear throughout the toolkit:

* linear B-splines (hat functions) on a uniform mesh of the unit interval,
  used for the spatial semi-discretization of the diffusion state;
* piecewise-constant indicators on uniform meshes of the two random-parameter
  intervals;
* linear B-splines in time, used to represent the unknown input signal when
  deconvolving.

This module owns the mesh geometry and the closed-form Gram (mass /
stiffness / boundary) matrices of the hat bases.  Everything downstream
flattens tensor-product indices by one convention: in a flattened tensor
index the first component varies fastest (NumPy's ``order="F"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError


def check_step(tau: float) -> None:
    """Reject a sample step that is not positive and finite."""
    if not 0.0 < tau < np.inf:
        raise ConfigurationError(f"tau must be positive and finite, got {tau}")


def hat_value(nodes: np.ndarray, j: int, x) -> np.ndarray | float:
    """Evaluate the j-th linear hat function on ``nodes`` at ``x``.

    The hats are the nodal basis of continuous piecewise-linear functions:
    ``hat_j(nodes[i]) == (i == j)``.  Outside the node range the value is 0.
    """
    nodes = np.asarray(nodes, dtype=float)
    if not 0 <= j < nodes.size:
        raise IndexError(f"basis index {j} out of range for {nodes.size} nodes")
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    if j > 0:
        left = (nodes[j - 1] <= x) & (x <= nodes[j])
        out = np.where(left, (x - nodes[j - 1]) / (nodes[j] - nodes[j - 1]), out)
    if j < nodes.size - 1:
        right = (nodes[j] <= x) & (x <= nodes[j + 1])
        out = np.where(right, (nodes[j + 1] - x) / (nodes[j + 1] - nodes[j]), out)
    return out if out.shape else float(out)


def hat_matrix(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate all hats at once: returns a ``len(x) x len(nodes)`` matrix."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    cols = [np.atleast_1d(hat_value(nodes, j, x)) for j in range(len(nodes))]
    return np.column_stack(cols)


@dataclass(frozen=True)
class SpatialGram:
    """Gram matrices of the hat basis plus the two endpoint trace vectors."""

    mass: np.ndarray        # integrals of hat_i * hat_j
    stiffness: np.ndarray   # integrals of hat_i' * hat_j'
    boundary0: np.ndarray   # outer product of the traces at the left endpoint
    trace0: np.ndarray      # hat values at the left endpoint
    trace1: np.ndarray      # hat values at the right endpoint


def assemble_1d_gram(nodes: np.ndarray) -> SpatialGram:
    """Assemble mass/stiffness/boundary matrices of the hats on ``nodes``.

    Element-by-element assembly; on each interval of length h the local mass
    contribution is h/6 * [[2, 1], [1, 2]] and the local stiffness is
    1/h * [[1, -1], [-1, 1]].
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2:
        raise ConfigurationError("need at least two mesh nodes")
    if np.any(np.diff(nodes) <= 0):
        raise ConfigurationError("mesh nodes must be strictly increasing")
    nb = nodes.size
    mass = np.zeros((nb, nb))
    stiff = np.zeros((nb, nb))
    for e in range(nb - 1):
        h = nodes[e + 1] - nodes[e]
        sl = slice(e, e + 2)
        mass[sl, sl] += h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
        stiff[sl, sl] += 1.0 / h * np.array([[1.0, -1.0], [-1.0, 1.0]])
    trace0 = np.zeros(nb)
    trace0[0] = 1.0
    trace1 = np.zeros(nb)
    trace1[-1] = 1.0
    return SpatialGram(mass=mass, stiffness=stiff,
                       boundary0=np.outer(trace0, trace0),
                       trace0=trace0, trace1=trace1)


@dataclass(frozen=True)
class SpatialMesh:
    """Uniform mesh of [0, 1] carrying the hat basis for the diffusion state.

    ``n`` is the interval count; the basis has ``n + 1`` hats.
    """

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ConfigurationError(f"spatial interval count must be >= 1, got {self.n}")

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n + 1)

    @property
    def basis_size(self) -> int:
        return self.n + 1

    @cached_property
    def gram(self) -> SpatialGram:
        return assemble_1d_gram(self.nodes)


@dataclass(frozen=True)
class ParamMesh:
    """Uniform cell mesh of one random-parameter interval [lo, hi].

    Carries the piecewise-constant (indicator) basis: one cell per basis
    function, ``count`` cells in total.
    """

    count: int
    lo: float
    hi: float

    def __post_init__(self):
        if self.count < 1:
            raise ConfigurationError(f"cell count must be >= 1, got {self.count}")
        if not self.hi > self.lo:
            raise ConfigurationError(
                f"parameter interval must have positive length, got [{self.lo}, {self.hi}]")

    @cached_property
    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count + 1)

    @cached_property
    def centers(self) -> np.ndarray:
        e = self.edges
        return 0.5 * (e[:-1] + e[1:])

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / self.count

    def cell_index(self, x) -> np.ndarray | int:
        """Cell containing ``x``; the right endpoint belongs to the last cell."""
        x = np.asarray(x, dtype=float)
        if np.any((x < self.lo) | (x > self.hi)):
            raise ValueError(f"value outside parameter interval [{self.lo}, {self.hi}]")
        idx = np.floor((x - self.lo) / self.width).astype(int)
        idx = np.clip(idx, 0, self.count - 1)
        return idx if idx.shape else int(idx)


@dataclass(frozen=True)
class TimeMesh:
    """Linear-spline basis in time for the reconstructed input signal.

    ``m`` nodal hats on [0, horizon] with node spacing horizon/(m - 1); the
    basis reproduces constants, so the derivative Gram matrix annihilates the
    all-ones coefficient vector.  ``horizon`` must be an integer multiple of
    the sample step ``tau``.
    """

    m: int
    horizon: float
    tau: float

    def __post_init__(self):
        if self.m < 2:
            raise ConfigurationError(f"temporal basis needs m >= 2, got {self.m}")
        check_step(self.tau)
        if not 0.0 < self.horizon < np.inf:
            raise ConfigurationError(
                f"horizon must be positive and finite, got {self.horizon}")
        steps = self.horizon / self.tau
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ConfigurationError(
                f"horizon {self.horizon} is not an integer multiple of tau {self.tau}")

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.m)

    @property
    def n_grid(self) -> int:
        """Number of tau-grid points 0, tau, ..., horizon inclusive."""
        return int(round(self.horizon / self.tau)) + 1

    @property
    def grid_times(self) -> np.ndarray:
        return self.tau * np.arange(self.n_grid)


def temporal_basis_matrices(tm: TimeMesh) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gram matrices and the sampling matrix of the temporal spline basis.

    Returns ``(G0, G1, sample)`` where G0/G1 are the m x m Gram matrices of
    the basis and of its derivative, and ``sample[k, i]`` is basis function i
    evaluated at t = k*tau over the full grid 0..horizon.
    """
    gram = assemble_1d_gram(tm.nodes)
    sample = hat_matrix(tm.nodes, tm.grid_times)
    return gram.mass, gram.stiffness, sample


@dataclass(frozen=True)
class DiscretizationGrid:
    """Bundle of the spatial mesh, the two parameter meshes, and the step tau.

    The parameter meshes must span the support box of the population density
    the grid is used with; ``from_params`` builds a matching grid and
    ``rebind`` rescales the cell edges to a new support while keeping all
    counts fixed.
    """

    spatial: SpatialMesh
    pm1: ParamMesh
    pm2: ParamMesh
    tau: float = 1.0

    def __post_init__(self):
        check_step(self.tau)

    @classmethod
    def from_params(cls, params, n: int = 4, m1: int = 4, m2: int = 4,
                    tau: float = 1.0) -> "DiscretizationGrid":
        return cls(spatial=SpatialMesh(n),
                   pm1=ParamMesh(m1, params.a[0], params.b[0]),
                   pm2=ParamMesh(m2, params.a[1], params.b[1]),
                   tau=tau)

    def rebind(self, params) -> "DiscretizationGrid":
        return DiscretizationGrid(
            spatial=self.spatial,
            pm1=ParamMesh(self.pm1.count, params.a[0], params.b[0]),
            pm2=ParamMesh(self.pm2.count, params.a[1], params.b[1]),
            tau=self.tau)

    @property
    def n_cells(self) -> int:
        return self.pm1.count * self.pm2.count

    def matches_support(self, params) -> bool:
        tol = 1e-12 * max(1.0, abs(params.b[0]), abs(params.b[1]))
        return (abs(self.pm1.lo - params.a[0]) <= tol
                and abs(self.pm1.hi - params.b[0]) <= tol
                and abs(self.pm2.lo - params.a[1]) <= tol
                and abs(self.pm2.hi - params.b[1]) <= tol)
