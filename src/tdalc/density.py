"""Truncated bivariate normal population distribution.

The two random parameters of the diffusion model are jointly distributed as a
bivariate normal restricted to an axis-aligned support box and renormalized.
This module owns everything distribution-related: the density itself, cell
integrals (mass and first moments) over a parameter-cell mesh, derivatives of
those integrals in every distribution parameter, rejection sampling, the
credible-disk radius, and the on-disk key-value format.

Cell integrals are in closed form.  A cell mass is a rectangle probability
of the bivariate normal: four corner values of its distribution function
Phi_2, from Owen's T function (Owen, Ann. Math. Stat. 27, 1956) with each
cell reflected so that its leading corner's quadrant holds the cell's
nearest point to the mean, which keeps masses far in a tail to full relative
accuracy.  Since grad phi = -Sigma^-1 (q - mu) phi, the first moments and the
derivatives in the location, the covariance and the support bounds reduce to
integrals of phi along the mesh lines, phi_1(x) times a conditional normal
interval probability, and to phi at the mesh nodes.  No quadrature is
involved, so the weights stay accurate for laws of any width: a law far
narrower than its cell puts all the mass in that cell, at the mean.

The credible disk's mass is the one integral left: the ``_Lines`` mass of
the disk's chords across the disk, summed by a globally adaptive 21-point
Gauss-Kronrod rule (QUADPACK's QK21 and its error estimate, at most 200
pieces) written in numpy, and its radius is found by bisecting on that mass
to full double precision, so a narrow law's radius is as good as a wide
one's.  The module needs only numpy and ``scipy.special``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial.laguerre import laggauss
from scipy.special import ndtr, owens_t

from .errors import ConfigurationError, ParameterError, SamplingError
from .grid_basis import ParamMesh

#: the nine fit parameters, in the order of packed vectors and of the rows of
#: ``moment_weight_derivatives``: the support box's lower and upper bounds,
#: the normal location and the lower Cholesky factor's entries
PARAMETER_NAMES = ("a1", "a2", "b1", "b2", "mu1", "mu2", "l11", "l21", "l22")

_SQRT2 = math.sqrt(2.0)
# past a t / sqrt 2 = 1.5 an Owen tail is summed directly (``_owen_tail``):
# the difference of owens_t values would lose more than a factor 30
_TAIL_START = 1.5
# smallest normal double: a subnormal cell mass is flushed to zero
_TINY = np.finfo(float).tiny


@dataclass(frozen=True, eq=False)
class PopulationParams:
    """Support box [a1, b1] x [a2, b2] plus normal location and covariance."""

    a: np.ndarray
    b: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        for name in ("a", "b", "mu"):
            arr = np.array(getattr(self, name), dtype=float).reshape(2)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        sig = np.array(self.sigma, dtype=float).reshape(2, 2)
        sig.flags.writeable = False
        object.__setattr__(self, "sigma", sig)
        if not np.all(np.isfinite(self.a)) or not np.all(np.isfinite(self.b)) \
                or not np.all(np.isfinite(self.mu)) or not np.all(np.isfinite(sig)):
            raise ParameterError("population parameters must be finite")
        if np.any(self.b <= self.a):
            raise ParameterError(
                f"support box is empty: a={self.a.tolist()}, b={self.b.tolist()}")
        if abs(sig[0, 1] - sig[1, 0]) > 1e-12 * max(1.0, abs(sig[0, 1])):
            raise ParameterError("covariance must be symmetric")
        try:
            np.linalg.cholesky(sig)
        except np.linalg.LinAlgError:
            raise ParameterError(
                f"covariance is not positive definite: {sig.tolist()}") from None

    @classmethod
    def from_scalars(cls, a1: float, a2: float, b1: float, b2: float,
                     mu1: float, mu2: float,
                     s11: float, s12: float, s22: float) -> "PopulationParams":
        return cls(a=np.array([a1, a2]), b=np.array([b1, b2]),
                   mu=np.array([mu1, mu2]),
                   sigma=np.array([[s11, s12], [s12, s22]]))

    @cached_property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor of the covariance."""
        return np.linalg.cholesky(self.sigma)

    @cached_property
    def sigma_inv(self) -> np.ndarray:
        return np.linalg.inv(self.sigma)

    @cached_property
    def _gauss_norm(self) -> float:
        det = np.linalg.det(self.sigma)
        return 1.0 / (2.0 * math.pi * math.sqrt(det))

    def as_dict(self) -> dict[str, float]:
        return {
            "a1": float(self.a[0]), "a2": float(self.a[1]),
            "b1": float(self.b[0]), "b2": float(self.b[1]),
            "mu1": float(self.mu[0]), "mu2": float(self.mu[1]),
            "s11": float(self.sigma[0, 0]), "s12": float(self.sigma[0, 1]),
            "s22": float(self.sigma[1, 1]),
        }


def gauss_density(params: PopulationParams, q: np.ndarray) -> np.ndarray:
    """Unnormalized (untruncated) bivariate normal density, batched over q."""
    q = np.asarray(q, dtype=float)
    d = q - params.mu
    si = params.sigma_inv
    expo = (si[0, 0] * d[..., 0] ** 2
            + 2.0 * si[0, 1] * d[..., 0] * d[..., 1]
            + si[1, 1] * d[..., 1] ** 2)
    return params._gauss_norm * np.exp(-0.5 * expo)


def _peak_breaks(lo: float, hi: float, center: float, sd: float) -> list:
    """Break points that split a normal peak at ``center`` off the quadrature
    interval (lo, hi), so the adaptive rule cannot step over a narrow one."""
    return [p for p in center + sd * np.array([-8.0, 0.0, 8.0]) if lo < p < hi]


@cache
def _laguerre_rule() -> tuple[np.ndarray, np.ndarray]:
    """32-point Gauss-Laguerre nodes and weights, built on first use."""
    return laggauss(32)


def _owen_tail(t: np.ndarray, a: np.ndarray) -> np.ndarray:
    """T(t, inf) - T(t, a) for t >= 0 and any a, to full relative accuracy.

    Owen's T(t, a) is (1/2pi) int_0^a exp(-t^2 (1 + x^2)/2) / (1 + x^2) dx,
    so this is the same integral from a to infinity.  With s = x t / sqrt 2 it
    is exp(-t^2/2) / (pi sqrt(2) t) int_{s0}^inf exp(-s^2) / (1 + 2 s^2/t^2) ds,
    s0 = a t / sqrt 2.  Up to s0 = ``_TAIL_START`` the difference of
    ``owens_t`` values loses at most a factor 1/erfc(1.5) = 30; past it the
    shift s = s0 + y / (2 s0) leaves exp(-y) times a smooth factor, which
    Gauss-Laguerre sums with the leading exp(-t^2 (1 + a^2)/2) factored out.
    """
    with np.errstate(invalid="ignore"):
        s0 = a * t / _SQRT2    # nan at t = 0, a = +-inf: the direct branch
    far = s0 > _TAIL_START
    out = np.empty(t.shape)
    near = ~far
    out[near] = 0.5 * ndtr(-t[near]) - owens_t(t[near], a[near])
    if far.any():
        tf, sf = t[far], s0[far]
        nodes, weights = _laguerre_rule()
        y = nodes[:, None] / (2.0 * sf)
        s = sf + y
        f = np.exp(-y * y) * (0.5 * tf) / (0.5 * tf * tf + s * s)
        out[far] = (np.exp(-0.5 * tf * tf - sf * sf) / (2.0 * math.pi * _SQRT2 * sf)
                    * (weights @ f))
    return out


def _bvn_cdf(h: np.ndarray, k: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """P(X <= h, Y <= k) for standard normals X, Y of correlation rho.

    Owen's (1956) form Phi(h)/2 + Phi(k)/2 - T(h, a_h) - T(k, a_k) - beta,
    with a_h = (k - rho h) / (h sqrt(1 - rho^2)) and beta = 1/2 where h k < 0.
    Each half Phi(h)/2 - T(h, a_h) is the Owen tail beyond a_h, or 1/2 minus
    the tail beyond -a_h where h > 0, and the constant halves are summed
    apart, so a quadrant whose apex is its point nearest the mean keeps its
    relative accuracy however far out it lies.
    """
    s = np.sqrt((1.0 - rho) * (1.0 + rho))
    both = (h == 0.0) & (k == 0.0)
    ends = np.stack([h, k])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # on an axis the half is 0 (a = +inf) and beta drops with it
        slope = np.where(ends == 0.0, np.inf, (np.stack([k, h]) - rho * ends) / (ends * s))
    upper = ends > 0.0
    tail = _owen_tail(np.abs(ends), np.where(upper, -slope, slope))
    halves = 0.5 * upper.sum(axis=0) - np.where(h * k < 0.0, 0.5, 0.0)
    signed = np.where(upper, -tail, tail)
    return np.where(both, 0.25 + np.arcsin(rho) / (2.0 * math.pi),
                    (signed[0] + signed[1]) + halves)


def _mesh_masses(x: np.ndarray, y: np.ndarray, rho: float) -> np.ndarray:
    """Mass of every cell [x_i, x_i+1] x [y_j, y_j+1] of a mesh with edges x
    and y under the standard bivariate normal of correlation rho.

    Four corner values of Phi_2 per cell, with the cell reflected along each
    axis so that the quadrant at its leading corner is one whose point
    nearest the mean is the cell's own nearest point, in the law's metric
    x^2 - 2 rho x y + y^2.  Along x that point sits at x_i when the form's
    minimum over the cell's y interval, F(x), rises there (F'(x_i) > 0: the
    upper quadrant x >= x_i), at x_i+1 when it falls there, and between
    otherwise; F'(x_i) + F'(x_i+1) > 0 decides all three, taking the nearer
    bound in the last case.  The quadrants subtracted from the leading one
    then hold less mass than the cell, so the corner sum does not cancel
    even far in a tail.
    """
    def slope(u, v):
        # F'(u) / 2 on each line u = const over each interval of v
        return u[:, None] - rho * np.minimum(np.maximum(rho * u[:, None], v[None, :-1]),
                                             v[None, 1:])

    sx, sy = slope(x, y), slope(y, x).T
    flip_x = sx[:-1] + sx[1:] > 0.0
    flip_y = sy[:, :-1] + sy[:, 1:] > 0.0
    x0, x1 = x[:-1, None], x[1:, None]
    y0, y1 = y[None, :-1], y[None, 1:]
    xl, xh = np.where(flip_x, -x1, x0), np.where(flip_x, -x0, x1)
    yl, yh = np.where(flip_y, -y1, y0), np.where(flip_y, -y0, y1)
    r = np.where(flip_x != flip_y, -rho, rho)
    f = _bvn_cdf(np.stack([xh, xl, xh, xl]), np.stack([yh, yh, yl, yl]), r)
    return np.maximum((f[0] - f[1]) - (f[2] - f[3]), 0.0)


def _standard_box(params: PopulationParams, e1: np.ndarray, e2: np.ndarray):
    """Mesh edges in standard units of each marginal, and the correlation."""
    sd1 = math.sqrt(params.sigma[0, 0])
    sd2 = math.sqrt(params.sigma[1, 1])
    return ((e1 - params.mu[0]) / sd1, (e2 - params.mu[1]) / sd2,
            float(params.sigma[0, 1] / (sd1 * sd2)))


def _box_mass(params: PopulationParams) -> float:
    """Normal mass of the support box, or ParameterError where none is left
    in double precision."""
    x, y, rho = _standard_box(params, np.array([params.a[0], params.b[0]]),
                              np.array([params.a[1], params.b[1]]))
    z = float(_mesh_masses(x, y, rho)[0, 0])
    if not z >= _TINY:
        raise ParameterError(
            f"support box carries no normal mass (normalization {z!r})")
    return z


def pdf(params: PopulationParams, q) -> np.ndarray | float:
    """Truncated-normal density at q (shape (..., 2)); zero outside the box."""
    q = np.asarray(q, dtype=float)
    z = _box_mass(params)
    inside = np.all((q >= params.a) & (q <= params.b), axis=-1)
    vals = np.where(inside, gauss_density(params, q) / z, 0.0)
    return vals if vals.shape else float(vals)


class _Lines(NamedTuple):
    """Integrals of the normal density along the mesh lines q_a = const,
    over each interval of the other coordinate q_b.

    With the q_a marginal density ``dens`` at each line and q_b | q_a of mean
    ``mean`` and standard deviation ``sd`` (slope ``slope`` in q_a), the mesh
    nodes sit at ``z`` in standard units, with standard normal density
    ``phi``; an interval carries ``cdf`` = Phi(z1) - Phi(z0).  Node arrays
    are (lines, nodes), interval arrays (lines, intervals); ``offset`` =
    q_a - mu_a and ``var`` is the q_a variance.
    """

    offset: np.ndarray
    var: float
    dens: np.ndarray
    mean: np.ndarray
    sd: float
    slope: float
    z: np.ndarray
    phi: np.ndarray
    cdf: np.ndarray

    @classmethod
    def build(cls, pos, other, mu_a, mu_b, var, cov, sd):
        """Lines q_a = ``pos`` over the intervals between the ``other``
        edges, shared (1-d) or one row per line; ``var`` and ``cov`` are
        Var q_a and Cov(q_a, q_b), ``sd`` the conditional standard deviation
        of q_b."""
        offset = pos - mu_a
        dens = np.exp(-0.5 * offset * offset / var) / math.sqrt(2.0 * math.pi * var)
        slope = cov / var
        mean = mu_b + slope * offset
        z = (other - mean[:, None]) / sd
        lo, hi = z[:, :-1], z[:, 1:]
        # the difference of upper tails where the interval lies above the mean
        up = lo > 0.0
        cdf = ndtr(np.where(up, -lo, hi)) - ndtr(np.where(up, -hi, lo))
        phi = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return cls(offset, var, dens, mean, sd, slope, z, phi, cdf)

    @property
    def nodes(self) -> np.ndarray:
        """The density at the mesh nodes on each line."""
        return self.dens[:, None] * self.phi / self.sd

    @property
    def mass(self) -> np.ndarray:
        """Integral of the density over each interval of each line."""
        return self.dens[:, None] * self.cdf

    def first(self) -> np.ndarray:
        """Integral of q_b times the density over each interval."""
        return self.dens[:, None] * (self.mean[:, None] * self.cdf
                                     - self.sd * _along(self.phi))

    def normal(self) -> tuple[np.ndarray, np.ndarray]:
        """d/dq_a of ``mass`` and ``first``: the integrals of the density's
        and of q_b times its derivative normal to the line."""
        lead = -(self.offset / self.var)[:, None]
        mean = self.mean[:, None]
        d_phi, d_zphi = _along(self.phi), _along(self.z * self.phi)
        d_mass = self.dens[:, None] * (lead * self.cdf - self.slope / self.sd * d_phi)
        d_first = self.dens[:, None] * (
            lead * (mean * self.cdf - self.sd * d_phi)
            + self.slope * (self.cdf - mean / self.sd * d_phi - d_zphi))
        return d_mass, d_first


def _across(arr: np.ndarray) -> np.ndarray:
    """Differences between consecutive vertical lines (first axis)."""
    return arr[1:] - arr[:-1]


def _along(arr: np.ndarray) -> np.ndarray:
    """Differences between consecutive horizontal lines (second axis)."""
    return arr[:, 1:] - arr[:, :-1]


@dataclass(frozen=True)
class CellWeights:
    """Normalized cell integrals of the density and its first moments.

    ``p[i, j]`` is the probability mass of cell (i, j); ``w1``/``w2`` are the
    cell integrals of q1*f and q2*f.  ``mass`` is the normal mass of the
    support box, which normalizes them.  The line integrals and raw cell
    masses they came from are kept for ``moment_weight_derivatives``.
    """

    p: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    mass: float
    _lines: tuple = field(repr=False, compare=False)


def moment_weights(params: PopulationParams, pm1: ParamMesh,
                   pm2: ParamMesh) -> CellWeights:
    """Cell masses and first-moment weights of the truncated density.

    In closed form: a cell mass is a rectangle probability, four corner
    values of the bivariate normal distribution function (``_mesh_masses``),
    and since grad phi = -Sigma^-1 (q - mu) phi the first moments are
    int_R q phi = mu P(R) - Sigma int_R grad phi, whose components are the
    differences of the density's integrals along the cell's opposite edges.
    The masses sum to 1 by construction; a box with no normal mass left in
    double precision raises ParameterError.
    """
    e1, e2 = pm1.edges, pm2.edges
    x, y, rho = _standard_box(params, e1, e2)
    raw_p = _mesh_masses(x, y, rho)
    # a subnormal mass has lost the digits its conditional means need
    raw_p[raw_p < _TINY] = 0.0
    z = float(raw_p.sum())
    if not z > 0.0:
        raise ParameterError(
            f"support box carries no normal mass (normalization {z!r})")
    sig, low = params.sigma, params.chol
    mu1, mu2 = params.mu
    # lines q1 = e1_i over q2 intervals, and q2 = e2_j over q1 intervals; the
    # conditional standard deviations are L22 and det^(1/2) / sd2
    vert = _Lines.build(e1, e2, mu1, mu2, sig[0, 0], sig[0, 1], low[1, 1])
    horiz = _Lines.build(e2, e1, mu2, mu1, sig[1, 1], sig[0, 1],
                         low[0, 0] * low[1, 1] / math.sqrt(sig[1, 1]))
    grad1 = _across(vert.mass)      # int_R d phi / d q1
    grad2 = _along(horiz.mass.T)    # int_R d phi / d q2
    live = raw_p > 0.0
    raw_w1 = np.where(live, mu1 * raw_p - (sig[0, 0] * grad1 + sig[0, 1] * grad2), 0.0)
    raw_w2 = np.where(live, mu2 * raw_p - (sig[0, 1] * grad1 + sig[1, 1] * grad2), 0.0)
    return CellWeights(p=raw_p / z, w1=raw_w1 / z, w2=raw_w2 / z, mass=z,
                       _lines=(raw_p, vert, horiz))


def cell_masses(params: PopulationParams, pm1: ParamMesh,
                pm2: ParamMesh) -> np.ndarray:
    """Probability mass of every parameter cell; entries sum to 1."""
    return moment_weights(params, pm1, pm2).p


def _cholesky_chain(a11, a12, a22, low) -> tuple:
    """Derivatives in L11, L21, L22 of a quantity whose derivative in the
    covariance is (1/2) A, A symmetric: with d Sigma = dL L^T + L dL^T they
    are the lower entries of A L."""
    return (a11 * low[0, 0] + a12 * low[1, 0],
            a12 * low[0, 0] + a22 * low[1, 0],
            a22 * low[1, 1])


def moment_weight_derivatives(params: PopulationParams, pm1: ParamMesh, pm2: ParamMesh,
                              weights: CellWeights | None = None) -> np.ndarray:
    """Analytic derivatives of the cell weights in every fit parameter.

    ``weights`` must be ``moment_weights(params, pm1, pm2)``; its line
    integrals and box mass are reused.  The meshes must span the support
    box.  Every derivative is an edge or corner term, with P, M1, M2 the
    unnormalized cell integrals of phi, q1 phi, q2 phi:

    * location: d phi / d mu = -grad phi, so dP/dmu_k is minus the edge
      difference int_R d_k phi, and dM_l/dmu_k = delta_lk P - (the same
      difference of q_l phi);
    * covariance: d phi / d Sigma = (1/2) grad grad phi, whose cell integrals
      against 1 and q_l are integrated by parts onto the edges (derivatives
      of the line integrals normal to their line) and the corners (phi and
      q_l phi at the mesh nodes), then chained to the Cholesky entries;
    * support bounds: each node is q_k = a_k + (b_k - a_k) s_k with s_k in
      [0, 1] fixed, so a moving edge adds its line integral weighted by s_k
      for b_k and by 1 - s_k for a_k.

    The normalization by the box mass is differentiated last.  Returns one
    (9, 3, m1, m2) array: the derivatives of (p, w1, w2) in each parameter
    of ``PARAMETER_NAMES``, in that order.
    """
    if weights is None:
        weights = moment_weights(params, pm1, pm2)
    raw_p, vert, horiz = weights._lines
    e1, e2 = pm1.edges, pm2.edges
    low = params.chol
    # vertical lines (m1 + 1, m2) and horizontal lines as (m1, m2 + 1)
    v_mass, v_first = vert.mass, vert.first()
    h_mass, h_first = horiz.mass.T, horiz.first().T
    v_norm, v_norm_first = vert.normal()
    h_norm, h_norm_first = (arr.T for arr in horiz.normal())
    v_q1 = e1[:, None] * v_mass
    h_q2 = e2[None, :] * h_mass
    grad1, grad2 = _across(v_mass), _along(h_mass)
    corner = vert.nodes    # phi at the mesh nodes

    def corners(arr):
        return _along(_across(arr))

    raw = {
        "mu1": (-grad1, raw_p - _across(v_q1), -_across(v_first)),
        "mu2": (-grad2, -_along(h_first), raw_p - _along(h_q2)),
    }
    # int_R g d_a d_b phi as (11, 12, 22) for g = 1, q1, q2
    second = (
        (_across(v_norm), corners(corner), _along(h_norm)),
        (_across(e1[:, None] * v_norm) - grad1, corners(e1[:, None] * corner) - grad2,
         _along(h_norm_first)),
        (_across(v_norm_first), corners(e2[None, :] * corner) - grad1,
         _along(e2[None, :] * h_norm) - grad2),
    )
    chained = [_cholesky_chain(*hess, low) for hess in second]
    for n, name in enumerate(PARAMETER_NAMES[6:]):
        raw[name] = tuple(chain[n] for chain in chained)
    for k, (pm, moved) in enumerate(((pm1, (v_mass, v_q1, v_first)),
                                     (pm2, (h_mass, h_first, h_q2)))):
        s = (pm.edges - pm.lo) / (pm.hi - pm.lo)
        diff = _across if k == 0 else _along
        for name, weight in ((f"a{k + 1}", 1.0 - s), (f"b{k + 1}", s)):
            weight = weight[:, None] if k == 0 else weight[None, :]
            raw[name] = tuple(diff(weight * arr) for arr in moved)
    d_raw = np.array([raw[name] for name in PARAMETER_NAMES])
    d_mass = d_raw[:, 0].sum(axis=(1, 2))
    base = np.stack([weights.p, weights.w1, weights.w2])
    return (d_raw - base * d_mass[:, None, None, None]) / weights.mass


def sample(params: PopulationParams, count: int, seed) -> np.ndarray:
    """Draw ``count`` points from the truncated normal by rejection.

    Deterministic for a fixed seed.  Raises SamplingError when the support box
    captures essentially no normal mass (acceptance below 1e-6).
    """
    if count < 0:
        raise ParameterError(f"sample count must be nonnegative, got {count}")
    rng = np.random.default_rng(seed)
    low = params.chol
    kept = [np.empty((0, 2))]
    n_kept = 0
    proposed = 0
    while n_kept < count:
        batch = max(2 * (count - n_kept), 1024)
        draws = params.mu + rng.standard_normal((batch, 2)) @ low.T
        inside = np.all((draws >= params.a) & (draws <= params.b), axis=1)
        good = draws[inside]
        kept.append(good)
        n_kept += good.shape[0]
        proposed += batch
        if proposed >= 1_000_000 and n_kept < max(1, proposed * 1e-6):
            rate = n_kept / proposed
            raise SamplingError(
                f"rejection sampling starved: acceptance rate {rate:.2e} "
                f"after {proposed} proposals; support box likely excludes the "
                f"normal mass")
    return np.concatenate(kept, axis=0)[:count]


@dataclass(frozen=True)
class CredibleRadius:
    """Radius of the centered credible disk; ``attained`` is False when even
    the whole support holds less than the requested mass."""

    radius: float
    alpha: float
    mass: float
    attained: bool


#: QUADPACK's 21-point Kronrod rule (QK21) on [-1, 1]: the nodes in [0, 1]
#: from the outermost in, the Kronrod weights, and the weights of the
#: 10-point Gauss rule on every second node
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208643474695, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
# the rule over all 21 nodes, with the Gauss weights zero at Kronrod-only ones
_GK_X = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_GK_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GK_WG = np.zeros(21)
_GK_WG[1:10:2], _GK_WG[11:20:2] = _WG, _WG[::-1]
#: most pieces the adaptive rule splits an integral into (QUADPACK's limit)
_QUAD_LIMIT = 200
_EPS = np.finfo(float).eps


def _kronrod(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QK21 on each piece [lo, hi]: the Kronrod sums and QUADPACK's error
    estimates, which scale the Gauss-Kronrod difference by the integrand's
    spread about its mean and keep a rounding floor."""
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fx = f(centre[:, None] + half[:, None] * _GK_X)
    resk = fx @ _GK_WK
    diff = np.abs((resk - fx @ _GK_WG) * half)
    resasc = (np.abs(fx - 0.5 * resk[:, None]) @ _GK_WK) * np.abs(half)
    resabs = (np.abs(fx) @ _GK_WK) * np.abs(half)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where((resasc != 0.0) & (diff != 0.0),
                       resasc * np.minimum(1.0, (200.0 * diff / resasc) ** 1.5), diff)
    err = np.where(resabs > _TINY / (50.0 * _EPS),
                   np.maximum(50.0 * _EPS * resabs, err), err)
    return resk * half, err


def _adaptive_gauss(f, breaks, epsabs: float,
                    epsrel: float) -> tuple[float, float, int]:
    """Globally adaptive QK21 sum of ``f`` over [breaks[0], breaks[-1]],
    starting from the pieces between consecutive ``breaks``.

    While the summed error estimate exceeds max(epsabs, epsrel |integral|),
    every piece whose error exceeds its share of that tolerance, in
    proportion to its length, is halved, the worst first when fewer than
    that many pieces are left below ``_QUAD_LIMIT``; at that many pieces it
    stops whatever the error.  ``f`` maps an array of abscissae to values.
    Returns the integral, its error estimate and the number of pieces.
    """
    edges = np.asarray(breaks, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    length = edges[-1] - edges[0]
    val, err = _kronrod(f, lo, hi)
    while True:
        total, spread = float(val.sum()), float(err.sum())
        tol = max(epsabs, epsrel * abs(total))
        if spread <= tol or lo.size >= _QUAD_LIMIT:
            return total, spread, lo.size
        split = err > tol * (hi - lo) / length
        room = _QUAD_LIMIT - lo.size
        if np.count_nonzero(split) > room:
            split[:] = False
            split[np.argsort(err)[-room:]] = True
        mid = 0.5 * (lo[split] + hi[split])
        new_val, new_err = _kronrod(f, np.concatenate([lo[split], mid]),
                                    np.concatenate([mid, hi[split]]))
        keep = ~split
        lo = np.concatenate([lo[keep], lo[split], mid])
        hi = np.concatenate([hi[keep], mid, hi[split]])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])


def _disk_mass(params: PopulationParams, r: float, z: float) -> float:
    """Truncated-normal mass of the disk of radius r centered at mu.

    Integrates the ``_Lines`` mass of the disk's vertical chords, clipped to
    the box and divided by its normal mass z, over the disk's x-extent, with
    a sine substitution so the circular limits stay smooth, by
    ``_adaptive_gauss`` from breaks that split off the marginal's peak and
    the kinks where the disk's rim crosses a horizontal edge of the box.
    """
    if r <= 0:
        return 0.0
    mu1, mu2 = params.mu
    a2, b2 = params.a[1], params.b[1]
    sig = params.sigma
    sd1 = math.sqrt(sig[0, 0])
    x_lo = max(params.a[0], mu1 - r)
    x_hi = min(params.b[0], mu1 + r)
    if x_hi <= x_lo:
        return 0.0
    th_lo = math.asin(min(1.0, max(-1.0, (x_lo - mu1) / r)))
    th_hi = math.asin(min(1.0, max(-1.0, (x_hi - mu1) / r)))

    def integrand(th):
        t = th.ravel()
        half = r * np.cos(t)
        # a chord that misses the box is clipped to equal ends: no mass
        ends = np.minimum(np.maximum(mu2 + half[:, None] * (-1.0, 1.0), a2), b2)
        chords = _Lines.build(mu1 + r * np.sin(t), ends, mu1, mu2, sig[0, 0],
                              sig[0, 1], params.chol[1, 1])
        return (chords.mass[:, 0] * half / z).reshape(th.shape)

    breaks = [math.asin((x - mu1) / r) for x in _peak_breaks(x_lo, x_hi, mu1, sd1)]
    for gap in (abs(mu2 - a2), abs(b2 - mu2)):
        if gap < r:     # the rim meets the edge where r cos(theta) = gap
            turn = math.acos(gap / r)
            breaks += [t for t in (-turn, turn) if th_lo < t < th_hi]
    edges = np.unique(np.concatenate([[th_lo, th_hi], breaks]))
    return _adaptive_gauss(integrand, edges, epsabs=1e-12, epsrel=1e-10)[0]


def credible_region_radius(params: PopulationParams,
                           alpha: float) -> CredibleRadius:
    """Radius of the Euclidean disk centered at mu holding mass alpha.

    Bisection of [0, farthest box corner's distance] on whether the disk
    mass ``_disk_mass``, which adaptive Gauss-Kronrod quadrature sums, is
    below alpha, until the midpoint equals an end; the upper end is
    returned, so the radius is good to the last bit at any width.  When the
    whole support box holds less than alpha - 1e-12 (mu far outside the
    box), the radius covering the entire support is returned with
    ``attained=False``.  The result is kept per process for the exact bits
    of the law's nine values and alpha (``_kept_radius``), so every band and
    interval set on one law, and the same law read back from its file,
    reuse one computation.  An alpha outside (0, 1) is a run setting, not a
    law, and raises ``ConfigurationError``.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError(f"alpha must lie in (0, 1), got {alpha}")
    law = np.array(list(params.as_dict().values())).tobytes()
    return _kept_radius(law, float(alpha))


@lru_cache(maxsize=16)
def _kept_radius(law: bytes, alpha: float) -> CredibleRadius:
    """``_credible_radius`` of the law whose nine values, in ``as_dict``
    order, are the doubles in ``law``: the radius reads no other entry."""
    return _credible_radius(PopulationParams.from_scalars(*np.frombuffer(law)),
                            alpha)


def _credible_radius(params: PopulationParams, alpha: float) -> CredibleRadius:
    """``credible_region_radius`` computed afresh."""
    z = _box_mass(params)
    corners = np.array([[params.a[0], params.a[1]], [params.a[0], params.b[1]],
                        [params.b[0], params.a[1]], [params.b[0], params.b[1]]])
    r_max = float(np.max(np.linalg.norm(corners - params.mu, axis=1)))
    top = _disk_mass(params, r_max, z)
    if top <= alpha:    # no radius inside the box reaches alpha
        return CredibleRadius(radius=r_max, alpha=alpha, mass=top,
                              attained=top >= alpha - 1e-12)
    lo, hi, mass = 0.0, r_max, top
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        mid_mass = _disk_mass(params, mid, z)
        if mid_mass < alpha:
            lo = mid
        else:
            hi, mass = mid, mid_mass
    return CredibleRadius(radius=hi, alpha=alpha, mass=mass, attained=True)


_PARAM_KEYS = ("a1", "a2", "b1", "b2", "mu1", "mu2", "s11", "s12", "s22")


def dump_params(params: PopulationParams) -> str:
    """Render the parameters in the flat key-value format, full precision."""
    d = params.as_dict()
    return "".join(f"{k}={d[k]:.17g}\n" for k in _PARAM_KEYS)


def parse_params(text: str) -> PopulationParams:
    """Inverse of dump_params; rejects unknown and missing keys."""
    found: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _PARAM_KEYS:
            raise ParameterError(f"line {lineno}: unknown key {key!r}")
        if key in found:
            raise ParameterError(f"line {lineno}: duplicate key {key!r}")
        try:
            found[key] = float(value.strip())
        except ValueError:
            raise ParameterError(
                f"line {lineno}: value for {key!r} is not a number: {value!r}") from None
    missing = [k for k in _PARAM_KEYS if k not in found]
    if missing:
        raise ParameterError(f"missing keys: {', '.join(missing)}")
    return PopulationParams.from_scalars(**found)


def save_params(params: PopulationParams, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_params(params))


def load_params(path) -> PopulationParams:
    with open(path, "r", encoding="ascii") as fh:
        return parse_params(fh.read())
