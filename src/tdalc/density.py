"""Truncated bivariate normal population distribution.

The two random parameters of the diffusion model are jointly distributed as a
bivariate normal restricted to an axis-aligned support box and renormalized.
This module owns everything distribution-related: the density itself, cell
integrals (mass and first moments) over a parameter-cell mesh, derivatives of
those integrals in every distribution parameter, rejection sampling, the
credible-disk radius, and the on-disk key-value format.

Cell integrals use tensor-product Gauss-Legendre quadrature per cell, from
order ``_START_ORDER`` = 5 per axis, doubled until the normalization constant
is stable to 1e-8 in relative terms, so downstream assembly sees integrals
that are smooth functions of the distribution parameters.  Their derivatives
are analytic and use the same rule: under the integral sign in the location
and covariance, and through the moving quadrature nodes in the support
bounds, since the cells span the support box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ndtr

from .errors import ParameterError, SamplingError
from .grid_basis import ParamMesh

_NORM_STABLE_RTOL = 1e-8
_START_ORDER = 5
_MAX_QUAD_ORDER = 80

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


def _box_mass_quad(params: PopulationParams) -> float:
    """High-accuracy normal mass of the support box.

    Factorizes the bivariate normal into marginal times conditional so only a
    one-dimensional quadrature is needed.
    """
    mu1, mu2 = params.mu
    s11 = params.sigma[0, 0]
    s12 = params.sigma[0, 1]
    s22 = params.sigma[1, 1]
    sd1 = math.sqrt(s11)
    cond_sd = math.sqrt(max(s22 - s12 ** 2 / s11, 1e-300))

    def integrand(x):
        m = mu2 + s12 / s11 * (x - mu1)
        slab = ndtr((params.b[1] - m) / cond_sd) - ndtr((params.a[1] - m) / cond_sd)
        return math.exp(-0.5 * ((x - mu1) / sd1) ** 2) / (sd1 * math.sqrt(2 * math.pi)) * slab

    val, _ = quad(integrand, params.a[0], params.b[0], epsabs=1e-13, epsrel=1e-11, limit=200,
                  points=_peak_breaks(params.a[0], params.b[0], mu1, sd1) or None)
    return val


def pdf(params: PopulationParams, q) -> np.ndarray | float:
    """Truncated-normal density at q (shape (..., 2)); zero outside the box."""
    q = np.asarray(q, dtype=float)
    z = _box_mass_quad(params)
    if z <= 0 or not np.isfinite(z):
        raise ParameterError("support box carries no normal mass")
    inside = np.all((q >= params.a) & (q <= params.b), axis=-1)
    vals = np.where(inside, gauss_density(params, q) / z, 0.0)
    return vals if vals.shape else float(vals)


@dataclass(frozen=True)
class CellWeights:
    """Normalized cell integrals of the density and its first moments.

    ``p[i, j]`` is the probability mass of cell (i, j); ``w1``/``w2`` are the
    cell integrals of q1*f and q2*f.  ``order`` records the Gauss-Legendre
    order per axis that the adaptive loop settled on.
    """

    p: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    order: int


def _cell_quad_points(pm1: ParamMesh, pm2: ParamMesh, order: int):
    """Tensor quadrature nodes over every cell of the two meshes.

    Returns (q1, q2, w) where q1/q2 have shape (m1, m2, order**2) and w is the
    common weight vector already scaled by the cell Jacobian.
    """
    x, wx = leggauss(order)
    e1, e2 = pm1.edges, pm2.edges
    # map the reference nodes into every cell of each axis
    n1 = 0.5 * (e1[:-1, None] + e1[1:, None]) + 0.5 * pm1.width * x[None, :]
    n2 = 0.5 * (e2[:-1, None] + e2[1:, None]) + 0.5 * pm2.width * x[None, :]
    q1 = np.broadcast_to(n1[:, None, :, None], (pm1.count, pm2.count, order, order))
    q2 = np.broadcast_to(n2[None, :, None, :], (pm1.count, pm2.count, order, order))
    w = np.outer(wx, wx).ravel() * (0.25 * pm1.width * pm2.width)
    return (q1.reshape(pm1.count, pm2.count, order * order),
            q2.reshape(pm1.count, pm2.count, order * order), w)


def _raw_cell_integrals(params: PopulationParams, pm1: ParamMesh, pm2: ParamMesh,
                        order: int):
    """Unnormalized cell integrals of phi, q1*phi, q2*phi at a fixed order."""
    q1, q2, w = _cell_quad_points(pm1, pm2, order)
    phi = gauss_density(params, np.stack([q1, q2], axis=-1))
    raw_p = phi @ w
    raw_w1 = (phi * q1) @ w
    raw_w2 = (phi * q2) @ w
    return raw_p, raw_w1, raw_w2


def moment_weights(params: PopulationParams, pm1: ParamMesh,
                   pm2: ParamMesh) -> CellWeights:
    """Cell masses and first-moment weights of the truncated density.

    The order doubles from ``_START_ORDER`` until the normalization
    constant (the sum of the raw cell integrals) is stable; the masses then
    sum to 1 by construction.
    """
    order = _START_ORDER
    raw = _raw_cell_integrals(params, pm1, pm2, order)
    z = float(raw[0].sum())
    while order < _MAX_QUAD_ORDER:
        finer = _raw_cell_integrals(params, pm1, pm2, 2 * order)
        z_fine = float(finer[0].sum())
        stable = abs(z_fine - z) <= _NORM_STABLE_RTOL * max(abs(z_fine), 1e-300)
        raw, z, order = finer, z_fine, 2 * order
        if stable:
            break
    if not np.isfinite(z) or z <= 0:
        raise ParameterError(
            f"support box carries no normal mass (normalization {z!r})")
    return CellWeights(p=raw[0] / z, w1=raw[1] / z, w2=raw[2] / z, order=order)


def cell_masses(params: PopulationParams, pm1: ParamMesh,
                pm2: ParamMesh) -> np.ndarray:
    """Probability mass of every parameter cell; entries sum to 1."""
    return moment_weights(params, pm1, pm2).p


def _score_factors(params: PopulationParams, q1: np.ndarray, q2: np.ndarray) -> dict[str, np.ndarray]:
    """Log-density derivatives in mu and the Cholesky entries, per point."""
    si = params.sigma_inv
    low = params.chol
    d1 = q1 - params.mu[0]
    d2 = q2 - params.mu[1]
    v1 = si[0, 0] * d1 + si[0, 1] * d2
    v2 = si[1, 0] * d1 + si[1, 1] * d2
    # S = 0.5 * (v v^T - Sigma^{-1}); score for L_ij is 2 * (S L)_ij
    s00 = 0.5 * (v1 * v1 - si[0, 0])
    s01 = 0.5 * (v1 * v2 - si[0, 1])
    s11 = 0.5 * (v2 * v2 - si[1, 1])
    return {
        "mu1": v1,
        "mu2": v2,
        "l11": 2.0 * (s00 * low[0, 0] + s01 * low[1, 0]),
        "l21": 2.0 * (s01 * low[0, 0] + s11 * low[1, 0]),
        "l22": 2.0 * (s11 * low[1, 1]),
    }


def moment_weight_derivatives(params: PopulationParams, pm1: ParamMesh, pm2: ParamMesh,
                              weights: CellWeights | None = None
                              ) -> dict[str, CellWeights]:
    """Analytic derivatives of the cell weights in every fit parameter.

    The meshes must span the support box.  The location and Cholesky entries
    are differentiated under the integral sign.  A support bound moves the
    cells with it: each node is q_k = a_k + (b_k - a_k) s_k with s_k in
    [0, 1] fixed, so for each integrand g in (phi, q1 phi, q2 phi) the node
    term of d/db_k is s_k dg/dq_k and that of d/da_k is (1 - s_k) dg/dq_k,
    with dphi/dq_k = -v_k phi and v = Sigma^-1 (q - mu).  The quadrature
    weights carry the factor (b_k - a_k), which scales every raw integral and
    the normalization alike and so cancels.  These are the exact derivatives
    of the quadrature rule at the order of ``weights``.  Returns one
    CellWeights of derivatives per name a1, a2, b1, b2, mu1, mu2, l11, l21,
    l22.
    """
    if weights is None:
        weights = moment_weights(params, pm1, pm2)
    order = weights.order
    q1, q2, w = _cell_quad_points(pm1, pm2, order)
    phi = gauss_density(params, np.stack([q1, q2], axis=-1))
    z = float((phi @ w).sum())
    g = np.stack([phi, phi * q1, phi * q2])
    scores = _score_factors(params, q1, q2)
    raw = {}
    for k, (q, pm) in enumerate(((q1, pm1), (q2, pm2))):
        dg = -scores[f"mu{k + 1}"] * g    # d g / d q_k
        dg[1 + k] += phi
        s = (q - pm.lo) / (pm.hi - pm.lo)
        raw[f"a{k + 1}"] = ((1.0 - s) * dg) @ w
        raw[f"b{k + 1}"] = (s * dg) @ w
    raw.update((name, (sc * g) @ w) for name, sc in scores.items())
    out = {}
    for name, (raw_dp, raw_dw1, raw_dw2) in raw.items():
        dz = float(raw_dp.sum())
        out[name] = CellWeights(
            p=(raw_dp - weights.p * dz) / z,
            w1=(raw_dw1 - weights.w1 * dz) / z,
            w2=(raw_dw2 - weights.w2 * dz) / z,
            order=order)
    return out


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


def _disk_mass(params: PopulationParams, r: float, z: float) -> float:
    """Truncated-normal mass of the disk of radius r centered at mu.

    Integrates the marginal density times the conditional slab probability
    over the disk's x-extent, with a sine substitution so the circular limits
    stay smooth.
    """
    if r <= 0:
        return 0.0
    mu1, mu2 = params.mu
    s11 = params.sigma[0, 0]
    s12 = params.sigma[0, 1]
    s22 = params.sigma[1, 1]
    sd1 = math.sqrt(s11)
    cond_sd = math.sqrt(max(s22 - s12 ** 2 / s11, 1e-300))
    x_lo = max(params.a[0], mu1 - r)
    x_hi = min(params.b[0], mu1 + r)
    if x_hi <= x_lo:
        return 0.0
    th_lo = math.asin(min(1.0, max(-1.0, (x_lo - mu1) / r)))
    th_hi = math.asin(min(1.0, max(-1.0, (x_hi - mu1) / r)))

    def integrand(th):
        x = mu1 + r * math.sin(th)
        half = r * math.cos(th)
        y_lo = max(params.a[1], mu2 - half)
        y_hi = min(params.b[1], mu2 + half)
        if y_hi <= y_lo:
            return 0.0
        m = mu2 + s12 / s11 * (x - mu1)
        slab = ndtr((y_hi - m) / cond_sd) - ndtr((y_lo - m) / cond_sd)
        marg = math.exp(-0.5 * ((x - mu1) / sd1) ** 2) / (sd1 * math.sqrt(2 * math.pi))
        return marg * slab * r * math.cos(th)

    breaks = [math.asin((x - mu1) / r) for x in _peak_breaks(x_lo, x_hi, mu1, sd1)]
    val, _ = quad(integrand, th_lo, th_hi, epsabs=1e-12, epsrel=1e-10, limit=200,
                  points=breaks or None)
    return val / z


def credible_region_radius(params: PopulationParams,
                           alpha: float) -> CredibleRadius:
    """Radius of the Euclidean disk centered at mu holding mass alpha.

    Brent's method on the quadrature-evaluated disk mass.  When the whole
    support box holds less than alpha - 1e-12 (mu far outside the box), the
    radius covering the entire support is returned with ``attained=False``.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    z = _box_mass_quad(params)
    if z <= 0 or not np.isfinite(z):
        raise ParameterError("support box carries no normal mass")
    corners = np.array([[params.a[0], params.a[1]], [params.a[0], params.b[1]],
                        [params.b[0], params.a[1]], [params.b[0], params.b[1]]])
    r_max = float(np.max(np.linalg.norm(corners - params.mu, axis=1)))
    top = _disk_mass(params, r_max, z)
    if top <= alpha:    # no sign change for the root finder
        return CredibleRadius(radius=r_max, alpha=alpha, mass=top,
                              attained=top >= alpha - 1e-12)
    radius = brentq(lambda r: _disk_mass(params, r, z) - alpha, 0.0, r_max,
                    xtol=1e-14 * max(1.0, r_max))
    return CredibleRadius(radius=radius, alpha=alpha,
                          mass=_disk_mass(params, radius, z), attained=True)


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
