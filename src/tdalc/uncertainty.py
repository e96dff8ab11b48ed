"""Credible bands and clinical statistics for estimated BrAC curves.

A band is the pointwise envelope of the curves at the parameter pairs
inside the central credible disk of the fitted population law.  The
tensor-basis estimate is piecewise constant in the parameters, so that set
of curves is the set of cell curves whose rectangles meet the disk: the
band and the statistics intervals read those cells directly, on the
result's own time grid, with no sampling.  The single-input variant has no
cell structure; its band is the envelope of one single-subject
deconvolution per kept sample of the disk (the one-cell system at that
sample), each warm-started from the solution at q = mu, all solved in
batches through ``nnls``'s exchange loop; a batch's kernels are one
``impulse_kernels`` call on the stacked one-cell systems of its samples.

All statistics are reported in percent-alcohol and hours.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import density
from .deconvolution import (DeconvolutionResult, _time_basis,
                            _warm_scalar_solves, deconvolve_deterministic)
from .errors import ConfigurationError, NumericalError, SamplingError
from .forward_model import deterministic_ops
from .grid_basis import DiscretizationGrid, ParamMesh, check_step

DEFAULT_ALPHA = 0.75
DEFAULT_SAMPLES = 1000
DEFAULT_THRESHOLD = 0.001

STAT_NAMES = ("peak", "peak_time", "auc", "elimination_rate", "absorption_rate")


@dataclass(frozen=True)
class CredibleBand:
    """Pointwise envelope of the BrAC curves over the credible disk."""

    lower: np.ndarray
    upper: np.ndarray
    alpha: float
    dropped: int = 0    # kept-sample solves that hit the cap, left out

    def __post_init__(self):
        if np.any(self.lower > self.upper + 1e-15):
            raise NumericalError("band lower edge exceeds upper edge")


def kept_samples(params: density.PopulationParams, alpha: float,
                 n_samples: int, seed: int) -> np.ndarray:
    """Draw from the population density and keep the points inside the
    central credible disk.  The population mean is always appended so every
    band and interval contains the value at q = mu."""
    if n_samples < 1:
        raise ConfigurationError(f"need at least one sample, got {n_samples}")
    radius = density.credible_region_radius(params, alpha).radius
    draws = density.sample(params, n_samples, seed)
    inside = np.linalg.norm(draws - params.mu, axis=1) <= radius
    kept = draws[inside]
    if kept.shape[0] == 0:
        raise SamplingError(
            f"no samples fell inside the {alpha:.2f} credible disk; "
            f"increase n_samples (got {n_samples})")
    return np.vstack([kept, params.mu])


def _disk_cells(result: DeconvolutionResult,
                params: density.PopulationParams, alpha: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """Cell curves of a tensor-variant result (K x m1 x m2) and the m1 x m2
    mask of the cells whose rectangle meets the open credible disk.

    A cell is in when the squared distances from mu to its interval on each
    axis sum to less than the squared radius; mu may lie outside the box.
    A cell whose columns are all void (``result.nnls.void``) is left out:
    its curve is zero by the solver's rule, not by the data.
    """
    radius = density.credible_region_radius(params, alpha).radius
    if result.variant != "tq":
        raise ConfigurationError("cell bands need a tensor-variant result")
    curves = np.einsum("km,mij->kij", _time_basis(result.time_mesh)[2],
                       result.coeffs)
    dist2 = 0.0
    for axis, count in enumerate(result.coeffs.shape[1:]):
        edges = ParamMesh(count, params.a[axis], params.b[axis]).edges
        mu = params.mu[axis]
        gap = np.maximum(np.maximum(edges[:-1] - mu, mu - edges[1:]), 0.0)
        dist2 = np.add.outer(dist2, gap ** 2)
    void = result.nnls.void.reshape(result.coeffs.shape, order="F")
    inside = (dist2 < radius ** 2) & ~void.all(axis=0)
    if not inside.any():
        raise NumericalError(
            f"no non-void parameter cell meets the {alpha:g} credible disk")
    return curves, inside


def credible_band(result: DeconvolutionResult, params: density.PopulationParams,
                  alpha: float = DEFAULT_ALPHA) -> CredibleBand:
    """Band for a tensor-variant estimate: the pointwise min and max of the
    curves of the cells that meet the credible disk."""
    curves, inside = _disk_cells(result, params, alpha)
    picked = curves[:, inside]          # K x cells in the disk
    return CredibleBand(lower=picked.min(axis=1), upper=picked.max(axis=1),
                        alpha=alpha)


def credible_band_scalar(tac: np.ndarray, params: density.PopulationParams,
                         grid: DiscretizationGrid, r1: float, r2: float,
                         alpha: float = DEFAULT_ALPHA,
                         n_samples: int = DEFAULT_SAMPLES, seed: int = 0,
                         m: int | None = None) -> CredibleBand:
    """Band by per-sample deterministic deconvolution of the same TAC.

    Each kept parameter pair gets its own single-subject inverse problem.
    The pair q = mu (the last kept sample) is solved from zero, and every
    other pair is warm-started from its solution, in batches
    (``_warm_scalar_solves``).  Solves that hit the iteration cap (3 m) are
    left out of the envelope and counted in ``dropped``, up to 10% of the
    kept set.
    """
    tac = np.asarray(tac, dtype=float)
    kept = kept_samples(params, alpha, n_samples, seed)
    det = deterministic_ops(kept[-1], grid.spatial, grid.tau)
    curve, sol = deconvolve_deterministic(det, tac, r1, r2, m=m)
    rest, ok = _warm_scalar_solves(kept[:-1], grid.spatial, tac, grid.tau,
                                   r1, r2, m, sol.x)
    curves = np.vstack([rest, curve])[np.append(ok, sol.converged)]
    dropped = kept.shape[0] - curves.shape[0]
    if dropped > 0.10 * kept.shape[0]:
        raise NumericalError(
            f"{dropped} of {kept.shape[0]} per-sample deconvolutions failed")
    return CredibleBand(lower=curves.min(axis=0), upper=curves.max(axis=0),
                        alpha=alpha, dropped=dropped)


# ---------------------------------------------------------------------------
# clinical statistics


@dataclass(frozen=True)
class EpisodeStats:
    """Summary statistics of one BrAC curve.

    Rates are None when the defining threshold crossing does not exist
    within the record.
    """

    peak: float               # percent alcohol
    peak_time: float          # hours
    auc: float                # percent * hours
    elimination_rate: float | None   # percent per hour
    absorption_rate: float | None    # percent per hour
    threshold: float

    def values(self) -> tuple:
        return (self.peak, self.peak_time, self.auc,
                self.elimination_rate, self.absorption_rate)


def episode_stats(curve: np.ndarray, tau: float,
                  threshold: float = DEFAULT_THRESHOLD) -> EpisodeStats:
    """Peak, peak time, area, and entry/exit rates of a curve on a tau grid.

    The elimination rate divides the peak by the time from the peak to the
    first later sample below the threshold; the absorption rate divides it
    by the time from the last below-threshold sample preceding the peak.
    Peak ties break to the earliest time.
    """
    curve = np.asarray(curve, dtype=float)
    if curve.ndim != 1 or curve.size == 0 or not np.all(np.isfinite(curve)):
        raise ConfigurationError("curve must be a nonempty 1-d array of finite values")
    check_step(tau)
    peak_idx = int(np.argmax(curve))
    peak = float(curve[peak_idx])
    peak_time = peak_idx * tau / 60.0
    auc = float(np.trapezoid(curve, dx=tau)) / 60.0

    elimination = None
    after = np.flatnonzero(curve[peak_idx + 1:] < threshold)
    if peak > 0.0 and after.size:
        dt_h = (after[0] + 1) * tau / 60.0
        elimination = peak / dt_h

    absorption = None
    before = np.flatnonzero(curve[:peak_idx] < threshold)
    if peak > 0.0 and before.size:
        dt_h = (peak_idx - before[-1]) * tau / 60.0
        absorption = peak / dt_h

    return EpisodeStats(peak=peak, peak_time=peak_time, auc=auc,
                        elimination_rate=elimination,
                        absorption_rate=absorption, threshold=threshold)


@dataclass(frozen=True)
class StatsIntervals:
    """Per-statistic (lo, hi) ranges over the cells that meet the credible
    disk; None for a statistic that no such cell defines."""

    intervals: dict
    alpha: float


def stats_credible_intervals(result: DeconvolutionResult,
                             params: density.PopulationParams,
                             alpha: float = DEFAULT_ALPHA,
                             threshold: float = DEFAULT_THRESHOLD
                             ) -> StatsIntervals:
    """Ranges of the clinical statistics of a tensor-variant estimate, on
    its time grid: one ``episode_stats`` per cell that meets the credible
    disk, and each statistic's min and max over the cells that define it."""
    curves, inside = _disk_cells(result, params, alpha)
    per_cell = [episode_stats(c, result.time_mesh.tau, threshold).values()
                for c in curves[:, inside].T]
    intervals = {}
    for name, vals in zip(STAT_NAMES, zip(*per_cell)):
        vals = [v for v in vals if v is not None]
        intervals[name] = (float(min(vals)), float(max(vals))) if vals else None
    return StatsIntervals(intervals=intervals, alpha=alpha)


# ---------------------------------------------------------------------------
# report rendering


def format_stat(value: float | None) -> str:
    return "" if value is None else f"{value:.4f}"


def format_stats_row(stats: EpisodeStats) -> str:
    """Five comma-separated statistics, fixed 4-decimal rendering."""
    return ",".join(format_stat(v) for v in stats.values())


def format_interval(lo: float, hi: float) -> str:
    return f"[{lo:.4f}, {hi:.4f}]"


def band_overlap_fraction(band_a: CredibleBand, band_b: CredibleBand) -> float:
    """Fraction of time points where the two band intervals intersect."""
    if band_a.lower.size != band_b.lower.size:
        raise ConfigurationError("bands must share one time grid")
    meet = np.minimum(band_a.upper, band_b.upper) >= \
        np.maximum(band_a.lower, band_b.lower)
    return float(np.mean(meet))


def write_stats_report(path, rows) -> None:
    """Write the statistics table: one row per episode with measured,
    estimated, and interval columns for each statistic.

    ``rows`` yields (ident, measured: EpisodeStats | None,
    estimated: EpisodeStats, intervals: StatsIntervals | None).
    """
    header = ["episode"]
    header += [f"measured_{n}" for n in STAT_NAMES]
    header += [f"estimated_{n}" for n in STAT_NAMES]
    for n in STAT_NAMES:
        header += [f"{n}_lo", f"{n}_hi"]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        for ident, measured, estimated, intervals in rows:
            cells = [str(ident),
                     "," * (len(STAT_NAMES) - 1) if measured is None
                     else format_stats_row(measured),
                     format_stats_row(estimated)]
            for n in STAT_NAMES:
                pair = None if intervals is None else intervals.intervals[n]
                if pair is None:
                    cells += ["", ""]
                else:
                    cells += [format_stat(pair[0]), format_stat(pair[1])]
            fh.write(",".join(cells) + "\n")
