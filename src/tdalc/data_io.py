"""Episode files and resampling.

A drinking episode arrives as a CSV with header ``t_minutes,channel,value``;
channel is ``brac`` (breath measurements, possibly absent) or ``tac``
(transdermal sensor).  Parsing validates hard and reports the offending line.

Model fitting and deconvolution both run on a uniform grid with step ``tau``
(minutes).  Each channel is resampled onto that grid with a natural cubic
spline through its samples, clamped at zero from below; the resampled BrAC
values double as the zero-order-hold input of the training recursion.  The
grid covers [0, T_last] where T_last is the last instant covered by every
channel present, so the spline never extrapolates.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import ConfigurationError, ParseError
from .grid_basis import check_step

_HEADER = ("t_minutes", "channel", "value")
_CHANNELS = ("brac", "tac")


@dataclass(frozen=True, eq=False)
class Episode:
    """One drinking episode: raw per-channel series plus the resampled grid."""

    ident: str
    tau: float
    brac_times: np.ndarray
    brac_values: np.ndarray
    tac_times: np.ndarray
    tac_values: np.ndarray
    times: np.ndarray          # resampling grid 0, tau, ..., (K-1)*tau
    u: np.ndarray | None       # resampled BrAC on the grid; None when no BrAC
    y: np.ndarray              # resampled TAC on the grid
    fit_indices: np.ndarray    # grid indices of the raw TAC instants, 0 excluded

    @property
    def n_grid(self) -> int:
        return self.times.size

    @property
    def has_brac(self) -> bool:
        return self.u is not None


def check_training_episodes(episodes: list[Episode], tau: float) -> None:
    """Reject a training set that cannot train a model on the tau grid: an
    empty list, an episode without BrAC, or one resampled at another tau.
    Raises ``ConfigurationError``."""
    if not episodes:
        raise ConfigurationError("need at least one training episode")
    for ep in episodes:
        if not ep.has_brac:
            raise ConfigurationError(
                f"episode {ep.ident!r} has no BrAC channel; cannot train on it")
        if abs(ep.tau - tau) > 1e-12:
            raise ConfigurationError(
                f"episode {ep.ident!r} has tau {ep.tau}, the model has {tau}")


def _natural_spline(t: np.ndarray, v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The natural cubic spline through (t, v), at least three knots, at x.

    Its second derivatives M at the knots, zero at both ends, solve the
    tridiagonal continuity system h_i-1 M_i-1 + 2 (h_i-1 + h_i) M_i
    + h_i M_i+1 = 6 (s_i - s_i-1) of the knot gaps h and chord slopes s.  On
    piece i with A = (t_i+1 - x) / h_i and B = 1 - A it is A v_i + B v_i+1
    + ((A^3 - A) M_i + (B^3 - B) M_i+1) h_i^2 / 6, so a knot returns its
    value exactly; beyond the data the end pieces extrapolate.
    """
    h = np.diff(t)
    slope = np.diff(v) / h
    bands = np.zeros((3, t.size - 2))
    bands[0, 1:] = h[1:-1]
    bands[1] = 2.0 * (h[:-1] + h[1:])
    bands[2, :-1] = h[1:-1]
    curv = np.zeros(t.size)
    curv[1:-1] = solve_banded((1, 1), bands, 6.0 * np.diff(slope))
    i = np.clip(np.searchsorted(t, x, side="right") - 1, 0, t.size - 2)
    gap = h[i]
    a = (t[i + 1] - x) / gap
    b = (x - t[i]) / gap
    return (a * v[i] + b * v[i + 1]
            + ((a ** 3 - a) * curv[i] + (b ** 3 - b) * curv[i + 1]) * gap * gap / 6.0)


def resample(times: np.ndarray, values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Natural cubic spline through (times, values) sampled on grid, clamped
    at zero from below (``_natural_spline``).  Falls back to linear
    interpolation when fewer than three samples exist."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size == 0:
        raise ConfigurationError("cannot resample an empty series")
    if times.size == 1:
        out = np.full(grid.shape, values[0])
    elif times.size == 2:
        out = np.interp(grid, times, values)
    else:
        out = _natural_spline(times, values, np.asarray(grid, dtype=float))
    return np.maximum(out, 0.0)


def _snap_fit_indices(tac_times: np.ndarray, tau: float, n_grid: int) -> np.ndarray:
    idx = np.round(np.asarray(tac_times, dtype=float) / tau).astype(int)
    idx = idx[(idx >= 1) & (idx <= n_grid - 1)]
    return np.unique(idx)


def _check_channel(ident: str, channel: str, times: np.ndarray,
                   values: np.ndarray) -> None:
    """Reject a raw series the resampling cannot read: times and values must
    be 1-d of one length, finite and nonnegative, the times strictly
    increasing.  ``ConfigurationError`` names the first offending index."""
    where = f"episode {ident!r} {channel}"
    if times.ndim != 1 or values.shape != times.shape:
        raise ConfigurationError(
            f"{where}: times and values must be 1-d of one length, got shapes "
            f"{times.shape} and {values.shape}")
    rises = np.diff(times, prepend=-np.inf) > 0.0
    for what, arr, bad in (("non-finite time", times, ~np.isfinite(times)),
                           ("non-finite value", values, ~np.isfinite(values)),
                           ("negative time", times, times < 0.0),
                           ("time not after the previous one", times, ~rises),
                           ("negative value", values, values < 0.0)):
        if bad.any():
            i = int(np.argmax(bad))
            raise ConfigurationError(
                f"{where}: {what} {float(arr[i])!r} at index {i}")


def build_episode(ident: str,
                  brac_times: np.ndarray, brac_values: np.ndarray,
                  tac_times: np.ndarray, tac_values: np.ndarray,
                  tau: float = 1.0) -> Episode:
    """Assemble an Episode from raw series, resampling onto the tau grid.
    Each channel is checked by ``_check_channel``; the BrAC one may be
    empty."""
    check_step(tau)
    brac_times = np.asarray(brac_times, dtype=float)
    brac_values = np.asarray(brac_values, dtype=float)
    tac_times = np.asarray(tac_times, dtype=float)
    tac_values = np.asarray(tac_values, dtype=float)
    _check_channel(ident, "brac", brac_times, brac_values)
    _check_channel(ident, "tac", tac_times, tac_values)
    if tac_times.size < 2:
        raise ConfigurationError(
            f"episode {ident!r} needs at least two TAC samples, got {tac_times.size}")
    t_last = float(tac_times[-1])
    if brac_times.size:
        t_last = min(t_last, float(brac_times[-1]))
    n_grid = int(np.floor(t_last / tau + 1e-9)) + 1
    if n_grid < 2:
        raise ConfigurationError(
            f"episode {ident!r} spans less than one grid step ({t_last} min)")
    grid = tau * np.arange(n_grid)
    u = resample(brac_times, brac_values, grid) if brac_times.size else None
    y = resample(tac_times, tac_values, grid)
    return Episode(ident=ident, tau=tau,
                   brac_times=brac_times, brac_values=brac_values,
                   tac_times=tac_times, tac_values=tac_values,
                   times=grid, u=u, y=y,
                   fit_indices=_snap_fit_indices(tac_times, tau, n_grid))


def parse_episode_text(text: str, ident: str, tau: float = 1.0) -> Episode:
    """Parse episode CSV content; error messages carry 1-based line numbers."""
    rows = list(csv.reader(text.splitlines()))
    if not rows:
        raise ParseError("empty episode file")
    header = tuple(h.strip().lower() for h in rows[0])
    if header != _HEADER:
        raise ParseError(
            f"expected header {','.join(_HEADER)!r}, got {','.join(rows[0])!r}", line=1)
    series: dict[str, list[tuple[float, float]]] = {c: [] for c in _CHANNELS}
    last_t = {c: -np.inf for c in _CHANNELS}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            raise ParseError(f"expected 3 fields, got {len(row)}", line=lineno)
        t_raw, channel, v_raw = (f.strip() for f in row)
        channel = channel.lower()
        if channel not in _CHANNELS:
            raise ParseError(f"unknown channel {channel!r}", line=lineno)
        try:
            t = float(t_raw)
            v = float(v_raw)
        except ValueError:
            raise ParseError(f"non-numeric field in {row!r}", line=lineno) from None
        if not np.isfinite(t) or not np.isfinite(v):
            raise ParseError(f"non-finite value in {row!r}", line=lineno)
        if t < 0:
            raise ParseError(f"negative time {t}", line=lineno)
        if v < 0:
            raise ParseError(f"negative value {v}", line=lineno)
        if t == last_t[channel]:
            raise ParseError(f"duplicate {channel} timestamp {t}", line=lineno)
        if t < last_t[channel]:
            raise ParseError(
                f"{channel} timestamps not increasing ({t} after {last_t[channel]})",
                line=lineno)
        last_t[channel] = t
        series[channel].append((t, v))
    if not series["tac"]:
        raise ParseError("episode has no tac rows")
    brac = np.array(series["brac"], dtype=float).reshape(-1, 2)
    tac = np.array(series["tac"], dtype=float).reshape(-1, 2)
    return build_episode(ident, brac[:, 0], brac[:, 1], tac[:, 0], tac[:, 1], tau=tau)


def parse_episode(path, tau: float = 1.0) -> Episode:
    """Parse an episode CSV file; the episode id is the file stem."""
    import pathlib

    p = pathlib.Path(path)
    return parse_episode_text(p.read_text(encoding="ascii"), ident=p.stem, tau=tau)


def dump_episode(ep: Episode) -> str:
    """Render the raw series back to CSV at full precision (17 digits)."""
    lines = [",".join(_HEADER)]
    for t, v in zip(ep.brac_times, ep.brac_values):
        lines.append(f"{t:.17g},brac,{v:.17g}")
    for t, v in zip(ep.tac_times, ep.tac_values):
        lines.append(f"{t:.17g},tac,{v:.17g}")
    return "\n".join(lines) + "\n"


def write_episode(ep: Episode, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_episode(ep))
