"""Episode files and resampling.

A drinking episode arrives as a CSV with header ``t_minutes,channel,value``;
channel is ``brac`` (breath measurements, possibly absent) or ``tac``
(transdermal sensor).  Parsing validates hard and reports the offending line.

Model fitting and deconvolution both run on a uniform grid with step ``tau``
(minutes).  Each channel is resampled onto that grid with a natural cubic
spline through its samples, whose tridiagonal system the Thomas algorithm
solves in numpy, clamped at zero from below; the resampled BrAC
values double as the zero-order-hold input of the training recursion.  The
grid covers [0, T_last] where T_last is the last instant covered by every
channel present, so the spline never extrapolates.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

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


def _thomas(off: np.ndarray, diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the symmetric tridiagonal system of diagonal ``diag`` and off
    diagonal ``off`` (one entry shorter) for ``rhs`` by the Thomas algorithm:
    Gaussian elimination without pivoting, which is stable on a diagonally
    dominant matrix such as the spline's, then back substitution.  The
    arithmetic is LAPACK's dgtsv where that takes no row interchange."""
    d, r, c = diag.tolist(), rhs.tolist(), off.tolist()
    for i, ci in enumerate(c):
        fact = ci / d[i]
        d[i + 1] -= fact * ci
        r[i + 1] -= fact * r[i]
    r[-1] /= d[-1]
    for i in range(len(c) - 1, -1, -1):
        r[i] = (r[i] - c[i] * r[i + 1]) / d[i]
    return np.array(r)


def _natural_spline(t: np.ndarray, v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The natural cubic spline through (t, v), at least three knots, at x.

    Its second derivatives M at the knots, zero at both ends, solve the
    tridiagonal continuity system h_i-1 M_i-1 + 2 (h_i-1 + h_i) M_i
    + h_i M_i+1 = 6 (s_i - s_i-1) of the knot gaps h and chord slopes s
    (``_thomas``).  On piece i with A = (t_i+1 - x) / h_i and B = 1 - A it
    is A v_i + B v_i+1 + ((A^3 - A) M_i + (B^3 - B) M_i+1) h_i^2 / 6, so a
    knot returns its value exactly; beyond the data the end pieces
    extrapolate.
    """
    h = np.diff(t)
    slope = np.diff(v) / h
    curv = np.zeros(t.size)
    curv[1:-1] = _thomas(h[1:-1], 2.0 * (h[:-1] + h[1:]), 6.0 * np.diff(slope))
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


def _check_channel(where: str, times: np.ndarray, values: np.ndarray,
                   lines: np.ndarray | None = None,
                   path: str | None = None) -> None:
    """Reject a raw series, labelled ``where`` in messages, that the program
    cannot read: times and values must be 1-d of one length, finite and
    nonnegative, the times strictly increasing.  Every series read (episode
    channels, synthetic BrAC templates, ``tdalc stats`` curves) passes here.
    The first bad sample is named by the first rule below it breaks, in a
    ``ConfigurationError``, or a ``ParseError`` at its ``lines`` of the
    file ``path``."""
    if times.ndim != 1 or values.shape != times.shape:
        raise ConfigurationError(
            f"{where}: times and values must be 1-d of one length, got shapes "
            f"{times.shape} and {values.shape}")
    rises = times > np.append(-np.inf, times[:-1])
    rules = (("non-finite time", times, ~np.isfinite(times)),
             ("non-finite value", values, ~np.isfinite(values)),
             ("negative time", times, times < 0.0),
             ("time not after the previous one", times, ~rises),
             ("negative value", values, values < 0.0))
    bad = np.stack([rule[2] for rule in rules], axis=1)     # sample x rule
    if bad.any():
        i, k = divmod(int(np.argmax(bad)), len(rules))
        what, arr, _ = rules[k]
        message = f"{where}: {what} {float(arr[i])!r} at index {i}"
        raise (ConfigurationError(message) if lines is None
               else ParseError(message, line=int(lines[i]), path=path))


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
    _check_channel(f"episode {ident!r} brac", brac_times, brac_values)
    _check_channel(f"episode {ident!r} tac", tac_times, tac_values)
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
    """Parse episode CSV content; errors name the first bad line, 1-based: the
    first unreadable row, or a bad value ``_check_channel`` finds before it."""
    rows = list(csv.reader(text.splitlines()))
    if not rows:
        raise ParseError("empty episode file")
    header = tuple(h.strip().lower() for h in rows[0])
    if header != _HEADER:
        raise ParseError(
            f"expected header {','.join(_HEADER)!r}, got {','.join(rows[0])!r}", line=1)
    series: dict[str, list[tuple[int, float, float]]] = {c: [] for c in _CHANNELS}
    faults = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 3:
            faults.append(ParseError(f"expected 3 fields, got {len(row)}", line=lineno))
            break
        if (channel := row[1].strip().lower()) not in _CHANNELS:
            faults.append(ParseError(f"unknown channel {channel!r}", line=lineno))
            break
        try:
            series[channel].append((lineno, float(row[0]), float(row[2])))
        except ValueError:
            faults.append(ParseError(f"non-numeric field in {row!r}", line=lineno))
            break
    cols = {c: np.array(s, dtype=float).reshape(-1, 3).T.copy() for c, s in series.items()}
    for channel, (lines, t, v) in cols.items():
        try:
            _check_channel(f"episode {ident!r} {channel}", t, v, lines)
        except ParseError as err:
            faults.append(err)
    if faults:
        raise min(faults, key=lambda err: err.line)
    if not series["tac"]:
        raise ParseError("episode has no tac rows")
    return build_episode(ident, *cols["brac"][1:], *cols["tac"][1:], tau=tau)


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
