"""Synthetic drinking-episode generator.

Produces paired BrAC/TAC records from a known population distribution so the
whole pipeline can be exercised and validated without clinical data.  Two
modes: ``population`` simulates TAC with the population model itself (the
expected TAC over the parameter distribution); ``individual`` draws one
parameter pair per episode and simulates that subject, the one-cell case of
the same model.  Either mode convolves the input with the model's impulse
kernels.  Both channels record at their device cadence plus one terminal
reading at the end of the record.

Each episode perturbs the BrAC template in amplitude and duration so a
collection of episodes excites the model more richly than one repeated
record.  Gaussian measurement noise is added to the TAC samples and clamped
at zero, since the sensor reads no alcohol below zero; the clamp is a
deliberate deviation from the plain additive-noise model.

Randomness derives from a single seed: a root SeedSequence is spawned once
per episode, and each episode's stream drives its amplitude and duration
factors, its parameter draw (individual mode), and its noise, in that order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import density
from .data_io import Episode, _check_channel, build_episode
from .errors import ConfigurationError
from .forward_model import (assemble, convolve, deterministic_ops,
                            impulse_kernels)
from .grid_basis import DiscretizationGrid

BRAC_CADENCE = 30.0   # minutes between breathalyzer readings
TAC_CADENCE = 5.0     # minutes between sensor readings

MODES = ("population", "individual")


@dataclass(frozen=True)
class SynthConfig:
    """Generation settings.

    ``input_profile`` is a piecewise-linear BrAC template given as
    (times, values) in minutes and percent alcohol, a raw series
    (``data_io._check_channel``) of at least two points from t = 0; its
    BrAC must be zero at both ends so every episode is a complete
    excursion.  ``amp_range`` and ``dur_range`` bound the per-episode scale
    factors, finite; set both to (1, 1) for identical template copies.
    """

    rho_true: density.PopulationParams
    grid: DiscretizationGrid
    input_profile: tuple = ((0.0, 60.0, 240.0), (0.0, 0.08, 0.0))
    noise_sigma: float = 0.0
    n_episodes: int = 5
    seed: int = 0
    mode: str = "population"
    amp_range: tuple = (0.7, 1.3)
    dur_range: tuple = (0.85, 1.15)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigurationError(
                f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0 <= self.noise_sigma < np.inf:
            raise ConfigurationError(
                f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.n_episodes < 1:
            raise ConfigurationError(
                f"n_episodes must be >= 1, got {self.n_episodes}")
        times, values = (np.asarray(v, dtype=float) for v in self.input_profile)
        _check_channel("input_profile", times, values)
        if times.size < 2 or times[0] != 0.0:
            raise ConfigurationError("input_profile needs at least two points "
                                     "and a first time of 0")
        edge = 1e-9 * max(1.0, float(values.max()))
        if values[0] > edge or values[-1] > edge:
            raise ConfigurationError(
                "template must start and end at zero BrAC")
        for name, rng_pair in (("amp_range", self.amp_range),
                               ("dur_range", self.dur_range)):
            lo, hi = rng_pair
            if not 0 < lo <= hi < np.inf:
                raise ConfigurationError(
                    f"{name} must satisfy 0 < lo <= hi < inf, got {rng_pair}")


def _template_on_grid(cfg: SynthConfig, amp: float, dur: float,
                      tau: float) -> np.ndarray:
    """Evaluate the scaled template on the tau grid covering its support."""
    times, values = (np.asarray(v, dtype=float) for v in cfg.input_profile)
    horizon = times[-1] * dur
    n_grid = int(np.floor(horizon / tau + 1e-9)) + 1
    t = np.arange(n_grid) * tau
    return np.interp(t / dur, times, amp * values), t


def generate(cfg: SynthConfig) -> list[Episode]:
    """Generate episodes; deterministic for a fixed config."""
    tau = cfg.grid.tau
    ops = assemble(cfg.rho_true, cfg.grid) if cfg.mode == "population" else None
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_episodes)
    episodes = []
    for e, child in enumerate(children):
        rng = np.random.default_rng(child)
        amp = rng.uniform(*cfg.amp_range)
        dur = rng.uniform(*cfg.dur_range)
        u, t = _template_on_grid(cfg, amp, dur, tau)
        if cfg.mode == "individual":
            q = density.sample(cfg.rho_true, 1, rng)[0]
            ops = deterministic_ops(q, cfg.grid.spatial, tau)
        kernels = impulse_kernels(ops, max(u.size - 1, 1))
        clean = np.concatenate([[0.0], convolve(kernels, u[:-1])])
        # cadence samples plus a terminal reading, so the record always
        # covers the complete excursion back to zero
        horizon = t[-1]
        brac_t = np.unique(np.append(
            np.arange(0.0, horizon + 1e-9, BRAC_CADENCE), horizon))
        tac_t = np.unique(np.append(
            np.arange(0.0, horizon + 1e-9, TAC_CADENCE), horizon))
        brac_v = np.interp(brac_t, t, u)
        tac_v = np.interp(tac_t, t, clean)
        if cfg.noise_sigma > 0:
            tac_v = tac_v + cfg.noise_sigma * rng.standard_normal(tac_t.size)
            tac_v = np.clip(tac_v, 0.0, None)
        episodes.append(build_episode(f"synth-{e:03d}", brac_t, brac_v,
                                      tac_t, tac_v, tau=tau))
    return episodes
