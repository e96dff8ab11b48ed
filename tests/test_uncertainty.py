from dataclasses import replace

import numpy as np
import pytest

from tdalc import forward_model, uncertainty
from tdalc.deconvolution import deconvolve, deconvolve_deterministic
from tdalc.density import PopulationParams, credible_region_radius
from tdalc.errors import ConfigurationError, NumericalError, SamplingError
from tdalc.grid_basis import DiscretizationGrid
from tdalc.uncertainty import (STAT_NAMES, CredibleBand, EpisodeStats,
                               band_overlap_fraction, credible_band,
                               credible_band_scalar, episode_stats,
                               format_interval, format_stat, format_stats_row,
                               kept_samples, stats_credible_intervals,
                               write_stats_report)


def make_params(sigma=((0.01, 0.002), (0.002, 0.03))):
    return PopulationParams(a=(0.0, 0.0), b=(1.5, 2.0), mu=(0.62, 1.0),
                            sigma=sigma)


def make_result(params=None, k=301, **kw):
    params = params or make_params()
    grid = DiscretizationGrid.from_params(params)
    ops = forward_model.discrete_time(forward_model.assemble(params, grid))
    t = np.arange(k, dtype=float)
    u = 0.08 * (t / 55.0) * np.exp(1.0 - t / 55.0)
    tac = np.concatenate([[0.0], forward_model.simulate(ops, u[:-1])])
    return deconvolve(ops, tac, 1e-3, 1e-3, **kw), tac, grid


class TestKeptSamples:
    def test_inside_disk_with_mean_appended(self):
        params = make_params()
        kept = kept_samples(params, 0.75, 500, seed=4)
        radius = credible_region_radius(params, 0.75).radius
        dist = np.linalg.norm(kept - np.asarray(params.mu), axis=1)
        assert np.all(dist <= radius + 1e-12)
        assert np.allclose(kept[-1], params.mu)
        assert 0 < kept.shape[0] <= 501

    def test_deterministic(self):
        params = make_params()
        a = kept_samples(params, 0.75, 300, seed=9)
        b = kept_samples(params, 0.75, 300, seed=9)
        assert np.array_equal(a, b)

    def test_alpha_out_of_range(self):
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ConfigurationError):
                kept_samples(make_params(), alpha, 10, seed=0)

    def test_empty_disk_raises(self):
        # a vanishing credible level shrinks the disk below any draw
        with pytest.raises(SamplingError):
            kept_samples(make_params(), 1e-9, 5, seed=1)


class TestCredibleBand:
    def test_orders_and_contains_single_cell_curve(self):
        res, _, _ = make_result()
        band = credible_band(res, make_params(), alpha=0.75, n_samples=400,
                             seed=2)
        assert np.all(band.lower <= band.upper + 1e-15)
        assert band.lower.shape == res.mean_curve.shape

    def test_nested_in_credible_level(self):
        res, _, _ = make_result()
        params = make_params()
        inner = credible_band(res, params, alpha=0.5, n_samples=400, seed=3)
        outer = credible_band(res, params, alpha=0.9, n_samples=400, seed=3)
        assert np.all(outer.lower <= inner.lower + 1e-15)
        assert np.all(inner.upper <= outer.upper + 1e-15)

    def test_deterministic(self):
        res, _, _ = make_result()
        a = credible_band(res, make_params(), n_samples=300, seed=5)
        b = credible_band(res, make_params(), n_samples=300, seed=5)
        assert np.array_equal(a.lower, b.lower)
        assert np.array_equal(a.upper, b.upper)

    def test_width_collapses_with_population_spread(self):
        # mu placed strictly inside one parameter cell so every kept draw
        # lands there once the spread shrinks below the cell size
        tight = PopulationParams(a=(0.0, 0.0), b=(1.5, 2.0), mu=(0.62, 0.9),
                                 sigma=((1e-6, 0.0), (0.0, 1e-6)))
        res, _, _ = make_result(params=tight)
        band = credible_band(res, tight, n_samples=200, seed=6)
        # every kept draw lands in the cell holding mu
        assert np.max(band.upper - band.lower) == 0.0

    def test_scalar_variant_rejected(self):
        res, _, _ = make_result(variant="scalar")
        with pytest.raises(ConfigurationError):
            credible_band(res, make_params())

    def test_inverted_edges_rejected(self):
        with pytest.raises(NumericalError):
            CredibleBand(lower=np.array([1.0]), upper=np.array([0.0]),
                         alpha=0.75, n_samples=1, seed=0)


class TestCredibleBandScalar:
    def test_contains_mean_parameter_curve(self):
        params = make_params()
        _, tac, grid = make_result(k=181)
        band = credible_band_scalar(tac, params, grid, 1e-3, 1e-3,
                                    n_samples=40, seed=7)
        det = forward_model.deterministic_ops(params.mu, grid.spatial,
                                              grid.tau)
        curve, _ = deconvolve_deterministic(det, tac, 1e-3, 1e-3)
        assert np.all(band.lower <= curve + 1e-10)
        assert np.all(curve <= band.upper + 1e-10)

    def test_deterministic(self):
        params = make_params()
        _, tac, grid = make_result(k=181)
        a = credible_band_scalar(tac, params, grid, 1e-3, 1e-3,
                                 n_samples=25, seed=8)
        b = credible_band_scalar(tac, params, grid, 1e-3, 1e-3,
                                 n_samples=25, seed=8)
        assert np.array_equal(a.lower, b.lower)
        assert np.array_equal(a.upper, b.upper)

    @pytest.mark.parametrize("r1, r2", [(1e-3, 1e-3), (0.0, 1e-3)])
    def test_equals_cold_envelope(self, r1, r2):
        # criterion 10's law; the band warm-starts every kept sample from
        # q = mu, the envelope here solves each one from zero
        params = make_params()
        _, tac, grid = make_result(k=181)
        band = credible_band_scalar(tac, params, grid, r1, r2,
                                    n_samples=200, seed=3)
        curves = []
        for q in kept_samples(params, 0.75, 200, 3):
            det = forward_model.deterministic_ops(q, grid.spatial, grid.tau)
            curve, sol = deconvolve_deterministic(det, tac, r1, r2)
            assert sol.converged
            curves.append(curve)
        curves = np.array(curves)
        tol = 1e-9 * float(np.max(curves))
        assert band.dropped == 0
        assert np.max(np.abs(band.lower - curves.min(axis=0))) <= tol
        assert np.max(np.abs(band.upper - curves.max(axis=0))) <= tol

    def test_capped_solves_dropped_and_counted(self, monkeypatch):
        params = make_params()
        _, tac, grid = make_result(k=181)
        solve = uncertainty.deconvolve_deterministic
        calls, curves = [], []

        def every_tenth_capped(det, *args, **kwargs):
            curve, sol = solve(det, *args, **kwargs)
            calls.append(det.qbar1[0])
            if len(calls) % 10 == 0:
                return curve, replace(sol, converged=False)
            curves.append(curve)
            return curve, sol

        monkeypatch.setattr(uncertainty, "deconvolve_deterministic",
                            every_tenth_capped)
        band = credible_band_scalar(tac, params, grid, 1e-3, 1e-3,
                                    n_samples=60, seed=5)
        assert len(calls) == len(kept_samples(params, 0.75, 60, 5))
        assert band.dropped == len(calls) // 10 > 0
        assert np.array_equal(band.lower, np.min(curves, axis=0))
        assert np.array_equal(band.upper, np.max(curves, axis=0))


class TestBandOverlap:
    def test_counts_pointwise_intersections(self):
        a = CredibleBand(lower=np.array([0.0, 0.0, 2.0]),
                         upper=np.array([1.0, 1.0, 3.0]),
                         alpha=0.75, n_samples=1, seed=0)
        b = CredibleBand(lower=np.array([0.5, 1.5, 0.0]),
                         upper=np.array([2.0, 2.0, 1.0]),
                         alpha=0.75, n_samples=1, seed=0)
        assert band_overlap_fraction(a, b) == pytest.approx(1.0 / 3.0)
        assert band_overlap_fraction(a, a) == 1.0

    def test_grid_mismatch_rejected(self):
        a = CredibleBand(lower=np.zeros(3), upper=np.ones(3),
                         alpha=0.75, n_samples=1, seed=0)
        b = CredibleBand(lower=np.zeros(4), upper=np.ones(4),
                         alpha=0.75, n_samples=1, seed=0)
        with pytest.raises(ConfigurationError):
            band_overlap_fraction(a, b)


class TestEpisodeStats:
    def test_triangle_exact(self):
        t = np.arange(121, dtype=float)
        curve = np.where(t <= 60.0, 0.08 * t / 60.0,
                         0.08 * (1.0 - (t - 60.0) / 60.0))
        s = episode_stats(curve, tau=1.0)
        assert s.peak == pytest.approx(0.08)
        assert s.peak_time == pytest.approx(1.0)
        assert s.auc == pytest.approx(0.08)
        # first sample under threshold after the peak sits at the endpoint,
        # first one before it at the origin, so both rates equal peak / 1 h
        assert s.elimination_rate == pytest.approx(0.08)
        assert s.absorption_rate == pytest.approx(0.08)
        assert s.values() == (s.peak, s.peak_time, s.auc,
                              s.elimination_rate, s.absorption_rate)

    def test_peak_tie_breaks_early(self):
        curve = np.array([0.0, 0.05, 0.05, 0.0])
        s = episode_stats(curve, tau=30.0)
        assert s.peak_time == pytest.approx(0.5)

    def test_zero_curve_has_no_rates(self):
        s = episode_stats(np.zeros(10), tau=1.0)
        assert s.peak == 0.0
        assert s.auc == 0.0
        assert s.elimination_rate is None
        assert s.absorption_rate is None

    def test_unfinished_descent_has_no_elimination(self):
        # record stops while the curve is still above threshold
        curve = np.array([0.0, 0.04, 0.08, 0.06, 0.05])
        s = episode_stats(curve, tau=1.0)
        assert s.elimination_rate is None
        assert s.absorption_rate is not None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            episode_stats(np.array([]), tau=1.0)
        with pytest.raises(ConfigurationError):
            episode_stats(np.ones(4), tau=0.0)


class TestStatsIntervals:
    def test_ranges_ordered_and_deterministic(self):
        res, _, _ = make_result()
        params = make_params()
        a = stats_credible_intervals(res, params, n_samples=300, seed=12)
        b = stats_credible_intervals(res, params, n_samples=300, seed=12)
        assert a.n_kept > 0
        for name in STAT_NAMES:
            pair = a.intervals[name]
            if pair is not None:
                lo, hi = pair
                assert lo <= hi
            assert a.intervals[name] == b.intervals[name]


class TestFormatting:
    def test_row_rendering(self):
        s = EpisodeStats(peak=0.052, peak_time=0.75, auc=0.1019,
                         elimination_rate=0.0173, absorption_rate=0.0693,
                         threshold=0.001)
        assert format_stats_row(s) == "0.0520,0.7500,0.1019,0.0173,0.0693"

    def test_interval_rendering(self):
        assert format_interval(0.0286, 0.0661) == "[0.0286, 0.0661]"

    def test_missing_value_renders_empty(self):
        assert format_stat(None) == ""
        assert format_stat(0.5) == "0.5000"


class TestStatsReport:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "stats.csv"
        est = EpisodeStats(peak=0.08, peak_time=1.0, auc=0.08,
                           elimination_rate=0.08, absorption_rate=None,
                           threshold=0.001)
        write_stats_report(path, [("ep1", None, est, None)])
        lines = path.read_text().strip().splitlines()
        head = lines[0].split(",")
        assert head[0] == "episode"
        assert head[1:6] == [f"measured_{n}" for n in STAT_NAMES]
        assert head[6:11] == [f"estimated_{n}" for n in STAT_NAMES]
        assert head[11:13] == ["peak_lo", "peak_hi"]
        row = lines[1].split(",")
        assert row[0] == "ep1"
        assert row[1:6] == [""] * 5
        assert row[6] == "0.0800"
        assert row[10] == ""          # undefined absorption rate
        assert len(row) == len(head)
