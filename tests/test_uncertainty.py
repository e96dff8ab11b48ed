from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdalc import deconvolution, density, forward_model, uncertainty
from tdalc.deconvolution import deconvolve, deconvolve_deterministic
from tdalc.density import PopulationParams, credible_region_radius
from tdalc.errors import (ConfigurationError, NumericalError, ParameterError,
                          SamplingError)
from tdalc.grid_basis import DiscretizationGrid, temporal_basis_matrices
from tdalc.uncertainty import (STAT_NAMES, CredibleBand, EpisodeStats,
                               band_overlap_fraction, credible_band,
                               credible_band_scalar, episode_stats,
                               format_interval, format_stat, format_stats_row,
                               kept_samples, stats_credible_intervals,
                               write_stats_report)


def make_params(sigma=((0.01, 0.002), (0.002, 0.03))):
    return PopulationParams(a=(0.0, 0.0), b=(1.5, 2.0), mu=(0.62, 1.0),
                            sigma=sigma)


def make_result(params=None, k=301, mesh=4, **kw):
    params = params or make_params()
    grid = DiscretizationGrid.from_params(params, m1=mesh, m2=mesh)
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
        with pytest.raises(SamplingError, match="n_samples"):
            kept_samples(make_params(), 1e-9, 5, seed=1)

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_no_draws_is_a_setting_error(self, n_samples):
        with pytest.raises(ConfigurationError, match="at least one sample"):
            kept_samples(make_params(), 0.75, n_samples, seed=1)


class TestCredibleBand:
    def test_orders_and_contains_single_cell_curve(self):
        res, _, _ = make_result()
        band = credible_band(res, make_params(), alpha=0.75)
        assert np.all(band.lower <= band.upper + 1e-15)
        assert band.lower.shape == res.mean_curve.shape

    def test_nested_in_credible_level(self):
        res, _, _ = make_result()
        params = make_params()
        inner = credible_band(res, params, alpha=0.5)
        outer = credible_band(res, params, alpha=0.9)
        assert np.all(outer.lower <= inner.lower + 1e-15)
        assert np.all(inner.upper <= outer.upper + 1e-15)

    def test_deterministic(self):
        res, _, _ = make_result()
        a = credible_band(res, make_params())
        b = credible_band(res, make_params())
        assert np.array_equal(a.lower, b.lower)
        assert np.array_equal(a.upper, b.upper)

    def test_width_collapses_with_population_spread(self):
        # mu placed strictly inside one parameter cell, so the credible
        # disk meets no other cell once the spread shrinks below its size
        tight = PopulationParams(a=(0.0, 0.0), b=(1.5, 2.0), mu=(0.62, 0.9),
                                 sigma=((1e-6, 0.0), (0.0, 1e-6)))
        res, _, _ = make_result(params=tight)
        band = credible_band(res, tight)
        # only the cell holding mu meets the disk
        assert np.max(band.upper - band.lower) == 0.0

    def test_scalar_variant_rejected(self):
        res, _, _ = make_result(variant="scalar")
        with pytest.raises(ConfigurationError):
            credible_band(res, make_params())

    def test_alpha_out_of_range(self):
        res, _, _ = make_result()
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ConfigurationError):
                credible_band(res, make_params(), alpha=alpha)
            with pytest.raises(ConfigurationError):
                stats_credible_intervals(res, make_params(), alpha=alpha)

    def test_inverted_edges_rejected(self):
        with pytest.raises(NumericalError):
            CredibleBand(lower=np.array([1.0]), upper=np.array([0.0]),
                         alpha=0.75)


@lru_cache(maxsize=None)
def outside_result():
    """make_params() with mu beyond the box's right q1 edge, and a 4 x 4
    tensor-variant estimate on its box."""
    params = replace(make_params(), mu=(1.7, 1.0))
    return params, make_result(params=params)[0]


def cell_curves(result):
    """Curve of every parameter cell of a tensor-variant result, K x m1 x m2."""
    sample = temporal_basis_matrices(result.time_mesh)[2]
    return np.einsum("km,mij->kij", sample, result.coeffs)


@lru_cache(maxsize=None)
def fine_result():
    """One 8 x 8 tensor-variant estimate on make_params()'s box."""
    return make_result(k=163, mesh=8)[0]


@st.composite
def diagonal_laws(draw):
    """Diagonal-covariance laws on make_params()'s box.  A position in
    [0, 1] puts mu inside the box on that axis; beyond, up to 1.5 standard
    deviations past the edge."""
    a, b = np.array([0.0, 0.0]), np.array([1.5, 2.0])
    sd = np.array([draw(st.floats(0.01, 0.4)) for _ in b]) * (b - a)
    pos = np.array([draw(st.floats(-0.5, 1.5)) for _ in b])
    mu = np.where(pos < 0.0, a + 3.0 * pos * sd,
                  np.where(pos > 1.0, b + 3.0 * (pos - 1.0) * sd,
                           a + pos * (b - a)))
    return PopulationParams(a=a, b=b, mu=mu, sigma=np.diag(sd ** 2))


class TestDirectBand:
    @settings(max_examples=16, deadline=None, derandomize=True)
    @given(params=diagonal_laws(), alpha=st.floats(0.3, 0.95))
    def test_band_holds_disk_cells(self, params, alpha):
        res = fine_result()
        curves = cell_curves(res)
        tol = 1e-12 * float(np.max(np.abs(curves)))
        grid = DiscretizationGrid.from_params(params, m1=8, m2=8)

        def held(picked, band):
            return (np.all(band.lower[:, None] <= picked + tol)
                    and np.all(picked <= band.upper[:, None] + tol))

        band = credible_band(res, params, alpha=alpha)
        assert np.all(band.lower <= band.upper)
        if np.all((params.a <= params.mu) & (params.mu <= params.b)):
            i1, i2 = (grid.pm1.cell_index(params.mu[0]),
                      grid.pm2.cell_index(params.mu[1]))
            assert held(curves[:, [i1], i2], band)
        inner = credible_band(res, params, alpha=0.5)
        outer = credible_band(res, params, alpha=0.9)
        assert np.all(outer.lower <= inner.lower)
        assert np.all(inner.upper <= outer.upper)
        # never narrower than a sampled band; the appended mean may lie
        # outside the box, so only the draws are looked up
        for seed in (0, 1):
            kept = kept_samples(params, alpha, 400, seed)[:-1]
            picked = curves[:, grid.pm1.cell_index(kept[:, 0]),
                            grid.pm2.cell_index(kept[:, 1])]
            assert held(picked, band)


class TestMeanOutsideBox:
    def test_band_and_intervals(self):
        params, res = outside_result()
        band = credible_band(res, params)
        assert np.all(np.isfinite(band.lower) & np.isfinite(band.upper))
        assert np.all(band.lower <= band.upper)
        assert np.max(band.upper) > 0.0
        intervals = stats_credible_intervals(res, params).intervals
        assert intervals["peak"] is not None
        for pair in intervals.values():
            if pair is not None:
                assert np.all(np.isfinite(pair)) and pair[0] <= pair[1]

    def test_disk_short_of_box_raises(self, monkeypatch):
        # at a vanishing level the disk still reaches the box, 0.2 away
        # from mu, and holds the requested mass
        params, res = outside_result()
        rad = credible_region_radius(params, 1e-7)
        assert rad.radius >= 0.2
        assert abs(rad.mass - 1e-7) <= 1e-9 * 1e-7
        band = credible_band(res, params, alpha=1e-7)
        assert np.all(np.isfinite(band.lower) & np.isfinite(band.upper))
        for pair in stats_credible_intervals(res, params,
                                             alpha=1e-7).intervals.values():
            assert pair is None or np.all(np.isfinite(pair))
        # a disk that stops short of the box meets no cell
        monkeypatch.setattr(density, "credible_region_radius",
                            lambda p, alpha: replace(rad, radius=0.19))
        with pytest.raises(NumericalError):
            credible_band(res, params, alpha=1e-7)
        with pytest.raises(NumericalError):
            stats_credible_intervals(res, params, alpha=1e-7)


@lru_cache(maxsize=None)
def anisotropic_result():
    """An anisotropic law whose credible disk meets two cells of almost no
    mass, and its 8 x 8 tensor-variant estimate (K = 121) of a bump
    simulated under the law, with white noise at 0.2% of peak."""
    params = PopulationParams(a=(0.0, 0.0), b=(1.5, 2.0), mu=(0.62, 1.01),
                              sigma=((0.01, 0.0), (0.0, 1e-6)))
    grid = DiscretizationGrid.from_params(params, m1=8, m2=8)
    ops = forward_model.discrete_time(forward_model.assemble(params, grid))
    t = np.arange(121.0)
    rise = np.sin(0.5 * np.pi * np.clip(t / 30.0, 0.0, 1.0)) ** 2
    fall = np.cos(0.5 * np.pi * np.clip((t - 30.0) / 70.0, 0.0, 1.0)) ** 2
    u = 0.07 * np.where(t <= 30.0, rise, fall)
    tac = np.concatenate([[0.0], forward_model.convolve(
        forward_model.impulse_kernels(ops, 120), u[:-1])])
    noise = np.random.default_rng(1).standard_normal(tac.size)
    tac = np.clip(tac + 0.002 * tac.max() * noise, 0.0, None)
    return params, deconvolve(ops, tac, 1e-3, 1e-3)


class TestVoidCells:
    def test_band_and_intervals_leave_out_void_cells(self):
        # the disk (radius 0.115) meets cells (2, 3), (2, 4), (3, 3) and
        # (3, 4); the first and third carry mass 2.1e-24 and 4.7e-24, so
        # their columns are void and their curves zero by the solver's
        # rule, and a band that read them would have a zero lower edge
        params, res = anisotropic_result()
        void = res.nnls.void.reshape(res.coeffs.shape, order="F").all(axis=0)
        assert void[2, 3] and void[3, 3] and not void[2:4, 4].any()
        _, inside = uncertainty._disk_cells(res, params, 0.75)
        assert np.argwhere(inside).tolist() == [[2, 4], [3, 4]]
        band = credible_band(res, params, alpha=0.75)
        curves = cell_curves(res)[:, 2:4, 4]
        assert np.array_equal(band.lower, curves.min(axis=1))
        assert np.array_equal(band.upper, curves.max(axis=1))
        assert band.lower.max() == pytest.approx(0.0662, abs=1e-4)
        peak = stats_credible_intervals(res, params, 0.75).intervals["peak"]
        assert peak == pytest.approx((0.0732, 0.0759), abs=1e-4)

    def test_disk_of_void_cells_raises(self):
        params, res = anisotropic_result()
        all_void = replace(res, nnls=replace(
            res.nnls, void=np.ones_like(res.nnls.void)))
        with pytest.raises(NumericalError, match="non-void"):
            credible_band(all_void, params)
        with pytest.raises(NumericalError, match="non-void"):
            stats_credible_intervals(all_void, params)


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

    @pytest.mark.parametrize("r1, r2", [(1e-3, 1e-3), (0.0, 1e-3)])
    @pytest.mark.parametrize("shape", ["smooth", "pulse"])
    def test_equals_per_sample_reference(self, monkeypatch, shape, r1, r2):
        # the batched exchanges meet each sample's own deconvolution, on a
        # TAC whose support ends inside the record too; no sample goes
        # through the public nnls
        params = make_params()
        tac, grid = (make_result(k=181)[1:] if shape == "smooth"
                     else pulse_tac())
        curves, _ = per_sample_reference(tac, params, grid, r1, r2, 200, 3)
        warm = spy_warm_nnls(monkeypatch)
        band = credible_band_scalar(tac, params, grid, r1, r2,
                                    n_samples=200, seed=3)
        assert not warm
        tol = 1e-12 * float(np.max(curves))
        assert band.dropped == 0
        assert np.max(np.abs(band.lower - curves.min(axis=0))) <= tol
        assert np.max(np.abs(band.upper - curves.max(axis=0))) <= tol

    def test_support_ending_inside_settles_every_sample(self, monkeypatch):
        # a TAC back at zero well before the record ends moves the end of
        # the support between kept samples, so their free sets differ from
        # that of q = mu; the batched exchanges settle them all
        params = make_params()
        tac, grid = pulse_tac()
        curves, _ = per_sample_reference(tac, params, grid, 1e-3, 1e-3,
                                         1000, 0)
        solves = cap_band_solves(monkeypatch)
        band = credible_band_scalar(tac, params, grid, 1e-3, 1e-3)
        iterations = np.concatenate([its for _, _, _, its in solves])
        assert curves.shape[0] > 500 and band.dropped == 0
        assert np.max(iterations) > 1
        tol = 1e-12 * float(np.max(curves))
        assert np.max(np.abs(band.lower - curves.min(axis=0))) <= tol
        assert np.max(np.abs(band.upper - curves.max(axis=0))) <= tol

    def test_samples_start_from_the_mean_solution(self, monkeypatch):
        # q = mu is the band's one single-subject solve; every other kept
        # sample starts from its solution, in the batch
        params = make_params()
        tac, grid = pulse_tac()
        det = forward_model.deterministic_ops(params.mu, grid.spatial,
                                              grid.tau)
        _, start = deconvolve_deterministic(det, tac, 1e-3, 1e-3)
        solve, singles = deconvolution.deconvolve_deterministic, []

        def spy(*args, **kwargs):
            singles.append(kwargs.get("x0"))
            return solve(*args, **kwargs)

        monkeypatch.setattr(uncertainty, "deconvolve_deterministic", spy)
        solves = cap_band_solves(monkeypatch)
        credible_band_scalar(tac, params, grid, 1e-3, 1e-3, n_samples=60,
                             seed=5)
        assert singles == [None]
        assert len(solves) > 0
        assert all(np.allclose(x0, start.x, rtol=1e-15, atol=0.0)
                   for x0, _, _, _ in solves)

    def test_capped_solves_dropped_and_counted(self, monkeypatch):
        # every fourth problem of a batch is capped at one iteration, so
        # the samples among them that need two are left out and counted
        params = make_params()
        tac, grid = pulse_tac()
        curves, _ = per_sample_reference(tac, params, grid, 1e-3, 1e-3, 60, 5)
        solves = cap_band_solves(monkeypatch, every=4, max_iter=1)
        band = credible_band_scalar(tac, params, grid, 1e-3, 1e-3,
                                    n_samples=60, seed=5)
        ok = np.concatenate([conv for _, _, conv, _ in solves])
        # the reference's row 0 is q = mu, its row i + 1 the band's sample i
        gone = 1 + np.flatnonzero(~ok)
        assert band.dropped == gone.size > 0
        rest = np.delete(curves, gone, axis=0)
        tol = 1e-12 * float(np.max(curves))
        assert np.max(np.abs(band.lower - rest.min(axis=0))) <= tol
        assert np.max(np.abs(band.upper - rest.max(axis=0))) <= tol

    def test_too_many_capped_solves_raise(self, monkeypatch):
        params = make_params()
        tac, grid = pulse_tac()
        cap_band_solves(monkeypatch, every=1, max_iter=0)
        with pytest.raises(NumericalError):
            credible_band_scalar(tac, params, grid, 1e-3, 1e-3,
                                 n_samples=60, seed=5)

    def test_nonpositive_diffusivity_raises(self):
        # the support box admits q1 <= 0, and some kept samples fall there
        params = PopulationParams(a=(-0.5, 0.0), b=(1.5, 2.0), mu=(0.1, 1.0),
                                  sigma=((0.01, 0.0), (0.0, 0.03)))
        assert np.any(kept_samples(params, 0.75, 200, 3)[:, 0] <= 0.0)
        _, tac, grid = make_result(k=181)
        with pytest.raises(ParameterError, match="diffusivity must be positive"):
            credible_band_scalar(tac, params, grid, 1e-3, 1e-3,
                                 n_samples=200, seed=3)


def pulse_tac(k=181):
    """TAC of a triangular input that is back at zero after 90 minutes."""
    params = make_params()
    grid = DiscretizationGrid.from_params(params)
    ops = forward_model.assemble(params, grid)
    t = np.arange(k, dtype=float)
    u = np.clip(0.08 * (1.0 - np.abs(t - 45.0) / 45.0), 0.0, None)
    return np.concatenate([[0.0], forward_model.simulate(ops, u[:-1])]), grid


def per_sample_reference(tac, params, grid, r1, r2, n_samples, seed):
    """Curves and coefficients of the kept samples, one deconvolution each:
    q = mu from zero, every other sample warm-started from its solution."""
    kept = kept_samples(params, 0.75, n_samples, seed)
    det = forward_model.deterministic_ops(kept[-1], grid.spatial, grid.tau)
    curve, start = deconvolve_deterministic(det, tac, r1, r2)
    curves, xs = [curve], [start.x]
    for q in kept[:-1]:
        det = forward_model.deterministic_ops(q, grid.spatial, grid.tau)
        problem = deconvolution.build_problem(det, tac, r1, r2, variant="scalar")
        sol = deconvolution.nnls(problem, problem.target, x0=start.x)
        assert sol.converged
        curves.append(problem.sample @ sol.x)
        xs.append(sol.x)
    return np.array(curves), np.array(xs)


def cap_band_solves(monkeypatch, every=1, max_iter=None):
    """Run the band's batches (``_Grams``) through ``_pivoting`` with every
    ``every``-th problem of a batch capped at ``max_iter`` iterations (the
    band's own cap when None).  Returns a list of (x0, x, converged,
    iterations), one per batch, with x0 and x unscaled."""
    pivoting = deconvolution._pivoting
    calls = []

    def spy(normal, x, cap, descent=False):
        if descent or not isinstance(normal, deconvolution._Grams):
            return pivoting(normal, x, cap, descent)
        capped = np.arange(len(x)) % every == 0
        out = [np.empty(x.shape), np.empty(len(x), bool), np.empty(len(x), int)]
        for rows, limit in ((capped, cap if max_iter is None else max_iter),
                            (~capped, cap)):
            for whole, part in zip(out, pivoting(normal.take(rows), x[rows],
                                                 limit)):
                whole[rows] = part
        calls.append((x / normal.s, out[0] / normal.s, *out[1:]))
        return tuple(out)

    monkeypatch.setattr(deconvolution, "_pivoting", spy)
    return calls


def spy_warm_nnls(monkeypatch):
    """Record the x of every warm-started ``nnls`` call."""
    solve = deconvolution.nnls
    calls = []

    def spy(a, b, *args, x0=None, **kwargs):
        res = solve(a, b, *args, x0=x0, **kwargs)
        if x0 is not None:
            calls.append(res.x)
        return res

    monkeypatch.setattr(deconvolution, "nnls", spy)
    return calls


class TestBandOverlap:
    def test_counts_pointwise_intersections(self):
        a = CredibleBand(lower=np.array([0.0, 0.0, 2.0]),
                         upper=np.array([1.0, 1.0, 3.0]), alpha=0.75)
        b = CredibleBand(lower=np.array([0.5, 1.5, 0.0]),
                         upper=np.array([2.0, 2.0, 1.0]), alpha=0.75)
        assert band_overlap_fraction(a, b) == pytest.approx(1.0 / 3.0)
        assert band_overlap_fraction(a, a) == 1.0

    def test_grid_mismatch_rejected(self):
        a = CredibleBand(lower=np.zeros(3), upper=np.ones(3), alpha=0.75)
        b = CredibleBand(lower=np.zeros(4), upper=np.ones(4), alpha=0.75)
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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_value_rejected(self, value):
        # a NaN would otherwise come out as the peak
        with pytest.raises(ConfigurationError, match="finite"):
            episode_stats(np.array([0.0, 0.02, value, 0.01]), tau=1.0)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_nonfinite_tau_rejected(self, tau):
        # a NaN step would otherwise come out as peak time and area
        with pytest.raises(ConfigurationError, match="finite"):
            episode_stats(np.array([0.0, 0.02, 0.01]), tau=tau)


class TestStatsIntervals:
    def test_ranges_ordered_and_deterministic(self):
        res, _, _ = make_result()
        params = make_params()
        a = stats_credible_intervals(res, params)
        b = stats_credible_intervals(res, params)
        assert a.intervals["peak"] is not None
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
        write_stats_report(path, [("ep1", None, est, None),
                                  ("ep2", est, est, None)])
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
        # measured and estimated cells are format_stats_row's rendering
        assert lines[2].startswith(
            f"ep2,{format_stats_row(est)},{format_stats_row(est)},")
