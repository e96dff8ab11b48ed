from dataclasses import replace

import numpy as np
import pytest

from tdalc import forward_model
from tdalc.data_io import build_episode
from tdalc.deconvolution import (SearchEpisode, build_problem, deconvolve,
                                 deconvolve_deterministic,
                                 default_basis_count, nnls,
                                 select_regularization, sqrtm_psd,
                                 write_result_csv)
from tdalc.density import PopulationParams
from tdalc.errors import ConfigurationError, NumericalError
from tdalc.grid_basis import DiscretizationGrid, SpatialMesh


def make_params():
    return PopulationParams(a=(0.0, 0.0), b=(1.5, 2.0), mu=(0.62, 1.0),
                            sigma=((0.01, 0.002), (0.002, 0.03)))


def make_ops(params=None, **kw):
    params = params or make_params()
    grid = DiscretizationGrid.from_params(params, **kw)
    return forward_model.discrete_time(forward_model.assemble(params, grid))


def pulse(k):
    t = np.arange(k, dtype=float)
    return 0.08 * (t / 55.0) * np.exp(1.0 - t / 55.0)


def make_tac(ops, u):
    return np.concatenate([[0.0], forward_model.simulate(ops, u[:-1])])


def scaled_kkt(a, b, x):
    grad = a.T @ (a @ x - b)
    active = x > 0.0
    return max(float(np.max(np.abs(grad[active]), initial=0.0)),
               float(np.max(-grad[~active], initial=0.0))) \
        / float(np.linalg.norm(a.T @ b))


class TestBasisCount:
    def test_six_per_hour(self):
        assert default_basis_count(240.0) == 24
        assert default_basis_count(60.0) == 6

    def test_floor_of_two(self):
        assert default_basis_count(10.0) == 2


class TestSqrtmPsd:
    def test_squares_back(self):
        rng = np.random.default_rng(3)
        a = rng.random((6, 6))
        mat = a @ a.T
        s = sqrtm_psd(mat)
        assert np.allclose(s @ s, mat, atol=1e-10)
        assert np.allclose(s, s.T, atol=1e-12)

    def test_clips_tiny_negative_eigenvalues(self):
        mat = np.diag([1.0, -1e-15])
        s = sqrtm_psd(mat)
        assert np.all(np.isfinite(s))
        assert s[1, 1] == 0.0


class TestNnls:
    def test_identity_with_mixed_signs(self):
        res = nnls(np.eye(2), np.array([1.0, -1.0]))
        assert np.allclose(res.x, [1.0, 0.0])
        assert res.converged

    def test_recovers_feasible_exact_solution(self):
        rng = np.random.default_rng(7)
        a = rng.random((30, 8))
        x_true = np.abs(rng.random(8))
        res = nnls(a, a @ x_true)
        assert np.allclose(res.x, x_true, atol=1e-8)
        assert res.residual < 1e-10

    def test_kkt_conditions_random_problems(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m, n = int(rng.integers(10, 40)), int(rng.integers(3, 15))
            a = rng.standard_normal((m, n))
            b = rng.standard_normal(m)
            res = nnls(a, b)
            assert res.converged
            grad = a.T @ (a @ res.x - b)
            scale = np.linalg.norm(a.T @ b)
            assert np.all(res.x >= 0.0)
            active = res.x > 0.0
            assert np.all(np.abs(grad[active]) <= 1e-8 * scale)
            assert np.all(grad[~active] >= -1e-8 * scale)

    def test_never_beaten_by_random_feasible_points(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((25, 6))
        b = rng.standard_normal(25)
        res = nnls(a, b)
        obj = np.linalg.norm(a @ res.x - b)
        pts = rng.random((10_000, 6)) * 2.0
        vals = np.linalg.norm(pts @ a.T - b, axis=1)
        assert np.all(obj <= vals + 1e-12)

    def test_iteration_cap_warns_and_returns_feasible(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((20, 10))
        b = rng.standard_normal(20)
        with pytest.warns(RuntimeWarning):
            res = nnls(a, b, max_iter=1)
        assert not res.converged
        assert np.all(res.x >= 0.0)

    def test_iteration_cap_from_warm_start_warns_and_returns_feasible(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((20, 10))
        b = rng.standard_normal(20)
        with pytest.warns(RuntimeWarning):
            res = nnls(a, b, max_iter=1, x0=rng.random(10))
        assert not res.converged
        assert np.all(res.x >= 0.0)

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            nnls(np.eye(3), np.ones(4))

    def test_warm_start_matches_cold_solution(self):
        # criterion 07's family of random problems.  The fit a x at the
        # optimum is unique; x itself is unique only when a has full column
        # rank, which fails for the wide problems (m < n) of the family
        rng = np.random.default_rng(7)
        for _ in range(100):
            m, n = int(rng.integers(10, 60)), int(rng.integers(3, 20))
            a = rng.standard_normal((m, n))
            b = rng.standard_normal(m)
            cold = nnls(a, b)
            for x0 in (np.zeros(n), cold.x, 2.0 * rng.random(n)):
                warm = nnls(a, b, x0=x0)
                assert warm.converged
                assert np.all(warm.x >= 0.0)
                assert scaled_kkt(a, b, warm.x) <= 1e-8
                assert np.max(np.abs(a @ (warm.x - cold.x))) <= 1e-10
                if m >= n:
                    assert np.max(np.abs(warm.x - cold.x)) <= 1e-10

    def test_warm_start_from_solution_is_immediate(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((30, 8))
        b = rng.standard_normal(30)
        cold = nnls(a, b)
        assert nnls(a, b, x0=cold.x).iterations <= 1 < cold.iterations

    @pytest.mark.parametrize("x0", [[1.0, -1e-12, 0.0], [1.0, np.nan, 0.0],
                                    [1.0, np.inf, 0.0], [1.0, 0.0],
                                    [[1.0, 0.0, 0.0]]])
    def test_invalid_start_rejected(self, x0):
        with pytest.raises(ConfigurationError):
            nnls(np.eye(3), np.ones(3), x0=np.array(x0))


class TestBuildProblem:
    def test_negative_regularization_rejected(self):
        ops = make_ops()
        tac = make_tac(ops, pulse(61))
        with pytest.raises(ConfigurationError):
            build_problem(ops, tac, -1.0, 0.1)

    def test_small_regularization_snaps_to_zero(self):
        ops = make_ops()
        tac = make_tac(ops, pulse(61))
        prob = build_problem(ops, tac, 1e-8, 1e-7)
        assert prob.r1 == 0.0 and prob.r2 == 0.0

    def test_zero_kernels_rejected(self):
        ops = make_ops()
        dead = replace(ops, bhat=np.zeros_like(ops.bhat))
        tac = np.zeros(61)
        with pytest.raises(NumericalError):
            build_problem(dead, tac, 0.1, 0.1)

    def test_design_reproduces_forward_map(self):
        # the stacked design applied to exact input coefficients returns the
        # recursion output at every grid instant
        ops = make_ops()
        u = pulse(121)
        tac = make_tac(ops, u)
        prob = build_problem(ops, tac, 0.0, 0.0, m=121, variant="scalar")
        y_design = prob.design @ u
        assert np.max(np.abs(y_design - tac)) < 1e-9


class TestDeconvolve:
    def test_round_trip_tq(self):
        ops = make_ops()
        u = pulse(301)
        tac = make_tac(ops, u)
        res = deconvolve(ops, tac, 1e-3, 1e-3)
        rel = np.linalg.norm(res.mean_curve - u) / np.linalg.norm(u)
        assert rel < 0.10
        assert res.converged

    def test_round_trip_scalar(self):
        ops = make_ops()
        u = pulse(301)
        tac = make_tac(ops, u)
        res = deconvolve(ops, tac, 1e-3, 1e-3, variant="scalar")
        rel = np.linalg.norm(res.mean_curve - u) / np.linalg.norm(u)
        assert rel < 0.10

    def test_variants_identical_on_single_cell_grid(self):
        ops = make_ops(m1=1, m2=1)
        u = pulse(181)
        tac = make_tac(ops, u)
        a = deconvolve(ops, tac, 1e-3, 1e-2, variant="tq")
        b = deconvolve(ops, tac, 1e-3, 1e-2, variant="scalar")
        assert np.max(np.abs(a.mean_curve - b.mean_curve)) < 1e-12

    def test_misfit_monotone_in_penalty_weight(self):
        ops = make_ops()
        tac = make_tac(ops, pulse(301))
        for variant, r1 in (("tq", 1e-2), ("scalar", 1e-3)):
            mis = [deconvolve(ops, tac, r1, r2, variant=variant).residual
                   for r2 in (1e-3, 1e-2, 1e-1, 1.0, 10.0)]
            assert all(x <= y + 1e-12 for x, y in zip(mis, mis[1:])), \
                (variant, mis)

    def test_objective_bounded_by_zero_solution(self):
        ops = make_ops()
        tac = make_tac(ops, pulse(301))
        for r1, r2 in ((0.0, 0.0), (1e-3, 1e-2), (1.0, 1.0)):
            res = deconvolve(ops, tac, r1, r2)
            assert res.nnls.residual <= np.linalg.norm(tac) + 1e-12

    def test_estimate_nonnegative(self):
        ops = make_ops()
        tac = make_tac(ops, pulse(301))
        res = deconvolve(ops, tac, 1e-4, 1e-4)
        assert np.all(res.coeffs >= 0.0)
        assert np.all(res.mean_curve >= -1e-14)

    def test_coeff_tensor_shape(self):
        ops = make_ops()
        tac = make_tac(ops, pulse(121))
        res = deconvolve(ops, tac, 1e-3, 1e-3, m=10)
        assert res.coeffs.shape == (10, 4, 4)
        flat_mean = np.tensordot(res.coeffs.reshape(10, 16, order="F"),
                                 forward_model.assemble(
                                     make_params(),
                                     DiscretizationGrid.from_params(
                                         make_params())).p,
                                 axes=(1, 0))
        recon = res.mean_curve
        sampled = np.linalg.norm(recon)
        assert sampled > 0 and flat_mean.shape == (10,)

    def test_deterministic_variant(self):
        det = forward_model.deterministic_ops((0.62, 1.0), SpatialMesh(4), 1.0)
        u = pulse(301)
        y = forward_model.simulate_deterministic(det, u[:-1])
        tac = np.concatenate([[0.0], y])
        curve, sol = deconvolve_deterministic(det, tac, 1e-4, 1e-4)
        rel = np.linalg.norm(curve - u) / np.linalg.norm(u)
        assert rel < 0.10 and sol.converged


class TestSelectRegularization:
    def _episode(self, ops, k=301, seed=None):
        u = pulse(k)
        t = np.arange(k, dtype=float)
        tac = make_tac(ops, u)
        return build_episode("train", t, u, t, tac, tau=1.0)

    def test_beats_simplex_start(self):
        ops = make_ops()
        ep = self._episode(ops)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            r1, r2 = select_regularization(ops, [ep], max_iter=25)
        assert r1 >= 0.0 and r2 >= 0.0

        def misfit(rr1, rr2):
            res = deconvolve(ops, ep.y, rr1, rr2)
            du = res.mean_curve[:-1] - ep.u[:-1]
            dy = res.fitted_tac[1:] - ep.y[1:]
            return float(du @ du + dy @ dy)

        assert misfit(r1, r2) <= misfit(1e-1, 1.0) + 1e-12

    def test_rejects_episode_without_brac(self):
        ops = make_ops()
        ep = self._episode(ops)
        bare = replace(ep, u=None)
        with pytest.raises(ConfigurationError):
            select_regularization(ops, [bare])

    def test_rejects_tau_mismatch(self):
        ops = make_ops()
        ep = self._episode(ops)
        half = replace(ep, tau=0.5)
        with pytest.raises(ConfigurationError):
            select_regularization(ops, [half])


class TestSearchEpisode:
    def test_warm_solves_meet_kkt_on_built_problem(self):
        ops = make_ops()
        u = pulse(121)
        t = np.arange(121, dtype=float)
        ep = build_episode("train", t, u, t, make_tac(ops, u), tau=1.0)
        search = SearchEpisode(ops, ep)
        # a walk over the search box, with r1 and r2 snapped to zero on
        # the way; every solve starts from the previous one
        for r1, r2 in ((1e-1, 1.0), (1e-3, 1e-2), (1e-8, 1e-1), (1e-8, 1e-8),
                       (1e2, 1e-4), (1e-5, 1e2), (3e-2, 3e-3)):
            search.score(r1, r2)
            prob = build_problem(ops, ep.y, r1, r2)
            assert scaled_kkt(prob.stacked, prob.target, search.x) <= 1e-8, \
                (r1, r2)


class TestResultCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        t = np.arange(5, dtype=float)
        write_result_csv(path, t, t * 0.1, t * 0.05, t * 0.2, t * 0.01,
                         t * 0.012)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("t_minutes,mean_brac,lower_band,upper_band,"
                            "fitted_tac,measured_tac")
        assert len(lines) == 6
        row = [float(v) for v in lines[4].split(",")]
        assert row == pytest.approx([3.0, 0.3, 0.15, 0.6, 0.03, 0.036])

    def test_length_mismatch_rejected(self, tmp_path):
        t = np.arange(5, dtype=float)
        with pytest.raises(ConfigurationError):
            write_result_csv(tmp_path / "bad.csv", t, t, t, t, t[:-1], t)
