import math
from dataclasses import replace

import numpy as np
import pytest

from tdalc import density, forward_model
from tdalc.data_io import build_episode
from tdalc.deconvolution import select_regularization
from tdalc.density import PopulationParams
from tdalc.errors import ConfigurationError, NumericalError, ParameterError
from tdalc.grid_basis import DiscretizationGrid, SpatialMesh
from tdalc import population_fit
from tdalc.population_fit import (cost, cost_and_gradient,
                                  fit_episode_deterministic, fit_population,
                                  initial_guess, pack_theta, unpack_theta)
from tdalc.synth import SynthConfig, generate


def make_params():
    return PopulationParams(a=(0.0, 0.0), b=(1.5, 2.0), mu=(0.62, 1.0),
                            sigma=((0.04, 0.008), (0.008, 0.09)))


def episodes_from(params, grid, n=2, seed=5):
    cfg = SynthConfig(rho_true=params, grid=grid, n_episodes=n, seed=seed,
                      mode="population")
    return generate(cfg)


CRITERION05_TRUTH = PopulationParams(a=(0.0, 0.0), b=(2.0, 2.0),
                                     mu=(0.62, 1.0),
                                     sigma=((0.16, 0.01), (0.01, 0.22)))


def criterion05_episodes(scale=1.0):
    """Criterion 05's five noise-free paired episodes (K = 241), with BrAC
    and TAC both multiplied by ``scale``, and the grid they were made on."""
    grid = DiscretizationGrid.from_params(CRITERION05_TRUTH, tau=1.0)
    ops = forward_model.discrete_time(
        forward_model.assemble(CRITERION05_TRUTH, grid))
    t = np.arange(241.0)

    def tri(c, w, h):
        return np.clip(h * (1.0 - np.abs(t - c) / w), 0.0, None)

    shapes = [tri(15, 10, 0.30), tri(60, 8, 0.35),
              tri(30, 12, 0.25) + tri(90, 12, 0.25), tri(120, 60, 0.08),
              tri(20, 6, 0.4) + tri(150, 40, 0.06)]
    episodes = []
    for k, u in enumerate(shapes):
        y = np.concatenate([[0.0], forward_model.simulate(ops, u[:-1])])
        episodes.append(build_episode(f"s{k}", t, scale * u, t, scale * y,
                                      tau=1.0))
    return episodes, grid


def criterion05_start(episodes, grid):
    """Criterion 05's diffuse start around the per-episode seed fits."""
    per = np.array([fit_episode_deterministic(ep, grid).q for ep in episodes])
    mu0 = per.mean(axis=0)
    sig0 = np.diag((0.5 * mu0) ** 2)
    return PopulationParams(a=(0.0, 0.0),
                            b=tuple(mu0 + 4.0 * np.sqrt(np.diag(sig0))),
                            mu=tuple(mu0), sigma=sig0)


def single_subject_cost(ep, grid, q1, q2):
    """Squared TAC misfit of the single-subject model at (q1, q2), for every
    q2 in the array ``q2``, expanded as q2^2 <m, m> - 2 q2 <m, y> + <y, y>
    with m the unit-gain model TAC."""
    det = forward_model.deterministic_ops((q1, 1.0), grid.spatial, grid.tau)
    m = forward_model.simulate_deterministic(det, ep.u[:-1])[ep.fit_indices - 1]
    y = ep.y[ep.fit_indices]
    q2 = np.asarray(q2, dtype=float)
    return q2 * q2 * (m @ m) - 2.0 * q2 * (m @ y) + y @ y


class TestPacking:
    def test_round_trip(self):
        p = make_params()
        theta = pack_theta(p)
        q = unpack_theta(theta, np.asarray(p.a))
        assert np.allclose(q.b, p.b) and np.allclose(q.mu, p.mu)
        assert np.allclose(q.sigma, p.sigma, atol=1e-14)

    def test_round_trip_with_lower(self):
        p = PopulationParams(a=(0.1, 0.2), b=(1.5, 2.0), mu=(0.62, 1.0),
                             sigma=((0.04, 0.0), (0.0, 0.09)))
        theta = pack_theta(p, fit_lower=True)
        q = unpack_theta(theta, np.zeros(2), fit_lower=True)
        assert np.allclose(q.a, p.a)

    def test_names_are_the_density_table(self):
        assert population_fit.active_parameter_names(fit_lower=True) \
            == density.PARAMETER_NAMES

    @pytest.mark.parametrize("fit_lower", [False, True])
    def test_round_trip_off_zero_lower_bounds(self, fit_lower):
        # held lower bounds come from the argument, fitted ones from theta
        p = PopulationParams(a=(0.1, 0.2), b=(1.5, 2.0), mu=(0.62, 1.0),
                             sigma=((0.04, 0.008), (0.008, 0.09)))
        theta = pack_theta(p, fit_lower)
        names = population_fit.active_parameter_names(fit_lower)
        assert theta.size == len(names) == (9 if fit_lower else 7)
        q = unpack_theta(theta, None if fit_lower else p.a, fit_lower)
        for part in ("a", "b", "mu"):
            assert np.array_equal(getattr(q, part), getattr(p, part)), part
        assert np.allclose(q.sigma, p.sigma, rtol=0.0, atol=1e-15)
        assert np.array_equal(pack_theta(q, fit_lower), theta)


class TestCost:
    def test_vanishes_on_self_consistent_data(self):
        # BrAC recorded at every grid node reproduces the driving input
        # exactly, so the misfit at the generating distribution is zero
        p = make_params()
        grid = DiscretizationGrid.from_params(p)
        ops = forward_model.discrete_time(forward_model.assemble(p, grid))
        t = np.arange(241, dtype=float)
        u = 0.08 * (t / 55.0) * np.exp(1.0 - t / 55.0)
        y = forward_model.simulate(ops, u[:-1])
        ep = build_episode("exact", t, u, t, np.concatenate([[0.0], y]),
                           tau=1.0)
        assert cost(p, [ep], grid) < 1e-25

    def test_small_at_truth_for_generated_episodes(self):
        # the 30-minute recording cadence leaves a spline-resampling floor
        p = make_params()
        grid = DiscretizationGrid.from_params(p)
        eps = episodes_from(p, grid)
        at_truth = cost(p, eps, grid)
        assert at_truth < 1e-3
        off = PopulationParams(a=p.a, b=p.b, mu=(0.9, 1.3), sigma=p.sigma)
        assert cost(off, eps, grid) > 100.0 * at_truth

    def test_rejects_episode_without_brac(self):
        p = make_params()
        grid = DiscretizationGrid.from_params(p)
        ep = episodes_from(p, grid, n=1)[0]
        bare = replace(ep, u=None)
        with pytest.raises(ConfigurationError):
            cost(p, [bare], grid)

    def test_rejects_tau_mismatch(self):
        p = make_params()
        grid = DiscretizationGrid.from_params(p)
        eps = episodes_from(p, grid)
        half = DiscretizationGrid.from_params(p, tau=0.5)
        with pytest.raises(ConfigurationError):
            cost(p, eps, half)


@pytest.mark.parametrize("case", ["empty", "tac_only", "tau"])
def test_one_training_episode_check(case):
    # the fit and the weight search reject the same training sets alike
    p = make_params()
    grid = DiscretizationGrid.from_params(p)
    ep = episodes_from(p, grid, n=1)[0]
    bad = {"empty": [], "tac_only": [replace(ep, u=None)],
           "tau": [replace(ep, tau=0.5)]}[case]
    ops = forward_model.assemble(p, grid)
    calls = [lambda: fit_population(bad, grid, init=p),
             lambda: cost(p, bad, grid),
             lambda: select_regularization(ops, bad)]
    if bad:
        calls.append(lambda: fit_episode_deterministic(bad[0], grid))
    messages = set()
    for call in calls:
        with pytest.raises(ConfigurationError) as info:
            call()
        messages.add(str(info.value))
    assert len(messages) == 1


def fd_gradient_mismatch(probe, eps, grid, fit_lower=False):
    """Largest relative gap between cost_and_gradient and central
    differences of cost, with components below 1e-6 of the gradient's sup
    norm floored as numerically zero."""
    _, g = cost_and_gradient(probe, eps, grid, fit_lower=fit_lower)
    theta = pack_theta(probe, fit_lower)
    floor = 1e-6 * float(np.abs(g).max())
    worst = 0.0
    for j in range(theta.size):
        h = 1e-5 * (1.0 + abs(theta[j]))
        tp, tm = theta.copy(), theta.copy()
        tp[j] += h
        tm[j] -= h
        fd = (cost(unpack_theta(tp, probe.a, fit_lower), eps, grid)
              - cost(unpack_theta(tm, probe.a, fit_lower), eps, grid)) / (2.0 * h)
        worst = max(worst, abs(g[j] - fd) / max(abs(fd), abs(g[j]), floor))
    return worst


class TestGradient:
    def test_matches_finite_differences(self):
        p = make_params()
        grid = DiscretizationGrid.from_params(p)
        eps = episodes_from(p, grid)
        probe = PopulationParams(a=p.a, b=(1.4, 1.9), mu=(0.7, 0.95),
                                 sigma=((0.05, 0.004), (0.004, 0.07)))
        _, g = cost_and_gradient(probe, eps, grid)
        theta = pack_theta(probe)
        # components below 1e-6 of the gradient norm are numerically zero;
        # the floor keeps finite-difference roundoff from inflating them
        floor = 1e-6 * float(np.abs(g).max())
        for j in range(theta.size):
            h = 1e-5 * (1.0 + abs(theta[j]))
            tp, tm = theta.copy(), theta.copy()
            tp[j] += h
            tm[j] -= h
            fd = (cost(unpack_theta(tp, probe.a), eps, grid)
                  - cost(unpack_theta(tm, probe.a), eps, grid)) / (2.0 * h)
            rel = abs(g[j] - fd) / max(abs(fd), abs(g[j]), floor)
            assert rel < 1e-4, f"component {j}: adjoint {g[j]}, fd {fd}"


    def test_held_lower_bounds_drop_the_leading_rows(self):
        # at a = 0 holding a1, a2 leaves the other seven components as they are
        p = make_params()
        grid = DiscretizationGrid.from_params(p)
        eps = episodes_from(p, grid)
        probe = PopulationParams(a=p.a, b=(1.4, 1.9), mu=(0.7, 0.95),
                                 sigma=((0.05, 0.004), (0.004, 0.07)))
        val, held = cost_and_gradient(probe, eps, grid, fit_lower=False)
        val_all, every = cost_and_gradient(probe, eps, grid, fit_lower=True)
        assert val == val_all
        assert held.shape == (7,) and every.shape == (9,)
        assert np.allclose(held, every[2:], rtol=1e-12, atol=0.0)

    def test_dead_cells_masked(self):
        # a tight law leaves the tail cells with underflowed (zero) mass;
        # centred on a cell corner, its spread still moves the cost
        p = make_params()
        grid = DiscretizationGrid.from_params(p)
        eps = episodes_from(p, grid)
        tight = PopulationParams(a=p.a, b=(1.5, 2.0), mu=(0.75, 1.0),
                                 sigma=((1e-4, 2e-5), (2e-5, 1e-4)))
        sys = forward_model.assemble(tight, grid.rebind(tight))
        assert np.any(sys.p == 0.0)
        assert fd_gradient_mismatch(tight, eps, grid) < 1e-4

    def test_fit_lower(self):
        # a fixed probe, then seeded random laws with a != 0; seed 3 would
        # draw a law whose a2 component (5e-9) lies below the mismatch
        # floor, where central differences read cost rounding
        p = make_params()
        grid = DiscretizationGrid.from_params(p)
        eps = episodes_from(p, grid)
        probes = {"fixed": PopulationParams(
            a=(0.05, 0.1), b=(1.4, 1.9), mu=(0.7, 0.95),
            sigma=((0.05, 0.004), (0.004, 0.07)))}
        for seed in (1, 2, 5):
            rng = np.random.default_rng(seed)
            s1, s2 = rng.uniform(0.15, 0.3, size=2)
            s12 = rng.uniform(-0.4, 0.4) * s1 * s2
            probes[f"seed {seed}"] = PopulationParams(
                a=rng.uniform(0.02, 0.3, size=2),
                b=rng.uniform((1.2, 1.7), (1.6, 2.1)),
                mu=rng.uniform((0.5, 0.8), (0.8, 1.2)),
                sigma=((s1 * s1, s12), (s12, s2 * s2)))
        for name, probe in probes.items():
            # a1 and a2 are checked on signal: 100 times the floor of
            # ``fd_gradient_mismatch`` at least
            _, g = cost_and_gradient(probe, eps, grid, fit_lower=True)
            assert np.all(np.abs(g[:2]) >= 1e-4 * np.abs(g).max()), name
            mismatch = fd_gradient_mismatch(probe, eps, grid, fit_lower=True)
            assert mismatch < 1e-4, f"{name}: {mismatch}"

    def test_cost_matches_recursion(self):
        p = make_params()
        grid = DiscretizationGrid.from_params(p)
        eps = episodes_from(p, grid, n=3)
        probe = PopulationParams(a=p.a, b=(1.4, 1.9), mu=(0.7, 0.95),
                                 sigma=((0.05, 0.004), (0.004, 0.07)))
        ops = forward_model.discrete_time(
            forward_model.assemble(probe, grid.rebind(probe)))
        ref = 0.0
        for ep in eps:
            y = forward_model.simulate(ops, ep.u[:-1])
            resid = y[ep.fit_indices - 1] - ep.y[ep.fit_indices]
            ref += float(resid @ resid)
        assert abs(cost(probe, eps, grid) - ref) <= 1e-12 * ref
        total, _ = cost_and_gradient(probe, eps, grid)
        assert abs(total - ref) <= 1e-12 * ref


class TestDeterministicFit:
    def test_recovers_single_subject(self):
        q_true = np.array([0.7, 1.1])
        mesh = SpatialMesh(4)
        det = forward_model.deterministic_ops(q_true, mesh, 1.0)
        t = np.arange(241, dtype=float)
        u = 0.08 * (t / 55.0) * np.exp(1.0 - t / 55.0)
        y = forward_model.simulate_deterministic(det, u[:-1])
        ep = build_episode("single", t, u, t, np.concatenate([[0.0], y]),
                           tau=1.0)
        p = make_params()
        grid = DiscretizationGrid.from_params(p)
        fit = fit_episode_deterministic(ep, grid)
        assert np.all(np.abs(fit.q - q_true) / q_true < 0.01)
        assert not fit.boundary

    def test_no_worse_than_dense_grid_or_perturbations(self):
        episodes, grid = criterion05_episodes()
        q1_nodes = np.geomspace(1e-3, 8.0, 400)
        q2_nodes = np.linspace(0.0, 8.0, 1601)
        for ep in episodes:
            fit = fit_episode_deterministic(ep, grid)
            assert not fit.boundary
            assert fit.cost == pytest.approx(
                single_subject_cost(ep, grid, *fit.q), rel=1e-6)
            dense = min(single_subject_cost(ep, grid, q1, q2_nodes).min()
                        for q1 in q1_nodes)
            assert fit.cost <= dense
            for j in range(2):
                for factor in (0.99, 1.01):
                    q = fit.q.copy()
                    q[j] *= factor
                    assert fit.cost <= single_subject_cost(ep, grid, *q)

    def test_zero_tac_gives_zero_gain_on_boundary(self):
        t = np.arange(121, dtype=float)
        u = 0.08 * (t / 55.0) * np.exp(1.0 - t / 55.0)
        ep = build_episode("flat", t, u, t, np.zeros_like(t), tau=1.0)
        grid = DiscretizationGrid.from_params(make_params())
        fit = fit_episode_deterministic(ep, grid)
        assert fit.q[1] == 0.0
        assert fit.cost == 0.0
        assert fit.boundary

    def test_diffusivity_pinned_at_grid_end(self, monkeypatch):
        # the generating diffusivity 0.7 lies above a cap of 0.3, so the best
        # q1 on [1e-3, 0.3] is the grid's upper end; the gain stays inside
        monkeypatch.setattr(population_fit, "_Q_MAX", 0.3)
        mesh = SpatialMesh(4)
        det = forward_model.deterministic_ops((0.7, 0.2), mesh, 1.0)
        t = np.arange(241, dtype=float)
        u = 0.08 * (t / 55.0) * np.exp(1.0 - t / 55.0)
        y = forward_model.simulate_deterministic(det, u[:-1])
        ep = build_episode("fast", t, u, t, np.concatenate([[0.0], y]),
                           tau=1.0)
        grid = DiscretizationGrid.from_params(make_params())
        fit = fit_episode_deterministic(ep, grid)
        assert fit.q[0] == pytest.approx(0.3, rel=1e-3)
        assert 0.0 < fit.q[1] < 0.3
        assert fit.boundary


    def test_no_usable_tac_instant_rejected(self):
        # the grid ends with the BrAC at 2 min; the TAC samples at 0 and
        # 100 min are the initial instant and beyond the grid
        ep = build_episode("short", [0.0, 1.0, 2.0], [0.0, 0.05, 0.0],
                           [0.0, 100.0], [0.0, 0.02])
        assert ep.fit_indices.size == 0
        grid = DiscretizationGrid.from_params(make_params())
        with pytest.raises(ConfigurationError, match="no usable TAC instants"):
            fit_episode_deterministic(ep, grid)
        with pytest.raises(ConfigurationError, match="no usable TAC instants"):
            fit_population([ep], grid, init=make_params())


class TestInitialGuess:
    def test_no_estimate_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            initial_guess([])

    def test_sample_statistics(self):
        qs = [np.array([0.5, 1.0]), np.array([0.7, 1.2]),
              np.array([0.6, 0.8])]
        init = initial_guess(qs)
        arr = np.array(qs)
        assert np.allclose(init.mu, arr.mean(axis=0))
        assert np.allclose(init.sigma, np.cov(arr.T), atol=2e-4)
        expect_b = arr.mean(axis=0) + 4.0 * np.sqrt(np.diag(init.sigma))
        assert np.allclose(init.b, expect_b)
        assert np.allclose(init.a, 0.0)

    def test_single_estimate(self):
        # no sample covariance: the ridge alone, and the support mu + 4 sd
        init = initial_guess([np.array([0.6, 1.1])])
        assert np.array_equal(init.mu, [0.6, 1.1])
        assert np.array_equal(init.sigma, 1e-4 * np.eye(2))
        assert np.allclose(init.b, [0.64, 1.14], rtol=0.0, atol=1e-15)
        assert np.array_equal(init.a, [0.0, 0.0])

    def test_ridge_on_degenerate_cloud(self):
        qs = [np.array([0.6, 1.0])] * 3
        init = initial_guess(qs)
        assert np.all(np.diag(init.sigma) >= 1e-4 - 1e-12)


def fail_call(monkeypatch, call):
    """Make the ``call``-th ``cost_and_gradient`` call of the fit raise."""
    real = population_fit.cost_and_gradient
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == call:
            raise NumericalError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(population_fit, "cost_and_gradient", flaky)


class TestFitPopulation:
    def test_improves_on_initial_guess(self):
        p = make_params()
        grid = DiscretizationGrid.from_params(p)
        eps = episodes_from(p, grid)
        init = PopulationParams(a=(0.0, 0.0), b=(1.6, 2.1), mu=(0.5, 0.9),
                                sigma=((0.09, 0.0), (0.0, 0.16)))
        res = fit_population(eps, grid, init=init, max_iter=40)
        assert res.cost <= cost(init, eps, grid)
        assert res.n_iter >= 1
        assert np.all(np.asarray(res.params.b) > np.asarray(res.params.a))

    def test_non_convergence_flagged(self):
        p = make_params()
        grid = DiscretizationGrid.from_params(p)
        eps = episodes_from(p, grid)
        init = PopulationParams(a=(0.0, 0.0), b=(1.6, 2.1), mu=(0.5, 0.9),
                                sigma=((0.09, 0.0), (0.0, 0.16)))
        res = fit_population(eps, grid, init=init, tol=1e-16, max_iter=3)
        assert not res.converged
        assert np.isfinite(res.cost)

    def test_log_records_iterations(self):
        p = make_params()
        grid = DiscretizationGrid.from_params(p)
        eps = episodes_from(p, grid)
        init = PopulationParams(a=(0.0, 0.0), b=(1.6, 2.1), mu=(0.55, 0.9),
                                sigma=((0.04, 0.0), (0.0, 0.09)))
        res = fit_population(eps, grid, init=init, max_iter=10)
        assert res.log
        assert all("cost" in rec for rec in res.log)

    def test_save_writes_params_and_log(self, tmp_path):
        p = make_params()
        grid = DiscretizationGrid.from_params(p)
        eps = episodes_from(p, grid)
        res = fit_population(eps, grid, init=p, max_iter=3, tol=1e-16)
        from tdalc.density import load_params
        res.save(tmp_path / "rho.json", tmp_path / "log.jsonl")
        reloaded = load_params(tmp_path / "rho.json")
        assert np.allclose(reloaded.mu, res.params.mu)
        lines = (tmp_path / "log.jsonl").read_text().strip().splitlines()
        assert lines

    def test_failed_evaluations_counted(self, tmp_path, monkeypatch):
        p = make_params()
        grid = DiscretizationGrid.from_params(p)
        eps = episodes_from(p, grid)
        fail_call(monkeypatch, 2)
        res = fit_population(eps, grid, init=p, max_iter=3, tol=1e-16)
        assert res.failed_evals == 1
        res.save(tmp_path / "rho.json", tmp_path / "log.jsonl")
        import json
        records = [json.loads(ln) for ln in
                   (tmp_path / "log.jsonl").read_text().splitlines()]
        assert records[-1]["event"] == "done"
        assert records[-1]["failed_evals"] == 1
        iterates = [r for r in records if r["event"] == "iterate"]
        assert iterates and all(r["seconds"] >= 0.0 for r in iterates)

    def test_failed_final_evaluation_reported(self, monkeypatch):
        # every evaluation raises, the final one at the returned point too:
        # the cost and gradient norm are infinite, the fit is not converged
        # and every failure is counted
        p = make_params()
        grid = DiscretizationGrid.from_params(p)
        eps = episodes_from(p, grid)
        calls = []

        def broken(*args, **kwargs):
            calls.append(1)
            raise NumericalError("injected")

        monkeypatch.setattr(population_fit, "cost_and_gradient", broken)
        res = fit_population(eps, grid, init=p, max_iter=3)
        assert res.cost == math.inf and res.grad_norm == math.inf
        assert not res.converged and res.stop is None
        assert res.failed_evals == len(calls) >= 2

    @pytest.mark.parametrize("call", [1, 2, 3, 5])
    def test_failed_evaluation_backtracks(self, monkeypatch, call):
        # one failed evaluation is scored above every score seen, so the
        # line search backtracks and the fit goes on to converge; accuracy
        # is not asserted, as Sigma_22 is not identified by these data
        episodes, grid = criterion05_episodes()
        init = criterion05_start(episodes, grid)
        fail_call(monkeypatch, call)
        res = fit_population(episodes, grid, init=init, tol=1e-8)
        assert res.failed_evals == 1
        assert res.converged and res.stop == "gradient"

    def test_fit_lower_end_to_end(self):
        # the lower support bounds are fitted too; accuracy is not asserted,
        # as Sigma_22 is not identified by these data
        episodes, grid = criterion05_episodes()
        init = criterion05_start(episodes, grid)
        res = fit_population(episodes, grid, init=init, fit_lower=True, tol=1e-8)
        assert res.converged and res.failed_evals == 0
        a, b = res.params.a, res.params.b
        assert np.all((a >= 0.0) & (a <= 49.0) & (a < b))
        assert res.log and all(len(rec["theta"]) == 9 for rec in res.log)

    def test_verdict_and_estimate_independent_of_units(self):
        runs = {}
        for scale in (1.0, 0.1, 10.0):
            episodes, grid = criterion05_episodes(scale)
            init = criterion05_start(episodes, grid)
            runs[scale] = fit_population(episodes, grid, init=init, tol=1e-8)
        base = runs[1.0]
        assert base.converged and base.stop in ("gradient", "cost_floor")
        theta = pack_theta(base.params)
        for scale in (0.1, 10.0):
            res = runs[scale]
            assert res.converged == base.converged
            assert res.failed_evals == 0
            assert np.all(np.abs(pack_theta(res.params) - theta)
                          <= 1e-4 * np.abs(theta))

    def test_cost_floor_stop_on_exact_data(self):
        # no gradient test can be met at tol 1e-30; L-BFGS-B ends on its own
        # reduction test with the noise-free data fitted to rounding
        episodes, grid = criterion05_episodes()
        init = criterion05_start(episodes, grid)
        res = fit_population(episodes, grid, init=init, tol=1e-30)
        energy = sum(float(ep.y[ep.fit_indices] @ ep.y[ep.fit_indices])
                     for ep in episodes)
        assert res.stop == "cost_floor" and res.converged
        assert res.cost <= 1e-12 * energy

    def test_stop_written_to_done_record(self, tmp_path):
        import json
        p = make_params()
        grid = DiscretizationGrid.from_params(p)
        eps = episodes_from(p, grid)
        res = fit_population(eps, grid, init=p, max_iter=3, tol=1e-16)
        assert res.stop is None and not res.converged
        res.save(tmp_path / "rho.json", tmp_path / "log.jsonl")
        done = json.loads(
            (tmp_path / "log.jsonl").read_text().splitlines()[-1])
        assert done["event"] == "done" and done["stop"] is None

    def test_rejects_zero_data_energy(self):
        p = make_params()
        grid = DiscretizationGrid.from_params(p)
        t = np.arange(121, dtype=float)
        u = 0.08 * (t / 55.0) * np.exp(1.0 - t / 55.0)
        ep = build_episode("flat", t, u, t, np.zeros_like(t), tau=1.0)
        with pytest.raises(ConfigurationError):
            fit_population([ep], grid, init=p)

    def test_cost_and_gradient_raises(self):
        # the fit scores failures itself; the evaluation must raise
        p = make_params()
        grid = DiscretizationGrid.from_params(p)
        eps = episodes_from(p, grid)
        bad = PopulationParams(a=(-2.0, 0.0), b=(1.5, 2.0), mu=(-1.5, 1.0),
                               sigma=((0.04, 0.0), (0.0, 0.09)))
        with pytest.raises((NumericalError, ParameterError)):
            cost_and_gradient(bad, eps, grid)
