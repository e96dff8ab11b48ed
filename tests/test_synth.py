import numpy as np
import pytest

from tdalc import forward_model
from tdalc.density import PopulationParams
from tdalc.errors import ConfigurationError
from tdalc.grid_basis import DiscretizationGrid
from tdalc.population_fit import fit_episode_deterministic
from tdalc.synth import SynthConfig, generate


def make_params():
    return PopulationParams(a=(0.0, 0.0), b=(1.5, 2.0), mu=(0.62, 1.0),
                            sigma=((0.01, 0.002), (0.002, 0.03)))


def make_grid(tau=1.0):
    return DiscretizationGrid.from_params(make_params(), tau=tau)


class TestDeterminism:
    def test_same_seed_same_episodes(self):
        cfg = SynthConfig(rho_true=make_params(), grid=make_grid(),
                          noise_sigma=0.002, n_episodes=3, seed=21)
        a = generate(cfg)
        b = generate(cfg)
        for ea, eb in zip(a, b):
            assert ea.ident == eb.ident
            assert np.array_equal(ea.tac_values, eb.tac_values)
            assert np.array_equal(ea.brac_values, eb.brac_values)

    def test_different_seeds_differ(self):
        base = dict(rho_true=make_params(), grid=make_grid(), n_episodes=2)
        a = generate(SynthConfig(seed=1, **base))
        b = generate(SynthConfig(seed=2, **base))
        assert not np.array_equal(a[0].tac_values, b[0].tac_values)


class TestPopulationMode:
    def test_noise_free_records_sample_the_population_model(self):
        # rebuild each episode's scaled template from the documented seed
        # fan-out (per-episode child; amplitude draw, then duration draw)
        # and check the records are exact samples of the simulated curves
        params = make_params()
        grid = make_grid()
        cfg = SynthConfig(rho_true=params, grid=grid, n_episodes=3, seed=5)
        ops = forward_model.discrete_time(forward_model.assemble(params, grid))
        children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_episodes)
        times, values = (np.asarray(v, float) for v in cfg.input_profile)
        for ep, child in zip(generate(cfg), children):
            rng = np.random.default_rng(child)
            amp = rng.uniform(*cfg.amp_range)
            dur = rng.uniform(*cfg.dur_range)
            horizon = times[-1] * dur
            n = int(np.floor(horizon / grid.tau + 1e-9)) + 1
            t = np.arange(n) * grid.tau
            u = np.interp(t / dur, times, amp * values)
            clean = np.concatenate([[0.0],
                                    forward_model.simulate(ops, u[:-1])])
            err_u = np.interp(ep.brac_times, t, u) - ep.brac_values
            err_y = np.interp(ep.tac_times, t, clean) - ep.tac_values
            assert np.max(np.abs(err_u)) < 1e-12
            assert np.max(np.abs(err_y)) < 1e-12

    def test_resampled_input_replays_close(self):
        # the grid input is a spline through the 30-minute BrAC record, so
        # replaying it reproduces the TAC record only up to resampling error
        params = make_params()
        grid = make_grid()
        cfg = SynthConfig(rho_true=params, grid=grid, n_episodes=2, seed=5)
        ops = forward_model.discrete_time(forward_model.assemble(params, grid))
        for ep in generate(cfg):
            y = np.concatenate([[0.0],
                                forward_model.simulate(ops, ep.u[:-1])])
            idx = np.round(ep.tac_times / grid.tau).astype(int)
            keep = ep.tac_times <= ep.times[-1]
            assert np.max(np.abs(y[idx[keep]] - ep.tac_values[keep])) < 0.01

    def test_terminal_reading_present(self):
        cfg = SynthConfig(rho_true=make_params(), grid=make_grid(),
                          n_episodes=3, seed=13)
        for ep in generate(cfg):
            assert ep.brac_times[-1] == ep.tac_times[-1]
            # horizon is not a multiple of either cadence in general
            assert ep.times[-1] == ep.brac_times[-1]

    def test_nonnegative(self):
        cfg = SynthConfig(rho_true=make_params(), grid=make_grid(),
                          noise_sigma=0.01, n_episodes=4, seed=3)
        for ep in generate(cfg):
            assert np.all(ep.tac_values >= 0.0)
            assert np.all(ep.brac_values >= 0.0)
            assert np.all(ep.u >= 0.0) and np.all(ep.y >= 0.0)


class TestNoise:
    def test_sample_sd_near_requested(self):
        # large amplitude keeps the clean signal clear of the zero clamp
        params = make_params()
        cfg = SynthConfig(rho_true=params, grid=make_grid(),
                          input_profile=((0.0, 60.0, 240.0), (0.0, 0.8, 0.0)),
                          noise_sigma=0.004, n_episodes=12, seed=17,
                          amp_range=(1.0, 1.0), dur_range=(1.0, 1.0))
        clean = generate(SynthConfig(rho_true=params, grid=make_grid(),
                                     input_profile=((0.0, 60.0, 240.0),
                                                    (0.0, 0.8, 0.0)),
                                     noise_sigma=0.0, n_episodes=12, seed=17,
                                     amp_range=(1.0, 1.0),
                                     dur_range=(1.0, 1.0)))
        resid = np.concatenate([
            ep.tac_values - ec.tac_values
            for ep, ec in zip(generate(cfg), clean)])
        assert abs(resid.std() - 0.004) < 0.1 * 0.004
        assert abs(resid.mean()) < 0.004


class TestIndividualMode:
    def test_parameters_recoverable_per_episode(self):
        params = make_params()
        grid = make_grid()
        # a smooth bump on dense knots survives the 30-minute breath cadence;
        # kinked templates alias under the spline and bias the fit
        knots = np.arange(241.0)
        bump = 0.08 * np.sin(np.pi * knots / 240.0) ** 2
        cfg = SynthConfig(rho_true=params, grid=grid, mode="individual",
                          n_episodes=3, seed=29,
                          input_profile=(tuple(knots), tuple(bump)))
        ops = forward_model.discrete_time(forward_model.assemble(params, grid))
        rng_check = np.random.SeedSequence(cfg.seed).spawn(cfg.n_episodes)
        for ep, child in zip(generate(cfg), rng_check):
            rng = np.random.default_rng(child)
            rng.uniform(*cfg.amp_range)
            rng.uniform(*cfg.dur_range)
            from tdalc import density
            q_true = density.sample(params, 1, rng)[0]
            fit = fit_episode_deterministic(ep, grid)
            rel = np.abs(fit.q - q_true) / np.abs(q_true)
            assert np.max(rel) < 0.05, (q_true, fit.q, fit.cost)


class TestValidation:
    def test_bad_mode(self):
        with pytest.raises(ConfigurationError, match="mode"):
            SynthConfig(rho_true=make_params(), grid=make_grid(),
                        mode="cohort")

    def test_negative_noise(self):
        with pytest.raises(ConfigurationError, match="noise_sigma"):
            SynthConfig(rho_true=make_params(), grid=make_grid(),
                        noise_sigma=-0.01)

    def test_zero_episodes(self):
        with pytest.raises(ConfigurationError, match="n_episodes"):
            SynthConfig(rho_true=make_params(), grid=make_grid(),
                        n_episodes=0)

    def test_template_lists_must_match(self):
        with pytest.raises(ConfigurationError, match="1-d of one length"):
            SynthConfig(rho_true=make_params(), grid=make_grid(),
                        input_profile=((0.0, 60.0, 240.0), (0.0, 0.05)))

    def test_template_must_increase(self):
        with pytest.raises(ConfigurationError, match="time not after the previous one"):
            SynthConfig(rho_true=make_params(), grid=make_grid(),
                        input_profile=((0.0, 60.0, 50.0), (0.0, 0.05, 0.0)))

    def test_template_starts_at_zero(self):
        with pytest.raises(ConfigurationError, match="first time of 0"):
            SynthConfig(rho_true=make_params(), grid=make_grid(),
                        input_profile=((10.0, 60.0, 240.0), (0.0, 0.05, 0.0)))

    def test_template_endpoints_zero(self):
        with pytest.raises(ConfigurationError, match="end at zero"):
            SynthConfig(rho_true=make_params(), grid=make_grid(),
                        input_profile=((0.0, 60.0, 240.0), (0.0, 0.05, 0.01)))

    def test_template_nonnegative(self):
        with pytest.raises(ConfigurationError, match="negative value"):
            SynthConfig(rho_true=make_params(), grid=make_grid(),
                        input_profile=((0.0, 60.0, 240.0), (0.0, -0.05, 0.0)))

    def test_scale_ranges(self):
        with pytest.raises(ConfigurationError, match="amp_range"):
            SynthConfig(rho_true=make_params(), grid=make_grid(),
                        amp_range=(1.3, 0.7))
        with pytest.raises(ConfigurationError, match="dur_range"):
            SynthConfig(rho_true=make_params(), grid=make_grid(),
                        dur_range=(0.0, 1.0))
