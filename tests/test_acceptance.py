"""Acceptance gate: ten end-to-end correctness criteria.

Each test prints one ``criterion N: PASS/FAIL (...)`` line with its measured
numbers and then asserts, so a verbose run doubles as the acceptance report.
Tolerances are fixed here and nowhere else.
"""

import time
import warnings

import numpy as np
import pytest
from scipy.integrate import dblquad

from tdalc import forward_model
from tdalc.data_io import build_episode
from tdalc.deconvolution import deconvolve, nnls, select_regularization
from tdalc.density import (PopulationParams, cell_masses,
                           credible_region_radius, pdf, sample)
from tdalc.grid_basis import DiscretizationGrid
from tdalc.population_fit import (cost, cost_and_gradient,
                                  fit_episode_deterministic, fit_population,
                                  pack_theta, unpack_theta)
from tdalc.synth import SynthConfig, generate
from tdalc.uncertainty import (EpisodeStats, band_overlap_fraction,
                               credible_band, credible_band_scalar,
                               episode_stats, format_interval,
                               format_stats_row)


def report(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def random_population(rng):
    # upper bounds at 1.2 to 2.5 sigma keep the truncation active, so the
    # support-bound gradient components carry real signal
    mu = rng.uniform((0.45, 0.75), (0.85, 1.15))
    s = rng.uniform(0.08, 0.22, size=2)
    corr = rng.uniform(-0.5, 0.5)
    off = corr * s[0] * s[1]
    b = mu + s * rng.uniform(1.2, 2.5, size=2)
    return PopulationParams(a=(0.0, 0.0), b=tuple(b), mu=tuple(mu),
                            sigma=((s[0] ** 2, off), (off, s[1] ** 2)))


def tight_population():
    return PopulationParams(a=(0.0, 0.0), b=(1.5, 2.0), mu=(0.62, 1.0),
                            sigma=((0.01, 0.002), (0.002, 0.03)))


def pulse(k):
    t = np.arange(k, dtype=float)
    return 0.08 * (t / 55.0) * np.exp(1.0 - t / 55.0)


def population_ops(params, **kw):
    grid = DiscretizationGrid.from_params(params, **kw)
    return forward_model.discrete_time(forward_model.assemble(params, grid)), grid


def test_criterion_01_gradient_matches_finite_differences():
    start = time.monotonic()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(20):
        gen = random_population(rng)
        # evaluate at an independent probe point: generic gradients instead
        # of the near-stationary ones at the generating distribution
        probe = random_population(rng)
        grid = DiscretizationGrid.from_params(gen, tau=1.0)
        cfg = SynthConfig(rho_true=gen, grid=grid, n_episodes=2,
                          seed=int(rng.integers(1 << 30)))
        eps = generate(cfg)
        theta = pack_theta(probe)
        a = np.asarray(probe.a, dtype=float)
        _, g = cost_and_gradient(probe, eps, grid)
        for i in range(theta.size):
            h = 1e-5 * (1.0 + abs(theta[i]))
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            fd = (cost(unpack_theta(tp, a), eps, grid)
                  - cost(unpack_theta(tm, a), eps, grid)) / (2.0 * h)
            rel = abs(g[i] - fd) / max(abs(fd), abs(g[i]), 1e-10)
            worst = max(worst, rel)
    elapsed = time.monotonic() - start
    report(1, worst <= 1e-4 and elapsed <= 120.0,
           f"max relative gradient error {worst:.3e} <= 1e-4 over 20 "
           f"instances, {elapsed:.1f}s <= 120s")


def test_criterion_02_kernel_convolution_equals_recursion():
    ops, _ = population_ops(tight_population())
    kernels = forward_model.impulse_kernels(ops, 240)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        u = 0.1 * rng.random(240)
        y_conv = forward_model.convolve(kernels, u)
        y_march = forward_model.simulate(ops, u)
        worst = max(worst, float(np.max(np.abs(y_conv - y_march))))
    report(2, worst <= 1e-9,
           f"sup |kernel sum - recursion| {worst:.3e} <= 1e-9, "
           f"20 random inputs, K=240")


def test_criterion_03_discrete_flow_semigroup():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        params = random_population(rng)
        grid = DiscretizationGrid.from_params(params, tau=1.0)
        sys = forward_model.assemble(params, grid)
        one = forward_model.discrete_time(sys, tau=1.0)
        two = forward_model.discrete_time(sys, tau=2.0)
        for c in range(one.ahat.shape[0]):
            sq = one.ahat[c] @ one.ahat[c]
            rel = np.linalg.norm(two.ahat[c] - sq) / np.linalg.norm(two.ahat[c])
            worst = max(worst, float(rel))
    report(3, worst <= 1e-8,
           f"max relative Frobenius error {worst:.3e} <= 1e-8 for "
           f"Ahat(2 tau) vs Ahat(tau)^2, 20 random populations")


def _disk_mass_oracle(params, radius):
    """Truncated-normal mass of the radius-disk at mu, by polar quadrature
    with the raw Gaussian formula; independent of the density module."""
    mu = np.asarray(params.mu, dtype=float)
    sig = np.asarray(params.sigma, dtype=float)
    sinv = np.linalg.inv(sig)
    norm = 1.0 / (2.0 * np.pi * np.sqrt(np.linalg.det(sig)))

    def gauss(x1, x2):
        d1, d2 = x1 - mu[0], x2 - mu[1]
        quad = sinv[0, 0] * d1 * d1 + 2 * sinv[0, 1] * d1 * d2 \
            + sinv[1, 1] * d2 * d2
        return norm * np.exp(-0.5 * quad)

    # dblquad feeds the integrand (inner, outer) = (q2, q1)
    box_mass, err = dblquad(lambda q2, q1: gauss(q1, q2),
                            params.a[0], params.b[0],
                            params.a[1], params.b[1], epsabs=1e-12)
    assert err < 1e-7        # oracle accuracy far inside the 1e-3 gate
    nodes, wts = np.polynomial.legendre.leggauss(96)
    r = 0.5 * radius * (nodes + 1.0)
    wr = 0.5 * radius * wts
    theta = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    x1 = mu[0] + np.outer(r, np.cos(theta))
    x2 = mu[1] + np.outer(r, np.sin(theta))
    ring = gauss(x1, x2).mean(axis=1) * 2.0 * np.pi * r
    return float(ring @ wr) / box_mass


def test_criterion_04_density_normalization_masses_and_disk():
    params = PopulationParams(a=(0.0, 0.0), b=(1.5, 2.0), mu=(0.62, 1.0),
                              sigma=((0.04, 0.012), (0.012, 0.09)))
    total, _ = dblquad(lambda q2, q1: float(pdf(params, (q1, q2))),
                       params.a[0], params.b[0], params.a[1], params.b[1],
                       epsabs=1e-10)
    norm_err = abs(total - 1.0)

    grid = DiscretizationGrid.from_params(params)
    masses = cell_masses(params, grid.pm1, grid.pm2).ravel(order="F")
    n_draw = 10 ** 6
    draws = sample(params, n_draw, seed=42)
    i1 = grid.pm1.cell_index(draws[:, 0])
    i2 = grid.pm2.cell_index(draws[:, 1])
    counts = np.bincount(i1 + 4 * i2, minlength=16) / n_draw
    se = np.sqrt(np.maximum(masses, 1.0 / n_draw)
                 * (1.0 - masses) / n_draw)
    mc_sigmas = float(np.max(np.abs(counts - masses) / se))

    radius = credible_region_radius(params, 0.75).radius
    margin = min(np.asarray(params.mu) - params.a,
                 np.asarray(params.b) - np.asarray(params.mu), key=np.min)
    assert radius < np.min(margin)        # disk stays inside the box
    disk_err = abs(_disk_mass_oracle(params, radius) - 0.75)

    report(4, norm_err <= 1e-8 and mc_sigmas <= 4.0 and disk_err <= 1e-3,
           f"normalization error {norm_err:.2e} <= 1e-8; cell masses within "
           f"{mc_sigmas:.2f} <= 4 standard errors of 1e6-sample Monte Carlo; "
           f"0.75-disk mass error {disk_err:.2e} <= 1e-3")


def test_criterion_05_population_fit_recovers_distribution():
    start = time.monotonic()
    rho_true = PopulationParams(a=(0.0, 0.0), b=(2.0, 2.0), mu=(0.62, 1.0),
                                sigma=((0.16, 0.01), (0.01, 0.22)))
    grid = DiscretizationGrid.from_params(rho_true, tau=1.0)
    ops = forward_model.discrete_time(forward_model.assemble(rho_true, grid))
    t = np.arange(241.0)

    def tri(c, w, h):
        return np.clip(h * (1.0 - np.abs(t - c) / w), 0.0, None)

    shapes = [tri(15, 10, 0.30),
              tri(60, 8, 0.35),
              tri(30, 12, 0.25) + tri(90, 12, 0.25),
              tri(120, 60, 0.08),
              tri(20, 6, 0.4) + tri(150, 40, 0.06)]
    episodes = []
    for k, u in enumerate(shapes):
        y = np.concatenate([[0.0], forward_model.simulate(ops, u[:-1])])
        episodes.append(build_episode(f"s{k}", t, u, t, y, tau=1.0))

    # generic diffuse start: center on the per-episode fits, spread at 50%
    # coefficient of variation so the optimizer sees the whole basin
    per = np.array([fit_episode_deterministic(ep, grid).q
                    for ep in episodes])
    mu0 = per.mean(axis=0)
    sig0 = np.diag((0.5 * mu0) ** 2)
    init = PopulationParams(a=(0.0, 0.0),
                            b=tuple(mu0 + 4.0 * np.sqrt(np.diag(sig0))),
                            mu=tuple(mu0), sigma=sig0)
    res = fit_population(episodes, grid, init=init, tol=1e-8)
    elapsed = time.monotonic() - start

    mu_hat = np.asarray(res.params.mu)
    mu_rel = np.abs(mu_hat - rho_true.mu) / np.abs(np.asarray(rho_true.mu))
    sig_rel = np.linalg.norm(np.asarray(res.params.sigma)
                             - rho_true.sigma) \
        / np.linalg.norm(np.asarray(rho_true.sigma))
    ok = (res.converged and np.all(mu_rel <= 0.05) and sig_rel <= 0.25
          and elapsed <= 600.0)
    report(5, ok,
           f"mu relative errors ({mu_rel[0]:.4f}, {mu_rel[1]:.4f}) <= 0.05; "
           f"sigma Frobenius-relative error {sig_rel:.4f} <= 0.25; "
           f"converged={res.converged}; {elapsed:.1f}s <= 600s")


def test_criterion_06_deconvolution_round_trip_with_auto_regularization():
    params = tight_population()
    ops, _ = population_ops(params)
    u = pulse(301)
    t = np.arange(301.0)
    tac = np.concatenate([[0.0], forward_model.simulate(ops, u[:-1])])
    train = build_episode("train", t, u, t, tac, tau=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        r1, r2 = select_regularization(ops, [train])

    res = deconvolve(ops, tac, r1, r2)
    rel_l2 = np.linalg.norm(res.mean_curve - u) / np.linalg.norm(u)
    peak_err = abs(res.mean_curve.max() - u.max()) / u.max()

    noisy = np.clip(tac + 0.01 * tac.max()
                    * np.random.default_rng(11).standard_normal(tac.size),
                    0.0, None)
    res_n = deconvolve(ops, noisy, r1, r2)
    rel_l2_n = np.linalg.norm(res_n.mean_curve - u) / np.linalg.norm(u)

    ok = rel_l2 <= 0.10 and peak_err <= 0.10 and rel_l2_n <= 0.25
    report(6, ok,
           f"auto (r1, r2)=({r1:.3e}, {r2:.3e}); clean relative L2 error "
           f"{rel_l2:.4f} <= 0.10, peak error {peak_err:.4f} <= 0.10; "
           f"1%-noise relative L2 error {rel_l2_n:.4f} <= 0.25")


def test_criterion_07_nnls_kkt_and_global_domination():
    rng = np.random.default_rng(7)
    worst_kkt = 0.0
    dominated = True
    for _ in range(100):
        m = int(rng.integers(10, 60))
        n = int(rng.integers(3, 20))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        res = nnls(a, b)
        scale = np.linalg.norm(a.T @ b)
        grad = a.T @ (a @ res.x - b)
        assert np.all(res.x >= 0.0)
        active = res.x > 0.0
        kkt = max(float(np.max(np.abs(grad[active]), initial=0.0)),
                  float(np.max(-grad[~active], initial=0.0))) / scale
        worst_kkt = max(worst_kkt, kkt)
        obj = np.linalg.norm(a @ res.x - b)
        pts = rng.random((1000, n)) * rng.uniform(0.0, 2.0, size=(1000, 1))
        vals = np.linalg.norm(pts @ a.T - b, axis=1)
        dominated = dominated and bool(np.all(obj <= vals + 1e-12))
    report(7, worst_kkt <= 1e-8 and dominated,
           f"worst scaled KKT residual {worst_kkt:.3e} <= 1e-8 on 100 "
           f"problems; solution never beaten by any of 1e5 random feasible "
           f"points: {dominated}")


def test_criterion_08_refinement_deltas_shrink():
    params = tight_population()
    u = pulse(241)
    outputs = []
    for cells in (4, 8, 16):
        ops, _ = population_ops(params, n=cells, m1=cells, m2=cells, tau=1.0)
        outputs.append(forward_model.simulate(ops, u[:-1]))
    d_coarse = float(np.max(np.abs(outputs[0] - outputs[1])))
    d_fine = float(np.max(np.abs(outputs[1] - outputs[2])))

    ops4, _ = population_ops(params, tau=1.0)
    tac = np.concatenate([[0.0], forward_model.simulate(ops4, u[:-1])])
    curves = [deconvolve(ops4, tac, 1e-3, 1e-3, m=m).mean_curve
              for m in (12, 24, 48)]
    b_coarse = float(np.max(np.abs(curves[0] - curves[1])))
    b_fine = float(np.max(np.abs(curves[1] - curves[2])))

    ok = d_coarse > d_fine and b_coarse > b_fine
    report(8, ok,
           f"simulated TAC deltas {d_coarse:.3e} (4->8) > {d_fine:.3e} "
           f"(8->16); deconvolved mean deltas {b_coarse:.3e} (m 12->24) > "
           f"{b_fine:.3e} (m 24->48)")


def test_criterion_09_statistics_and_report_fixtures():
    t = np.arange(121, dtype=float)
    curve = np.where(t <= 60.0, 0.08 * t / 60.0,
                     0.08 * (1.0 - (t - 60.0) / 60.0))
    s = episode_stats(curve, tau=1.0)
    step_h = 1.0 / 60.0
    stats_ok = (abs(s.peak - 0.08) <= 1e-12
                and abs(s.peak_time - 1.0) <= step_h
                and abs(s.auc - 0.08) <= 0.08 * step_h
                and abs(s.elimination_rate - 0.08) <= 0.08 * 1.1 * step_h
                and abs(s.absorption_rate - 0.08) <= 0.08 * 1.1 * step_h)

    measured = EpisodeStats(peak=0.0520, peak_time=0.7500, auc=0.1019,
                            elimination_rate=0.0173, absorption_rate=0.0693,
                            threshold=0.001)
    estimated = EpisodeStats(peak=0.0501, peak_time=0.6333, auc=0.1233,
                             elimination_rate=0.0075, absorption_rate=0.0319,
                             threshold=0.001)
    rows_ok = (format_stats_row(measured)
               == "0.0520,0.7500,0.1019,0.0173,0.0693"
               and format_stats_row(estimated)
               == "0.0501,0.6333,0.1233,0.0075,0.0319"
               and format_interval(0.0286, 0.0661) == "[0.0286, 0.0661]")
    report(9, stats_ok and rows_ok,
           f"triangle statistics within one step (peak {s.peak:.4f}, "
           f"time {s.peak_time:.4f} h, area {s.auc:.4f}, rates "
           f"{s.elimination_rate:.4f}/{s.absorption_rate:.4f}); stored "
           f"fixture rows render verbatim: {rows_ok}")


def test_criterion_10_variant_agreement_and_band_overlap():
    params = tight_population()
    ops1, _ = population_ops(params, m1=1, m2=1, tau=1.0)
    u = pulse(181)
    tac1 = np.concatenate([[0.0], forward_model.simulate(ops1, u[:-1])])
    a = deconvolve(ops1, tac1, 1e-3, 1e-2, variant="tq")
    b = deconvolve(ops1, tac1, 1e-3, 1e-2, variant="scalar")
    gap = float(np.max(np.abs(a.mean_curve - b.mean_curve)))

    ops, grid = population_ops(params, tau=1.0)
    tac = np.concatenate([[0.0], forward_model.simulate(ops, u[:-1])])
    res = deconvolve(ops, tac, 1e-3, 1e-3)
    band_tq = credible_band(res, params)
    band_sc = credible_band_scalar(tac, params, grid, 1e-3, 1e-3,
                                   n_samples=300, seed=1)
    overlap = band_overlap_fraction(band_tq, band_sc)

    ok = gap <= 1e-8 and overlap >= 0.90
    report(10, ok,
           f"single-cell variant gap {gap:.3e} <= 1e-8; full-grid credible "
           f"bands overlap on {overlap:.1%} >= 90% of time points")
