"""Seeded inputs, timed operation and output checks of each workload.

A workload is a class with four parts:

``make(seed, workdir)``
    builds the inputs from the seed alone; equal seeds give byte-identical
    inputs (``input_digest``).
``op(inputs, calls)``
    one timed top-level operation, the unit of ``op_s``; ``calls`` is the
    installed ``Recorder``, cleared before the operation.
``check(inputs, out)``
    runs outside the timed region and returns ``(problems, accuracy)``:
    a list of failed output checks and the accuracy figures of this output.
``output_digest(inputs, out)``
    a hash of everything the operation produced.

Tolerances are the acceptance gate's: criterion 05 for the fit (mu <= 0.05,
Sigma <= 0.25), criterion 06's noisy bound for BrAC estimates
(relative L2 <= 0.25) and criterion 07's scaled KKT bound (1e-8).  A band
must hold the curves of the kept samples it is built from, up to 1e-6 of
its peak.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import numpy as np

from tdalc import cli, deconvolution, forward_model, uncertainty
from tdalc.data_io import build_episode, parse_episode, write_episode
from tdalc.deconvolution import (deconvolve, deconvolve_deterministic,
                                 select_regularization)
from tdalc.density import PopulationParams, load_params, save_params
from tdalc.grid_basis import (DiscretizationGrid, ParamMesh, SpatialMesh,
                              temporal_basis_matrices)
from tdalc.population_fit import fit_episode_deterministic, fit_population
from tdalc.synth import SynthConfig, generate
from tdalc.uncertainty import (DEFAULT_ALPHA, DEFAULT_SAMPLES, credible_band,
                               episode_stats, kept_samples,
                               stats_credible_intervals)

MU_TOL = 0.05
SIGMA_TOL = 0.25
BRAC_TOL = 0.25
KKT_TOL = 1e-8
BAND_TOL = 1e-6
# the band's sample draw when neither the CLI nor the caller sets it
BAND_SEED = 0


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a, dtype=float))
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _episode_arrays(ep):
    return (ep.brac_times, ep.brac_values, ep.tac_times, ep.tac_values)


def rel_l2(estimate, truth) -> float:
    truth = np.asarray(truth, dtype=float)
    return float(np.linalg.norm(np.asarray(estimate) - truth)
                 / np.linalg.norm(truth))


def scaled_kkt(a, b, x) -> float:
    """Criterion 07's optimality residual of an NNLS solution."""
    grad = a.T @ (a @ x - b)
    scale = float(np.linalg.norm(a.T @ b))
    active = x > 0.0
    return max(float(np.max(np.abs(grad[active]), initial=0.0)),
               float(np.max(-grad[~active], initial=0.0))) / scale


class Recorder:
    """Stands in for ``deconvolution.nnls`` and ``uncertainty.credible_band``
    in every module that binds them, so outputs can be checked after the
    timed region without computing them again.  It keeps the arguments and
    result of the latest NNLS solve, and the deconvolution result handed to
    each tensor-variant band since the last ``clear``."""

    def __init__(self):
        self.inner = {"nnls": deconvolution.nnls,
                      "credible_band": uncertainty.credible_band}
        self._patches = []
        self.clear()

    def clear(self):
        self.solve = None       # (a, b, result) of the latest NNLS solve
        self.tq_results = []

    def nnls(self, a, b, *args, **kwargs):
        res = self.inner["nnls"](a, b, *args, **kwargs)
        self.solve = (a, b, res)
        return res

    def credible_band(self, result, *args, **kwargs):
        self.tq_results.append(result)
        return self.inner["credible_band"](result, *args, **kwargs)

    def install(self):
        namespaces = [m for k, m in sys.modules.items()
                      if k == "tdalc" or k.startswith("tdalc.")]
        namespaces.append(sys.modules[__name__])
        for name, original in self.inner.items():
            # one bound method for every binding, so a tracer installed
            # later finds them all by identity
            stand_in = getattr(self, name)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, stand_in)
                        self._patches.append((ns, key, original))

    def uninstall(self):
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()


def kkt_problems(solve, what: str) -> list[str]:
    """Checks on one recorded ``(a, b, result)`` NNLS call."""
    if solve is None:
        return [f"{what}: no NNLS solve recorded"]
    a, b, res = solve
    problems = []
    if not res.converged:
        problems.append(f"{what}: NNLS hit its iteration cap")
    kkt = scaled_kkt(a, b, res.x)
    if not kkt <= KKT_TOL:
        problems.append(f"{what}: scaled KKT residual {kkt:.3e} > {KKT_TOL}")
    return problems


def tight_population() -> PopulationParams:
    """The law of criteria 06 and 10."""
    return PopulationParams(a=(0.0, 0.0), b=(1.5, 2.0), mu=(0.62, 1.0),
                            sigma=((0.01, 0.002), (0.002, 0.03)))


def outside(curve, lower, upper, tol=1e-12) -> int:
    """Number of points where ``curve`` leaves the band."""
    return int(np.sum((lower > curve + tol) | (curve > upper + tol)))


def band_problems(curves, lower, upper, what: str) -> list[str]:
    """The band must hold every one of ``curves`` (K x n)."""
    tol = BAND_TOL * float(np.max(np.abs(upper)))
    lost = sum(outside(c, lower, upper, tol) > 0 for c in curves.T)
    if lost:
        return [f"{what}: band misses {lost} of {curves.shape[1]} "
                f"kept-sample curves"]
    return []


def kept_cell_curves(result, params) -> np.ndarray:
    """Curve of the cell of every kept sample of a tensor-variant result,
    K x n_kept; the band is their envelope."""
    kept = kept_samples(params, DEFAULT_ALPHA, DEFAULT_SAMPLES, BAND_SEED)
    _, m1, m2 = result.coeffs.shape
    i1 = ParamMesh(m1, params.a[0], params.b[0]).cell_index(kept[:, 0])
    i2 = ParamMesh(m2, params.a[1], params.b[1]).cell_index(kept[:, 1])
    sample = temporal_basis_matrices(result.time_mesh)[2]
    return sample @ result.coeffs[:, i1, i2]


def scalar_sample_curves(tac, params, grid, r1, r2) -> np.ndarray:
    """Single-subject curves of q = mu and of the kept samples at either end
    of each parameter axis, K x n; the scalar band is the envelope of every
    kept sample's curve.  Solves that hit the iteration cap are left out,
    as the band leaves them out."""
    kept = kept_samples(params, DEFAULT_ALPHA, DEFAULT_SAMPLES, BAND_SEED)
    picks = {len(kept) - 1}     # q = mu, appended last
    for axis in (0, 1):
        picks |= {int(np.argmin(kept[:, axis])), int(np.argmax(kept[:, axis]))}
    curves = []
    for q in kept[sorted(picks)]:
        det = forward_model.deterministic_ops(q, grid.spatial, grid.tau)
        curve, sol = deconvolve_deterministic(det, tac, r1, r2)
        if sol.converged:
            curves.append(curve)
    return np.column_stack(curves)


# ---------------------------------------------------------------------------
# fit: population law from paired episodes


def _tri(t, c, w, h):
    return np.clip(h * (1.0 - np.abs(t - c) / w), 0.0, None)


class Fit:
    """Criterion 05's problem with seeded shapes: five noise-free paired
    episodes, K = 241, n = 4 on a 4 x 4 cell grid."""

    name = "fit"
    truth = PopulationParams(a=(0.0, 0.0), b=(2.0, 2.0), mu=(0.62, 1.0),
                             sigma=((0.16, 0.01), (0.01, 0.22)))
    # (centre, width, height) of the triangles making up each BrAC shape
    shapes = (((15, 10, 0.30),),
              ((60, 8, 0.35),),
              ((30, 12, 0.25), (90, 12, 0.25)),
              ((120, 60, 0.08),),
              ((20, 6, 0.40), (150, 40, 0.06)))

    def make(self, seed, workdir):
        rng = np.random.default_rng(seed)
        grid = DiscretizationGrid.from_params(self.truth, tau=1.0)
        ops = forward_model.discrete_time(
            forward_model.assemble(self.truth, grid))
        t = np.arange(241.0)
        episodes = []
        for k, shape in enumerate(self.shapes):
            u = sum(_tri(t, *(np.asarray(p) * rng.uniform(0.9, 1.1, 3)))
                    for p in shape)
            y = np.concatenate([[0.0], forward_model.simulate(ops, u[:-1])])
            episodes.append(build_episode(f"s{k}", t, u, t, y, tau=1.0))
        # the grid the fitting side knows: mesh sizes and tau, no support
        fit_grid = DiscretizationGrid(SpatialMesh(4), ParamMesh(4, 0.0, 1.0),
                                      ParamMesh(4, 0.0, 1.0), tau=1.0)
        return {"episodes": episodes, "grid": fit_grid}

    def input_digest(self, inputs):
        return _digest(*(a for ep in inputs["episodes"]
                         for a in _episode_arrays(ep)))

    def op(self, inputs, calls):
        episodes, grid = inputs["episodes"], inputs["grid"]
        # criterion 05's diffuse start: centred on the per-episode fits,
        # 50% coefficient of variation
        per = np.array([fit_episode_deterministic(ep, grid).q
                        for ep in episodes])
        mu0 = per.mean(axis=0)
        sig0 = np.diag((0.5 * mu0) ** 2)
        init = PopulationParams(a=(0.0, 0.0),
                                b=tuple(mu0 + 4.0 * np.sqrt(np.diag(sig0))),
                                mu=tuple(mu0), sigma=sig0)
        return fit_population(episodes, grid, init=init, tol=1e-8)

    def check(self, inputs, res):
        mu_hat = np.asarray(res.params.mu)
        mu_rel = float(np.max(np.abs(mu_hat - self.truth.mu)
                              / np.abs(self.truth.mu)))
        sig_rel = float(np.linalg.norm(np.asarray(res.params.sigma)
                                       - self.truth.sigma)
                        / np.linalg.norm(self.truth.sigma))
        problems = []
        if not mu_rel <= MU_TOL:
            problems.append(f"fit: mu relative error {mu_rel:.4f} > {MU_TOL}")
        if not sig_rel <= SIGMA_TOL:
            problems.append(
                f"fit: Sigma relative error {sig_rel:.4f} > {SIGMA_TOL}")
        return problems, {"fit_mu_relerr": mu_rel, "fit_sigma_relerr": sig_rel}

    def output_digest(self, inputs, res):
        p = res.params
        return _digest(p.a, p.b, p.mu, p.sigma, [res.cost])


# ---------------------------------------------------------------------------
# autoreg: regularization search, then one estimate with band and stats


def _bump(t, peak, end, height):
    """Smooth complete excursion: rises to ``height`` at ``peak`` and is back
    at zero from ``end`` on."""
    rise = np.sin(0.5 * np.pi * np.clip(t / peak, 0.0, 1.0)) ** 2
    fall = np.cos(0.5 * np.pi * np.clip((t - peak) / (end - peak), 0.0, 1.0)) ** 2
    return height * np.where(t <= peak, rise, fall)


class Autoreg:
    """Two clean training episodes and one TAC-only record with 1% noise,
    K = 121, tq variant on the 4 x 4 grid of criterion 06's law."""

    name = "autoreg"
    params = tight_population()
    # (peak, end, height) of the two training shapes and of the record
    training = ((25.0, 90.0, 0.08), (40.0, 105.0, 0.06))
    record = (30.0, 100.0, 0.07)

    def make(self, seed, workdir):
        rng = np.random.default_rng(seed)
        grid = DiscretizationGrid.from_params(self.params, tau=1.0)
        ops = forward_model.discrete_time(
            forward_model.assemble(self.params, grid))
        t = np.arange(121.0)

        def pair(nominal):
            u = _bump(t, *(np.asarray(nominal) * rng.uniform(0.9, 1.1, 3)))
            y = np.concatenate([[0.0], forward_model.simulate(ops, u[:-1])])
            return u, y

        train = []
        for k, nominal in enumerate(self.training):
            u, y = pair(nominal)
            train.append(build_episode(f"train{k}", t, u, t, y, tau=1.0))
        u, y = pair(self.record)
        noisy = np.clip(y + 0.01 * y.max() * rng.standard_normal(y.size),
                        0.0, None)
        record = build_episode("record", [], [], t, noisy, tau=1.0)
        return {"train": train, "record": record, "brac": u, "grid": grid}

    def input_digest(self, inputs):
        eps = inputs["train"] + [inputs["record"]]
        return _digest(*(a for ep in eps for a in _episode_arrays(ep)))

    def op(self, inputs, calls):
        ops = forward_model.discrete_time(
            forward_model.assemble(self.params, inputs["grid"]))
        r1, r2 = select_regularization(ops, inputs["train"])
        res = deconvolve(ops, inputs["record"].y, r1, r2)
        solve = calls.solve
        band = credible_band(res, self.params)
        intervals = stats_credible_intervals(res, self.params)
        stats = episode_stats(res.mean_curve, ops.tau)
        return {"result": res, "band": band, "intervals": intervals,
                "stats": stats, "solve": solve}

    def check(self, inputs, out):
        res, band = out["result"], out["band"]
        err = rel_l2(res.mean_curve, inputs["brac"])
        problems = kkt_problems(out["solve"], "autoreg record")
        if not err <= BRAC_TOL:
            problems.append(f"autoreg: BrAC relative L2 {err:.4f} > {BRAC_TOL}")
        # The tq band is the envelope of the kept samples' cell curves, the
        # curve at q = mu among them.  The population-mean curve weighs
        # every cell, so it may leave the band; that is counted.
        problems += band_problems(kept_cell_curves(res, self.params),
                                  band.lower, band.upper, "autoreg")
        return problems, {"brac_rel_l2": err,
                          "band_mean_outside": outside(
                              res.mean_curve, band.lower, band.upper)}

    def output_digest(self, inputs, out):
        res, band = out["result"], out["band"]
        iv = out["intervals"].intervals
        return _digest([res.r1, res.r2], res.mean_curve, band.lower,
                       band.upper, [v for pair in iv.values() if pair
                                    for v in pair])


# ---------------------------------------------------------------------------
# records: TAC-only records through `tdalc deconvolve` and `tdalc stats`


class Records:
    """Six synthetic TAC-only records (population mode, sensor noise)
    through the command line at fixed (r1, r2), alternating the scalar
    variant and the tq variant on an 8 x 8 mesh.  The record lengths are
    fixed, K = 163, 181 and 199 in each variant, so the problem sizes and
    the memory they need do not depend on the seed; amplitudes and noise
    do."""

    name = "records"
    params = tight_population()
    durations = (0.9, 0.9, 1.0, 1.0, 1.1, 1.1)
    r1, r2 = 1e-3, 1e-3
    # smooth at the 30-minute breath cadence, back at zero by 180 min
    profile = ((0.0, 30.0, 60.0, 90.0, 120.0, 150.0, 180.0),
               (0.0, 0.05, 0.08, 0.06, 0.035, 0.012, 0.0))

    def make(self, seed, workdir):
        grid = DiscretizationGrid.from_params(self.params, tau=1.0)
        workdir = Path(workdir)
        rho = workdir / "rho.txt"
        save_params(self.params, rho)
        records = []
        for k, dur in enumerate(self.durations):
            cfg = SynthConfig(rho_true=self.params, grid=grid,
                              input_profile=self.profile, noise_sigma=2e-4,
                              n_episodes=1, seed=seed * len(self.durations) + k,
                              amp_range=(0.8, 1.2), dur_range=(dur, dur))
            ep = generate(cfg)[0]
            # the program sees the TAC channel only; BrAC stays here
            tac_only = build_episode(f"rec{k}", [], [], ep.tac_times,
                                     ep.tac_values, tau=ep.tau)
            path = workdir / f"rec{k}.csv"
            write_episode(tac_only, path)
            records.append({"path": path, "brac": ep.u,
                            "variant": "scalar" if k % 2 == 0 else "tq",
                            "prefix": workdir / f"rec{k}-out",
                            "raw": _episode_arrays(tac_only)})
        return {"rho": rho, "records": records}

    def input_digest(self, inputs):
        return _digest(*(a for rec in inputs["records"] for a in rec["raw"]))

    def _argv(self, rec, rho):
        argv = ["deconvolve", str(rec["path"]), "--rho", str(rho),
                "--r1", repr(self.r1), "--r2", repr(self.r2),
                "--variant", rec["variant"], "--out-prefix", str(rec["prefix"])]
        if rec["variant"] == "tq":
            argv += ["--m1", "8", "--m2", "8"]
        return argv

    def op(self, inputs, calls):
        codes, logs, tq_results = [], [], []
        for rec in inputs["records"]:
            prefix = str(rec["prefix"])
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = cli.main(self._argv(rec, inputs["rho"]))
                if code == 0:
                    code = cli.main(["stats", prefix + ".curve.csv",
                                     "--out", prefix + ".cli-stats.csv"])
            codes.append(code)
            logs.append(sink.getvalue())
            # the estimate behind this record's tq band; None for scalar
            tq_results.append(calls.tq_results.pop()
                              if calls.tq_results else None)
        # the last record is tq, and its deconvolution is its last solve
        return {"codes": codes, "logs": logs, "solve": calls.solve,
                "tq_results": tq_results}

    def check(self, inputs, out):
        problems = kkt_problems(out["solve"], "records final tq solve")
        errors = []
        outside_total = 0
        params = load_params(inputs["rho"])
        grid = DiscretizationGrid.from_params(params, tau=1.0)
        for rec, code, log, tq_result in zip(inputs["records"], out["codes"],
                                             out["logs"], out["tq_results"]):
            what = f"records {rec['path'].name}"
            if code != 0:
                problems.append(f"{what}: exit code {code}: {log.strip()}")
                continue
            prefix = str(rec["prefix"])
            table = np.loadtxt(prefix + ".curve.csv", delimiter=",",
                               skiprows=1, ndmin=2)
            mean, lower, upper = table[:, 1], table[:, 2], table[:, 3]
            err = rel_l2(mean, rec["brac"])
            errors.append(err)
            if not err <= BRAC_TOL:
                problems.append(f"{what}: BrAC relative L2 {err:.4f} > {BRAC_TOL}")
            # the band holds the curves of kept samples: every one of them
            # for tq, q = mu and the axis extremes for scalar
            if rec["variant"] == "tq":
                curves = kept_cell_curves(tq_result, params)
            else:
                tac = parse_episode(rec["path"]).y
                curves = scalar_sample_curves(tac, params, grid,
                                              self.r1, self.r2)
            problems += band_problems(curves, lower, upper, what)
            # neither variant's band is built to hold the mean curve: count
            outside_total += outside(mean, lower, upper)
            stats = episode_stats(mean, float(table[1, 0] - table[0, 0]))
            expect = ",".join(cli.format_stat(v) for v in stats.values())
            got = Path(prefix + ".cli-stats.csv").read_text().splitlines()[-1]
            if got != expect:
                problems.append(f"{what}: stats {got!r} != {expect!r}")
        err = float(np.median(errors)) if errors else float("inf")
        return problems, {"brac_rel_l2": err,
                          "band_mean_outside": outside_total}

    def output_digest(self, inputs, out):
        h = hashlib.sha256()
        for rec in inputs["records"]:
            for suffix in (".curve.csv", ".stats.csv", ".cli-stats.csv"):
                h.update(Path(str(rec["prefix"]) + suffix).read_bytes())
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (Fit(), Autoreg(), Records())}
