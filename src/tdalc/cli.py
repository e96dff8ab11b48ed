"""Command-line pipeline: simulate, fit, deconvolve, stats.

Subcommands
-----------
simulate CONFIG      generate synthetic episodes and a manifest
fit EP.csv ...       estimate the population distribution from episodes
deconvolve TAC.csv   estimate BrAC from a TAC record, with band and stats
stats CURVE.csv      clinical statistics of a BrAC curve file

Exit codes: 0 success, 2 usage or configuration problem, 3 numerical
non-convergence: a fit or an NNLS solve that hit its iteration cap, or an
``--auto-reg`` weight search that did not converge.  On exit 3 the artifacts
computed so far are still written; the message on stderr names what failed
to converge.  The deconvolve ``meta.json`` also lists the RuntimeWarning
texts raised during the command and, under ``search``, the weight search's
record (``converged``, ``evals``, ``at_bound`` and the ``path`` of
(log10 r1, log10 r2, score) per evaluation); ``search`` is null without
``--auto-reg``.

Config files are flat ``key = value`` lines; ``#`` starts a comment.  Any
flag with the same name overrides the config value.  All randomness in a
subcommand descends from its single ``--seed`` value: the generator seeds
``numpy.random.SeedSequence(seed)`` and spawns one child stream per episode
in index order, and the scalar band draws from ``default_rng(seed)``
directly, so equal seeds give byte-identical outputs.  The tq band draws
nothing, and its ``meta.json`` sets ``samples`` and ``seed`` to null.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import forward_model
from .data_io import _check_channel, parse_episode, write_episode
from .deconvolution import (deconvolve, select_regularization, write_result_csv)
from .density import PopulationParams, credible_region_radius, load_params
from .errors import (ConfigurationError, NumericalError, ParameterError,
                     ParseError, SamplingError)
from .grid_basis import DiscretizationGrid, ParamMesh, SpatialMesh
from .population_fit import fit_population
from .synth import SynthConfig, generate
from .uncertainty import (DEFAULT_ALPHA, DEFAULT_SAMPLES, DEFAULT_THRESHOLD,
                          STAT_NAMES, credible_band, credible_band_scalar,
                          episode_stats, format_stats_row,
                          stats_credible_intervals, write_stats_report)
# re-exported: perfbench's records check renders rows with cli.format_stat
from .uncertainty import format_stat  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# config file handling


def read_config(path) -> dict[str, str]:
    """Parse a flat key = value config file."""
    out: dict[str, str] = {}
    text = Path(path).read_text(encoding="ascii")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigurationError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ConfigurationError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _require(cfg: dict[str, str], key: str) -> str:
    if key not in cfg:
        raise ConfigurationError(f"config missing required key {key!r}")
    return cfg[key]


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigurationError(f"bad numeric list {text!r}: {exc}") from exc


def _config_params(cfg: dict[str, str]) -> PopulationParams:
    vals = {k: float(_require(cfg, k))
            for k in ("mu1", "mu2", "sigma11", "sigma22", "b1", "b2")}
    s12 = float(cfg.get("sigma12", "0"))
    a = (float(cfg.get("a1", "0")), float(cfg.get("a2", "0")))
    return PopulationParams(
        a=a, b=(vals["b1"], vals["b2"]), mu=(vals["mu1"], vals["mu2"]),
        sigma=((vals["sigma11"], s12), (s12, vals["sigma22"])))


def _config_synth(cfg: dict[str, str]) -> SynthConfig:
    params = _config_params(cfg)
    grid = DiscretizationGrid.from_params(
        params, n=int(cfg.get("n", "4")), m1=int(cfg.get("m1", "4")),
        m2=int(cfg.get("m2", "4")), tau=float(cfg.get("tau", "1")))
    kwargs: dict = {}
    if ("input_times" in cfg) != ("input_values" in cfg):
        raise ConfigurationError(
            "input_times and input_values must be given together")
    if "input_times" in cfg:
        kwargs["input_profile"] = (_floats(cfg["input_times"]),
                                   _floats(cfg["input_values"]))
    if "amp_lo" in cfg or "amp_hi" in cfg:
        kwargs["amp_range"] = (float(_require(cfg, "amp_lo")),
                               float(_require(cfg, "amp_hi")))
    if "dur_lo" in cfg or "dur_hi" in cfg:
        kwargs["dur_range"] = (float(_require(cfg, "dur_lo")),
                               float(_require(cfg, "dur_hi")))
    return SynthConfig(
        rho_true=params, grid=grid,
        noise_sigma=float(cfg.get("noise_sigma", "0")),
        n_episodes=int(cfg.get("n_episodes", "5")),
        seed=int(cfg.get("seed", "0")),
        mode=cfg.get("mode", "population"), **kwargs)


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    cfg = read_config(args.config)
    if args.seed is not None:
        cfg["seed"] = str(args.seed)
    if args.n_episodes is not None:
        cfg["n_episodes"] = str(args.n_episodes)
    synth_cfg = _config_synth(cfg)
    episodes = generate(synth_cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for ep in episodes:
        name = f"{ep.ident}.csv"
        write_episode(ep, out_dir / name)
        entries.append({"ident": ep.ident, "file": name,
                        "brac_points": int(ep.brac_times.size),
                        "tac_points": int(ep.tac_times.size)})
    manifest = {"config": dict(sorted(cfg.items())), "episodes": entries}
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="ascii")
    print(f"wrote {len(entries)} episodes to {out_dir}")
    return EXIT_OK


def cmd_fit(args) -> int:
    episodes = [parse_episode(p, tau=args.tau) for p in args.episodes]
    grid = DiscretizationGrid(SpatialMesh(args.n),
                              ParamMesh(args.m1, 0.0, 1.0),
                              ParamMesh(args.m2, 0.0, 1.0), tau=args.tau)
    init = load_params(args.init) if args.init else None
    res = fit_population(episodes, grid, init=init, tol=args.tol,
                         max_iter=args.max_iter, fit_lower=args.fit_lower)
    res.save(args.out, args.log)
    print(f"fit: cost {res.cost:.6e}, projected gradient {res.grad_norm:.3e}, "
          f"{res.n_iter} iterations -> {args.out}")
    if not res.converged:
        print("fit did not meet the convergence tolerance; "
              "best iterate written", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# dedupes re-emitted warnings under the default filter action, as the
# registry of the module that raised them would
_REEMIT_REGISTRY: dict = {}


@contextlib.contextmanager
def _recorded_warnings():
    """Record every warning raised in the block and re-emit each on exit,
    so the caller's filters (stderr, a recorder) still see them."""
    caught: list = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            yield caught
    finally:
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename,
                                   w.lineno, registry=_REEMIT_REGISTRY)


def cmd_deconvolve(args) -> int:
    with _recorded_warnings() as caught:
        return _deconvolve(args, caught)


def _deconvolve(args, caught: list) -> int:
    params = load_params(args.rho)
    credible_region_radius(params, args.alpha)    # checks alpha; kept for the band
    episode = parse_episode(args.tac, tau=args.tau)
    grid = DiscretizationGrid.from_params(params, n=args.n, m1=args.m1,
                                          m2=args.m2, tau=args.tau)
    ops = forward_model.assemble(params, grid)
    if args.auto_reg:
        if args.r1 is not None or args.r2 is not None:
            raise ConfigurationError(
                "give either --auto-reg or explicit --r1/--r2, not both")
        if not args.train:
            raise ConfigurationError(
                "--auto-reg needs --train episodes with BrAC and TAC")
        train = [parse_episode(p, tau=args.tau) for p in args.train]
        search = select_regularization(ops, train, m=args.m,
                                       variant=args.variant)
        r1, r2 = search
        print(f"selected regularization r1={r1:.6g} r2={r2:.6g}")
    else:
        if args.r1 is None or args.r2 is None:
            raise ConfigurationError(
                "need --r1 and --r2, or --auto-reg with --train episodes")
        search = None
        r1, r2 = args.r1, args.r2
    result = deconvolve(ops, episode.y, r1, r2, m=args.m, variant=args.variant)
    if args.variant == "tq":
        band = credible_band(result, params, alpha=args.alpha)
        intervals = stats_credible_intervals(result, params, alpha=args.alpha,
                                             threshold=args.threshold)
        samples = seed = None
    else:
        band = credible_band_scalar(episode.y, params, grid, r1, r2,
                                    alpha=args.alpha, n_samples=args.samples,
                                    seed=args.seed, m=args.m)
        intervals = None
        samples, seed = args.samples, args.seed
    estimated = episode_stats(result.mean_curve, args.tau, args.threshold)
    measured = (episode_stats(episode.u, args.tau, args.threshold)
                if episode.has_brac else None)
    prefix = Path(args.out_prefix if args.out_prefix
                  else Path(args.tac).with_suffix(""))
    prefix.parent.mkdir(parents=True, exist_ok=True)
    curve_path = prefix.with_name(prefix.name + ".curve.csv")
    stats_path = prefix.with_name(prefix.name + ".stats.csv")
    meta_path = prefix.with_name(prefix.name + ".meta.json")
    write_result_csv(curve_path, episode.times, result.mean_curve,
                     band.lower, band.upper, result.fitted_tac, episode.y)
    write_stats_report(stats_path,
                       [(episode.ident, measured, estimated, intervals)])
    meta = {"variant": args.variant, "r1": r1, "r2": r2,
            "alpha": args.alpha, "samples": samples, "seed": seed,
            "converged": bool(result.converged),
            "residual": float(result.residual),
            "nnls_iterations": int(result.nnls.iterations),
            "band_dropped": int(band.dropped),
            "search": None if search is None else {
                "converged": search.converged, "evals": search.evals,
                "at_bound": search.at_bound, "path": search.path},
            "warnings": list(dict.fromkeys(
                str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)))}
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n",
                         encoding="ascii")
    print(f"wrote {curve_path}, {stats_path}, {meta_path}")
    rc = EXIT_OK
    if search is not None and not search.converged:
        print("regularization search did not converge; artifacts written at "
              "the best weights found", file=sys.stderr)
        rc = EXIT_NUMERICAL
    if not result.converged:
        print("solver hit its iteration cap; best feasible iterate written",
              file=sys.stderr)
        rc = EXIT_NUMERICAL
    return rc


def _read_curve(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a curve file, a deconvolution result table or two plain columns:
    its times, values and each row's file line."""
    text = Path(path).read_text(encoding="ascii")
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ConfigurationError(f"{path}: empty curve file")
    header = [h.strip() for h in lines[0][1].split(",")]
    if "mean_brac" in header:
        t_col, v_col = header.index("t_minutes"), header.index("mean_brac")
        body = lines[1:]
    else:
        t_col, v_col = 0, 1
        try:
            [float(tok) for tok in lines[0][1].split(",")[:2]]
            body = lines
        except ValueError:
            body = lines[1:]
    if not body:
        raise ConfigurationError(f"{path}: no data rows")
    rows = []
    for lineno, ln in body:
        toks = ln.split(",")
        if len(toks) <= max(t_col, v_col):
            raise ConfigurationError(f"{path}:{lineno}: short row {ln!r}")
        try:
            rows.append((float(toks[t_col]), float(toks[v_col]), lineno))
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{lineno}: {exc}") from None
    times, values, lines = np.asarray(rows, dtype=float).T
    return times, values, lines.astype(int)


def cmd_stats(args) -> int:
    times, values, lines = _read_curve(args.curve)
    where = f"curve {args.curve}"
    _check_channel(where, times, values, lines)
    if times.size < 2:
        raise ConfigurationError(f"{where}: needs at least two samples")
    if times[0] != 0.0:     # the statistics count time from index 0
        raise ParseError(f"{where}: first time {float(times[0])!r} is not 0",
                         line=int(lines[0]))
    steps = np.diff(times)
    tau = float(steps[0])
    if np.any(np.abs(steps - tau) > 1e-9 * max(tau, 1.0)):
        raise ConfigurationError(f"{where}: times must be uniformly spaced")
    stats = episode_stats(values, tau, args.threshold)
    payload = ",".join(STAT_NAMES) + "\n" + format_stats_row(stats) + "\n"
    if args.out == "-":
        sys.stdout.write(payload)
    else:
        Path(args.out).write_text(payload, encoding="ascii")
        print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_grid_flags(sub) -> None:
    sub.add_argument("--n", type=int, default=4,
                     help="spatial intervals (default 4)")
    sub.add_argument("--m1", type=int, default=4,
                     help="cells on the diffusivity axis (default 4)")
    sub.add_argument("--m2", type=int, default=4,
                     help="cells on the input-gain axis (default 4)")
    sub.add_argument("--tau", type=float, default=1.0,
                     help="sampling interval, minutes (default 1)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``tdalc`` parser, built once per process: its defaults are shared
    by every call of ``main``, and no command mutates them."""
    parser = argparse.ArgumentParser(
        prog="tdalc",
        description="Population-model BrAC estimation from TAC records.")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="generate synthetic episodes")
    sim.add_argument("config", help="flat key = value config file")
    sim.add_argument("--out-dir", default="episodes")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    sim.add_argument("--n-episodes", type=int, default=None,
                     help="override the config episode count")
    sim.set_defaults(func=cmd_simulate)

    fit = subs.add_parser("fit", help="fit the population distribution")
    fit.add_argument("episodes", nargs="+", help="episode CSV files")
    _add_grid_flags(fit)
    fit.add_argument("--out", default="rho_fit.txt",
                     help="fitted distribution, a key=value params file "
                          "(default rho_fit.txt)")
    fit.add_argument("--log", default=None, help="iteration log (JSON lines)")
    fit.add_argument("--init", default=None,
                     help="starting distribution file; default seeds from "
                          "per-episode fits")
    fit.add_argument("--tol", type=float, default=1e-6)
    fit.add_argument("--max-iter", type=int, default=500)
    fit.add_argument("--fit-lower", action="store_true",
                     help="also fit the lower support bounds")
    fit.set_defaults(func=cmd_fit)

    dec = subs.add_parser("deconvolve", help="estimate BrAC from a TAC record")
    dec.add_argument("tac", help="episode CSV (TAC-only accepted)")
    dec.add_argument("--rho", required=True,
                     help="population distribution file")
    _add_grid_flags(dec)
    dec.add_argument("--m", type=int, default=None,
                     help="temporal basis count (default 6 per hour)")
    dec.add_argument("--r1", type=float, default=None)
    dec.add_argument("--r2", type=float, default=None)
    dec.add_argument("--auto-reg", action="store_true",
                     help="select r1, r2 on the --train episodes")
    dec.add_argument("--train", nargs="*", default=[],
                     help="BrAC+TAC episodes for --auto-reg")
    dec.add_argument("--variant", choices=("tq", "scalar"), default="tq")
    dec.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    dec.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                     help="draws for the scalar band (tq reads its cells)")
    dec.add_argument("--seed", type=int, default=0,
                     help="seed of the scalar band's draws")
    dec.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    dec.add_argument("--out-prefix", default=None,
                     help="artifact prefix (default: TAC file stem)")
    dec.set_defaults(func=cmd_deconvolve)

    st = subs.add_parser("stats", help="statistics of a BrAC curve file")
    st.add_argument("curve", help="curve CSV: result table or two columns")
    st.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    st.add_argument("--out", default="-", help="output path, - for stdout")
    st.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, ParameterError, ParseError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericalError, SamplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
