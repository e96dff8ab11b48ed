import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import tdalc
from tdalc import cli, deconvolution
from tdalc.cli import main, read_config
from tdalc.data_io import parse_episode
from tdalc.deconvolution import RegularizationSearch
from tdalc.density import PopulationParams, load_params, save_params
from tdalc.errors import ConfigurationError
from tdalc.uncertainty import STAT_NAMES


def write_rho(path):
    save_params(PopulationParams(a=(0.0, 0.0), b=(1.5, 2.0), mu=(0.62, 1.0),
                                 sigma=((0.01, 0.002), (0.002, 0.03))), path)
    return path

BASE_CONFIG = """\
# population truth used by the generator
mu1 = 0.62
mu2 = 1.0
sigma11 = 0.01
sigma12 = 0.002
sigma22 = 0.03
b1 = 1.5
b2 = 2.0
n_episodes = 3
seed = 7
noise_sigma = 0
mode = population
"""


@pytest.fixture
def sim_dir(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(BASE_CONFIG)
    out = tmp_path / "eps"
    rc = main(["simulate", str(cfg), "--out-dir", str(out)])
    assert rc == 0
    return out


class TestReadConfig:
    def test_values_comments_blanks(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("a = 1\n\n# note\nb = two  # trailing\n")
        assert read_config(p) == {"a": "1", "b": "two"}

    def test_duplicate_key(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("a = 1\na = 2\n")
        with pytest.raises(ConfigurationError, match="duplicate key"):
            read_config(p)

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("just words\n")
        with pytest.raises(ConfigurationError, match="key = value"):
            read_config(p)


_KEYS = st.text("abcdefghijklmnopqrstuvwxyz_0123456789.", min_size=1, max_size=8)
_VALUES = st.text("abcxyz0123456789 .,-+=e", max_size=12)
_PAD = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def config_files(draw):
    """A config file's lines (padding, comments, blank lines) and the
    key -> value map it holds."""
    keys = draw(st.lists(_KEYS, unique=True, max_size=8))
    values = {k: draw(_VALUES).strip() for k in keys}
    lines = []
    for key in keys:
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# note", "  # x = 1"])))
        comment = draw(st.sampled_from(["", " # tail", "#=#"]))
        lines.append(f"{draw(_PAD)}{key}{draw(_PAD)}={draw(_PAD)}"
                     f"{values[key]}{draw(_PAD)}{comment}")
    return lines, values


class TestReadConfigProperties:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(config_files())
    def test_valid_files_read_back(self, tmp_path_factory, drawn):
        lines, values = drawn
        path = tmp_path_factory.mktemp("cfg") / "a.cfg"
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        assert read_config(path) == values

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(drawn=config_files(), where=st.integers(0, 20),
           bad=st.sampled_from(["just words", " = 1", "=", "duplicate"]))
    def test_malformed_line_names_its_line(self, tmp_path_factory, drawn,
                                           where, bad):
        lines, values = drawn
        at = min(where, len(lines))
        if bad == "duplicate":      # of the first key above, if there is one
            above = [ln.split("=")[0].strip() for ln in lines[:at]
                     if "=" in ln.split("#")[0]]
            bad = f"{above[0]} = again" if above else "words"
        lines.insert(at, bad)
        path = tmp_path_factory.mktemp("cfg") / "a.cfg"
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        with pytest.raises(ConfigurationError,
                           match=f"^{re.escape(str(path))}:{at + 1}: "):
            read_config(path)


class TestSimulate:
    def test_writes_episodes_and_manifest(self, sim_dir):
        csvs = sorted(f.name for f in sim_dir.glob("*.csv"))
        assert csvs == ["synth-000.csv", "synth-001.csv", "synth-002.csv"]
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        assert len(manifest["episodes"]) == 3
        assert manifest["config"]["seed"] == "7"

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(BASE_CONFIG.replace("mu1 = 0.62\n", ""))
        rc = main(["simulate", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "mu1" in capsys.readouterr().err

    def test_byte_identical_rerun(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(BASE_CONFIG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", str(cfg), "--out-dir", str(out1)]) == 0
        assert main(["simulate", str(cfg), "--out-dir", str(out2)]) == 0
        for f1 in sorted(out1.iterdir()):
            assert f1.read_bytes() == (out2 / f1.name).read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(BASE_CONFIG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", str(cfg), "--out-dir", str(out1),
                     "--seed", "99"]) == 0
        assert main(["simulate", str(cfg), "--out-dir", str(out2)]) == 0
        a = (out1 / "synth-000.csv").read_bytes()
        b = (out2 / "synth-000.csv").read_bytes()
        assert a != b

    def test_template_and_scale_keys(self, tmp_path):
        # every episode is the template scaled by amp = 2 in value and
        # dur = 2 in time; --n-episodes overrides the config's 3
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(BASE_CONFIG + "input_times = 0, 30, 90\n"
                       "input_values = 0, 0.05, 0\n"
                       "amp_lo = 2\namp_hi = 2\ndur_lo = 2\ndur_hi = 2\n")
        out = tmp_path / "o"
        assert main(["simulate", str(cfg), "--out-dir", str(out),
                     "--n-episodes", "2"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["n_episodes"] == "2"
        assert [e["file"] for e in manifest["episodes"]] == \
            ["synth-000.csv", "synth-001.csv"]
        for entry in manifest["episodes"]:
            ep = parse_episode(out / entry["file"])
            assert np.array_equal(ep.brac_times, np.arange(0.0, 181.0, 30.0))
            assert np.allclose(ep.brac_values,
                               np.interp(ep.brac_times / 2.0, [0.0, 30.0, 90.0],
                                         [0.0, 0.1, 0.0]), rtol=0.0, atol=1e-15)
            assert ep.tac_times[-1] == 180.0

    @pytest.mark.parametrize("key", ["input_times = 0, 30, 90",
                                     "input_values = 0, 0.05, 0"])
    def test_template_key_alone_rejected(self, tmp_path, capsys, key):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(BASE_CONFIG + key + "\n")
        rc = main(["simulate", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "must be given together" in capsys.readouterr().err

    def test_non_numeric_template_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(BASE_CONFIG + "input_times = 0, half, 90\n"
                       "input_values = 0, 0.05, 0\n")
        rc = main(["simulate", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "bad numeric list '0, half, 90'" in capsys.readouterr().err

    def test_infinite_template_time_rejected(self, tmp_path, capsys):
        # an inf time passed the template's own order test and overflowed
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(BASE_CONFIG + "input_times = 0, 60, inf\n"
                       "input_values = 0, 0.05, 0\n")
        rc = main(["simulate", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert ("input_profile: non-finite time inf at index 2"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_bad_noise_sigma_rejected(self, tmp_path, capsys, value):
        # a NaN sigma once wrote noise-free episodes and exited 0
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(BASE_CONFIG.replace("noise_sigma = 0\n",
                                           f"noise_sigma = {value}\n"))
        out = tmp_path / "o"
        assert main(["simulate", str(cfg), "--out-dir", str(out)]) == 2
        assert "noise_sigma must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["amp", "dur"])
    def test_infinite_scale_range_rejected(self, tmp_path, capsys, key):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(BASE_CONFIG + f"{key}_lo = 1\n{key}_hi = inf\n")
        rc = main(["simulate", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert f"{key}_range must satisfy" in capsys.readouterr().err


class TestFit:
    def test_writes_params_and_log(self, sim_dir, tmp_path):
        out = tmp_path / "rho.json"
        log = tmp_path / "fit.log"
        eps = sorted(str(p) for p in sim_dir.glob("*.csv"))
        rc = main(["fit", *eps, "--out", str(out), "--log", str(log),
                   "--tol", "1e-4", "--max-iter", "60"])
        assert rc in (0, 3)
        fitted = load_params(out)
        assert np.all(np.isfinite(fitted.mu))
        assert np.all(np.isfinite(fitted.sigma))
        records = [json.loads(ln) for ln in log.read_text().splitlines()]
        assert records[-1]["event"] == "done"

    def test_iteration_cap_exits_3_with_artifacts(self, sim_dir, tmp_path,
                                                  capsys):
        out = tmp_path / "rho.json"
        eps = sorted(str(p) for p in sim_dir.glob("*.csv"))
        rc = main(["fit", *eps, "--out", str(out),
                   "--tol", "1e-16", "--max-iter", "2"])
        assert rc == 3
        assert out.exists()
        assert "convergence" in capsys.readouterr().err

    def test_default_out_is_params_text(self, sim_dir, tmp_path,
                                        monkeypatch):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        init = write_rho(tmp_path / "init.txt")
        eps = sorted(str(p) for p in sim_dir.glob("*.csv"))
        rc = main(["fit", *eps, "--init", str(init), "--max-iter", "2"])
        assert rc in (0, 3)
        assert [p.name for p in work.iterdir()] == ["rho_fit.txt"]
        fitted = load_params(work / "rho_fit.txt")
        assert np.all(np.isfinite(fitted.mu))

    def test_rejects_tac_only_episode(self, tmp_path, capsys):
        p = tmp_path / "bare.csv"
        p.write_text("t_minutes,channel,value\n0,tac,0\n30,tac,0.03\n"
                     "60,tac,0.01\n")
        rc = main(["fit", str(p), "--out", str(tmp_path / "rho.json")])
        assert rc == 2
        assert "BrAC" in capsys.readouterr().err


class TestDeconvolve:
    def test_explicit_regularization(self, sim_dir, tmp_path, capsys):
        rho = write_rho(tmp_path / "rho.params")
        prefix = tmp_path / "out" / "res"
        rc = main(["deconvolve", str(sim_dir / "synth-000.csv"),
                   "--rho", str(rho), "--r1", "1e-3", "--r2", "1e-3",
                   "--samples", "200", "--out-prefix", str(prefix)])
        assert rc == 0
        curve = (prefix.parent / "res.curve.csv").read_text().splitlines()
        assert curve[0].startswith("t_minutes,mean_brac,lower_band")
        stats = (prefix.parent / "res.stats.csv").read_text().splitlines()
        head = stats[0].split(",")
        assert head[1] == "measured_peak"
        row = stats[1].split(",")
        assert row[0] == "synth-000"
        assert row[1] != ""       # measured stats present with BrAC
        meta = json.loads((prefix.parent / "res.meta.json").read_text())
        assert meta["r1"] == 1e-3 and meta["variant"] == "tq"
        assert meta["converged"] is True
        # the tq band reads the disk cells: no draws, no seed
        assert meta["samples"] is None and meta["seed"] is None

    def test_meta_counts_the_tac_rows_fitted(self, sim_dir, tmp_path):
        # synth's sensor reads every 5 minutes: tq fits those instants,
        # scalar every grid row; both report the fitted TAC and its
        # residual on the whole grid
        rho = write_rho(tmp_path / "rho.params")
        record = sim_dir / "synth-000.csv"
        episode = parse_episode(record)
        expect = {"tq": 1 + episode.fit_indices.size, "scalar": episode.n_grid}
        assert expect["tq"] < expect["scalar"]
        for variant, rows in expect.items():
            prefix = tmp_path / variant
            assert main(["deconvolve", str(record), "--rho", str(rho),
                         "--r1", "1e-3", "--r2", "1e-3", "--variant", variant,
                         "--samples", "60", "--out-prefix", str(prefix)]) == 0
            meta = json.loads(Path(f"{prefix}.meta.json").read_text())
            assert meta["tac_rows"] == rows
            table = np.loadtxt(f"{prefix}.curve.csv", delimiter=",",
                               skiprows=1)
            assert table.shape[0] == episode.n_grid
            assert meta["residual"] == pytest.approx(
                np.linalg.norm(table[:, 4] - table[:, 5]), rel=1e-12)

    def test_tq_needs_a_measured_instant_on_the_grid(self, tmp_path, capsys):
        # the grid ends at 2 min; the reading at 2.6 min rounds past it
        record = tmp_path / "r.csv"
        record.write_text("t_minutes,channel,value\n0,tac,0\n2.6,tac,0.01\n")
        rho = write_rho(tmp_path / "rho.params")
        args = ["deconvolve", str(record), "--rho", str(rho), "--r1", "1e-3",
                "--r2", "1e-3", "--samples", "20"]
        assert main(args) == 2
        assert "measured TAC instants on the grid" in capsys.readouterr().err
        assert main(args + ["--variant", "scalar"]) == 0

    def test_no_band_samples_exits_3(self, sim_dir, tmp_path, capsys):
        # no draw falls in a vanishing credible disk: a SamplingError
        rho = write_rho(tmp_path / "rho.params")
        rc = main(["deconvolve", str(sim_dir / "synth-000.csv"),
                   "--rho", str(rho), "--r1", "1e-3", "--r2", "1e-3",
                   "--variant", "scalar", "--samples", "5", "--alpha", "1e-9",
                   "--out-prefix", str(tmp_path / "res")])
        assert rc == 3
        assert "no samples fell inside" in capsys.readouterr().err

    def test_zero_samples_is_a_usage_error(self, sim_dir, tmp_path, capsys):
        rho = write_rho(tmp_path / "rho.params")
        rc = main(["deconvolve", str(sim_dir / "synth-000.csv"),
                   "--rho", str(rho), "--r1", "1e-3", "--r2", "1e-3",
                   "--variant", "scalar", "--samples", "0",
                   "--out-prefix", str(tmp_path / "res")])
        assert rc == 2
        assert "at least one sample, got 0" in capsys.readouterr().err

    def test_bad_alpha_rejected_before_any_solve(self, sim_dir, tmp_path,
                                                 capsys, monkeypatch):
        searches = []
        monkeypatch.setattr(cli, "select_regularization",
                            lambda *args, **kwargs: searches.append(args))
        rho = write_rho(tmp_path / "rho.params")
        rc = main(["deconvolve", str(sim_dir / "synth-000.csv"),
                   "--rho", str(rho), "--auto-reg",
                   "--train", str(sim_dir / "synth-001.csv"),
                   "--alpha", "1.5", "--out-prefix", str(tmp_path / "res")])
        assert rc == 2 and searches == []
        out, err = capsys.readouterr()
        assert out == "" and "alpha must lie in (0, 1)" in err
        assert not list(tmp_path.glob("res.*"))

    @pytest.mark.parametrize("flag", ["--r1", "--r2"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_regularization_rejected(self, sim_dir, tmp_path,
                                               capsys, flag, value):
        rho = write_rho(tmp_path / "rho.params")
        weights = {"--r1": "1e-3", "--r2": "1e-3", flag: value}
        rc = main(["deconvolve", str(sim_dir / "synth-000.csv"),
                   "--rho", str(rho),
                   *(f"{k}={v}" for k, v in weights.items()),
                   "--out-prefix", str(tmp_path / "res")])
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    def test_mean_outside_box(self, sim_dir, tmp_path):
        rho = tmp_path / "rho.params"
        save_params(PopulationParams(a=(0.0, 0.0), b=(1.5, 2.0),
                                     mu=(1.7, 1.0),
                                     sigma=((0.01, 0.002), (0.002, 0.03))),
                    rho)
        prefix = tmp_path / "out"
        assert main(["deconvolve", str(sim_dir / "synth-000.csv"),
                     "--rho", str(rho), "--r1", "1e-3", "--r2", "1e-3",
                     "--out-prefix", str(prefix)]) == 0
        for suffix in ("curve.csv", "stats.csv", "meta.json"):
            assert (tmp_path / f"out.{suffix}").stat().st_size > 0

    def test_meta_records_band_drops_and_warnings(self, sim_dir, tmp_path,
                                                  monkeypatch):
        rho = write_rho(tmp_path / "rho.params")
        solve = cli.deconvolve

        def warning_solve(*args, **kwargs):
            warnings.warn("solver note for the record", RuntimeWarning)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "deconvolve", warning_solve)
        prefix = tmp_path / "sc"
        with pytest.warns(RuntimeWarning, match="solver note for the record"):
            rc = main(["deconvolve", str(sim_dir / "synth-000.csv"),
                       "--rho", str(rho), "--r1", "1e-3", "--r2", "1e-3",
                       "--variant", "scalar", "--samples", "60",
                       "--out-prefix", str(prefix)])
        assert rc == 0
        meta = json.loads((tmp_path / "sc.meta.json").read_text())
        assert meta["band_dropped"] == 0
        assert meta["samples"] == 60 and meta["seed"] == 0
        assert meta["warnings"] == ["solver note for the record"]

    def test_tac_only_leaves_measured_blank(self, sim_dir, tmp_path):
        rho = write_rho(tmp_path / "rho.params")
        src = (sim_dir / "synth-001.csv").read_text()
        bare = tmp_path / "bare.csv"
        bare.write_text("\n".join(
            ln for ln in src.splitlines() if ",brac," not in ln) + "\n")
        prefix = tmp_path / "bare_out"
        rc = main(["deconvolve", str(bare), "--rho", str(rho),
                   "--r1", "1e-3", "--r2", "1e-3", "--samples", "200",
                   "--out-prefix", str(prefix)])
        assert rc == 0
        stats = (tmp_path / "bare_out.stats.csv").read_text().splitlines()
        row = stats[1].split(",")
        assert row[1:6] == [""] * 5
        assert row[6] != ""

    def test_auto_reg_needs_train(self, sim_dir, tmp_path, capsys):
        rho = write_rho(tmp_path / "rho.params")
        rc = main(["deconvolve", str(sim_dir / "synth-000.csv"),
                   "--rho", str(rho), "--auto-reg"])
        assert rc == 2
        assert "--train" in capsys.readouterr().err

    def test_auto_reg_excludes_explicit(self, sim_dir, tmp_path, capsys):
        rho = write_rho(tmp_path / "rho.params")
        rc = main(["deconvolve", str(sim_dir / "synth-000.csv"),
                   "--rho", str(rho), "--auto-reg", "--r1", "1e-3",
                   "--train", str(sim_dir / "synth-001.csv")])
        assert rc == 2

    def test_capped_solve_exits_3_with_artifacts(self, sim_dir, tmp_path,
                                                 capsys, monkeypatch):
        # an NNLS solve held to one iteration stops at the cap: it warns,
        # the artifacts are written, and the command exits 3
        rho = write_rho(tmp_path / "rho.params")
        pivoting = deconvolution._pivoting
        monkeypatch.setattr(deconvolution, "_pivoting",
                            lambda normal, x, cap, descent=False:
                            pivoting(normal, x, 1 if cap is None else cap,
                                     descent))
        prefix = tmp_path / "res"
        with pytest.warns(RuntimeWarning, match="iteration cap"):
            rc = main(["deconvolve", str(sim_dir / "synth-000.csv"),
                       "--rho", str(rho), "--r1", "1e-3", "--r2", "1e-3",
                       "--out-prefix", str(prefix)])
        assert rc == 3
        assert "solver hit its iteration cap" in capsys.readouterr().err
        meta = json.loads((tmp_path / "res.meta.json").read_text())
        assert meta["converged"] is False and meta["nnls_iterations"] == 1
        assert any("iteration cap" in w for w in meta["warnings"])
        for suffix in ("curve.csv", "stats.csv"):
            assert (tmp_path / f"res.{suffix}").stat().st_size > 0

    def test_auto_reg_writes_search_record(self, sim_dir, tmp_path):
        rho = write_rho(tmp_path / "rho.params")
        prefix = tmp_path / "auto"
        rc = main(["deconvolve", str(sim_dir / "synth-000.csv"),
                   "--rho", str(rho), "--auto-reg",
                   "--train", str(sim_dir / "synth-001.csv"),
                   "--samples", "60", "--out-prefix", str(prefix)])
        assert rc == 0
        meta = json.loads((tmp_path / "auto.meta.json").read_text())
        search = meta["search"]
        assert search["converged"] is True
        assert isinstance(search["at_bound"], bool)
        assert search["evals"] == len(search["path"]) > 25
        assert all(len(point) == 3 for point in search["path"])

    def test_search_null_without_auto_reg(self, sim_dir, tmp_path):
        rho = write_rho(tmp_path / "rho.params")
        prefix = tmp_path / "fixed"
        assert main(["deconvolve", str(sim_dir / "synth-000.csv"),
                     "--rho", str(rho), "--r1", "1e-3", "--r2", "1e-3",
                     "--variant", "scalar", "--samples", "60",
                     "--out-prefix", str(prefix)]) == 0
        meta = json.loads((tmp_path / "fixed.meta.json").read_text())
        assert meta["search"] is None

    def test_unconverged_search_exits_3_with_artifacts(self, sim_dir,
                                                       tmp_path, monkeypatch,
                                                       capsys):
        rho = write_rho(tmp_path / "rho.params")
        stalled = RegularizationSearch(r1=1e-3, r2=1e-3, converged=False,
                                       evals=1, at_bound=False,
                                       path=((-3.0, -3.0, 0.5),))
        monkeypatch.setattr(cli, "select_regularization",
                            lambda *args, **kwargs: stalled)
        prefix = tmp_path / "stall"
        rc = main(["deconvolve", str(sim_dir / "synth-000.csv"),
                   "--rho", str(rho), "--auto-reg",
                   "--train", str(sim_dir / "synth-001.csv"),
                   "--variant", "scalar", "--samples", "60",
                   "--out-prefix", str(prefix)])
        assert rc == 3
        assert "search did not converge" in capsys.readouterr().err
        for suffix in ("curve.csv", "stats.csv"):
            assert (tmp_path / f"stall.{suffix}").stat().st_size > 0
        meta = json.loads((tmp_path / "stall.meta.json").read_text())
        assert meta["r1"] == 1e-3 and meta["r2"] == 1e-3
        assert meta["search"] == {"converged": False, "evals": 1,
                                  "at_bound": False,
                                  "path": [[-3.0, -3.0, 0.5]]}

    def test_production_paths_run_no_expm(self, tmp_path, monkeypatch):
        # the expm recursion is the test reference: simulate, deconvolve
        # (both variants) and the weight search read the spectral kernels
        def no_expm(*args, **kwargs):
            raise AssertionError("expm called")

        monkeypatch.setattr(scipy.linalg, "expm", no_expm)
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(BASE_CONFIG)
        eps = tmp_path / "eps"
        assert main(["simulate", str(cfg), "--out-dir", str(eps)]) == 0
        rho = write_rho(tmp_path / "rho.params")
        tac = str(eps / "synth-000.csv")
        for variant in ("tq", "scalar"):
            assert main(["deconvolve", tac, "--rho", str(rho),
                         "--r1", "1e-3", "--r2", "1e-3",
                         "--variant", variant, "--samples", "60",
                         "--out-prefix", str(tmp_path / variant)]) == 0
        assert main(["deconvolve", tac, "--rho", str(rho), "--auto-reg",
                     "--train", str(eps / "synth-001.csv"),
                     "--samples", "60",
                     "--out-prefix", str(tmp_path / "auto")]) == 0

    def test_same_seed_byte_identical(self, sim_dir, tmp_path):
        rho = write_rho(tmp_path / "rho.params")
        args = ["deconvolve", str(sim_dir / "synth-000.csv"),
                "--rho", str(rho), "--r1", "1e-3", "--r2", "1e-3",
                "--samples", "150", "--seed", "4"]
        assert main(args + ["--out-prefix", str(tmp_path / "a")]) == 0
        assert main(args + ["--out-prefix", str(tmp_path / "b")]) == 0
        for suffix in (".curve.csv", ".stats.csv", ".meta.json"):
            assert (tmp_path / f"a{suffix}").read_bytes() == \
                (tmp_path / f"b{suffix}").read_bytes()

    def test_repeat_in_one_process(self, sim_dir, tmp_path, capsys):
        # one process keeps its parser, radii and lag blocks: record A,
        # then B on another law and length, then A again reads the same
        rho_a = write_rho(tmp_path / "a.params")
        rho_b = tmp_path / "b.params"
        save_params(PopulationParams(a=(0.0, 0.0), b=(1.5, 2.0),
                                     mu=(0.7, 0.9),
                                     sigma=((0.02, 0.001), (0.001, 0.04))),
                    rho_b)
        lines = (sim_dir / "synth-001.csv").read_text().splitlines()
        short = tmp_path / "short.csv"
        short.write_text("\n".join(
            [lines[0]] + [ln for ln in lines[1:]
                          if ln.split(",")[1] == "tac"
                          and float(ln.split(",")[0]) <= 150.0]) + "\n")
        record_a = ["deconvolve", str(sim_dir / "synth-000.csv"),
                    "--rho", str(rho_a), "--r1", "1e-3", "--r2", "1e-3",
                    "--variant", "scalar", "--samples", "80"]
        suffixes = (".curve.csv", ".stats.csv", ".meta.json")
        runs = []
        for argv in (record_a, ["deconvolve", str(short), "--rho", str(rho_b),
                                "--r1", "1e-2", "--r2", "1e-3"], record_a):
            prefix = tmp_path / f"run{len(runs)}"
            assert main(argv + ["--out-prefix", str(prefix)]) == 0
            runs.append([(tmp_path / (prefix.name + s)).read_bytes()
                         for s in suffixes])
        assert runs[0] == runs[2]
        assert runs[1][0].count(b"\n") != runs[0][0].count(b"\n")
        # a parse error after those calls is still a usage error
        with pytest.raises(SystemExit) as exc:
            main(["deconvolve", str(short), "--r1", "1e-3"])
        assert exc.value.code == 2
        assert "--rho" in capsys.readouterr().err
        # the shared --train default is still empty after those calls and
        # after a call that names a train file
        args = cli.build_parser().parse_args(record_a + ["--train", "x.csv"])
        assert args.train == ["x.csv"]
        assert cli.build_parser().parse_args(record_a).train == []


#: the per-record commands (simulate, deconvolve at fixed weights and with
#: the scalar weight search, stats) load no scipy module at all, from the
#: import on; the fit loads scipy.optimize
_FOOTPRINT_RUN = """
import json, sys
from pathlib import Path
import tdalc, tdalc.cli


def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


after_import = scipy_modules()
main = tdalc.cli.main
work, rho = Path(sys.argv[1]), sys.argv[2]
(work / "sim.cfg").write_text(sys.argv[3])
assert main(["simulate", str(work / "sim.cfg"), "--out-dir", str(work / "eps")]) == 0
record = str(work / "eps" / "synth-000.csv")
for variant in ("tq", "scalar"):
    assert main(["deconvolve", record, "--rho", rho, "--r1", "1e-3", "--r2", "1e-3",
                 "--variant", variant, "--samples", "60",
                 "--out-prefix", str(work / variant)]) == 0
assert main(["deconvolve", record, "--rho", rho, "--auto-reg", "--train", record,
             "--variant", "scalar", "--samples", "60",
             "--out-prefix", str(work / "auto")]) == 0
assert main(["stats", str(work / "scalar.curve.csv")]) == 0
loaded = scipy_modules()
fit = main(["fit", record, "--out", str(work / "fit.txt"), "--max-iter", "2"])
print(json.dumps({"after_import": after_import, "loaded": loaded, "fit": fit,
                  "optimize_after_fit": "scipy.optimize" in sys.modules}))
"""


class TestFootprint:
    def test_record_commands_load_no_optimizer(self, tmp_path):
        # in a fresh interpreter: this one holds scipy for oracles
        rho = write_rho(tmp_path / "rho.params")
        config = BASE_CONFIG.replace("n_episodes = 3", "n_episodes = 1")
        src = str(Path(tdalc.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", _FOOTPRINT_RUN, str(tmp_path), str(rho),
             config],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [src, os.environ.get("PYTHONPATH", "")])})
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["after_import"] == []
        assert report["loaded"] == []
        assert report["fit"] in (0, 3) and report["optimize_after_fit"]


class TestStats:
    def test_stdout_table(self, tmp_path, capsys):
        curve = tmp_path / "c.csv"
        t = np.arange(121.0)
        v = np.where(t <= 60.0, 0.08 * t / 60.0,
                     0.08 * (1.0 - (t - 60.0) / 60.0))
        curve.write_text("\n".join(f"{a},{b}" for a, b in zip(t, v)) + "\n")
        rc = main(["stats", str(curve)])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == ",".join(STAT_NAMES)
        assert out[1] == "0.0800,1.0000,0.0800,0.0800,0.0800"

    def test_reads_result_table(self, sim_dir, tmp_path, capsys):
        rho = write_rho(tmp_path / "rho.params")
        prefix = tmp_path / "res"
        assert main(["deconvolve", str(sim_dir / "synth-000.csv"),
                     "--rho", str(rho), "--r1", "1e-3", "--r2", "1e-3",
                     "--samples", "100", "--out-prefix", str(prefix)]) == 0
        capsys.readouterr()
        rc = main(["stats", str(tmp_path / "res.curve.csv")])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == ",".join(STAT_NAMES)

    def test_two_columns_with_header(self, tmp_path, capsys):
        # a header row that is not numeric is skipped
        t = np.arange(121.0)
        v = np.where(t <= 60.0, 0.08 * t / 60.0,
                     0.08 * (1.0 - (t - 60.0) / 60.0))
        rows = "\n".join(f"{a},{b}" for a, b in zip(t, v)) + "\n"
        (tmp_path / "plain.csv").write_text(rows)
        (tmp_path / "head.csv").write_text("t,brac\n" + rows)
        assert main(["stats", str(tmp_path / "plain.csv")]) == 0
        plain = capsys.readouterr().out
        assert main(["stats", str(tmp_path / "head.csv")]) == 0
        assert capsys.readouterr().out == plain

    def test_one_sample_rejected(self, tmp_path, capsys):
        curve = tmp_path / "c.csv"
        curve.write_text("0,0.01\n")
        rc = main(["stats", str(curve)])
        assert rc == 2
        assert "at least two samples" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("", "empty curve file"), ("\n \n", "empty curve file"),
        ("t,brac\n", "no data rows"),
        ("t_minutes,mean_brac,lower_band\n", "no data rows"),
        ("0,0\n1\n2,0\n", "short row '1'")])
    def test_malformed_file_rejected(self, tmp_path, capsys, text, message):
        curve = tmp_path / "c.csv"
        curve.write_text(text)
        assert main(["stats", str(curve)]) == 2
        assert message in capsys.readouterr().err

    def test_out_writes_file(self, tmp_path, capsys):
        curve = tmp_path / "c.csv"
        curve.write_text("0,0\n1,0.05\n2,0\n")
        out = tmp_path / "s.csv"
        assert main(["stats", str(curve), "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert main(["stats", str(curve)]) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["stats", str(tmp_path / "absent.csv")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_non_numeric_cell_names_file_and_line(self, tmp_path, capsys):
        curve = tmp_path / "c.csv"
        curve.write_text("t,brac\n0,0\n\n1,abc\n2,0\n")
        assert main(["stats", str(curve)]) == 2
        err = capsys.readouterr().err
        assert f"{curve}:4: " in err and "'abc'" in err

    def test_nonuniform_grid_rejected(self, tmp_path, capsys):
        curve = tmp_path / "c.csv"
        curve.write_text("0,0\n1,0.01\n3,0.02\n")
        rc = main(["stats", str(curve)])
        assert rc == 2
        assert "uniform" in capsys.readouterr().err

    @pytest.mark.parametrize("text, line, fault", [
        ("t,brac\n0,0\n\n1,abc\n", 4,
         "could not convert string to float: 'abc'"),
        ("t,brac\n0,0\n1\n2,0\n", 3, "short row '1'"),
        ("t,brac\n0,0\n1,0.02\n\n2,-0.01\n", 5,
         "curve: negative value -0.01 at index 2"),
        ("t,brac\n0,0\n1,0.02\n2,0.03\n\n3.5,0\n4,0\n", 6,
         "curve: time 3.5 at index 3 is off the uniform step 1.0")])
    def test_positions_named_path_colon_line(self, tmp_path, capsys, text,
                                             line, fault):
        # a cell that is not a number, a short row, a bad sample and the
        # first time off the uniform step are named in one format
        curve = tmp_path / "c.csv"
        curve.write_text(text)
        assert main(["stats", str(curve)]) == 2
        assert capsys.readouterr().err == f"error: {curve}:{line}: {fault}\n"

    def test_nonfinite_value_rejected(self, tmp_path, capsys):
        curve = tmp_path / "c.csv"
        curve.write_text("0,0\n1,nan\n2,0.02\n")
        rc = main(["stats", str(curve)])
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    def test_stats_curve_must_start_at_zero(self, tmp_path, capsys):
        # the statistics count time from the first sample: this curve,
        # which peaks at 31 min, once reported a peak time of 1 min
        curve = tmp_path / "c.csv"
        curve.write_text("30,0\n31,0.05\n32,0\n")
        assert main(["stats", str(curve)]) == 2
        assert (f"{curve}:1: curve: first time 30.0 is not 0"
                in capsys.readouterr().err)

    def test_negative_value_names_file_and_line(self, tmp_path, capsys):
        curve = tmp_path / "c.csv"
        curve.write_text("t,brac\n0,0\n\n1,-0.01\n2,0\n")
        assert main(["stats", str(curve)]) == 2
        assert (f"{curve}:4: curve: negative value -0.01 at index 1"
                in capsys.readouterr().err)

    def test_nonfinite_time_rejected(self, tmp_path, capsys):
        # NaN steps pass a spacing test whose comparisons are all False
        curve = tmp_path / "c.csv"
        curve.write_text("0,0\n1,0.01\nnan,0.02\n")
        rc = main(["stats", str(curve)])
        assert rc == 2
        assert "finite" in capsys.readouterr().err
