import json

import numpy as np
import pytest

from tdalc.cli import main, read_config
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

    def test_same_seed_byte_identical(self, sim_dir, tmp_path):
        rho = write_rho(tmp_path / "rho.params")
        args = ["deconvolve", str(sim_dir / "synth-000.csv"),
                "--rho", str(rho), "--r1", "1e-3", "--r2", "1e-3",
                "--samples", "150", "--seed", "4"]
        assert main(args + ["--out-prefix", str(tmp_path / "a")]) == 0
        assert main(args + ["--out-prefix", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a.curve.csv").read_bytes() == \
            (tmp_path / "b.curve.csv").read_bytes()


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

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["stats", str(tmp_path / "absent.csv")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_nonuniform_grid_rejected(self, tmp_path, capsys):
        curve = tmp_path / "c.csv"
        curve.write_text("0,0\n1,0.01\n3,0.02\n")
        rc = main(["stats", str(curve)])
        assert rc == 2
        assert "uniform" in capsys.readouterr().err
