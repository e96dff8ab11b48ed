"""Checks of the benchmark itself: seed handling, metric names, tracing.

Run from the root of a checkout; it takes a few minutes, since it runs
every workload's operation twice on a seed that no tuning run used:

    python3 -m pytest perfbench/seed_check.py -q

The file name keeps it out of the repository's own test suite.
"""

import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HELD_OUT_SEED = 4242
NAMES = sorted(workloads.WORKLOADS)


def _make(name, seed, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[name].make(seed, workdir)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    a = _make(name, 7, tmp_path / "a")
    b = _make(name, 7, tmp_path / "b")
    assert wl.input_digest(a) == wl.input_digest(b)
    assert wl.input_digest(_make(name, 8, tmp_path / "c")) \
        != wl.input_digest(a)
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files_a == sorted(p.name for p in (tmp_path / "b").iterdir())
    for f in files_a:
        assert (tmp_path / "a" / f).read_bytes() \
            == (tmp_path / "b" / f).read_bytes()


@pytest.mark.parametrize("name", NAMES)
def test_held_out_seed_passes_checks_with_identical_outputs(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    calls = workloads.Recorder()
    calls.install()
    digests = []
    try:
        for rep in ("a", "b"):
            inputs = _make(name, HELD_OUT_SEED, tmp_path / rep)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                calls.clear()
                out = wl.op(inputs, calls)
            problems, _ = wl.check(inputs, out)
            assert problems == []
            digests.append(wl.output_digest(inputs, out))
    finally:
        calls.uninstall()
    assert digests[0] == digests[1]


def test_benchmark_json_names_the_metrics_the_run_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] \
        == tracing.layer_metric_names() + list(run.RUN_LAYER_METRICS)


def test_self_time_subtracts_the_union_of_children_in_any_thread():
    # a 10 s parent whose two children overlap each other in two threads
    spans = [(1, "p", 0.0, 10.0, None, 1),
             (2, "c", 2.0, 6.0, 1, 2),
             (3, "c", 4.0, 8.0, 1, 3),
             (4, "g", 2.0, 3.0, 2, 2)]
    calls, own = tracing.self_times(spans)
    assert calls == {"p": 1, "c": 2, "g": 1}
    assert own["p"] == pytest.approx(4.0)     # 10 - |[2, 8]|
    assert own["c"] == pytest.approx(7.0)     # (4 - 1) + 4
    assert own["g"] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(12.0)   # > 10 s of wall time


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
