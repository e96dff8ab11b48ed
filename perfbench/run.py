"""tdalc benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fit --seed 1 --seconds 30 --trace 0

The program is the checkout's own ``src/tdalc``; the run stops with exit
code 2 when it is missing.  The inputs come from ``--seed`` alone.  Each
workload repeats one top-level operation in a closed loop with one client
until ``--seconds`` are used up, checks every output outside the timed
region, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
stamps the run with the machine and software versions.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (interpreter
start to the first timed call: the median wall time of fresh interpreters
that import tdalc, plus the median of several input generations), ``op_s``
(median seconds per operation) and ``peak_rss_mb``.  ``--trace 1``
alternates untraced and traced operations and reports the per-layer
metrics of one set-up plus one traced operation, the tracing overhead and
the accuracy figures; its spans go to
``perfbench/out/spans-<workload>-<seed>.jsonl``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 3
MAX_OPS = 10_000
WORKLOAD_NAMES = ("fit", "autoreg", "records")
END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}
ACCURACY = ("brac_rel_l2", "fit_mu_relerr", "fit_sigma_relerr",
            "band_mean_outside")
# per-layer metrics the run adds to those of tracing.TARGETS, with units
RUN_LAYER_METRICS = {
    "warnings.runtime": "count",
    "trace.traced_op_s": "s", "trace.untraced_op_s": "s",
    "trace.overhead_s": "s", "trace.self_sum_s": "s", "trace.glue_s": "s",
    "trace.spans": "count", "threads.peak": "count", "failed_frac": "ratio",
    "brac_rel_l2": "ratio", "fit_mu_relerr": "ratio",
    "fit_sigma_relerr": "ratio", "band_mean_outside": "count",
}
# RuntimeWarning text -> the counter it feeds
WARNING_COUNTERS = {
    "nnls hit the iteration cap": "deconvolution.nnls.capped",
    "regularization search did not converge":
        "deconvolution.select_regularization.unconverged",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit():
    """Commit of the checkout from .git without running git; None outside a
    repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest():
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tdalc").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def stamp():
    import numpy
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": git_commit(), "src_sha256": source_digest()}


def import_seconds():
    """Wall time of a fresh interpreter that imports tdalc and exits."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import tdalc"], check=True,
                   cwd=ROOT, env=dict(os.environ, PYTHONPATH=path))
    return perf_counter() - t0


def run_op(wl, inputs, calls, tracer):
    """One operation with RuntimeWarnings captured; never raises.  The
    recorder is cleared before the operation and after its check, so no
    recorded solve outlives the check."""
    calls.clear()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        if tracer is not None:
            tracer.install()
        t0 = perf_counter()
        try:
            if tracer is None:
                out = wl.op(inputs, calls)
            else:
                out = tracer.root("bench.op", wl.op, inputs, calls)
            error = None
        except Exception as exc:  # counted as a failed operation
            out, error = None, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    counts = dict.fromkeys(WARNING_COUNTERS.values(), 0)
    counts["warnings.runtime"] = 0
    for w in caught:
        if issubclass(w.category, RuntimeWarning):
            counts["warnings.runtime"] += 1
            for text, key in WARNING_COUNTERS.items():
                if str(w.message).startswith(text):
                    counts[key] += 1
    problems, accuracy, digest = [error], {}, None
    if error is None:
        try:
            problems, accuracy = wl.check(inputs, out)
            digest = wl.output_digest(inputs, out)
        except Exception as exc:  # an unreadable output is a failed check
            problems = [f"check: {type(exc).__name__}: {exc}"]
    calls.clear()
    return {"seconds": seconds, "problems": problems, "digest": digest,
            "accuracy": accuracy, "counts": counts,
            "traced": tracer is not None}


def timed_loop(wl, inputs, calls, seconds, tracer):
    """Closed loop with one client.  Stops once the next operation would
    more likely end after ``seconds`` than before, but runs at least two
    operations, so ``peak_rss_mb`` always covers a repeated operation; with
    a tracer it alternates untraced and traced operations."""
    records = []
    begin = perf_counter()
    while len(records) < MAX_OPS:
        traced = tracer is not None and len(records) % 2 == 1
        records.append(run_op(wl, inputs, calls, tracer if traced else None))
        elapsed = perf_counter() - begin
        typical = statistics.median(r["seconds"] for r in records)
        if elapsed + 0.5 * typical >= seconds and len(records) >= 2:
            break
    return records


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "tdalc" / "__init__.py").is_file():
        print(f"error: no tdalc sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tdalc

    if Path(tdalc.__file__).resolve().parent != (src / "tdalc").resolve():
        print(f"error: imported tdalc from {tdalc.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, wl, workdir, tracing, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, workdir, tracing, workloads):
    problems = []
    tracer = None
    if args.trace:
        modules = {name: sys.modules[f"tdalc.{name}"] for name in
                   {m for m, *_ in tracing.TARGETS + tracing.COUNTED}}
        namespaces = [m for k, m in sys.modules.items()
                      if k == "tdalc" or k.startswith("tdalc.")]
        tracer = tracing.Tracer(modules, namespaces + [workloads])

    # set-up, several times: fresh imports, and generations from the same
    # seed, which must agree
    reps = 1 if tracer else SETUP_REPS
    import_s = [import_seconds() for _ in range(reps)] if not tracer else [0]
    gen_s, digests = [], set()
    for _ in range(reps):
        t0 = perf_counter()
        if tracer is None:
            inputs = wl.make(args.seed, workdir)
        else:
            tracer.install()
            inputs = tracer.root("bench.setup", wl.make, args.seed, workdir)
            tracer.uninstall()
        gen_s.append(perf_counter() - t0)
        digests.add(wl.input_digest(inputs))
    if len(digests) != 1:
        problems.append("set-up: one seed gave different inputs")
    setup_s = statistics.median(import_s) + statistics.median(gen_s)
    setup_spans = tracer.take() if tracer else []

    calls = workloads.Recorder()
    calls.install()
    try:
        records = timed_loop(wl, inputs, calls, args.seconds, tracer)
    finally:
        calls.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = sum(1 for r in records if r["problems"])
    if len({r["digest"] for r in records if not r["problems"]}) > 1:
        problems.append("repeated operations gave different outputs")
    for r in records:
        problems += r["problems"]
    for msg in dict.fromkeys(problems):
        print(f"check failed: {msg}", file=sys.stderr)

    if tracer is None:
        values = {"setup_s": setup_s,
                  "op_s": statistics.median(r["seconds"] for r in records),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        op_spans = tracer.take()
        OUT.mkdir(parents=True, exist_ok=True)
        tracing.write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl",
                            (("setup", setup_spans), ("op", op_spans)))
        metrics = traced_metrics(tracer, setup_spans, op_spans, records,
                                 tracing)
    print(json.dumps({"stamp": stamp(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace,
                      "op_seconds": [r["seconds"] for r in records]}))
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


def traced_metrics(tracer, setup_spans, op_spans, records, tracing):
    """Per-layer metrics of one set-up plus one traced operation."""
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    n = len(traced)
    values = dict.fromkeys(tracing.layer_metric_names(), 0.0)
    for spans, weight in ((setup_spans, 1.0), (op_spans, 1.0 / n)):
        calls, own = tracing.self_times(spans)
        for name in calls:
            if not name.startswith("bench."):
                values[name + ".calls"] += calls[name] * weight
                values[name + ".self_s"] += own[name] * weight
    for key, value in tracer.counts.items():
        if key in values:
            # maxima stay maxima; totals become per traced operation
            is_max = key.endswith(("cols_max", "penalty_bytes"))
            values[key] = value if is_max else value / n
    for key in (*WARNING_COUNTERS.values(), "warnings.runtime"):
        values[key] = statistics.mean(r["counts"][key] for r in records)
    wall = statistics.median(r["seconds"] for r in traced)
    plain = statistics.median(r["seconds"] for r in untraced)
    _, own = tracing.self_times(op_spans)
    values.update({
        "trace.traced_op_s": wall,
        "trace.untraced_op_s": plain,
        "trace.overhead_s": wall - plain,
        "trace.self_sum_s": sum(own.values()) / n,
        "trace.glue_s": own.get("bench.op", 0.0) / n,
        "trace.spans": len(op_spans) / n,
        "threads.peak": max(tracer.counts["threads.peak"], 1),
        "failed_frac": sum(1 for r in records if r["problems"]) / len(records),
    })
    for key in ACCURACY:
        got = [r["accuracy"][key] for r in records if key in r["accuracy"]]
        values[key] = statistics.median(got) if got else 0.0
    units = dict(tracing.layer_metric_units(), **RUN_LAYER_METRICS)
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


if __name__ == "__main__":
    sys.exit(main())
