"""Run the benchmark over several seeds and summarise every metric.

Usage, from the root of a checkout:

    python3 perfbench/sweep.py --seeds 1-10 [--trace 0|1]
        [--json perfbench/out/sweep.json]

Runs every workload of ``BENCHMARK.json`` for its ``run_seconds``, one
``run.py`` process at a time (never two at once, so the runs do not compete
for the cores), and prints, for each workload and metric, the
median, the first and third quartiles as ``statistics.quantiles(values,
n=4)`` gives them, and the spread (quartile distance over the median).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarise(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("nan")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "values": values}


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1]), proc.stderr


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None,
                        help="write the summary and every run here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    seconds = bench["run_seconds"]
    summary = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in parse_seeds(args.seeds):
            stamp, result, stderr = run_one(workload, seed, seconds,
                                            args.trace)
            runs.append({"seed": seed, "stamp": stamp, "result": result})
            brief = {k: round(v["value"], 4)
                     for k, v in result["metrics"].items() if k in bounds}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']} {brief}", flush=True)
            if stderr.strip():
                print(stderr.strip(), flush=True)
        names = runs[0]["result"]["metrics"]
        metrics = {name: summarise([r["result"]["metrics"][name]["value"]
                                    for r in runs]) for name in names}
        for name, s in metrics.items():
            if name in bounds or args.trace:
                note = (f" bound {bounds[name]}" if name in bounds else "")
                print(f"  {workload:8s} {name:55s} median {s['median']:.6g} "
                      f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                      f"spread {s['spread']:.4f}{note}")
        summary["workloads"][workload] = {"metrics": metrics, "runs": runs}
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
