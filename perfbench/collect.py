"""Run the benchmark over several seeds and summarize it as a baseline file.

    python3 perfbench/collect.py --out perfbench/baseline/NAME.json

For every workload of BENCHMARK.json this makes one untraced run per seed 1
to 10, then one traced run with seed 1, each of BENCHMARK.json's
``run_seconds``.  For every metric it writes each run's value, the
median, the quartiles and the spread (the interquartile range as a share of
the median, as ``statistics.quantiles(values, n=4)`` gives the quartiles).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    print(proc.stdout, end="", flush=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "values": values,
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    a = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    report = {
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "processor": platform.processor() or platform.machine()},
        "seeds": SEEDS,
        "seconds": seconds,
        "workloads": {},
    }
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [bench(workload, seed, seconds, 0) for seed in SEEDS]
        traced = bench(workload, SEEDS[0], seconds, 1)
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": summarize(runs),
            "traced": {"seed": SEEDS[0], "correct": traced["correct"],
                       "metrics": {k: v["value"] for k, v in traced["metrics"].items()}},
        }
        os.makedirs(os.path.dirname(os.path.abspath(a.out)), exist_ok=True)
        with open(a.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
