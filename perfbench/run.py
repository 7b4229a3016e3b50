"""Benchmark of the tmflevels CLI: closed-loop workloads through ``cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from ``src/``.
With ``--trace 0`` it runs the workload untraced in a fresh interpreter,
which also times the set-up of fresh interpreters at even steps of the run,
and prints the end-to-end metrics.  With ``--trace 1`` it makes four passes
over the same requests, each in a fresh interpreter, in the order traced,
untraced, untraced, traced, and prints the per-layer metrics of the traced
passes and the tracing overhead.  Every output is checked.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
README.md describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_SAMPLES = 10
NS = 1e-9

END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = (
    "hfpss._page_by_page.self_s",
    "hfpss._closed_form.self_s",
    "hfpss.weight_basis.calls",
    "hfpss.weight_basis.cache_hits",
    "hfpss.weight_basis.monomials",
    "hfpss.weight_basis.self_s",
    "hfpss.compute_einfty.total_s",
    "equivariant.subgroups.self_s",
    "equivariant.subgroups.subgroups",
    "equivariant.quotient_invariant_factors.calls",
    "equivariant.quotient_invariant_factors.self_s",
    "equivariant.components.total_s",
    "equivariant.cyclic_full_split.total_s",
    "duality.duality_scan.total_s",
    "duality.duality_scan.levels",
    "duality.verdict.calls",
    "duality.verdict.self_s",
    "levels.factorize.calls",
    "levels.factorize.cache_hits",
    "levels.factorize.cache_size",
    "levels.factorize.self_s",
    "levels.curve_invariants.calls",
    "levels.curve_invariants.self_s",
    "cli.main.calls",
    "cli.main.total_s",
    "cli.main.self_s",
    "charts.dss_chart.self_s",
    "charts.render.self_s",
    "charts.render.bytes",
    "cohomology.rank_table.self_s",
    "cohomology.hilbert_series.calls",
    "splitting.shift_polynomial.self_s",
    "hfpss.chart_to_dict.self_s",
    "hfpss.render_ascii.self_s",
)
OVERHEAD = {
    "trace.throughput_rps": "1/s",
    "trace.untraced_throughput_rps": "1/s",
    "trace.slowdown": "ratio",
}


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def _python(script: str, args, timeout: float) -> dict:
    """Run a benchmark script in a fresh interpreter; return its last JSON line.
    On a timeout the script is killed with the set-up probes it started."""
    with subprocess.Popen(
        [sys.executable, os.path.join(HERE, script), *map(str, args)],
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{script} exited with {proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def percentile(sorted_ns: list[int], q: int) -> tuple[int, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    k = max(1, -(-len(sorted_ns) * q // 100))  # ceil, for a whole-number q
    return sorted_ns[k - 1], len(sorted_ns) - k


def end_to_end(workload: str, res: dict) -> tuple[dict, list[str]]:
    """Metrics over the whole rounds of the run; every round asks for the same
    work, so a run's figures do not depend on where its time ran out."""
    per_round = res["round_length"]
    rounds = len(res["latencies_ns"]) // per_round
    lat = sorted(res["latencies_ns"][:rounds * per_round])
    q = WORKLOADS[workload][2]
    tail, beyond = percentile(lat, q)
    values = {
        "throughput_rps": len(lat) / (sum(lat) * NS),
        "latency_p50_ms": statistics.median(lat) * NS * 1e3,
        "latency_tail_ms": tail * NS * 1e3,
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
        "setup_s": statistics.median(res["setup_s"]),
    }
    notes = [
        f"measured over {rounds} whole rounds of {per_round} requests",
        f"latency_tail_ms is p{q}: {beyond} of {len(lat)} samples beyond it"
        + ("" if beyond >= 10 else " (fewer than ten)"),
    ]
    return values, notes


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer figures as the mean of the traced passes; the overhead as the
    traced against the untraced request time over the same requests."""
    values = {name: statistics.fmean(r["layers"][name][0] for r in traced)
              for name in PER_LAYER}
    n = min(r["completed"] for r in traced + untraced)
    busy_traced = sum(sum(r["latencies_ns"][:n]) for r in traced) * NS
    busy_plain = sum(sum(r["latencies_ns"][:n]) for r in untraced) * NS
    values["trace.throughput_rps"] = len(traced) * n / busy_traced
    values["trace.untraced_throughput_rps"] = len(untraced) * n / busy_plain
    values["trace.slowdown"] = (busy_traced / len(traced)) / (busy_plain / len(untraced))
    notes = [f"tracing overhead measured on the same {n} requests, "
             f"{len(traced)} traced and {len(untraced)} untraced passes",
             "wrapper bookkeeping subtracted per traced call (ns): "
             + ", ".join(f"{r['bias_ns']:.0f}" for r in traced)]
    if traced[0]["absent"]:
        notes.append("absent layers (reported as 0): " + ", ".join(traced[0]["absent"]))
    if traced[0]["spans_dropped"]:
        notes.append(f"{traced[0]['spans_dropped']} spans counted but not stored")
    return values, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tmflevels", "cli.py")):
        print(f"perfbench: no program sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(BUILD, exist_ok=True)
    run_args = [a.workload, a.seed, a.seconds]
    timeout = 2 * a.seconds + 60
    try:
        if a.trace:
            # Traced and untraced passes in the order T U U T, so that a drift
            # in machine speed during the run weighs on both sides alike.
            trace = ["--trace", os.path.join(BUILD, f"trace-{a.workload}-seed{a.seed}.json")]
            first = _python("worker.py", [a.workload, a.seed, a.seconds / 2, *trace], timeout)
            same = run_args + ["--count", first["completed"]]
            untraced = [_python("worker.py", same, timeout) for _ in range(2)]
            traced = [first, _python("worker.py", same + trace, timeout)]
            values, notes = per_layer(traced, untraced)
            units = {**{n: first["layers"][n][1] for n in PER_LAYER}, **OVERHEAD}
            runs = traced + untraced
        else:
            res = _python("worker.py", run_args + ["--setup-probes", SETUP_SAMPLES], timeout)
            values, notes = end_to_end(a.workload, res)
            units = END_TO_END
            runs = (res,)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted = failed = 0
    failures = []
    for res in runs:
        attempted += res["attempted"]
        failed += res["failed"]
        failures += res["failures"]

    print(f"workload {a.workload}, seed {a.seed}, {a.seconds:g} s, trace {a.trace}")
    for name, value in values.items():
        print(f"  {name:<48} {value:>14.6g} {units[name]}")
    print(f"  {'ops_failed_frac':<48} {failed / attempted:>14.6g} ({failed} of {attempted})")
    for line in notes + failures[:10]:
        print(f"  {line}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
