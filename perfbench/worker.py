"""One closed-loop run of one workload, in a fresh interpreter.

A single client in one thread calls ``tmflevels.cli.main(argv, out)`` with
the next request of the deck as soon as the previous one returns, until the
time is up and at least one whole round is done (or until ``--count``
requests are done).  Only the call is timed; the oracle checks each output
between calls.  Prints one JSON object.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS [--trace FILE]
        [--count N] [--record FILE] [--setup-probes N]

``--setup-probes N`` times the set-up of N fresh interpreters
(``setup_probe.py``) at even steps of the run's request time, between
requests, so that the set-up samples meet the same phases of machine load
as the requests.  The probes' time does not count towards SECONDS.
``--trace FILE`` wraps the traced layers and writes the spans to FILE.
``--record FILE`` runs the whole deck once and writes the digest of every
response to FILE; it is how ``digests/`` was made at the seed commit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time

from oracle import Oracle, digest
from tracer import Tracer
from workloads import WORKLOADS, deck as make_deck, duality_point, round_length

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
DEFAULT_SEED = 0


def deck_id(deck) -> str:
    """Fingerprint of a deck's argv lists; a digest file is only valid for it."""
    return hashlib.sha256(json.dumps([r.argv for r in deck]).encode()).hexdigest()[:16]


def load_digests(workload: str, deck) -> list[str]:
    path = os.path.join(HERE, "digests", f"{workload}.txt")
    with open(path, encoding="utf-8") as fh:
        tag, *recorded = fh.read().split()
    if tag != f"deck:{deck_id(deck)}" or len(recorded) != len(deck):
        raise SystemExit(f"{path} was recorded for another deck; record it again")
    return recorded


def call(main, argv, out):
    """Run one request; an exception escaping main is reported as a string."""
    try:
        return main(list(argv), out)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # any escape is a failed request, not a crash
        return f"exception {exc!r}"


def probe_setup(oracle: Oracle) -> tuple[float, bool]:
    """Set-up time of one fresh interpreter, and whether its answer is right."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py")],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"setup_probe.py exited with {proc.returncode}: {proc.stderr[-2000:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], oracle.check(duality_point(1), probe["rc"], probe["stdout"])


def run(workload: str, seed: int, seconds: float, count: int | None,
        trace_file: str | None, record_file: str | None, setup_probes: int = 0) -> dict:
    sys.path.insert(0, SRC)
    import tmflevels.cli as cli

    tracer = None
    if trace_file:
        tracer = Tracer()
        tracer.install()
    deck = make_deck(workload, seed)
    per_round = round_length(workload)
    if record_file:
        count, seconds = len(deck), float("inf")
    recorded = None
    if seed == DEFAULT_SEED and not record_file:
        recorded = load_digests(workload, deck)
    oracle = Oracle(recorded)
    gc.freeze()  # keep the deck and the imports out of the collector's work
    latencies: list[int] = []
    digests: list[str] = []
    failed = 0
    setup: list[float] = []
    probe_at = [(i + 0.5) * seconds / setup_probes for i in range(setup_probes)]
    clock = time.perf_counter_ns
    start, probing = time.perf_counter(), 0.0

    def elapsed():  # time of the run so far, probes left out
        return time.perf_counter() - start - probing

    while ((elapsed() < seconds or len(latencies) < per_round)
           and (count is None or len(latencies) < count)):
        if len(setup) < setup_probes and elapsed() >= probe_at[len(setup)]:
            t = time.perf_counter()
            setup_s, ok = probe_setup(oracle)
            probing += time.perf_counter() - t
            setup.append(setup_s)
            failed += not ok
        index = len(latencies) % len(deck)
        req = deck[index]
        out = io.StringIO()
        with contextlib.redirect_stderr(io.StringIO()):
            t0 = clock()
            rc = call(cli.main, req.argv, out)
            t1 = clock()
        latencies.append(t1 - t0)
        text = out.getvalue()
        if record_file:
            digests.append(digest(rc, text))
        failed += not oracle.check(req, rc, text, index)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while len(setup) < setup_probes:  # a probe the last long request skipped
        setup_s, ok = probe_setup(oracle)
        setup.append(setup_s)
        failed += not ok

    partners = oracle.missing_partners()
    for req in partners:
        out = io.StringIO()
        with contextlib.redirect_stderr(io.StringIO()):
            rc = call(cli.main, req.argv, out)
        failed += not oracle.check(req, rc, out.getvalue())
    failed += oracle.strategy_disagreements()

    if record_file:
        with open(record_file, "w", encoding="utf-8") as fh:
            fh.write("\n".join([f"deck:{deck_id(deck)}"] + digests) + "\n")
    result = {
        "completed": len(latencies),
        "attempted": len(latencies) + len(partners) + len(setup),
        "failed": failed,
        "failures": oracle.failures[:10],
        "latencies_ns": latencies,
        "round_length": per_round,
        "setup_s": setup,
        "peak_rss_kb": peak_rss_kb,
    }
    if tracer:
        tracer.write(trace_file)
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
        result["spans_dropped"] = tracer.dropped
        result["bias_ns"] = tracer.bias_ns
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("seconds", type=float)
    ap.add_argument("--count", type=int)
    ap.add_argument("--trace", metavar="FILE")
    ap.add_argument("--record", metavar="FILE")
    ap.add_argument("--setup-probes", type=int, default=0)
    a = ap.parse_args(argv)
    result = run(a.workload, a.seed, a.seconds, a.count, a.trace, a.record, a.setup_probes)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
