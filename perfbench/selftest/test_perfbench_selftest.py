"""Self-tests of the benchmark: seeded decks, the oracle and the tracer.

Run with ``python -m pytest perfbench/selftest`` from the repository root.
"""

import collections
import io
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
for path in (BENCH, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from tmflevels import cli  # noqa: E402


def _mix(deck, *keys):
    return collections.Counter(tuple(r.params.get(k) for k in ("cmd",) + keys) for r in deck)


def _respond(req):
    out = io.StringIO()
    rc = cli.main(list(req.argv), out)
    return rc, out.getvalue()


def test_same_seed_same_requests():
    for name in workloads.WORKLOADS:
        assert workloads.deck(name, 7) == workloads.deck(name, 7)


def test_other_seed_other_requests_same_mix():
    for name in workloads.WORKLOADS:
        a, b = workloads.deck(name, 1), workloads.deck(name, 2)
        assert [r.argv for r in a] != [r.argv for r in b]
        assert _mix(a) == _mix(b)
    a, b = workloads.deck("hfpss-windows", 1), workloads.deck("hfpss-windows", 2)
    assert _mix(a, "ring", "strategy") == _mix(b, "ring", "strategy")


def test_rounds_ask_for_the_same_work_whatever_the_seed():
    def work(req):
        p = req.params
        if p["cmd"] == "hfpss":
            return ("hfpss", p["ring"], p["strategy"], tuple(sorted(p["window"])))
        if p["cmd"] == "equivariant":
            return ("equivariant", p["orders"])
        if p["cmd"] == "duality_scan":
            return ("scan", p["scan"] // workloads.SCAN_JITTER)
        return (p["cmd"],)

    for name in workloads.WORKLOADS:
        size = workloads.round_length(name)
        for seed in (1, 2):
            deck = workloads.deck(name, seed)
            rounds = [collections.Counter(map(work, deck[i:i + size]))
                      for i in range(0, len(deck), size)]
            assert len(deck) % size == 0
            assert all(r == rounds[0] for r in rounds)
        first = collections.Counter(map(work, workloads.deck(name, 1)[:size]))
        assert first == rounds[0]


def test_oracle_accepts_real_outputs():
    reqs = [
        workloads.invariants(9699690),
        workloads.chart(23, -20, 20, "json"),
        workloads.chart(47, -3, 5, "json"),
        workloads.chart(7, -8, 8, "ascii"),
        workloads.chart(5, -2, 2, "svg"),
        workloads.split(19, 2, rho=True, mod=3),
        workloads.split(6, 2),
        workloads.split(25, 0),
        workloads.duality_point(23),
        workloads.duality_scan(400, "table"),
        workloads.equivariant((6, 4)),
        workloads.equivariant((60,), 7),
        workloads.equivariant((2, 2), 5),
        workloads.hfpss("height2-laurent", (4, 3, 5), "fast", "json"),
        workloads.hfpss("height2-laurent", (4, 3, 5), "reference", "json"),
        workloads.hfpss("height2-poly", (3, 3, 3), "both", "ascii"),
    ]
    orc = oracle.Oracle()
    for req in reqs:
        rc, text = _respond(req)
        assert orc.check(req, rc, text), orc.failures
    assert orc.strategy_disagreements() == 0


def _flip(text: str) -> str:
    i = len(text) // 2
    return text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1:]


def test_oracle_rejects_a_flipped_byte():
    for req in (workloads.equivariant((4, 2)), workloads.chart(23, -20, 20, "svg"),
                workloads.hfpss("height1-laurent", (3, 3, 3), "fast", "ascii")):
        rc, text = _respond(req)
        recorded = [oracle.digest(rc, text)]
        assert oracle.Oracle(recorded).check(req, rc, text, 0)
        assert not oracle.Oracle(recorded).check(req, rc, _flip(text), 0)


def test_oracle_rejects_a_wrong_multiplicity():
    req = workloads.equivariant((4, 2))
    rc, text = _respond(req)
    obj = json.loads(text)
    obj["components"][0]["multiplicity"] += 1
    assert not oracle.Oracle().check(req, rc, json.dumps(obj, sort_keys=True) + "\n")


def test_oracle_rejects_floats_and_wrong_exit_codes():
    req = workloads.invariants(23)
    rc, text = _respond(req)
    assert not oracle.Oracle().check(req, rc, text.replace('"version": 1', '"version": 1.0'))
    assert not oracle.Oracle().check(req, 1, "")


def test_hfpss_strategies_are_compared():
    fast = workloads.hfpss("height2-laurent", (4, 3, 5), "fast", "json", paired=True)
    rc, text = _respond(fast)
    orc = oracle.Oracle()
    assert orc.check(fast, rc, text)
    (partner,) = orc.missing_partners()
    assert partner.params["strategy"] == "reference"
    obj = json.loads(text)
    obj["entries"][0]["classes"][0][2] += 1  # a wrong count that passes the facts
    assert orc.check(partner, rc, json.dumps(obj, sort_keys=True) + "\n")
    assert orc.strategy_disagreements() == 1


def test_span_self_times_add_up_to_the_request(tmp_path):
    trace_file = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "cli-mix", "3", "60",
         "--count", "40", "--trace", str(trace_file)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0 and result["completed"] == 40 and not result["absent"]
    trace = json.loads(trace_file.read_text())
    spans = trace["spans"]
    assert trace["dropped"] == 0
    child = collections.Counter()
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_sum, root = collections.Counter(), collections.Counter()
    for i, (_, start, end, parent, req) in enumerate(spans):
        self_sum[req] += end - start - child[i]
        if parent < 0:
            root[req] += end - start
            assert trace["names"][spans[i][0]] == "cli.main"
    assert len(root) == 40
    assert self_sum == root
    layers = result["layers"]
    total_self = sum(v for k, (v, _) in layers.items() if k.endswith(".self_s"))
    assert abs(total_self - layers["cli.main.total_s"][0]) < 1e-6


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    units = {name: unit for name, (_, unit) in Tracer().metrics().items()}
    per_layer = {**{name: units[name] for name in run.PER_LAYER}, **run.OVERHEAD}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)


def test_digests_were_recorded_for_the_current_decks():
    for name in workloads.WORKLOADS:
        deck = workloads.deck(name, worker.DEFAULT_SEED)
        assert len(worker.load_digests(name, deck)) == len(deck)
