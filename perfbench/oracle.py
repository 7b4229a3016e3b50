"""Correctness oracle for benchmark requests.

Every check runs outside the timed region and uses only the benchmark's own
arithmetic, never the program's, so that it cannot warm the program's caches
or share its bugs.  Checks per output:

* the exit code is the one the request expects, and a failed request prints
  nothing on stdout;
* every JSON output parses with floats refused (the no-float rule);
* facts that hold independently of the implementation (see ``_check_*``);
* for the default seed, a digest of (exit code, stdout) equal to the one
  recorded at the seed commit (``digests/<workload>.txt``);
* hfpss ``fast`` and ``reference`` answers on one window are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from math import gcd, prod

from workloads import Request, factor, hfpss

# Dualizing twists i of the self-dual levels (PAPER.md): the weighted projective
# lines P(4,6), P(2,4), P(1,3), P(1,2) for n <= 4 have i = -(a+b); genus-0
# levels have i = -2/deg(omega) where integral (n = 5..8); genus-1 levels
# have i = 0; n = 23 is the one degree-equality level with s1 = 1, i = 1.
SELF_DUAL_TWIST = {1: -10, 2: -6, 3: -4, 4: -3, 5: -2, 6: -2, 7: -1, 8: -1,
                   11: 0, 14: 0, 15: 0, 23: 1}
SELF_DUAL_SHIFT = {n: 1 - 2 * i for n, i in SELF_DUAL_TWIST.items()}
STACKY_WEIGHTS = {1: [4, 6], 2: [2, 4], 3: [1, 3], 4: [1, 2]}
S1_BUILTIN_MAX = 23
# e1 * e2 of the splitting base serving each prime (0 and primes > 3: rational).
BASE_NAME = {2: "L2", 3: "L3", 0: "RATIONAL"}
BASE_E1E2 = {2: 1 * 3, 3: 2 * 4, 0: 4 * 6}
HFPSS_GROUPS = {"Z", "Z_div2", "Z/2"}


class CheckFailure(Exception):
    pass


def _reject_float(text):
    raise CheckFailure(f"non-integer number {text!r} in JSON output")


def parse_json(text: str):
    try:
        return json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"output is not JSON: {exc}") from None


def digest(rc, text: str) -> str:
    return hashlib.sha256(f"{rc}\n{text}".encode("utf-8")).hexdigest()[:16]


def divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factor(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def degree(n: int) -> int:
    """d_n = n^2 * prod over p | n of (1 - 1/p^2)."""
    d = 1
    for p, e in factor(n):
        d *= p ** (2 * e - 2) * (p * p - 1)
    return d


def subgroup_count(m: int, n: int) -> int:
    """Number of subgroups of Z/m x Z/n (Hampejs, Holighaus, Toth, Wiesmeyr)."""
    return sum(gcd(a, b) for a in divisors(m) for b in divisors(n))


def _expect(cond: bool, what: str):
    if not cond:
        raise CheckFailure(what)


def _check_invariants(p, text):
    obj = parse_json(text)
    n = p["n"]
    _expect(obj["n"] == n and obj["d"] == degree(n), "degree d_n")
    _expect(obj["curve"] == (n > 4), "curve flag")
    if n > 4:
        _expect(24 * obj["deg_omega"] == obj["d"], "deg(omega) = d_n/24")
        _expect(2 * obj["genus"] == 2 + 2 * obj["deg_omega"] - obj["cusps"], "genus formula")
    else:
        _expect(obj["stacky_weights"] == STACKY_WEIGHTS[n], "stacky weights")


def _rank_by_stem(entries) -> dict[int, int]:
    ranks: dict[int, int] = {}
    for e in entries:
        ranks[e["stem"]] = ranks.get(e["stem"], 0) + e["rank"]
    return ranks


def _check_chart(p, text):
    n, (lo, hi), fmt = p["n"], p["range"], p["format"]
    if fmt == "ascii":
        lines = text.split("\n")
        _expect(len(lines) == 5 and lines[-1] == "", "ascii chart has four lines")
        _expect([int(s) for s in lines[3].split()] == list(range(lo, hi + 1)), "ascii stem axis")
        return
    if fmt == "svg":
        _expect(text.startswith("<svg ") and text.endswith("</svg>\n"), "svg envelope")
        _expect(text.count("<rect ") == 2 * (hi - lo + 1), "svg grid cells")
        return
    obj = parse_json(text)
    _expect(obj["n"] == n and obj["range"] == [lo, hi], "chart header")
    entries = obj["entries"]
    _expect(all(lo <= e["stem"] <= hi and e["rank"] >= 0 for e in entries), "entries in range")
    marked = {e["stem"] for e in entries if e["marker"] == "needs_s1"}
    expected = {1, 2} & set(range(lo, hi + 1)) if n > S1_BUILTIN_MAX else set()
    _expect(marked == expected, "needs_s1 markers exactly at stems 1 and 2 without s1 data")
    if n in SELF_DUAL_SHIFT:
        l, ranks = SELF_DUAL_SHIFT[n], _rank_by_stem(entries)
        for m in range(lo, hi + 1):
            if lo <= -m - l <= hi:
                _expect(ranks.get(m, 0) == ranks.get(-m - l, 0),
                        f"Anderson symmetry rank pi_{m} = rank pi_{-m - l}")


def _check_split(p, text):
    obj = parse_json(text)
    n, prime = p["n"], p["prime"]
    _expect(obj["base"] == BASE_NAME[prime], "splitting base")
    rank, frac = divmod(degree(n) * BASE_E1E2[prime], 24)
    _expect(frac == 0 and obj["rank_check"] == rank, "rank_check = d_n e1 e2 / 24")
    coeffs = {int(j): c for j, c in obj["coeffs"].items()}
    _expect(all(c > 0 for c in coeffs.values()) and sum(coeffs.values()) == rank,
            "shift multiplicities sum to the rank")
    if p["rho"]:
        _expect(obj["rho_shifts"] == obj["coeffs"], "rho shifts")
    if p["mod"] is not None:
        m = p["mod"]
        sums = [0] * m
        for j, c in coeffs.items():
            sums[j % m] += c
        prof = obj["profile_mod"]
        _expect(prof == {"m": m, "sums": sums, "equal": len(set(sums)) == 1}, "profile mod m")


def _check_duality(p, text):
    obj = parse_json(text)
    n = p["n"]
    _expect(obj["n"] == n and obj["self_dual"] == (n in SELF_DUAL_SHIFT), "self-dual set")
    if n in SELF_DUAL_SHIFT:
        _expect(obj["l"] == SELF_DUAL_SHIFT[n] and obj["twist"] == SELF_DUAL_TWIST[n],
                "shift l = 1 - 2i")
        if n >= 3 and n % 2:
            _expect(sum(obj["c2_shift"]) == obj["l"], "C2 shift restricts to l")
    else:
        _expect(obj["l"] is None and obj["c2_shift"] is None, "no shift off the set")


def _check_duality_scan(p, text):
    limit = p["scan"]
    rows = [(n, l) for n, l in sorted(SELF_DUAL_SHIFT.items()) if n <= limit]
    if p["format"] == "table":
        lines = text.rstrip("\n").split("\n")
        _expect(lines[0] == "n   l", "scan table header")
        got = [tuple(int(x) for x in line.split()) for line in lines[1:]]
    else:
        obj = parse_json(text)
        _expect(obj["scan"] == limit, "scan limit")
        got = [(r["n"], r["l"]) for r in obj["rows"]]
    _expect(got == rows, "scan rows equal the self-dual set {1..8, 11, 14, 15, 23}")


def _check_equivariant(p, text):
    obj = parse_json(text)
    orders, prime = p["orders"], p["prime"]
    comps = obj["components"]
    _expect(all(len(c["quotient"]) <= 2 and c["multiplicity"] >= 1 for c in comps),
            "components have 2-generated quotients")
    if len(orders) <= 2:
        m, n = (orders + (1,))[:2]
        _expect(sum(c["multiplicity"] for c in comps) == subgroup_count(m, n),
                "multiplicities sum to the subgroup count of Z/m x Z/n")
    if prime is None:
        _expect("split" not in obj, "no split without --prime")
        return
    n = prod(orders)
    e1e2 = BASE_E1E2.get(prime, 24)
    split = obj["split"]
    _expect(split["unit"] == 1, "one unit copy")
    _expect([d["divisor"] for d in split["divisors"]] == divisors(n)[1:], "one part per divisor")
    for part in split["divisors"]:
        k = part["divisor"]
        rank, frac = divmod(degree(k) * e1e2, 24)
        _expect(frac == 0 and part["expected_rank"] == rank, "expected_rank = d_k e1 e2 / 24")
        if k > S1_BUILTIN_MAX:
            _expect(part["status"] == "unknown_s1" and part["coeffs"] is None, "unknown s1")
        else:
            _expect(part["status"] == "ok" and sum(part["coeffs"].values()) == rank,
                    "divisor multiplicities sum to expected_rank")


def _check_hfpss(p, text):
    c, d, f = p["window"]
    if p["format"] == "ascii":
        lines = text.split("\n")
        _expect(len(lines) == 2 * d + 4 and lines[-1] == "", "ascii rows")
        _expect(all(lines[i].startswith(f"{d - i:>4} |") for i in range(2 * d + 1)), "ascii row labels")
        return
    obj = parse_json(text)
    _expect(obj["ring"] == p["ring"] and obj["window"] == [c, d, f], "chart header")
    keys = [(e["c"], e["d"]) for e in obj["entries"]]
    _expect(keys == sorted(set(keys)), "entries sorted and unique")
    _expect(all(abs(x) <= c and abs(y) <= d for x, y in keys), "entries inside the window")
    for e in obj["entries"]:
        _expect(all(0 <= s <= f and g in HFPSS_GROUPS and (g == "Z/2") == (s > 0) and m >= 1
                    for s, g, m in e["classes"]),
                "classes have filtration <= f, Z/2 exactly above filtration 0, positive count")


CHECKS = {
    "invariants": _check_invariants,
    "chart": _check_chart,
    "split": _check_split,
    "duality": _check_duality,
    "duality_scan": _check_duality_scan,
    "equivariant": _check_equivariant,
    "hfpss": _check_hfpss,
}


class Oracle:
    """Checks the outputs of one run; ``failures`` lists what went wrong."""

    def __init__(self, recorded: list[str] | None = None):
        self.recorded = recorded
        self.failures: list[str] = []
        self._hfpss: dict[tuple, dict[str, set[str]]] = {}
        self._paired: dict[tuple, bool] = {}

    def check(self, req: Request, rc, text: str, index: int | None = None) -> bool:
        """Check one response; ``index`` is the request's place in the deck."""
        try:
            _expect(rc == req.expect, f"exit code {rc}, expected {req.expect}")
            if rc != 0:
                _expect(text == "", "a failed request printed to stdout")
            else:
                CHECKS[req.params["cmd"]](req.params, text)
            dig = digest(rc, text)
            if self.recorded is not None and index is not None:
                _expect(self.recorded[index] == dig, "digest differs from the seed commit")
            if req.params["cmd"] == "hfpss":
                p = req.params
                key = (p["ring"], p["window"], p["format"])
                self._hfpss.setdefault(key, {}).setdefault(p["strategy"], set()).add(dig)
                self._paired[key] = self._paired.get(key, False) or p["paired"]
        except (CheckFailure, AttributeError, KeyError, TypeError, ValueError) as exc:
            reason = exc if isinstance(exc, CheckFailure) else f"malformed output ({exc!r})"
            self.failures.append(f"{' '.join(req.argv)}: {reason}")
            return False
        return True

    def missing_partners(self) -> list[Request]:
        """The partners of paired hfpss requests that the run did not reach."""
        out = []
        for (ring, window, fmt), by_strategy in self._hfpss.items():
            have = {"fast", "reference"} & set(by_strategy)
            if len(have) == 1 and self._paired.get((ring, window, fmt)):
                other = ({"fast", "reference"} - have).pop()
                out.append(hfpss(ring, window, other, fmt, paired=True))
        return out

    def strategy_disagreements(self) -> int:
        """Windows whose strategies printed different bytes; each is one failure."""
        bad = 0
        for key, by_strategy in self._hfpss.items():
            if len(set().union(*by_strategy.values())) > 1:
                self.failures.append(f"hfpss {key}: strategies disagree")
                bad += 1
        return bad
