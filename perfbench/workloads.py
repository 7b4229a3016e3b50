"""Seeded request decks for the benchmark workloads.

A deck is a list of rounds.  Every round of a workload asks for the same
costly work: the same subcommands, strategies, hfpss window extents, groups
and (up to a small jitter) scan sizes.  The seed draws what hardly changes
the cost: the order inside each round, output formats, which side of an
hfpss window is one longer, split primes, and the levels of the cheap
requests.  Two seeds therefore give different inputs with the same mix and
nearly the same cost, and a run that measures whole rounds measures the same
work whatever its seed.  A run cycles through its deck.

Each request carries the exit code the CLI must return and the parameters
the oracle needs.  The program sees only ``argv``.  Why each workload exists
and what it is sized to is written down in README.md.
"""

from __future__ import annotations

import itertools
import random
from math import prod
from typing import NamedTuple

# The CLI's level bound; point queries draw levels up to it.
MAX_LEVEL = 10**7
# Levels with builtin weight-1 cusp-form data.  Above it `split` has no s1
# data and must exit 1.
S1_BUILTIN_MAX = 23
HFPSS_RINGS = ("height2-laurent", "height2-poly", "height1-laurent")


class Request(NamedTuple):
    argv: tuple[str, ...]
    expect: int  # exit code the CLI must return
    params: dict  # what the oracle needs; "cmd" names the subcommand


def _argv(*parts) -> tuple[str, ...]:
    return tuple(str(p) for p in parts)


def invariants(n: int) -> Request:
    return Request(_argv("invariants", "--n", n), 0, {"cmd": "invariants", "n": n})


def chart(n: int, lo: int, hi: int, fmt: str) -> Request:
    argv = _argv("chart", "--n", n, "--range", f"{lo}..{hi}", "--format", fmt)
    return Request(argv, 0, {"cmd": "chart", "n": n, "range": (lo, hi), "format": fmt})


def split(n: int, prime: int, rho: bool = False, mod: int | None = None) -> Request:
    argv = ["split", "--n", n, "--prime", prime]
    if rho:
        argv.append("--rho")
    if mod is not None:
        argv += ["--mod", mod]
    not_tame = prime in (2, 3) and n % prime == 0
    expect = 1 if not_tame or n > S1_BUILTIN_MAX or (rho and prime != 2) else 0
    params = {"cmd": "split", "n": n, "prime": prime, "rho": rho, "mod": mod}
    return Request(_argv(*argv), expect, params)


def duality_point(n: int) -> Request:
    return Request(_argv("duality", "--n", n), 0, {"cmd": "duality", "n": n})


def duality_scan(limit: int, fmt: str) -> Request:
    argv = _argv("duality", "--scan", limit, "--format", fmt)
    return Request(argv, 0, {"cmd": "duality_scan", "scan": limit, "format": fmt})


def hfpss(ring: str, window: tuple[int, int, int], strategy: str, fmt: str,
          paired: bool = False) -> Request:
    """``paired``: the deck also asks for this window with the other single
    strategy, and the oracle runs that partner if the run did not reach it."""
    argv = _argv("hfpss", "--ring", ring, "--window", *window,
                 "--strategy", strategy, "--format", fmt)
    params = {"cmd": "hfpss", "ring": ring, "window": window,
              "strategy": strategy, "format": fmt, "paired": paired}
    return Request(argv, 0, params)


def factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division, as [(p, e), ...]."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _is_prime(p: int) -> bool:
    return p >= 2 and factor(p) == [(p, 1)]


def group_rank(orders) -> int:
    """Number of invariant factors of the product of the cyclic groups."""
    primes = {p for o in orders for p, _ in factor(o)}
    return max((sum(1 for o in orders if o % p == 0) for p in primes), default=0)


def equivariant(orders: tuple[int, ...], prime: int | None = None) -> Request:
    argv = ["equivariant", "--group", ",".join(str(o) for o in orders)]
    expect = 0
    if prime is not None:
        argv += ["--prime", prime]
        bad_prime = prime != 0 and (not _is_prime(prime) or prod(orders) % prime == 0)
        expect = 1 if group_rank(orders) > 1 or bad_prime else 0
    params = {"cmd": "equivariant", "orders": tuple(orders), "prime": prime}
    return Request(_argv(*argv), expect, params)


def _coprime_prime(rng: random.Random, n: int, choices=(0, 5, 7, 11, 13)) -> int:
    return rng.choice([p for p in choices if p == 0 or n % p])


def _cycle(rng: random.Random, items):
    """Endless draws that go through every item once, in a fresh random order,
    before any item repeats."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def _fmt(rng: random.Random) -> str:
    return "ascii" if rng.random() < 0.25 else "json"


def _window(rng: random.Random, extent: int) -> tuple[int, int, int]:
    """An hfpss window of the given extent with one side, drawn by the seed,
    one longer.  The chart has (2c+1)(2d+1)(f+1) cells, which grows by about
    the same factor whichever side it is, so the draw changes the window but
    hardly its cost."""
    sides = [extent] * 3
    sides[rng.randrange(3)] += 1
    return tuple(sides)


# --- hfpss-windows -----------------------------------------------------------
# (ring, extents of the `both` requests, extents of the fast/reference pairs)
# in one round.  A pair asks for one window and format with each strategy
# alone, so the oracle can compare the two outputs.  Thirteen requests, an odd
# number, put the median of a run's whole rounds inside one kind of request
# rather than on the edge between two.
HFPSS_ROUND = (
    ("height2-laurent", (6, 9), (5, 10)),
    ("height2-poly", (9, 13), (11,)),
    ("height1-laurent", (20,), (24,)),
)


def hfpss_rounds(rng: random.Random):
    while True:
        rnd = []
        for ring, both, pairs in HFPSS_ROUND:
            rnd += [hfpss(ring, _window(rng, e), "both", _fmt(rng)) for e in both]
            for e in pairs:
                w, fmt = _window(rng, e), _fmt(rng)
                rnd.append(hfpss(ring, w, "fast", fmt, paired=True))
                rnd.append(hfpss(ring, w, "reference", fmt, paired=True))
        yield rnd


# --- level-scan --------------------------------------------------------------
SCAN_SIZES = (20000, 40000)  # the scans of a round; the seed adds [0, SCAN_JITTER)
SCAN_JITTER = 2000
POINTS_PER_ROUND = 5  # each of `duality --n` and `invariants --n`


def level_scan_rounds(rng: random.Random):
    while True:
        rnd = [duality_scan(n + rng.randrange(SCAN_JITTER), rng.choice(("json", "table")))
               for n in SCAN_SIZES]
        for _ in range(POINTS_PER_ROUND):
            rnd.append(duality_point(rng.randint(1, MAX_LEVEL)))
            rnd.append(invariants(rng.randint(1, MAX_LEVEL)))
        yield rnd


# --- equivariant-groups ------------------------------------------------------
# One request per group and round.  Single requests at the seed commit (2
# CPUs): rank-2/3 groups 15-380 ms, cyclic splits 10-200 ms.  Orders are
# capped so that no request takes more than about half a second.  The cyclic
# orders have at least seven divisors in 2..23, the levels with s1 data, so
# that `--prime` splits do real splitting work at each of them.
EQUIV_GROUPS = ((6, 6), (15, 3), (4, 4, 2), (8, 2, 2), (3, 3, 3),
                (4, 4), (9, 3), (14, 2), (16, 2), (5, 5), (4, 2, 2), (6, 2, 2), (2, 2, 2, 2))
EQUIV_CYCLIC = (36, 60, 72, 96, 120, 144, 168, 180)
EQUIV_PLAIN = 2  # cyclic groups per round asked for without `--prime`


def equivariant_rounds(rng: random.Random):
    while True:
        rnd = [equivariant(g) for g in EQUIV_GROUPS]
        plain = set(rng.sample(EQUIV_CYCLIC, EQUIV_PLAIN))
        rnd += [equivariant((n,), None if n in plain else _coprime_prime(rng, n))
                for n in EQUIV_CYCLIC]
        yield rnd


# --- cli-mix -----------------------------------------------------------------
SELF_DUAL_SAMPLE = (1, 2, 3, 4, 5, 6, 7, 8, 11, 14, 15, 23)
TINY_GROUPS = ((2, 2), (3, 3), (4, 2), (2, 2, 2), (6,), (12,), (30,), (2, 3))
# (ring, extent, strategy) of the one hfpss request in each block of a round.
CLI_MIX_HFPSS = (
    ("height2-laurent", 5, "fast"),
    ("height2-poly", 7, "fast"),
    ("height1-laurent", 4, "both"),
    ("height2-poly", 3, "reference"),
)


def cli_mix_rounds(rng: random.Random):
    groups = _cycle(rng, TINY_GROUPS)  # two per block: each group once a round
    while True:
        rnd = []
        for ring, extent, strategy in CLI_MIX_HFPSS:
            rnd += [
                invariants(rng.randint(1, 30)),
                invariants(rng.randint(31, 10**4)),
                invariants(rng.randint(10**4, MAX_LEVEL)),
            ]
            for fmt in ("json", "ascii", "svg"):
                for n in (rng.choice(SELF_DUAL_SAMPLE), rng.randint(1, 60)):
                    rnd.append(chart(n, rng.randint(-24, 0), rng.randint(0, 24), fmt))
            for prime in (0, 2, 3, 2, 0):
                rho = rng.random() < (0.5 if prime == 2 else 0.1)
                mod = rng.randint(2, 6) if rng.random() < 0.4 else None
                rnd.append(split(rng.randint(2, 30), prime, rho, mod))
            rnd += [
                duality_point(rng.randint(1, 30)),
                duality_point(rng.randint(1, 60)),
                duality_point(rng.randint(61, 10**5)),
            ]
            for _ in range(2):
                prime = rng.choice((0, 2, 3, 5, 7)) if rng.random() < 0.5 else None
                rnd.append(equivariant(next(groups), prime))
            rnd.append(hfpss(ring, _window(rng, extent), strategy, _fmt(rng)))
        yield rnd


# name -> (round generator, rounds per deck, tail percentile).  The tail
# percentile is the highest whole one that leaves at least ten samples beyond
# it at the fewest whole rounds seen in a run at the seed commit, except on
# level-scan: there p91-p93 sit where the 20000 and the 40000 scans meet, and
# jump from one to the other as the number of rounds changes.  README.md has
# the counts.
WORKLOADS = {
    "hfpss-windows": (hfpss_rounds, 24, 95),
    "level-scan": (level_scan_rounds, 16, 90),
    "equivariant-groups": (equivariant_rounds, 12, 94),
    "cli-mix": (cli_mix_rounds, 32, 99),
}


def deck(workload: str, seed: int) -> list[Request]:
    """The request list of one workload and seed, rounds in order."""
    rounds, count, _ = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    out = []
    for rnd in itertools.islice(rounds(rng), count):
        rng.shuffle(rnd)
        out.extend(rnd)
    return out


def round_length(workload: str) -> int:
    """Requests per round; every round of a workload has as many."""
    return len(next(WORKLOADS[workload][0](random.Random(0))))
