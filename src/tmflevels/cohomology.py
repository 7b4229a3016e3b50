"""Exact rank tables for the line bundles omega^k on X_1(n).

h0(k) = dim H^0(X_1(n); omega^k) and h1(k) = dim H^1(X_1(n); omega^k) are
pinned down by Riemann-Roch and Serre duality in every weight except k = 1,
where the cusp-form dimension s1 enters as external data.  The graded ring of
modular forms is packaged as a rational Hilbert series.

Weight-1 entries with missing s1 data are reported as Unknown, never as a
silent zero.
"""

from __future__ import annotations

import functools
import warnings
from importlib import resources
from typing import NamedTuple

from .levels import STACKY_WEIGHTS, curve_invariants


class _Unknown:
    """Singleton marker for values that require external s1 data."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Unknown"

    def __bool__(self):
        raise TypeError("Unknown is not a truth value; test with 'is UNKNOWN'")


UNKNOWN = _Unknown()

BUILTIN = "builtin"
USER = "user"


class _S1Fields(NamedTuple):
    values: dict[int, int]
    provenance: dict[int, str]


class S1Table(_S1Fields):
    """Dimensions of weight-1 cusp forms for Gamma1(n), keyed by level;
    ``S1Table()`` is an empty table with dicts of its own."""

    __slots__ = ()

    def __new__(cls, values=None, provenance=None):
        return super().__new__(cls, {} if values is None else values,
                               {} if provenance is None else provenance)

    def lookup(self, n: int):
        return self.values.get(n, UNKNOWN)


@functools.lru_cache(maxsize=1)
def builtin_s1_table() -> S1Table:
    """The packaged table: the header ``n,s1``, then rows of two integers."""
    text = resources.files(__package__).joinpath("s1_builtin.csv").read_text("utf-8")
    values = {}
    for line in text.splitlines()[1:]:
        n, v = line.split(",")
        values[int(n)] = int(v)
    return S1Table(values, dict.fromkeys(values, BUILTIN))


def load_s1_table(path=None) -> S1Table:
    """Builtin table, optionally overridden entry-by-entry from a user CSV.

    The file format is a UTF-8 CSV with header ``n,s1`` and no quoting.  A user
    entry that conflicts with a builtin value triggers a warning and wins.  A
    row that is not two integers, or whose level is below 1 or on an earlier
    row, raises ValueError naming the file and line.
    """
    base = builtin_s1_table()
    if path is None:
        return base
    import csv
    values = dict(base.values)
    prov = dict(base.provenance)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["n", "s1"]:
            raise ValueError(f"s1 file {path}: header must be exactly 'n,s1'")
        for row in reader:
            where = f"s1 file {path}: line {reader.line_num}"
            if row["s1"] is None:
                raise ValueError(f"{where} has no s1 value")
            if None in row:  # DictReader files fields past the header under None
                raise ValueError(f"{where} has more than two fields")
            try:
                n, v = int(row["n"]), int(row["s1"])
            except ValueError:
                raise ValueError(f"{where} has a value that is not an integer") from None
            if n < 1:
                raise ValueError(f"{where} has level {n}, below 1")
            if prov.get(n) == USER:
                raise ValueError(f"{where} repeats level {n}")
            if v < 0:
                raise ValueError(f"s1 file {path}: negative value for n={n}")
            if n in values and prov[n] == BUILTIN and values[n] != v:
                warnings.warn(
                    f"user s1 value for n={n} ({v}) overrides builtin ({values[n]})"
                )
            values[n] = v
            prov[n] = USER
    return S1Table(values, prov)


def s1(n: int, table: S1Table | None = None):
    """Weight-1 cusp-form dimension for Gamma1(n), or UNKNOWN."""
    if n < 1:
        raise ValueError("n must be >= 1")
    table = table or builtin_s1_table()
    return table.lookup(n)


class RankTable(NamedTuple):
    """h^0/h^1 ranks of omega^k over an inclusive weight window.

    When ``needs_s1`` is set, the weight-1 entries are incomplete: ``h0[1]``
    holds only the Eisenstein part and ``h1[1]`` is absent.
    """

    n: int
    window: tuple[int, int]
    h0: dict[int, int]
    h1: dict[int, int]
    needs_s1: bool = False

    def h0_rank(self, k: int):
        if self.needs_s1 and k == 1:
            return UNKNOWN
        return self.h0[k]

    def h1_rank(self, k: int):
        if self.needs_s1 and k == 1:
            return UNKNOWN
        return self.h1[k]


def stacky_h0(weights: tuple[int, int], k: int) -> int:
    """Number of monomial solutions a*i + b*j = k with i, j >= 0, counted, not
    enumerated: whether a divides k - b*j depends only on j mod a, so each
    class of j mod a that solves it adds its members in 0..k // b."""
    a, b = weights
    return sum(len(range(j, k // b + 1, a)) for j in range(a) if (k - b * j) % a == 0)


def rank_table(n: int, window: tuple[int, int], table: S1Table | None = None) -> RankTable:
    """Exact h0/h1 table for X_1(n) on an inclusive weight window."""
    lo, hi = window
    if lo > hi:
        return RankTable(n, window, {}, {})
    ks = range(lo, hi + 1)
    if n <= 4:
        a, b = STACKY_WEIGHTS[n]
        h0 = {k: stacky_h0((a, b), k) for k in ks}
        h1 = {k: stacky_h0((a, b), -a - b - k) for k in ks}
        return RankTable(n, window, h0, h1)

    inv = curve_invariants(n)
    g, degw, eps = inv.genus, inv.deg_omega, inv.cusps
    if eps % 2 != 0:
        raise ArithmeticError(f"odd cusp count at n={n}")
    eis = eps // 2
    s1n = s1(n, table)
    needs = s1n is UNKNOWN

    h0: dict[int, int] = {}
    h1: dict[int, int] = {}
    for k in ks:
        if k < 0:
            h0[k] = 0
            h1[k] = max(0, g - 1 - k * degw)
        elif k == 0:
            h0[k] = 1
            h1[k] = g
        elif k == 1:
            h0[k] = eis + (0 if needs else s1n)
            if not needs:
                h1[k] = s1n
        else:
            h0[k] = k * degw + 1 - g
            h1[k] = 0
    return RankTable(n, window, h0, h1, needs_s1=needs and lo <= 1 <= hi)


class HilbertSeries(NamedTuple):
    """Generating function sum_k h0(k) t^k as numerator / prod (1 - t^{e_i})."""

    numerator: tuple[int, ...]
    denominator_exponents: tuple[int, int]


def hilbert_series(n: int, table: S1Table | None = None):
    """Hilbert series of the graded modular-forms ring for Gamma1(n).

    Returns UNKNOWN when the weight-1 dimension is not available.  For the
    curve case the numerator is the second difference of h0 on weights 0..3,
    which must vanish from weight 4 on (checked).
    """
    if n <= 4:
        return HilbertSeries((1,), STACKY_WEIGHTS[n])
    if s1(n, table) is UNKNOWN:  # the window below holds weight 1
        return UNKNOWN
    rt = rank_table(n, (-2, 8), table)
    dims = {k: rt.h0[k] for k in range(-2, 9)}
    num = [dims[k] - 2 * dims[k - 1] + dims[k - 2] for k in range(0, 9)]
    for k in range(4, 9):
        if num[k] != 0:
            raise ArithmeticError(f"Hilbert numerator not supported on 0..3 at n={n}, k={k}")
    from . import _poly
    return HilbertSeries(tuple(_poly.trim(num[:4])), (1, 1))
