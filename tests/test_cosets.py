"""Level invariants of Gamma1(n) by coset enumeration, an oracle independent
of the divisor sums that ``curve_invariants`` evaluates.

The cosets of +-Gamma1(n) in SL2(Z) are the bottom rows (c, d) mod n of
order n, up to sign.  SL2(Z) acts on them from the right: S sends (c, d) to
(d, -c) and T sends (c, d) to (c, c + d).  The number of classes is the
index mu of +-Gamma1(n) in PSL2(Z); the classes fixed by S and by ST count
the elliptic points eps2 and eps3; the T-orbits are the cusps.  Then
12 g = 12 + mu - 3 eps2 - 4 eps3 - 6 eps_inf (Diamond and Shurman, A First
Course in Modular Forms, Thm 3.1.1).
"""

from functools import cache
from math import gcd
from typing import NamedTuple

from tmflevels.cohomology import rank_table
from tmflevels.levels import curve_invariants

LEVELS = range(5, 101)


class Cosets(NamedTuple):
    mu: int
    eps2: int
    eps3: int
    cusps: int
    genus: int


@cache
def cosets(n: int) -> Cosets:
    """The invariants of X_1(n) counted on the cosets of +-Gamma1(n)."""
    def cls(c, d):  # a row and its negative, as one class
        return min((c % n, d % n), (-c % n, -d % n))

    rows = {cls(c, d) for c in range(n) for d in range(n) if gcd(c, d, n) == 1}
    eps2 = sum(cls(d, -c) == (c, d) for c, d in rows)
    eps3 = sum(cls(d, d - c) == (c, d) for c, d in rows)  # (c, d) S T
    cusps, seen = 0, set()
    for row in rows:
        if row not in seen:
            cusps += 1
            c, d = row
            while (row := cls(c, d)) not in seen:
                seen.add(row)
                d += c
    genus, rest = divmod(12 + len(rows) - 3 * eps2 - 4 * eps3 - 6 * cusps, 12)
    assert rest == 0, n
    return Cosets(len(rows), eps2, eps3, cusps, genus)


def test_known_genera():
    # X_1(n) has genus 0 for n <= 10 and n = 12, 1 for 11, 14, 15, and 12 at 23
    for n, genus in ((5, 0), (10, 0), (11, 1), (12, 0), (13, 2), (14, 1), (15, 1), (23, 12)):
        assert cosets(n).genus == genus, n


def test_curve_invariants_match_the_cosets():
    for n in LEVELS:
        inv, found = curve_invariants(n), cosets(n)
        assert (found.eps2, found.eps3) == (0, 0), n
        assert inv.d == 2 * found.mu, n
        assert (inv.cusps, inv.genus) == (found.cusps, found.genus), n


def test_rank_table_matches_riemann_roch_on_the_cosets():
    # with eps2 = eps3 = 0: h0(k) = (k - 1)(g - 1) + k eps_inf / 2 for k >= 2
    for n in LEVELS:
        found, table = cosets(n), rank_table(n, (2, 12))
        for k in range(2, 13):
            assert 2 * table.h0[k] == 2 * (k - 1) * (found.genus - 1) + k * found.cusps, (n, k)
