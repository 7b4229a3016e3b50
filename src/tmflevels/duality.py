"""Anderson self-duality classification for Tmf_1(n).

Finds the twist i with dualizing sheaf Omega^1 = omega^i (when it exists),
the resulting odd suspension shift l = 1 - 2i, and the C2-equivariant
refinement 5 - m*rho for odd levels.  Includes the degree-equality search
f(n) = 12 g(n) with its prime-power ratio table, and the Serre-Wyler dual
shift chain for the Hom(Tmf_1(3), -) module.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .cohomology import UNKNOWN, S1Table, s1
from .levels import STACKY_WEIGHTS, curve_invariants, dsum_f, dsum_g, factorize, is_prime

if TYPE_CHECKING:
    from fractions import Fraction

# Degree-equality levels (f(n) = 12 g(n)) whose weight-1 cusp space is known to
# be one-dimensional; among the six solutions only n=23 qualifies.
_DEGREE_EQUALITY_S1_ONE = frozenset({23})

REASON_GENUS0 = "genus0_degree"
REASON_GENUS1 = "genus1"
REASON_DEGREE_S1 = "degree_equality_plus_s1"
REASON_NONE = "none"


def twist(n: int, table: S1Table | None = None) -> int | None:
    """The integer i with Omega^1 = omega^i on X_1(n), or None.

    n <= 4: X_1(n) is the weighted projective line P(a, b) of
    ``STACKY_WEIGHTS``, whose dualizing sheaf is O(-a - b), so i = -a - b.
    Genus 0 (n >= 5): i = -2/deg(omega) when integral.  Genus 1: i = 0.
    Higher genus: i = 1 exactly when 2g-2 = deg(omega) and s1(n) = 1.  Those
    levels are ``degreecomp_solutions(42)`` (complete by
    ``self_dual_candidates``), so without s1 data for n the builtin knowledge
    decides.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n <= 4:
        a, b = STACKY_WEIGHTS[n]
        return -a - b
    inv = curve_invariants(n)
    if inv.genus == 0:
        q, r = divmod(-2, inv.deg_omega)
        return None if r else q
    if inv.genus == 1:
        return 0
    if inv.deg_omega != 2 * inv.genus - 2:
        return None
    s = s1(n, table)
    if s is not UNKNOWN:
        return 1 if s == 1 else None
    return 1 if n in _DEGREE_EQUALITY_S1_ONE else None


def degreecomp_solutions(limit: int) -> list[int]:
    """All n <= limit with f(n) = 12 g(n).

    Such n have g(n)/f(n) = 1/12, so they are among the self-dual candidates.
    """
    return [
        n for n in self_dual_candidates()
        if n <= limit and dsum_f(n) == 12 * dsum_g(n)
    ]


def ratio_table(p: int, k: int) -> Fraction:
    """Exact ratio g(p^k) / f(p^k) for a prime power."""
    from fractions import Fraction
    if not is_prime(p):
        raise ValueError("p must be prime")
    if k < 1:
        raise ValueError("k must be >= 1")
    q = p**k
    return Fraction(dsum_g(q), dsum_f(q))


def _next_prime(p: int) -> int:
    p += 1
    while not is_prime(p):
        p += 1
    return p


@lru_cache(maxsize=1)
def self_dual_candidates() -> tuple[int, ...]:
    """Every level n >= 1 with g(n)/f(n) >= 1/12, in increasing order.

    Only these levels can be self-dual, with f = dsum_f and g = dsum_g.
    Since genus = 1 + f/24 - g/4, genus <= 1 means f <= 6g; genus >= 2
    needs the twist i = 1, i.e. deg(omega) = f/24 = 2*genus - 2, which is
    f = 12g.  The levels n <= 4 have ratios 1, 2/3, 1/2 and 5/12.

    The list is finite and the search below finds all of it.  g/f is
    multiplicative, with prime-power factor

        r(p, k) = g(p^k)/f(p^k) = (2p + (k-1)(p-1)) / (p^k (p+1)).

    Going from k to k+1 adds p-1 to the numerator and multiplies the
    denominator by p; as the numerator is at least 2p, r(p, k+1) < r(p, k).
    So every factor is at most r(p, 1) = 2/(p+1) < 1, which decreases in p
    and is below 1/12 for p > 23.  Dropping prime-power factors from n
    therefore never lowers g/f: every candidate is reached by a chain of
    candidates, adding prime powers in increasing order of the prime.  The
    depth-first search grows each candidate by p^k for primes p above its
    largest prime factor, stops raising k once the ratio falls below 1/12,
    and stops raising p once even k = 1 does.

    The search carries g(n) and f(n) as integers, multiplying them by
    g(p^k) and f(p^k), and tests the ratio bound as 12*g >= f.
    """
    found = []

    def grow(n: int, g: int, f: int, p: int):
        found.append(n)
        while 12 * g * dsum_g(p) >= f * dsum_f(p):
            k = 1
            while 12 * (gk := g * dsum_g(p**k)) >= (fk := f * dsum_f(p**k)):
                grow(n * p**k, gk, fk, _next_prime(p))
                k += 1
            p = _next_prime(p)

    grow(1, 1, 1, 2)
    return tuple(sorted(found))


class DualityVerdict(NamedTuple):
    n: int
    twist: int | None
    self_dual: bool
    shift_l: int | None
    c2_shift: tuple[int, int] | None  # (c, d) meaning suspension by c + d*sigma
    reason: str


def verdict(n: int, table: S1Table | None = None) -> DualityVerdict:
    """Self-duality verdict: shift l = 1 - 2i and, for odd n >= 3, the
    RO(C2) refinement 5 - m*rho with m = (5-l)/2.

    The reason follows from the sign of the twist i, since
    deg Omega^1 = 2g - 2 = i * deg(omega) with deg(omega) > 0: i < 0 is
    genus 0 (every n <= 4 among them), i = 0 is genus 1, and i = 1 is the
    degree equality with s1 = 1."""
    i = twist(n, table)
    if i is None:
        return DualityVerdict(n, None, False, None, None, REASON_NONE)
    reason = REASON_GENUS0 if i < 0 else REASON_GENUS1 if i == 0 else REASON_DEGREE_S1
    l = 1 - 2 * i
    c2 = None
    if n >= 3 and n % 2 == 1:
        m = (5 - l) // 2
        c2 = (5 - m, -m)
        if c2[0] + c2[1] != l:
            raise ArithmeticError(f"C2 shift bookkeeping broken at n={n}")
    return DualityVerdict(n, i, True, l, c2, reason)


def duality_scan(limit: int, table: S1Table | None = None) -> list[DualityVerdict]:
    """All self-dual levels up to the limit, in increasing order.

    Only the levels of ``self_dual_candidates()`` can be self-dual, so only
    those up to the limit get a verdict; any limit costs at most 35 verdicts.
    """
    rows = []
    for n in self_dual_candidates():
        if n > limit:
            break
        v = verdict(n, table)
        if v.self_dual:
            rows.append(v)
    return rows


# RO(C2) degrees as (c, d) pairs meaning c + d*sigma; rho = 1 + sigma.
HOM_DUAL_COMPACTIFIED = (-14, 2)  # -16 + 2*rho
HOM_DUAL_PERIODIC = (-6, -6)  # -6*rho
U4_PERIOD = (8, -8)  # 16 - 8*rho, the u^4 periodicity


def hom_dual_shift() -> dict[str, tuple[int, int]]:
    """Suspension shifts of Hom(Tmf_1(3), -) against the level-structure module.

    The compactified shift is (-21) + (5 + 2*rho); adding one (16 - 8*rho)
    period gives the periodic shift -6*rho.
    """
    base = (-21, 0)
    anderson_13 = (5 + 2, 2)  # 5 + 2*rho = 7 + 2*sigma
    compact = (base[0] + anderson_13[0], base[1] + anderson_13[1])
    if compact != HOM_DUAL_COMPACTIFIED:
        raise ArithmeticError("compactified dual shift chain broken")
    periodic = (compact[0] + U4_PERIOD[0], compact[1] + U4_PERIOD[1])
    if periodic != HOM_DUAL_PERIODIC:
        raise ArithmeticError("periodic dual shift chain broken")
    return {"compactified": compact, "periodic": periodic}


def rho_string(shift: tuple[int, int]) -> str:
    """Render (c, d) = c + d*sigma in the x + y*rho basis."""
    c, d = shift
    x, y = c - d, d
    if y == 0:
        return str(x)
    rho = "rho" if abs(y) == 1 else f"{abs(y)}rho"
    sign = "+" if y > 0 else "-"
    if x == 0:
        return f"{'-' if y < 0 else ''}{rho}"
    return f"{x}{sign}{rho}"


def degree_equality_via_ratios(limit: int) -> list[int]:
    """Recompute the degree-equality set from prime-power ratio products.

    f(n) = 12 g(n) iff the product of g(p^k)/f(p^k) over the factorization
    equals 1/12; this is the multiplicativity cross-check.
    """
    from fractions import Fraction
    out = []
    target = Fraction(1, 12)
    for n in range(1, limit + 1):
        r = Fraction(1)
        for p, e in factorize(n):
            r *= ratio_table(p, e)
        if r == target:
            out.append(n)
    return out
