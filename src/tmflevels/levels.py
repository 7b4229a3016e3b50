"""Arithmetic of levels and congruence subgroups.

Degree, cusp and genus invariants of the modular curves X_1(n), the
multiplicative divisor sums behind them, the tameness predicate, and the
weighted-projective data replacing the curve invariants for n <= 4.  All
arithmetic is exact (int).
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from math import gcd
from typing import NamedTuple


class Kind(Enum):
    GAMMA1 = "Gamma1"
    GAMMA0 = "Gamma0"
    GAMMA_FULL = "GammaFull"
    INTERMEDIATE = "Intermediate"


# Entries kept by each of the factorize, dsum_f and dsum_g caches.  Bounded so
# that a long-lived process does not grow without limit; the largest working
# set the perfbench workloads reach is about 2,300 levels (cli-mix).
CACHE_SIZE = 4096


@lru_cache(maxsize=CACHE_SIZE)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization by trial division, as ((p, e), ...)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    result = n
    for p, _ in factorize(n):
        result -= result // p
    return result


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == ((n, 1),)


@lru_cache(maxsize=CACHE_SIZE)
def dsum_f(n: int) -> int:
    """f(n) = sum over d|n of d*phi(d)*phi(n/d); multiplicative, f(n) = d_n."""
    return sum(d * euler_phi(d) * euler_phi(n // d) for d in divisors(n))


@lru_cache(maxsize=CACHE_SIZE)
def dsum_g(n: int) -> int:
    """g(n) = sum over d|n of phi(d)*phi(n/d); multiplicative; equals 2*eps_infty."""
    return sum(euler_phi(d) * euler_phi(n // d) for d in divisors(n))


def degree_closed_form(n: int) -> int:
    """d_n = n^2 * prod over p|n of (1 - 1/p^2), evaluated exactly."""
    num = n * n
    for p, _ in factorize(n):
        num = num // (p * p) * (p * p - 1)
    return num


# Generator weights of the weighted projective lines replacing X_1(n), n <= 4.
STACKY_WEIGHTS = {1: (4, 6), 2: (2, 4), 3: (1, 3), 4: (1, 2)}


class StackyData(NamedTuple):
    n: int
    weights: tuple[int, int]


class CurveInvariants(NamedTuple):
    n: int
    d: int
    deg_omega: int | None
    cusps: int | None
    genus: int | None
    valid_for_curve: bool
    stacky: StackyData | None = None


def stacky_data(n: int) -> StackyData:
    if n not in STACKY_WEIGHTS:
        raise ValueError(f"no stacky model for n={n}; only n <= 4")
    return StackyData(n, STACKY_WEIGHTS[n])


def curve_invariants(n: int) -> CurveInvariants:
    """Degree, cusp count and genus of X_1(n); stacky data instead for n <= 4."""
    if n < 1:
        raise ValueError("n must be >= 1")
    d = dsum_f(n)
    if d != degree_closed_form(n):
        raise ArithmeticError(f"divisor sum and Euler product disagree at n={n}")
    if n <= 4:
        return CurveInvariants(n, d, None, None, None, False, stacky_data(n))
    # deg(omega) = d/24, cusps = g/2 and genus = 1 + d/24 - g/4 = (24 + d - 6g)/24.
    g = dsum_g(n)
    deg_omega, r_deg = divmod(d, 24)
    cusps, r_cusps = divmod(g, 2)
    genus, r_genus = divmod(24 + d - 6 * g, 24)
    if r_deg or r_cusps or r_genus:
        raise ArithmeticError(f"fractional curve invariant at n={n}")
    if genus < 0:
        raise ArithmeticError(f"negative genus at n={n}")
    return CurveInvariants(n, d, deg_omega, cusps, genus, True)


class _LevelFields(NamedTuple):
    n: int
    kind: Kind
    subgroup: tuple[int, ...] | None


class LevelSpec(_LevelFields):
    """A congruence subgroup of level n.

    For INTERMEDIATE kind, ``subgroup`` lists the unit residues mod n that cut
    out the group between Gamma1(n) and Gamma0(n) (identified via the
    determinant); it must contain 1 and be closed under multiplication mod n.
    It is kept sorted and reduced mod n.
    """

    __slots__ = ()

    def __new__(cls, n: int, kind: Kind, subgroup: tuple[int, ...] | None = None):
        if n < 1:
            raise ValueError("level must be >= 1")
        if kind is Kind.INTERMEDIATE:
            if not subgroup:
                raise ValueError("intermediate subgroup needs an explicit residue list")
            subgroup = tuple(sorted(r % n for r in subgroup))
            if 1 not in subgroup:
                raise ValueError("subgroup must contain 1")
            if len(set(subgroup)) != len(subgroup):
                raise ValueError("duplicate residues in subgroup")
            for r in subgroup:
                if gcd(r, n) != 1:
                    raise ValueError(f"residue {r} is not a unit mod {n}")
            for a in subgroup:
                for b in subgroup:
                    if (a * b) % n not in subgroup:
                        raise ValueError("residue list not closed under multiplication")
            if euler_phi(n) % len(subgroup) != 0:
                raise ValueError("subgroup order must divide phi(n)")
        elif subgroup is not None:
            raise ValueError("residue list only allowed for INTERMEDIATE kind")
        return super().__new__(cls, n, kind, subgroup)

    @classmethod
    def _make(cls, fields):  # what _replace calls: through the checks of __new__
        return cls(*fields)

    @property
    def index_over_gamma1(self) -> int:
        """[Gamma : Gamma1(n)]; equals phi(n) for Gamma0(n)."""
        if self.kind is Kind.GAMMA0:
            return euler_phi(self.n)
        if self.kind is Kind.INTERMEDIATE:
            return len(self.subgroup)
        return 1


def is_tame(spec: LevelSpec, l: int) -> bool:
    """Tameness of the congruence subgroup at the prime l.

    Requires n >= 2 and l not dividing n; groups strictly between Gamma1 and
    Gamma0 (and Gamma0 itself) additionally need l coprime to gcd(6, index).
    """
    if not is_prime(l):
        raise ValueError("l must be prime")
    if spec.n < 2 or spec.n % l == 0:
        return False
    if spec.kind in (Kind.GAMMA0, Kind.INTERMEDIATE):
        if gcd(6, spec.index_over_gamma1) % l == 0:
            return False
    return True
