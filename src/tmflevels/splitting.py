"""Suspension-shift multisets Q(t) for the module decompositions of Tmf_1(n).

Locally at 2 the module splits into shifted copies of the level-3 base
(ring weights 1,3), at 3 into copies of the level-2 base (weights 2,4), and
rationally into omega-powers (weights 4,6).  The multiplicity of the shift
by 2j is the t^j coefficient of

    Q(t) = H_n(t) * (1 - t^{e1})(1 - t^{e2}),

an exact polynomial division of Hilbert series that must leave no remainder
and no negative coefficient.  Torsion obstructions are invisible at this rank
level, so every output carries a torsion verdict alongside.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from . import _poly
from .cohomology import UNKNOWN, S1Table, hilbert_series
from .duality import twist
from .levels import euler_phi, is_prime


class Base(Enum):
    """Splitting bases, named by the local prime they serve."""

    L2 = (1, 3)  # 2-local; base ring generated in weights 1 and 3
    L3 = (2, 4)  # 3-local; base ring generated in weights 2 and 4
    RATIONAL = (4, 6)  # omega-power decomposition

    @property
    def exponents(self) -> tuple[int, int]:
        return self.value


BASE_FOR_PRIME = {2: Base.L2, 3: Base.L3, 0: Base.RATIONAL}

# Largest modulus of ``profile_mod``: the answer lists one sum per residue.
MAX_MOD = 10**6


def base_for_prime(l: int) -> Base:
    """Base serving the prime l; 0 and every prime > 3 mean the rational base."""
    if l in BASE_FOR_PRIME:
        return BASE_FOR_PRIME[l]
    if is_prime(l):
        return Base.RATIONAL
    raise ValueError(f"not a prime (or 0): {l}")


class ShiftPolynomial(NamedTuple):
    """Q(t) = sum_j l_j t^j; summand Sigma^{2j} (equivariantly Sigma^{j rho})
    of the base module occurs with multiplicity l_j."""

    base: Base
    coeffs: dict[int, int]

    def rank(self) -> int:
        """Q(1), the number of summands."""
        return sum(self.coeffs.values())

    def as_list(self) -> list[int]:
        if not self.coeffs:
            return []
        out = [0] * (max(self.coeffs) + 1)
        for j, c in self.coeffs.items():
            out[j] = c
        return out

    def degree(self) -> int:
        return max((j for j, c in self.coeffs.items() if c), default=0)


class NoSplitting(NamedTuple):
    n: int
    base: Base
    reason: str


class Torsion(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"


def torsion_condition(n: int, l: int) -> Torsion:
    """Whether pi_1 of the compactified level-n module is l-torsionfree.

    Builtin knowledge covers l=2 only: holds for n < 65, fails at n = 65.
    Anything else is Unknown.
    """
    if not is_prime(l):
        raise ValueError("l must be prime")
    if n % l == 0:
        raise ValueError(f"l={l} must not divide n={n}")
    if l == 2:
        if n < 65:
            return Torsion.HOLDS
        if n == 65:
            return Torsion.FAILS
    return Torsion.UNKNOWN


def _divide(numerator: list[int], den_exponents: tuple[int, ...],
            mul_exponents: tuple[int, int], n: int, base: Base):
    """num * prod(1-t^{e_mul}) / prod(1-t^{e_den}) as a ShiftPolynomial.

    Multiplying by 1 - t^e is a difference of stride e, taken from the top
    down; dividing by it is a running sum of stride e, which is the power
    series p / (1 - t^e).  That series is a polynomial, and the division
    exact, if and only if its last e terms vanish: from there on every term
    repeats one e places below it.
    """
    p = list(numerator)
    for e in mul_exponents:
        p += [0] * e
        for i in range(len(p) - 1, e - 1, -1):
            p[i] -= p[i - e]
    for e in den_exponents:
        for i in range(e, len(p)):
            p[i] += p[i - e]
        cut = max(len(p) - e, 0)
        if any(p[cut:]):
            return NoSplitting(n, base, "nonzero remainder in Hilbert division")
        del p[cut:]
    if any(c < 0 for c in p):
        return NoSplitting(n, base, "negative multiplicity in Hilbert quotient")
    return ShiftPolynomial(base, {j: c for j, c in enumerate(p) if c})


def shift_polynomial(n: int, base: Base, table: S1Table | None = None):
    """Shift multiset decomposing the level-n module over the given base.

    Preconditions: n >= 2, and for the local bases n must be coprime to the
    working prime (2 for L2, 3 for L3).  Unknown s1 propagates.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if base is Base.L2 and n % 2 == 0:
        raise ValueError(f"n={n} is not tame at the prime 2")
    if base is Base.L3 and n % 3 == 0:
        raise ValueError(f"n={n} is not tame at the prime 3")
    h = hilbert_series(n, table)
    if h is UNKNOWN:
        return UNKNOWN
    return _divide(list(h.numerator), h.denominator_exponents, base.exponents, n, base)


class Symmetry(Enum):
    SYMMETRIC = "symmetric"
    NOT_APPLICABLE = "not-applicable"


class RationalSplit(NamedTuple):
    poly: ShiftPolynomial
    symmetry: Symmetry
    twist: int | None


def rational_multiplicities(n: int, table: S1Table | None = None):
    """Omega-power multiplicities with the duality symmetry verdict.

    When a dualizing twist i exists, l_{10+i-j} = l_j is asserted exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    h = hilbert_series(n, table)
    if h is UNKNOWN:
        return UNKNOWN
    q = _divide(list(h.numerator), h.denominator_exponents, Base.RATIONAL.exponents,
                n, Base.RATIONAL)
    if isinstance(q, NoSplitting):
        return q
    i = twist(n, table)
    if i is None:
        return RationalSplit(q, Symmetry.NOT_APPLICABLE, None)
    coeffs = q.as_list()
    deg = 10 + i
    mirrored = [0] * (deg + 1)
    for j, c in enumerate(coeffs):
        if j > deg:
            raise ArithmeticError(f"twisted symmetry degree exceeded at n={n}")
        mirrored[deg - j] = c
    if _poly.trim(mirrored) != _poly.trim(coeffs):
        raise ArithmeticError(f"duality symmetry l_({deg}-j) = l_j fails at n={n}")
    return RationalSplit(q, Symmetry.SYMMETRIC, i)


def profile_mod(q: ShiftPolynomial, m: int) -> tuple[list[int], bool]:
    """Multiplicity totals per shift residue class mod m, plus an all-equal
    flag; a modulus above ``MAX_MOD`` is refused."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > MAX_MOD:
        raise ValueError(f"modulus {m} exceeds the bound {MAX_MOD}")
    sums = [0] * m
    for j, c in q.coeffs.items():
        sums[j % m] += c
    return sums, len(set(sums)) == 1


def c2_descent_applicable(n: int) -> bool:
    """Whether the fixed-point descent to the Gamma0 level applies: 4 must not
    divide phi(n).  Defined for odd n >= 3 only."""
    if n < 3 or n % 2 == 0:
        raise ValueError("defined for odd n >= 3 only")
    return euler_phi(n) % 4 != 0
