"""Finite-abelian bookkeeping for fixed points of equivariant TMF.

The fixed points for a finite abelian G split into one moduli component per
subgroup K whose quotient G/K needs at most two generators (embeds in
(Z/|G|)^2).  `components` counts these subgroups per quotient type with
Birkhoff's formula, prime by prime, and never lists a subgroup.  The
element-set enumeration `subgroups` with `quotient_invariant_factors` is kept
as the independent oracle the tests compare it against.  For cyclic G the
per-divisor splitting into shift polynomials is assembled from the splitting
module.
"""

from __future__ import annotations

from itertools import product
from math import gcd, prod
from typing import NamedTuple

from .cohomology import S1Table
from .levels import divisors, dsum_f, factorize
from .splitting import base_for_prime, shift_polynomial

MAX_ORDER = 10**4


class _AbelianFields(NamedTuple):
    factors: tuple[int, ...]


class FiniteAbelian(_AbelianFields):
    """Invariant-factor form [n_1, ..., n_r] with n_{i+1} | n_i."""

    __slots__ = ()

    def __new__(cls, factors: tuple[int, ...]):
        for f in factors:
            if f < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(factors, factors[1:]):
            if a % b != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        return super().__new__(cls, factors)

    @classmethod
    def _make(cls, fields):  # what _replace calls: through the checks of __new__
        return cls(*fields)

    @staticmethod
    def _primary_types(orders) -> dict[int, list[int]]:
        """p -> exponents of the p-primary cyclic factors, largest first."""
        if any(o < 1 for o in orders):  # before factorizing any of them
            raise ValueError("cyclic orders must be >= 1")
        primary: dict[int, list[int]] = {}
        for o in orders:
            for p, e in factorize(o):
                primary.setdefault(p, []).append(e)
        for exps in primary.values():
            exps.sort(reverse=True)
        return primary

    @classmethod
    def from_orders(cls, orders) -> "FiniteAbelian":
        """Normalize an arbitrary list of cyclic orders to invariant factors."""
        primary = cls._primary_types(orders)
        rank = max((len(v) for v in primary.values()), default=0)
        factors = []
        for i in range(rank):
            factors.append(prod(p ** exps[i] for p, exps in primary.items() if i < len(exps)))
        return cls(tuple(factors))

    @property
    def primary_types(self) -> dict[int, list[int]]:
        """The type (a partition) of the Sylow p-subgroup, for each p | |G|."""
        return self._primary_types(self.factors)

    @property
    def order(self) -> int:
        return prod(self.factors) if self.factors else 1

    @property
    def rank(self) -> int:
        return len(self.factors)

    def elements(self) -> list[tuple[int, ...]]:
        return list(product(*(range(f) for f in self.factors)))

    def add(self, x, y) -> tuple[int, ...]:
        return tuple((a + b) % f for a, b, f in zip(x, y, self.factors))

    @property
    def zero(self) -> tuple[int, ...]:
        return tuple(0 for _ in self.factors)


def subgroups(G: FiniteAbelian) -> list[frozenset]:
    """All subgroups as element sets, deterministic order, complete and
    duplicate-free.  Bounded at |G| <= 10^4."""
    if G.order > MAX_ORDER:
        raise ValueError(f"group order {G.order} exceeds the bound {MAX_ORDER}")
    if G.rank <= 1:
        # cyclic fast path: exactly one subgroup per divisor
        n = G.order
        if n == 1:
            return [frozenset({G.zero})]
        return sorted(
            (frozenset((i,) for i in range(0, n, n // d)) for d in divisors(n)),
            key=lambda s: (len(s), sorted(s)),
        )

    elements = G.elements()
    trivial = frozenset({G.zero})
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for H in frontier:
            for g in elements:
                if g in H:
                    continue
                closure = set(H)
                queue = [g]
                while queue:
                    x = queue.pop()
                    if x in closure:
                        continue
                    closure.add(x)
                    queue.extend(G.add(x, h) for h in list(closure))
                Hg = frozenset(closure)
                if Hg not in seen:
                    seen.add(Hg)
                    nxt.append(Hg)
        frontier = nxt
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def quotient_invariant_factors(G: FiniteAbelian, K: frozenset) -> tuple[int, ...]:
    """Invariant factors of G/K, read off from element-order counts."""
    reps: dict[frozenset, tuple[int, ...]] = {}
    coset_of: dict[tuple[int, ...], frozenset] = {}
    for x in G.elements():
        coset = frozenset(G.add(x, k) for k in K)
        coset_of[x] = coset
        reps.setdefault(coset, x)
    if len(reps) == 1:
        return ()
    zero_coset = coset_of[G.zero]

    def order_of(coset) -> int:
        x = reps[coset]
        y, o = x, 1
        while coset_of[y] != zero_coset:
            y = G.add(y, x)
            o += 1
        return o

    orders = [order_of(c) for c in reps]
    exponent = 1
    for o in orders:
        exponent = exponent * o // gcd(exponent, o)
    # per prime p: #(cosets killed by p^k) = p^{sum_i min(k, e_i)}, which pins
    # the exponent multiset {e_i} of the p-primary part
    per_prime: dict[int, list[int]] = {}
    for p, emax in factorize(exponent):
        counts = [sum(1 for o in orders if p**k % o == 0) for k in range(emax + 1)]
        heights = []
        for k in range(1, emax + 1):
            ratio, log_jump = counts[k] // counts[k - 1], 0
            while ratio > 1:
                ratio //= p
                log_jump += 1
            heights.append(log_jump)  # number of factors with e_i >= k
        per_prime[p] = [sum(1 for h in heights if h > i) for i in range(heights[0])]
    rank = max(len(v) for v in per_prime.values())
    return tuple(
        prod(p ** exps[i] for p, exps in per_prime.items() if i < len(exps))
        for i in range(rank)
    )


class Component(NamedTuple):
    quotient: tuple[int, ...]
    label: str
    multiplicity: int


def _label(quotient: tuple[int, ...]) -> str:
    if not quotient:
        return "M_ell"
    if len(quotient) == 1:
        return f"M1({quotient[0]})"
    return f"M^({quotient[0]},{quotient[1]})"


def _conjugate(parts, length: int) -> list[int]:
    """[parts'_1, ..., parts'_length]: parts'_i = #{j : parts_j >= i}."""
    return [sum(1 for x in parts if x > i) for i in range(length)]


def _gaussian_binomial(n: int, k: int, p: int) -> int:
    """[n choose k]_p, the number of k-dimensional subspaces of F_p^n."""
    num = den = 1
    for j in range(k):
        num *= p ** (n - j) - 1
        den *= p ** (j + 1) - 1
    return num // den


def birkhoff_count(lam, mu, p: int) -> int:
    """Number of subgroups of type mu in the abelian p-group of type lam.

    Partitions are exponent lists, largest first (trailing zeros allowed),
    with mu contained in lam.  Birkhoff's formula (Birkhoff 1935; Butler,
    Mem. AMS 539, 1994; Macdonald, Symmetric Functions and Hall Polynomials,
    ch. II), with ' the conjugate partition:

        prod_i p^{mu'_{i+1} (lam'_i - mu'_i)}
               [lam'_i - mu'_{i+1} choose mu'_i - mu'_{i+1}]_p
    """
    length = max(lam, default=0)
    lc = _conjugate(lam, length)
    mc = _conjugate(mu, length + 1)
    count = 1
    for i in range(length):
        count *= p ** (mc[i + 1] * (lc[i] - mc[i])) * _gaussian_binomial(
            lc[i] - mc[i + 1], mc[i] - mc[i + 1], p
        )
    return count


def components(G: FiniteAbelian) -> list[Component]:
    """Moduli components of Hom(G, E): one per subgroup K with G/K 2-generated,
    aggregated by quotient type and sorted by quotient.

    Counted, not enumerated.  Three facts make this work:

    * Duality: G is isomorphic to its character group, and K <-> the
      annihilator of K is an inclusion-reversing bijection on subgroups with
      G/K isomorphic to the annihilator.  So the number of K with G/K of
      type nu equals the number of subgroups of G of type nu.
    * Primes: a subgroup is the product of its Sylow subgroups, so that number
      is the product over p of the counts in the p-primary parts.
    * p-groups: in a p-group of type lam, `birkhoff_count(lam, mu, p)`
      counts the subgroups of type mu.

    A quotient needs at most two generators iff every p-primary type mu has
    at most two parts.  Each choice of such a mu_p <= lam_p per prime gives the
    quotient (prod_p p^{mu_p,1}, prod_p p^{mu_p,2}) with 1s dropped, and its
    multiplicity is the product of the Birkhoff counts.  Distinct choices give
    distinct quotients.
    """
    if G.order > MAX_ORDER:
        raise ValueError(f"group order {G.order} exceeds the bound {MAX_ORDER}")
    counts: dict[tuple[int, int], int] = {(1, 1): 1}
    for p, lam in G.primary_types.items():
        second = lam[1] if len(lam) > 1 else 0
        local = [
            (p**a, p**b, birkhoff_count(lam, (a, b), p))
            for a in range(lam[0] + 1)
            for b in range(min(a, second) + 1)
        ]
        counts = {
            (q1 * f1, q2 * f2): m * c
            for (q1, q2), m in counts.items()
            for f1, f2, c in local
        }
    quotients = {tuple(f for f in q if f > 1): m for q, m in counts.items()}
    return [Component(q, _label(q), m) for q, m in sorted(quotients.items())]


class DivisorSplit(NamedTuple):
    divisor: int
    poly: object  # ShiftPolynomial, NoSplitting, or UNKNOWN
    expected_rank: int  # d_k * e1 * e2 / 24, independent of s1 data


def cyclic_full_split(n: int, l: int, table: S1Table | None = None):
    """Per-divisor shift polynomials for the fixed points of Z/n-equivariant
    TMF at a prime l not dividing n, plus one unit copy."""
    if n < 1:
        raise ValueError("n must be >= 1")
    base = base_for_prime(l)  # first: a non-prime l must not be reported as dividing n
    if l != 0 and n % l == 0:
        raise ValueError(f"prime l={l} must not divide n={n}")
    e1, e2 = base.exponents
    parts = []
    for k in divisors(n):
        if k == 1:
            continue
        expected, frac = divmod(dsum_f(k) * e1 * e2, 24)
        if frac:
            raise ArithmeticError(f"fractional rank bookkeeping at divisor {k}")
        parts.append(DivisorSplit(k, shift_polynomial(k, base, table), expected))
    return {"unit": 1, "divisors": parts}
