"""Subgroup enumeration, component decomposition, cyclic splittings."""

from functools import lru_cache
from itertools import combinations, product
from math import gcd, prod

import pytest

from tmflevels.cohomology import UNKNOWN
from tmflevels.equivariant import (
    Component,
    FiniteAbelian,
    birkhoff_count,
    components,
    cyclic_full_split,
    quotient_invariant_factors,
    subgroups,
)
from tmflevels.levels import divisors, dsum_f, factorize

# the non-cyclic groups of the equivariant-groups benchmark workload
BENCH_GROUPS = ((6, 6), (15, 3), (4, 4, 2), (8, 2, 2), (3, 3, 3), (4, 4), (9, 3),
                (14, 2), (16, 2), (5, 5), (4, 2, 2), (6, 2, 2), (2, 2, 2, 2))


def brute_force_subgroups(G):
    """All subsets containing 0 and closed under addition (small groups only)."""
    elements = G.elements()
    zero = G.zero
    out = set()
    rest = [e for e in elements if e != zero]
    for r in range(len(rest) + 1):
        for combo in combinations(rest, r):
            subset = frozenset(combo) | {zero}
            if all(G.add(x, y) in subset for x in subset for y in subset):
                out.add(subset)
    return out


def partitions(n, largest=None):
    """Partitions of n as exponent lists, largest part first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def sub_partitions(lam):
    """All partitions mu contained in lam (mu_i <= lam_i), padded to len(lam)."""
    for mu in product(*(range(x + 1) for x in lam)):
        if all(a >= b for a, b in zip(mu, mu[1:])):
            yield mu


def abelian_groups(max_order):
    """One FiniteAbelian per isomorphism type of order <= max_order."""
    for n in range(1, max_order + 1):
        primes = factorize(n)
        for types in product(*(list(partitions(e)) for _, e in primes)):
            yield FiniteAbelian.from_orders(
                [p**x for (p, _), lam in zip(primes, types) for x in lam]
            )


GROUPS_UP_TO_31 = list(abelian_groups(31))


@lru_cache(maxsize=None)
def enumerated_subgroups(factors):
    return subgroups(FiniteAbelian(factors))


def enumeration_oracle(G):
    """The element-set algorithm: every subgroup K, keeping the quotients G/K
    that need at most two generators, aggregated by quotient."""
    counts = {}
    for K in enumerated_subgroups(G.factors):
        q = quotient_invariant_factors(G, K)
        if len(q) <= 2:
            counts[q] = counts.get(q, 0) + 1
    labels = {0: "M_ell", 1: "M1({})", 2: "M^({},{})"}
    return [Component(q, labels[len(q)].format(*q), m) for q, m in sorted(counts.items())]


def gaussian_binomial_by_pascal(n, k, p):
    # q-Pascal: [n, k] = [n-1, k-1] + p^k [n-1, k]
    if k < 0 or k > n:
        return 0
    if k in (0, n):
        return 1
    return gaussian_binomial_by_pascal(n - 1, k - 1, p) + p**k * gaussian_binomial_by_pascal(n - 1, k, p)


def test_from_orders_normalization():
    assert FiniteAbelian.from_orders([6]).factors == (6,)
    assert FiniteAbelian.from_orders([2, 3]).factors == (6,)
    assert FiniteAbelian.from_orders([4, 2]).factors == (4, 2)
    assert FiniteAbelian.from_orders([2, 2, 4]).factors == (4, 2, 2)
    assert FiniteAbelian.from_orders([1]).factors == ()
    for factors, message in (
        ((2, 4), "invariant factors must form a divisibility chain"),
        ((1,), "invariant factors must be >= 2"),
        ((2, 4, 1), "invariant factors must be >= 2"),  # every factor before the chain
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FiniteAbelian(factors)
    with pytest.raises(ValueError, match="^invariant factors must be >= 2$"):
        FiniteAbelian((4, 2))._replace(factors=(4, 1))


def test_subgroups_cyclic6():
    G = FiniteAbelian.from_orders([6])
    assert len(subgroups(G)) == 4


def test_subgroups_klein_four_oracle():
    G = FiniteAbelian.from_orders([2, 2])
    subs = subgroups(G)
    assert len(subs) == 5
    assert set(subs) == brute_force_subgroups(G)


def test_subgroups_z4_z2_oracle():
    G = FiniteAbelian.from_orders([4, 2])
    subs = subgroups(G)
    assert len(subs) == 8
    assert set(subs) == brute_force_subgroups(G)


def test_subgroups_cyclic_matches_generic():
    # cyclic fast path agrees with the closure enumeration run on rank-2 form
    G = FiniteAbelian.from_orders([12])
    assert len(subgroups(G)) == len(divisors(12))


def test_subgroups_size_bound():
    with pytest.raises(ValueError):
        subgroups(FiniteAbelian.from_orders([10007]))


def test_quotient_invariant_factors():
    G = FiniteAbelian.from_orders([4, 2])
    full = frozenset(G.elements())
    assert quotient_invariant_factors(G, full) == ()
    trivial = frozenset({G.zero})
    assert quotient_invariant_factors(G, trivial) == (4, 2)
    # quotient by the order-2 subgroup generated by (2, 0) is Z/2 x Z/2
    K = frozenset({(0, 0), (2, 0)})
    assert quotient_invariant_factors(G, K) == (2, 2)
    # quotient by <(1,0)> is Z/2
    K2 = frozenset({(0, 0), (1, 0), (2, 0), (3, 0)})
    assert quotient_invariant_factors(G, K2) == (2,)


def test_components_cyclic6():
    G = FiniteAbelian.from_orders([6])
    comps = components(G)
    assert {c.label for c in comps} == {"M_ell", "M1(2)", "M1(3)", "M1(6)"}
    assert all(c.multiplicity == 1 for c in comps)


def test_components_klein_four():
    comps = components(FiniteAbelian.from_orders([2, 2]))
    by_label = {c.label: c.multiplicity for c in comps}
    assert by_label == {"M_ell": 1, "M1(2)": 3, "M^(2,2)": 1}
    assert sum(by_label.values()) == 5


def test_components_trivial():
    comps = components(FiniteAbelian.from_orders([1]))
    assert [(c.label, c.multiplicity) for c in comps] == [("M_ell", 1)]


def test_component_count_cyclic_equals_divisor_count():
    for n in (2, 3, 4, 6, 8, 12, 30):
        comps = components(FiniteAbelian.from_orders([n]))
        assert sum(c.multiplicity for c in comps) == len(divisors(n))


def test_quotient_factors_divide_order():
    for orders in ([4, 2], [2, 2], [9, 3], [6]):
        G = FiniteAbelian.from_orders(orders)
        for K in subgroups(G):
            for f in quotient_invariant_factors(G, K):
                assert G.order % f == 0


def test_degree_sum_identity():
    # sum over k|n of d_k = n^2
    for n in range(1, 101):
        assert sum(dsum_f(k) for k in divisors(n)) == n * n


def test_cyclic_full_split_n5():
    split = cyclic_full_split(5, 2)
    assert split["unit"] == 1
    (part,) = split["divisors"]
    assert part.divisor == 5
    assert part.poly.coeffs == {0: 1, 1: 1, 2: 1}
    assert part.expected_rank == 3 == part.poly.rank()


def test_cyclic_full_split_n1():
    split = cyclic_full_split(1, 2)
    assert split == {"unit": 1, "divisors": []}


def test_cyclic_full_split_n35():
    split = cyclic_full_split(35, 2)
    parts = {p.divisor: p for p in split["divisors"]}
    assert set(parts) == {5, 7, 35}
    assert parts[5].poly.coeffs == {0: 1, 1: 1, 2: 1}
    assert parts[7].poly.coeffs == {0: 1, 1: 2, 2: 2, 3: 1}
    assert parts[35].poly is UNKNOWN  # s1(35) not builtin
    # rank bookkeeping from degrees alone: sum d_k * 3/24 = (n^2 - 1)/8
    total = sum(p.expected_rank for p in split["divisors"])
    assert total == (35 * 35 - 1) * 3 // 24 == 153
    assert parts[35].expected_rank == 144


def test_cyclic_full_split_n15_all_known():
    split = cyclic_full_split(15, 2)
    parts = {p.divisor: p for p in split["divisors"]}
    assert set(parts) == {3, 5, 15}
    for p in parts.values():
        assert p.poly is not UNKNOWN
        assert p.poly.rank() == p.expected_rank


def test_cyclic_full_split_preconditions():
    with pytest.raises(ValueError):
        cyclic_full_split(6, 2)
    # l is checked for primality before divisibility, so a non-prime that
    # divides n is reported as not a prime
    for n, l in ((8, 4), (7, 1), (6, 6)):
        with pytest.raises(ValueError, match="not a prime"):
            cyclic_full_split(n, l)
    with pytest.raises(ValueError, match="must not divide"):
        cyclic_full_split(6, 3)


def test_elements_product_order():
    G = FiniteAbelian.from_orders([4, 2])
    assert set(G.elements()) == set(product(range(4), range(2)))


def test_abelian_group_types_up_to_31():
    assert len(set(GROUPS_UP_TO_31)) == len(GROUPS_UP_TO_31) == 48
    assert all(G.order <= 31 for G in GROUPS_UP_TO_31)


def test_components_match_enumeration_up_to_order_31():
    for G in GROUPS_UP_TO_31:
        assert components(G) == enumeration_oracle(G), G.factors


def test_components_match_enumeration_on_benchmark_groups():
    for orders in BENCH_GROUPS:
        G = FiniteAbelian.from_orders(orders)
        assert components(G) == enumeration_oracle(G), orders


def test_birkhoff_sum_counts_all_subgroups():
    # no rank cut: summing over every subgroup type gives every subgroup
    for G in GROUPS_UP_TO_31:
        total = prod(
            sum(birkhoff_count(lam, mu, p) for mu in sub_partitions(lam))
            for p, lam in G.primary_types.items()
        )
        assert total == len(enumerated_subgroups(G.factors)), G.factors


def test_rank_two_subgroup_count_closed_form():
    # Z/m x Z/n has sum_{a | m, b | n} gcd(a, b) subgroups, all with
    # 2-generated quotients; (12, 12) took 55 s by enumeration
    for m in range(1, 25):
        for n in range(1, 25):
            comps = components(FiniteAbelian.from_orders([m, n]))
            expected = sum(gcd(a, b) for a in divisors(m) for b in divisors(n))
            assert sum(c.multiplicity for c in comps) == expected, (m, n)


def test_elementary_abelian_counts():
    # quotients of (Z/p)^r of rank <= 2 are the duals of lines and planes
    for p, r_max in ((2, 13), (3, 8), (5, 5), (7, 4)):
        for r in range(1, r_max + 1):
            comps = components(FiniteAbelian.from_orders([p] * r))
            expected = [((), 1), ((p,), gaussian_binomial_by_pascal(r, 1, p))]
            if r >= 2:
                expected.append(((p, p), gaussian_binomial_by_pascal(r, 2, p)))
            assert [(c.quotient, c.multiplicity) for c in comps] == expected, (p, r)


def test_primary_types():
    G = FiniteAbelian.from_orders([12, 6, 2])
    assert G.factors == (12, 6, 2)
    assert G.primary_types == {2: [2, 1, 1], 3: [1, 1]}
    assert FiniteAbelian.from_orders([1]).primary_types == {}


def test_components_size_bound():
    with pytest.raises(ValueError, match="exceeds the bound 10000"):
        components(FiniteAbelian.from_orders([10007]))
