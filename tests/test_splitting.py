"""Shift polynomials, torsion verdicts, mod profiles."""

import random
from collections import Counter
from pathlib import Path

import pytest

from tmflevels._poly import series_of_quotient, trim
from tmflevels.cohomology import UNKNOWN, S1Table, builtin_s1_table, hilbert_series, load_s1_table
from tmflevels.levels import curve_invariants, euler_phi
from tmflevels.splitting import (
    Base,
    NoSplitting,
    RationalSplit,
    ShiftPolynomial,
    Symmetry,
    Torsion,
    _divide,
    base_for_prime,
    c2_descent_applicable,
    profile_mod,
    rational_multiplicities,
    shift_polynomial,
    torsion_condition,
)

GOLDEN = Path(__file__).parent / "golden"


# Generic polynomial long division, the oracle for the strided sums of
# ``_divide``.  Polynomials are trimmed lists of int coefficients.

def mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return trim(out)


def one_minus_t_pow(e):
    """The polynomial 1 - t^e."""
    if e < 1:
        raise ValueError("exponent must be >= 1")
    p = [0] * (e + 1)
    p[0] = 1
    p[e] = -1
    return p


def divmod_exact(num, den):
    """Long division over Z; requires the leading coefficient of den to be a unit."""
    num = trim(num)
    den = trim(den)
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    lead = den[-1]
    if lead not in (1, -1):
        raise ValueError("denominator leading coefficient must be a unit")
    rem = num[:]
    quo = [0] * max(0, len(num) - len(den) + 1)
    while len(rem) >= len(den):
        shift = len(rem) - len(den)
        coeff = rem[-1] // lead
        quo[shift] = coeff
        for i, c in enumerate(den):
            rem[shift + i] -= coeff * c
        rem = trim(rem)
    return trim(quo), trim(rem)


def divide_oracle(numerator, den_exponents, mul_exponents, n, base):
    """``_divide`` by multiplication and long division, factor by factor."""
    p = list(numerator)
    for e in mul_exponents:
        p = mul(p, one_minus_t_pow(e))
    for e in den_exponents:
        p, rem = divmod_exact(p, one_minus_t_pow(e))
        if rem:
            return NoSplitting(n, base, "nonzero remainder in Hilbert division")
    if any(c < 0 for c in p):
        return NoSplitting(n, base, "negative multiplicity in Hilbert quotient")
    return ShiftPolynomial(base, {j: c for j, c in enumerate(p) if c})


def series_division_oracle(n, exponents, order=50):
    """Divide the two Hilbert power series coefficient-wise and return the
    quotient, checking the remainder vanishes up to the given order."""
    h = hilbert_series(n)
    num = series_of_quotient(list(h.numerator), h.denominator_exponents, order)
    den = series_of_quotient([1], exponents, order)
    q = [0] * (order + 1)
    rem = num[:]
    for i in range(order + 1):
        q[i] = rem[i]
        for j in range(i, order + 1):
            rem[j] -= q[i] * den[j - i]
    assert all(r == 0 for r in rem)
    return trim(q)


def test_shift_polynomial_5_l2():
    q = shift_polynomial(5, Base.L2)
    assert q.coeffs == {0: 1, 1: 1, 2: 1}


def test_shift_polynomial_5_l3():
    q = shift_polynomial(5, Base.L3)
    assert q.coeffs == {0: 1, 1: 2, 2: 2, 3: 2, 4: 1}


def test_shift_polynomial_7_l2_with_oracle():
    q = shift_polynomial(7, Base.L2)
    assert q.as_list() == [1, 2, 2, 1]
    assert q.as_list() == series_division_oracle(7, (1, 3))
    assert q.rank() == 6 == curve_invariants(7).d // curve_invariants(3).d


def test_shift_polynomial_oracle_range():
    for n in range(5, 24):
        for base in (Base.L2, Base.L3, Base.RATIONAL):
            if base is Base.L2 and n % 2 == 0:
                continue
            if base is Base.L3 and n % 3 == 0:
                continue
            q = shift_polynomial(n, base)
            assert q.as_list() == series_division_oracle(n, base.exponents), (n, base)


def test_shift_polynomial_preconditions():
    with pytest.raises(ValueError):
        shift_polynomial(1, Base.L2)
    with pytest.raises(ValueError):
        shift_polynomial(6, Base.L2)  # 2 | 6
    with pytest.raises(ValueError):
        shift_polynomial(9, Base.L3)  # 3 | 9


def test_shift_polynomial_unknown_s1():
    assert shift_polynomial(25, Base.L2) is UNKNOWN


def test_shift_polynomial_stacky():
    assert shift_polynomial(3, Base.L2).coeffs == {0: 1}
    assert shift_polynomial(2, Base.L3).coeffs == {0: 1}
    assert shift_polynomial(4, Base.L3).coeffs == {0: 1, 1: 1, 2: 1, 3: 1}


def test_divisibility_by_one_minus_t_squared():
    # (1-t^e1)(1-t^e2) is exactly divisible by (1-t)^2 for all three bases
    for base in Base:
        e1, e2 = base.exponents
        p = mul(one_minus_t_pow(e1), one_minus_t_pow(e2))
        q, rem = divmod_exact(p, mul(one_minus_t_pow(1), one_minus_t_pow(1)))
        assert rem == []
        assert all(isinstance(c, int) for c in q)


def test_rank_identity_known_s1():
    # Q(1) = deg(omega) * e1 * e2 wherever s1 is known in 5..100
    checked = 0
    for n in range(5, 101):
        for base in (Base.L2, Base.L3, Base.RATIONAL):
            if base is Base.L2 and n % 2 == 0:
                continue
            if base is Base.L3 and n % 3 == 0:
                continue
            q = shift_polynomial(n, base)
            if q is UNKNOWN:
                continue
            e1, e2 = base.exponents
            assert q.rank() == curve_invariants(n).deg_omega * e1 * e2, (n, base)
            checked += 1
    assert checked >= 40


def test_nonnegativity_tame_range():
    for n in range(2, 61):
        for l, base in ((2, Base.L2), (3, Base.L3)):
            if n % l == 0:
                continue
            q = shift_polynomial(n, base)
            if q is UNKNOWN:
                continue
            assert not isinstance(q, NoSplitting), (n, l)
            assert all(c >= 0 for c in q.coeffs.values())


def test_cross_base_identity():
    # Q_RAT * (1-t)(1-t^3) == Q_L2 * (1-t^4)(1-t^6) as exact polynomials
    for n in (5, 7, 11, 13, 23):
        qr = rational_multiplicities(n).poly.as_list()
        q2 = shift_polynomial(n, Base.L2).as_list()
        lhs = mul(mul(qr, one_minus_t_pow(1)), one_minus_t_pow(3))
        rhs = mul(mul(q2, one_minus_t_pow(4)), one_minus_t_pow(6))
        assert lhs == rhs, n


def test_rational_23():
    r = rational_multiplicities(23)
    q = r.poly
    oracle = series_division_oracle(23, (4, 6), order=60)
    assert q.as_list() == oracle
    assert q.degree() == 11
    assert q.rank() == 528
    assert q.as_list() == q.as_list()[::-1]  # palindromic
    assert r.symmetry is Symmetry.SYMMETRIC and r.twist == 1
    # explicit product form: (1+10t+10t^2+t^3)(1+t+t^2+t^3)(1+t+t^2+t^3+t^4+t^5)
    prod = mul(mul([1, 10, 10, 1], [1, 1, 1, 1]), [1, 1, 1, 1, 1, 1])
    assert q.as_list() == prod


def test_rational_n1():
    r = rational_multiplicities(1)
    assert r.poly.coeffs == {0: 1}
    assert r.symmetry is Symmetry.SYMMETRIC


def test_rational_n9_no_twist():
    r = rational_multiplicities(9)
    assert r.symmetry is Symmetry.NOT_APPLICABLE
    assert r.poly.as_list() != r.poly.as_list()[::-1]


def test_rational_symmetry_for_self_dual_levels():
    for n in (2, 3, 4, 5, 6, 7, 8, 11, 14, 15):
        r = rational_multiplicities(n)
        assert r.symmetry is Symmetry.SYMMETRIC, n


def test_no_splitting_report():
    # no Hilbert series from the command line reaches the remainder reason
    remainder = "nonzero remainder in Hilbert division"
    negative = "negative multiplicity in Hilbert quotient"
    for args, reason in (
        (([1], (2,), (1, 3)), remainder),
        (([1], (5, 7), (1, 3)), remainder),
        (([1, -3], (1, 1), (1, 3)), negative),
        (([1, -4], (1, 1), (1, 3)), negative),
    ):
        expected = NoSplitting(99, Base.L2, reason)
        assert _divide(*args, 99, Base.L2) == divide_oracle(*args, 99, Base.L2) == expected


def test_divide_matches_long_division_on_random_polynomials():
    rng = random.Random(20181)
    outcomes = Counter()
    for _ in range(3000):
        den = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 3)))
        mults = (rng.randint(1, 6), rng.randint(1, 6))
        num = [rng.randint(-4, 6) for _ in range(rng.randint(0, 9))]
        if rng.random() < 0.5:  # a multiple of the denominator, so it divides
            for e in den:
                num = mul(num, one_minus_t_pow(e))
        got = _divide(num, den, mults, 7, Base.L3)
        assert got == divide_oracle(num, den, mults, 7, Base.L3), (num, den, mults)
        outcomes[got.reason if isinstance(got, NoSplitting) else "split"] += 1
    assert len(outcomes) == 3 and min(outcomes.values()) > 300, outcomes


@pytest.mark.parametrize("table, seen", [
    (None, {"split", "unknown"}),
    ("s1_no_splitting.csv", {"split", "unknown", "no-splitting"}),
    ("s1_extra.csv", {"split", "unknown"}),
    ("every-level", {"split", "no-splitting"}),
])
def test_divide_matches_long_division_on_every_level(table, seen):
    # every n <= 300 on every tame base; "every-level" gives each level the
    # builtin table lacks an s1 of 0 to 3 times its genus, so each one
    # divides, some into negative multiplicities
    if table == "every-level":
        table = S1Table({n: n % 4 * curve_invariants(n).genus for n in range(5, 301)}
                        | builtin_s1_table().values)
    elif table is not None:
        table = load_s1_table(GOLDEN / table)
    outcomes = set()
    for n in range(2, 301):
        h = hilbert_series(n, table)
        for base in Base:
            if base is Base.L2 and n % 2 == 0:
                continue
            if base is Base.L3 and n % 3 == 0:
                continue
            q = shift_polynomial(n, base, table)
            if h is UNKNOWN:
                assert q is UNKNOWN
                outcomes.add("unknown")
                continue
            expected = divide_oracle(list(h.numerator), h.denominator_exponents,
                                     base.exponents, n, base)
            assert q == expected, (n, base)
            outcomes.add("no-splitting" if isinstance(q, NoSplitting) else "split")
            if base is Base.RATIONAL:
                r = rational_multiplicities(n, table)
                assert (r if isinstance(r, NoSplitting) else r.poly) == expected, n
        if h is UNKNOWN:
            assert rational_multiplicities(n, table) is UNKNOWN
    assert outcomes == seen


def test_torsion_condition():
    assert torsion_condition(31, 2) is Torsion.HOLDS
    assert torsion_condition(65, 2) is Torsion.FAILS
    assert torsion_condition(67, 2) is Torsion.UNKNOWN
    assert torsion_condition(5, 3) is Torsion.UNKNOWN
    with pytest.raises(ValueError):
        torsion_condition(10, 2)
    with pytest.raises(ValueError):
        torsion_condition(5, 4)


def test_profile_mod():
    sums, equal = profile_mod(shift_polynomial(5, Base.L3), 4)
    assert sums == [2, 2, 2, 2] and equal
    sums, equal = profile_mod(shift_polynomial(3, Base.L2), 3)
    assert sums == [1, 0, 0] and not equal
    # compactified multiset is not the periodic profile
    sums, equal = profile_mod(shift_polynomial(7, Base.L2), 4)
    assert sums == [1, 2, 2, 1] and not equal
    with pytest.raises(ValueError):
        profile_mod(shift_polynomial(5, Base.L3), 0)


def test_c2_descent_applicable():
    assert c2_descent_applicable(3)
    assert not c2_descent_applicable(5)
    assert c2_descent_applicable(9)
    assert euler_phi(9) == 6
    with pytest.raises(ValueError):
        c2_descent_applicable(6)
    with pytest.raises(ValueError):
        c2_descent_applicable(1)


def test_base_for_prime():
    assert base_for_prime(2) is Base.L2
    assert base_for_prime(3) is Base.L3
    assert base_for_prime(0) is Base.RATIONAL
    assert base_for_prime(5) is Base.RATIONAL
    with pytest.raises(ValueError):
        base_for_prime(4)


def test_rational_unknown():
    assert rational_multiplicities(31) is UNKNOWN


def test_rational_split_is_dataclass():
    assert isinstance(rational_multiplicities(7), RationalSplit)
