"""Level arithmetic: divisor sums, curve invariants, predicates."""

from fractions import Fraction
from math import gcd

import pytest

from tmflevels import levels
from tmflevels.cohomology import s1
from tmflevels.duality import twist
from tmflevels.equivariant import cyclic_full_split
from tmflevels.levels import (
    CurveInvariants,
    Kind,
    LevelSpec,
    curve_invariants,
    degree_closed_form,
    divisors,
    dsum_f,
    dsum_g,
    euler_phi,
    is_tame,
    stacky_data,
)
from tmflevels.splitting import rational_multiplicities


def brute_phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_euler_phi_small():
    assert euler_phi(1) == 1
    assert euler_phi(23) == 22
    assert euler_phi(12) == brute_phi(12) == 4


def test_euler_phi_against_brute_force():
    for n in range(1, 300):
        assert euler_phi(n) == brute_phi(n)


def test_dsum_values():
    assert dsum_f(23) == 528
    assert dsum_g(23) == 44
    assert dsum_f(23) == 12 * dsum_g(23)
    assert (dsum_f(2), dsum_g(2)) == (3, 2)
    assert (dsum_f(4), dsum_g(4)) == (12, 5)


def test_multiplicativity():
    for m in range(1, 61):
        for n in range(1, 61):
            if gcd(m, n) != 1:
                continue
            assert dsum_f(m * n) == dsum_f(m) * dsum_f(n)
            assert dsum_g(m * n) == dsum_g(m) * dsum_g(n)


def test_closed_form_agreement_to_1e4():
    for n in range(1, 10**4 + 1):
        assert dsum_f(n) == degree_closed_form(n)


def test_bound_lemma_145_to_1e4():
    for n in range(145, 10**4 + 1):
        assert dsum_f(n) > 12 * dsum_g(n)


def test_curve_invariants_n5():
    inv = curve_invariants(5)
    assert (inv.d, inv.deg_omega, inv.genus) == (24, 1, 0)


def test_genus_one_levels():
    assert {n for n in range(1, 200) if n >= 5 and curve_invariants(n).genus == 1} == {11, 14, 15}


def test_genus_zero_levels():
    zero = {n for n in range(5, 200) if curve_invariants(n).genus == 0}
    assert zero == {5, 6, 7, 8, 9, 10, 12}


def test_curve_invariants_n23_derived():
    # independent evaluation of both closed forms and the genus formula
    d = sum(d * brute_phi(d) * brute_phi(23 // d) for d in divisors(23))
    assert d == 23 * 23 - 1 == 528
    eps2 = sum(brute_phi(d) * brute_phi(23 // d) for d in divisors(23))
    genus = 1 + d // 24 - eps2 // 4
    inv = curve_invariants(23)
    assert inv == CurveInvariants(23, 528, 22, 22, 12, True)
    assert inv.genus == genus == 12


def fraction_invariants(n):
    """``curve_invariants`` by its Fraction formulas: the oracle for its integer
    arithmetic, with the same checks in the same order."""
    d = levels.dsum_f(n)
    if n <= 4:
        return CurveInvariants(n, d, None, None, None, False, stacky_data(n))
    deg_omega = Fraction(d, 24)
    cusps = Fraction(levels.dsum_g(n), 2)
    genus = 1 + deg_omega - Fraction(levels.dsum_g(n), 4)
    if deg_omega.denominator != 1 or cusps.denominator != 1 or genus.denominator != 1:
        raise ArithmeticError(f"fractional curve invariant at n={n}")
    if genus < 0:
        raise ArithmeticError(f"negative genus at n={n}")
    return CurveInvariants(n, d, int(deg_omega), int(cusps), int(genus), True)


def test_curve_invariants_match_fraction_oracle_to_1e4():
    for n in range(1, 10**4 + 1):
        inv = curve_invariants(n)
        assert inv == fraction_invariants(n), n
        if n > 4:
            assert all(type(x) is int for x in (inv.deg_omega, inv.cusps, inv.genus)), n


@pytest.mark.parametrize("g", [1, 3, 4, 6, 8, 10, 12, 14, 16, 20, 28])
def test_curve_invariants_refusals_match_fraction_oracle(g, monkeypatch):
    # With g = dsum_g(5) forced, the remainders and the sign of the genus
    # formula vary: each value must give the oracle's result or message.
    monkeypatch.setattr(levels, "dsum_g", lambda n: g)
    try:
        expected = fraction_invariants(5)
    except ArithmeticError as exc:
        with pytest.raises(ArithmeticError) as got:
            curve_invariants(5)
        assert str(got.value) == str(exc)
    else:
        assert curve_invariants(5) == expected


def test_twist_at_genus_zero_matches_fraction():
    genus0 = [n for n in range(5, 10**4 + 1) if curve_invariants(n).genus == 0]
    assert genus0 == [5, 6, 7, 8, 9, 10, 12]
    for n in genus0:
        q = Fraction(-2, curve_invariants(n).deg_omega)
        assert twist(n) == (q.numerator if q.denominator == 1 else None), n


def test_stacky_levels():
    for n, weights in ((1, (4, 6)), (2, (2, 4)), (3, (1, 3)), (4, (1, 2))):
        inv = curve_invariants(n)
        assert not inv.valid_for_curve
        assert inv.deg_omega is None and inv.cusps is None and inv.genus is None
        assert inv.stacky == stacky_data(n)
        assert inv.stacky.weights == weights
    with pytest.raises(ValueError):
        stacky_data(5)


def test_degree_cusp_genus_identity():
    # 2g - 2 = d/12 - eps_infty, exactly
    for n in range(5, 301):
        inv = curve_invariants(n)
        assert 2 * inv.genus - 2 == inv.d // 12 - inv.cusps
        assert inv.d % 12 == 0


def test_is_tame():
    assert is_tame(LevelSpec(5, Kind.GAMMA1), 2)
    assert not is_tame(LevelSpec(5, Kind.GAMMA0), 2)  # gcd(6, phi(5)=4) = 2
    assert not is_tame(LevelSpec(7, Kind.GAMMA0), 2)  # gcd(6, 6) = 6
    assert not is_tame(LevelSpec(5, Kind.GAMMA0), 5)  # 5 | 5
    assert is_tame(LevelSpec(7, Kind.GAMMA0), 5)
    assert not is_tame(LevelSpec(1, Kind.GAMMA1), 2)
    with pytest.raises(ValueError):
        is_tame(LevelSpec(5, Kind.GAMMA1), 4)


def test_is_tame_intermediate():
    # index-2 subgroup of (Z/7)^x: squares {1, 2, 4}; index 3, gcd(6,3)=3
    spec = LevelSpec(7, Kind.INTERMEDIATE, (1, 2, 4))
    assert spec.index_over_gamma1 == 3
    assert LevelSpec(7, Kind.GAMMA1).index_over_gamma1 == 1
    assert is_tame(spec, 2)
    assert not is_tame(spec, 3)


def test_accepted_residue_lists_are_subgroups():
    # LevelSpec keeps unit residue lists that contain 1 and are closed under
    # multiplication: subgroups of (Z/n)^x, whose order divides phi(n) by
    # Lagrange.  Every list of units containing 1, for n = 2..16.
    tried = 0
    for n in range(2, 17):
        units = [r for r in range(2, n) if gcd(r, n) == 1]
        for mask in range(1 << len(units)):
            subgroup = (1, *(r for i, r in enumerate(units) if mask >> i & 1))
            tried += 1
            try:
                spec = LevelSpec(n, Kind.INTERMEDIATE, subgroup)
            except ValueError as err:
                assert str(err) == "residue list not closed under multiplication"
                continue
            assert euler_phi(n) % spec.index_over_gamma1 == 0, (n, subgroup)
    assert tried == 2951


@pytest.mark.parametrize("refuses", [
    levels.factorize, euler_phi, curve_invariants, s1, twist, rational_multiplicities,
    lambda n: cyclic_full_split(n, 5),
], ids=["factorize", "euler_phi", "curve_invariants", "s1", "twist",
        "rational_multiplicities", "cyclic_full_split"])
def test_levels_below_one_are_refused(refuses):
    for n in (0, -7):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            refuses(n)


def test_level_spec_validation():
    # each refusal keeps its message, and the checks run in this order
    for args, message in (
        ((7, Kind.INTERMEDIATE, (1, 2)), "residue list not closed under multiplication"),
        ((7, Kind.INTERMEDIATE, (2, 4)), "subgroup must contain 1"),
        ((6, Kind.INTERMEDIATE, (1, 3)), "residue 3 is not a unit mod 6"),
        ((7, Kind.GAMMA1, (1,)), "residue list only allowed for INTERMEDIATE kind"),
        ((0, Kind.GAMMA1, (1,)), "level must be >= 1"),
        ((7, Kind.INTERMEDIATE), "intermediate subgroup needs an explicit residue list"),
        ((7, Kind.INTERMEDIATE, ()), "intermediate subgroup needs an explicit residue list"),
        ((7, Kind.INTERMEDIATE, (1, 8)), "duplicate residues in subgroup"),
        ((6, Kind.INTERMEDIATE, (3, 5)), "subgroup must contain 1"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            LevelSpec(*args)
    with pytest.raises(ValueError, match="^subgroup must contain 1$"):
        LevelSpec(7, Kind.INTERMEDIATE, (1, 2, 4))._replace(subgroup=(2, 4))
    # the residues are reduced mod n and sorted before the record is built
    assert LevelSpec(7, Kind.INTERMEDIATE, (9, 1, 4)).subgroup == (1, 2, 4)
    assert LevelSpec(n=7, kind=Kind.GAMMA0) == (7, Kind.GAMMA0, None)
