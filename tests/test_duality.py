"""Twist finder, degree search, ratio table, verdicts and shifts."""

from fractions import Fraction

import pytest

from tmflevels.charts import anderson_symmetry_check
from tmflevels.cohomology import UNKNOWN, S1Table, load_s1_table
from tmflevels.duality import (
    HOM_DUAL_COMPACTIFIED,
    HOM_DUAL_PERIODIC,
    U4_PERIOD,
    degree_equality_via_ratios,
    degreecomp_solutions,
    duality_scan,
    hom_dual_shift,
    ratio_table,
    rho_string,
    self_dual_candidates,
    twist,
    verdict,
)
from tmflevels.levels import curve_invariants, dsum_f, dsum_g, is_prime

DUALITY_TABLE = [
    (1, 21), (2, 13), (3, 9), (4, 7), (5, 5), (6, 5), (7, 3), (8, 3),
    (11, 1), (14, 1), (15, 1), (23, -1),
]

RATIO_TABLE = {
    (2, 1): "2/3", (3, 1): "1/2", (5, 1): "1/3", (7, 1): "1/4",
    (11, 1): "1/6", (13, 1): "1/7", (17, 1): "1/9", (19, 1): "1/10",
    (2, 2): "5/12", (3, 2): "2/9", (5, 2): "7/75", (7, 2): "5/98", (11, 2): "8/363",
    (2, 3): "1/4", (3, 3): "5/54", (5, 3): "3/125",
    (2, 4): "7/48", (3, 4): "1/27",
    (2, 5): "1/12",
    (2, 6): "3/64",
    (2, 7): "5/192",
}


def test_twist_examples():
    assert twist(5) == -2
    assert twist(6) == -2
    assert twist(7) == -1
    assert twist(8) == -1
    assert twist(11) == 0
    assert twist(14) == 0
    assert twist(15) == 0
    assert twist(23) == 1
    assert twist(32) is None
    assert twist(9) is None
    assert twist(10) is None
    assert twist(12) is None


def test_twist_builtin_stacky():
    assert [twist(n) for n in (1, 2, 3, 4)] == [-10, -6, -4, -3]


def test_twist_full_list():
    have = {n for n in range(1, 201) if twist(n) is not None}
    assert have == {1, 2, 3, 4, 5, 6, 7, 8, 11, 14, 15, 23}


def test_twist_user_s1_wins(tmp_path):
    f = tmp_path / "s1.csv"
    f.write_text("n,s1\n32,3\n", encoding="utf-8")
    assert twist(32, load_s1_table(f)) is None


def test_degreecomp_solutions():
    assert degreecomp_solutions(144) == [23, 32, 33, 35, 40, 42]
    assert degreecomp_solutions(22) == []


def test_degree_equality_via_ratio_products():
    assert degree_equality_via_ratios(144) == [23, 32, 33, 35, 40, 42]
    assert degree_equality_via_ratios(2000) == degreecomp_solutions(2000)


def test_degree_equality_set_is_complete():
    # The candidates hold every n with g/f >= 1/12, so no level beyond 42 has f = 12 g.
    solutions = {n for n in self_dual_candidates() if dsum_f(n) == 12 * dsum_g(n)}
    assert solutions == {23, 32, 33, 35, 40, 42}


def test_self_dual_candidates_match_brute_force():
    brute = [n for n in range(1, 60001) if 12 * dsum_g(n) >= dsum_f(n)]
    assert list(self_dual_candidates()) == brute
    assert len(brute) == 35 and brute[-1] == 42


def test_ratio_table_closed_form_and_monotone():
    # The facts that make the candidate search complete.
    primes = [p for p in range(2, 51) if is_prime(p)]
    for p in primes:
        ratios = [ratio_table(p, k) for k in range(1, 9)]
        assert ratios == [
            Fraction(2 * p + (k - 1) * (p - 1), p**k * (p + 1)) for k in range(1, 9)
        ], p
        assert all(a > b for a, b in zip(ratios, ratios[1:])), p
    firsts = [ratio_table(p, 1) for p in primes]
    assert all(a > b for a, b in zip(firsts, firsts[1:]))


def test_ratio_table_paper_values():
    for (p, k), frac in RATIO_TABLE.items():
        num, den = frac.split("/")
        assert ratio_table(p, k) == Fraction(int(num), int(den)), (p, k)


def test_ratio_table_validation():
    with pytest.raises(ValueError):
        ratio_table(4, 1)
    with pytest.raises(ValueError):
        ratio_table(2, 0)


def test_verdict_scan_matches_table():
    rows = duality_scan(200)
    assert [(v.n, v.shift_l) for v in rows] == DUALITY_TABLE


def brute_force_scan(limit, table=None):
    rows = []
    for n in range(1, limit + 1):
        v = verdict(n, table)
        if v is UNKNOWN:
            raise ValueError(f"verdict for n={n} needs s1 data")
        if v.self_dual:
            rows.append(v)
    return rows


@pytest.mark.parametrize("limit", [1, 4, 22, 23, 42, 43, 2000])
@pytest.mark.parametrize("user_s1", [False, True])
def test_duality_scan_matches_per_level_verdicts(limit, user_s1, tmp_path):
    table = None
    if user_s1:
        f = tmp_path / "s1.csv"
        f.write_text("n,s1\n32,1\n", encoding="utf-8")
        table = load_s1_table(f)
    rows = duality_scan(limit, table)
    assert rows == brute_force_scan(limit, table)
    assert (32 in [v.n for v in rows]) == (user_s1 and limit >= 32)


def test_verdict_c2_shifts():
    assert verdict(5).c2_shift == (5, 0)  # Sigma^5
    assert verdict(23).c2_shift == (2, -3)  # Sigma^{5-3rho}
    assert verdict(3).c2_shift == (7, 2)  # Sigma^{5+2rho}
    assert verdict(7).c2_shift == (4, -1)  # Sigma^{5-rho}
    assert verdict(11).c2_shift == (3, -2)
    assert verdict(15).c2_shift == (3, -2)
    assert verdict(1).c2_shift is None  # trivial action
    assert verdict(2).c2_shift is None  # even level
    assert verdict(9).c2_shift is None  # not self-dual


def test_verdict_c2_underlying_degree_is_l():
    for v in duality_scan(200):
        if v.c2_shift is not None:
            assert v.c2_shift[0] + v.c2_shift[1] == v.shift_l
        assert v.shift_l == 1 - 2 * v.twist
        assert v.shift_l % 2 == 1  # odd


def test_verdict_reasons():
    assert verdict(5).reason == "genus0_degree"
    assert verdict(14).reason == "genus1"
    assert verdict(23).reason == "degree_equality_plus_s1"
    assert verdict(9).reason == "none"
    assert verdict(2).reason == "genus0_degree"


def reason_by_genus(n, table=None):
    """The reason ``verdict`` gave when it named it from the genus of X_1(n):
    its oracle."""
    if twist(n, table) is None:
        return "none"
    if n <= 4:
        return "genus0_degree"
    genus = curve_invariants(n).genus
    return "genus0_degree" if genus == 0 else "genus1" if genus == 1 else \
        "degree_equality_plus_s1"


# (levels of a user table with s1 = 1, or None for the builtin table; the
# levels whose reason is the degree equality)
VERDICT_TABLES = {
    "builtin": (None, {23}),
    # every level above 4 without s1: twist's builtin knowledge keeps 23
    "empty-user-table": ((), {23}),
    # s1 = 1 everywhere, so twist's degree test alone picks the levels: the
    # six solutions of f(n) = 12 g(n)
    "s1-one-user-table": (range(1, 3001), {23, 32, 33, 35, 40, 42}),
}


@pytest.mark.parametrize("name", VERDICT_TABLES)
def test_verdict_reason_matches_the_genus(name):
    ones, degree_equality = VERDICT_TABLES[name]
    table = None if ones is None else S1Table(dict.fromkeys(ones, 1))
    reasons = {}
    for n in sorted({*range(1, 3001), *self_dual_candidates()}):
        reasons[n] = verdict(n, table).reason
        assert reasons[n] == reason_by_genus(n, table), n
    assert {n for n, r in reasons.items() if r == "degree_equality_plus_s1"} == degree_equality


def test_verdict_derives_the_curve_invariants_once(monkeypatch):
    # the reason comes from the twist, so the curve is read once, in twist
    import tmflevels.duality as duality

    calls = []
    real = duality.curve_invariants

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(duality, "curve_invariants", counting)
    for n in range(1, 61):
        calls.clear()
        verdict(n)
        assert calls == ([] if n <= 4 else [n]), n


def test_verdict_shift_consistency_with_symmetry_check():
    for v in duality_scan(200):
        ok, _ = anderson_symmetry_check(v.n, v.shift_l, (-30, 30))
        assert ok is True, v.n


def test_rho_string():
    assert rho_string((5, 0)) == "5"
    assert rho_string((2, -3)) == "5-3rho"
    assert rho_string((7, 2)) == "5+2rho"
    assert rho_string((-14, 2)) == "-16+2rho"
    assert rho_string((-6, -6)) == "-6rho"
    assert rho_string((4, -1)) == "5-rho"


def test_hom_dual_shift():
    shifts = hom_dual_shift()
    assert shifts["compactified"] == HOM_DUAL_COMPACTIFIED == (-14, 2)
    assert shifts["periodic"] == HOM_DUAL_PERIODIC == (-6, -6)
    # additivity: (-16+2rho) + (16-8rho) = -6rho
    c, p = shifts["compactified"], shifts["periodic"]
    assert (c[0] + U4_PERIOD[0], c[1] + U4_PERIOD[1]) == p


def test_twist_unknown_not_reachable_in_builtin_scan():
    # every degree-equality level has builtin s1-is-one knowledge
    for n in range(1, 201):
        assert twist(n) is not UNKNOWN
