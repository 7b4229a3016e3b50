"""Rank tables, s1 handling and Hilbert series."""

import csv
import warnings
from importlib import resources

import pytest

from tmflevels._poly import series_of_quotient
from tmflevels.cohomology import (
    BUILTIN,
    UNKNOWN,
    builtin_s1_table,
    hilbert_series,
    load_s1_table,
    rank_table,
    s1,
    stacky_h0,
)
from tmflevels.levels import STACKY_WEIGHTS, curve_invariants


def expand(h, order):
    """The power series of the Hilbert series ``h`` up to t^order."""
    return series_of_quotient(list(h.numerator), h.denominator_exponents, order)


def test_s1_builtin():
    assert s1(7) == 0
    assert s1(23) == 1
    assert s1(101) is UNKNOWN
    assert all(s1(n) == 0 for n in range(1, 23))


def test_s1_user_override(tmp_path):
    f = tmp_path / "s1.csv"
    f.write_text("n,s1\n1,0\n35,2\n23,1\n", encoding="utf-8")
    table = load_s1_table(f)
    assert table.lookup(1) == 0
    assert table.lookup(35) == 2
    assert table.lookup(23) == 1
    assert table.provenance[35] == "user"


def test_s1_conflict_warns(tmp_path):
    f = tmp_path / "s1.csv"
    f.write_text("n,s1\n23,5\n", encoding="utf-8")
    with pytest.warns(UserWarning):
        table = load_s1_table(f)
    assert table.lookup(23) == 5


def test_s1_bad_header(tmp_path):
    f = tmp_path / "s1.csv"
    f.write_text("level,dim\n23,1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_s1_table(f)


def test_s1_malformed_rows_name_file_and_line(tmp_path):
    f = tmp_path / "s1.csv"
    for text, problem in (
        ("n,s1\n5,0,7\n", "line 2 has more than two fields"),
        ("n,s1\n4,0\n5,x\n", "line 3 has a value that is not an integer"),
        ("n,s1\nx,0\n", "line 2 has a value that is not an integer"),
        ("n,s1\n0,0\n", "line 2 has level 0, below 1"),
        ("n,s1\n-5,1\n", "line 2 has level -5, below 1"),
        # the later row would win, and flip the builtin s1(23) = 1 to 2
        ("n,s1\n23,1\n23,2\n", "line 3 repeats level 23"),
        ("n,s1\n23,2\n23,1\n", "line 3 repeats level 23"),
        ("n,s1\n40,0\n41,1\n40,0\n", "line 4 repeats level 40"),
    ):
        f.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as exc, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # 23,2 overrides the builtin first
            load_s1_table(f)
        assert str(exc.value) == f"s1 file {f}: {problem}"


def test_rank_table_23():
    rt = rank_table(23, (-4, 5))
    assert [rt.h0[k] for k in range(0, 6)] == [1, 12, 33, 55, 77, 99]
    assert [rt.h1[k] for k in (1, 0, -1, -2, -3, -4)] == [1, 12, 33, 55, 77, 99]
    assert not rt.needs_s1


def test_rank_table_stacky_n1():
    rt = rank_table(1, (-12, 12))
    # brute-force monomial count in weights (4, 6)
    for k in range(-12, 13):
        count = sum(1 for i in range(8) for j in range(8) if 4 * i + 6 * j == k)
        assert rt.h0[k] == count
    assert rt.h1[-10] == rt.h0[0] == 1  # the class dual to 1, at stem -21
    assert rt.h1[0] == 0


def test_rank_table_of_an_empty_window_is_empty():
    for n in (3, 23, 31):
        assert rank_table(n, (3, 1)) == (n, (3, 1), {}, {}, False)


def test_rank_table_n7():
    rt = rank_table(7, (0, 10))
    assert rt.h0[1] == 3
    for k in range(2, 11):
        assert rt.h0[k] == 2 * k + 1


def test_rank_table_clamp_n5():
    rt = rank_table(5, (-3, 2))
    assert rt.h1[-1] == 0  # g-1-k*deg = 0-1+1, exactly 0
    assert rt.h1[-2] == 1


def test_rank_table_unknown_weight1():
    rt = rank_table(31, (0, 2))
    assert rt.needs_s1
    inv = curve_invariants(31)
    # h0(1) at stem 2 keeps its Eisenstein part; h1(1) at stem 1 keeps none
    assert rt.at_stem(2) == (0, UNKNOWN, inv.cusps // 2)
    assert rt.at_stem(1) == (1, UNKNOWN, 0)
    h0_2 = 2 * inv.deg_omega + 1 - inv.genus
    assert rt.at_stem(4) == (0, h0_2, h0_2)
    assert rt.at_stem(3) == (1, 0, 0)
    assert rt.at_stem(-1) == (1, inv.genus, inv.genus)
    with pytest.raises(TypeError):
        bool(rt.at_stem(2)[1])  # Unknown must not act as a boolean
    # weights 0..2 hold stems -1..4; a stem outside them is not in the table
    for stem in (-3, -2, 5, 6):
        with pytest.raises(KeyError):
            rt.at_stem(stem)


def test_riemann_roch_identity():
    for n in range(5, 201):
        inv = curve_invariants(n)
        rt = rank_table(n, (-20, 20))
        for k in range(-20, 21):
            h0, h1 = rt.at_stem(2 * k)[1], rt.at_stem(2 * k - 1)[1]
            if h0 is UNKNOWN or h1 is UNKNOWN:
                continue
            assert h0 - h1 == k * inv.deg_omega + 1 - inv.genus, (n, k)
            if k < 0:
                assert h0 == 0
            if k > 1:
                assert h1 == 0


def test_hilbert_numerator_guard(monkeypatch):
    import tmflevels.cohomology as coh

    real = coh.rank_table

    def doctored(n, window, table=None):
        rt = real(n, window, table)
        h0 = dict(rt.h0)
        h0[5] += 1  # break eventual linearity
        return coh.RankTable(rt.n, rt.window, h0, rt.h1)

    monkeypatch.setattr(coh, "rank_table", doctored)
    with pytest.raises(ArithmeticError):
        coh.hilbert_series(7)


def test_hilbert_unknown_s1_builds_no_rank_table(monkeypatch):
    # an unknown s1 answers before any rank is computed
    import tmflevels.cohomology as coh
    from tmflevels.splitting import Base, shift_polynomial

    def refuse(*args, **kwargs):
        raise AssertionError("rank_table called")

    monkeypatch.setattr(coh, "rank_table", refuse)
    assert coh.hilbert_series(25) is UNKNOWN
    assert shift_polynomial(30, Base.RATIONAL) is UNKNOWN


def test_serre_trichotomy():
    # for k >= 2 the dual degree 2g-2-k*deg is strictly negative
    for n in range(5, 201):
        inv = curve_invariants(n)
        for k in range(2, 21):
            assert k * inv.deg_omega > 2 * inv.genus - 2, (n, k)
    # for k < 0 the dual degree exceeds 2g-2 and h1 matches its closed form
    for n in (5, 7, 11, 23, 49):
        inv = curve_invariants(n)
        rt = rank_table(n, (-10, -1))
        for k in range(-10, 0):
            dual = 2 * inv.genus - 2 - k * inv.deg_omega
            assert dual > 2 * inv.genus - 2
            assert rt.h1[k] == dual + 1 - inv.genus


def test_stacky_h0_oracle():
    for k in range(0, 30):
        brute = sum(1 for i in range(31) for j in range(31) if i + 3 * j == k)
        assert stacky_h0((1, 3), k) == brute


def stacky_h0_enumerated(weights, k):
    """The solutions of a*i + b*j = k enumerated one j at a time, as
    ``stacky_h0`` found them before it counted them: its oracle."""
    a, b = weights
    return sum(1 for j in range(max(0, k // b) + 1) if (k - b * j) >= 0 and (k - b * j) % a == 0)


@pytest.mark.parametrize("weights", [*STACKY_WEIGHTS.values(), (3, 5), (6, 4), (2, 2)],
                         ids=lambda w: f"{w[0]}-{w[1]}")
def test_stacky_h0_counts_what_enumeration_and_the_series_find(weights):
    counted = [stacky_h0(weights, k) for k in range(-200, 6001)]
    assert counted == [stacky_h0_enumerated(weights, k) for k in range(-200, 6001)]
    assert counted[200:] == series_of_quotient([1], weights, 6000)


def test_hilbert_series_n5():
    h = hilbert_series(5)
    assert h.numerator == (1,)
    assert h.denominator_exponents == (1, 1)
    rt = rank_table(5, (0, 50))
    assert expand(h, 50) == [rt.h0[k] for k in range(51)]


def test_hilbert_series_n23():
    h = hilbert_series(23)
    assert h.numerator == (1, 10, 10, 1)
    rt = rank_table(23, (0, 50))
    assert expand(h, 50) == [rt.h0[k] for k in range(51)]


def test_hilbert_series_n3():
    h = hilbert_series(3)
    assert h.numerator == (1,)
    assert h.denominator_exponents == (1, 3)
    rt = rank_table(3, (0, 40))
    assert expand(h, 40) == [rt.h0[k] for k in range(41)]


def test_hilbert_series_unknown():
    assert hilbert_series(31) is UNKNOWN


def test_hilbert_expansion_matches_rank_table_range():
    for n in range(5, 24):
        h = hilbert_series(n)
        rt = rank_table(n, (0, 40))
        assert expand(h, 40) == [rt.h0[k] for k in range(41)], n


def test_series_of_quotient():
    # 1/(1-t)^2 = 1 + 2t + 3t^2 + ...
    assert series_of_quotient([1], (1, 1), 5) == [1, 2, 3, 4, 5, 6]


def test_builtin_table_has_23_entries():
    assert len(builtin_s1_table().values) == 23


def test_builtin_table_matches_csv_parse():
    # builtin_s1_table splits the packaged file's lines itself; a csv parse
    # of the same file is its oracle, values and provenance alike.
    text = resources.files("tmflevels").joinpath("s1_builtin.csv").read_text("utf-8")
    rows = list(csv.DictReader(text.splitlines()))
    table = builtin_s1_table()
    assert table.values == {int(r["n"]): int(r["s1"]) for r in rows}
    assert table.provenance == {int(r["n"]): BUILTIN for r in rows}
    assert list(table.values) == list(table.provenance) == [int(r["n"]) for r in rows]
