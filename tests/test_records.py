"""The library's records are immutable tuples with the repr they always had."""

import pytest

from tmflevels.charts import NEEDS_S1, Chart, ChartEntry
from tmflevels.cohomology import UNKNOWN, HilbertSeries, RankTable, S1Table
from tmflevels.duality import verdict
from tmflevels.equivariant import Component, DivisorSplit, FiniteAbelian
from tmflevels.hfpss import (
    STRATEGY_CLOSED,
    EinftyChart,
    Generator,
    RingSpec,
    Window,
    compute_einfty,
    presets,
)
from tmflevels.hfpss_api import PageClass, RO2Degree, VChainReport
from tmflevels.levels import CurveInvariants, Kind, LevelSpec, StackyData, curve_invariants
from tmflevels.splitting import Base, NoSplitting, RationalSplit, ShiftPolynomial, Symmetry

H2L = presets()["height2-laurent"]

# One instance of each record and its repr, as the frozen dataclasses
# that these records replaced printed it.
RECORDS = [
    (lambda: S1Table({5: 0}, {5: "user"}),
     "S1Table(values={5: 0}, provenance={5: 'user'})"),
    (lambda: RankTable(5, (0, 1), {0: 1, 1: 0}, {0: 0}, True),
     "RankTable(n=5, window=(0, 1), h0={0: 1, 1: 0}, h1={0: 0}, needs_s1=True)"),
    (lambda: HilbertSeries((1, 0, 1), (1, 1)),
     "HilbertSeries(numerator=(1, 0, 1), denominator_exponents=(1, 1))"),
    (lambda: StackyData(2, (2, 4)), "StackyData(n=2, weights=(2, 4))"),
    (lambda: curve_invariants(2),
     "CurveInvariants(n=2, d=3, deg_omega=None, cusps=None, genus=None, valid_for_curve=False, "
     "stacky=StackyData(n=2, weights=(2, 4)))"),
    (lambda: CurveInvariants(11, 120, 5, 10, 1, True),
     "CurveInvariants(n=11, d=120, deg_omega=5, cusps=10, genus=1, valid_for_curve=True, "
     "stacky=None)"),
    (lambda: LevelSpec(7, Kind.INTERMEDIATE, (9, 1, 4)),
     "LevelSpec(n=7, kind=<Kind.INTERMEDIATE: 'Intermediate'>, subgroup=(1, 2, 4))"),
    (lambda: verdict(7),
     "DualityVerdict(n=7, twist=-1, self_dual=True, shift_l=3, c2_shift=(4, -1), "
     "reason='genus0_degree')"),
    (lambda: ChartEntry(2, 0, 1, NEEDS_S1),
     "ChartEntry(stem=2, filtration=0, rank=1, marker='needs_s1')"),
    (lambda: Chart(5, (0, 2), (ChartEntry(0, 0, 1),)),
     "Chart(n=5, range=(0, 2), entries=(ChartEntry(stem=0, filtration=0, rank=1, "
     "marker='exact'),))"),
    (lambda: ShiftPolynomial(Base.L2, {0: 1, 2: 1}),
     "ShiftPolynomial(base=<Base.L2: (1, 3)>, coeffs={0: 1, 2: 1})"),
    (lambda: NoSplitting(5, Base.L3, "nonzero remainder in Hilbert division"),
     "NoSplitting(n=5, base=<Base.L3: (2, 4)>, reason='nonzero remainder in Hilbert division')"),
    (lambda: RationalSplit(ShiftPolynomial(Base.RATIONAL, {0: 1}), Symmetry.SYMMETRIC, -10),
     "RationalSplit(poly=ShiftPolynomial(base=<Base.RATIONAL: (4, 6)>, coeffs={0: 1}), "
     "symmetry=<Symmetry.SYMMETRIC: 'symmetric'>, twist=-10)"),
    (lambda: FiniteAbelian((4, 2)), "FiniteAbelian(factors=(4, 2))"),
    (lambda: Component((2,), "M1(2)", 3), "Component(quotient=(2,), label='M1(2)', multiplicity=3)"),
    (lambda: DivisorSplit(5, UNKNOWN, 1), "DivisorSplit(divisor=5, poly=Unknown, expected_rank=1)"),
    (lambda: Generator("a3", 3, True), "Generator(sym='a3', weight=3, invertible=True)"),
    (lambda: RingSpec(*H2L),
     "RingSpec(name='height2-laurent', base='Z2loc', generators=(Generator(sym='a1', weight=1, "
     "invertible=False), Generator(sym='a3', weight=3, invertible=True)), v=('a1', 'a3'), "
     "termination='invertible')"),
    (lambda: Window(1, 2, 3), "Window(c=1, d=2, f=3)"),
    (lambda: EinftyChart("x", Window(1, 1, 0), 8, 4, (), [(0, 0, 0, (1,), (0,))]),
     "EinftyChart(ring='x', window=Window(c=1, d=1, f=0), bound=8, collapse_page=4, "
     "pages_fired=())"),
    (lambda: compute_einfty(H2L, Window(2, 2, 2), STRATEGY_CLOSED),
     "EinftyChart(ring='height2-laurent', window=Window(c=2, d=2, f=2), bound=8, "
     "collapse_page=8, pages_fired=())"),
    (lambda: RO2Degree(1, -2), "RO2Degree(c=1, d=-2)"),
    (lambda: PageClass((1, 0), 1, 0, 2), "PageClass(exps=(1, 0), weight=1, a_exp=0, u_exp=2)"),
    (lambda: VChainReport(2, 2, False, True, (3, 7)),
     "VChainReport(declared_height=2, effective_height=2, degenerate=False, "
     "rule_vanishes_past_chain=True, pages_fired=(3, 7))"),
]


@pytest.mark.parametrize("make, text", RECORDS, ids=[text.split("(")[0] for _, text in RECORDS])
def test_record_repr_equality_and_immutability(make, text):
    record, twin = make(), make()
    assert repr(record) == text
    assert record == twin and not record != twin
    try:
        hash(record)
    except TypeError:  # a dict or list field: unhashable, as the dataclass was
        pass
    else:
        assert hash(record) == hash(twin)
    # the one library-visible change: a record is the tuple of its fields
    assert record == tuple(record) and len(record) == len(type(record)._fields)
    for name in (record._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert repr(record) == text


def test_chart_repr_leaves_out_the_records_that_equality_compares():
    chart = compute_einfty(H2L, Window(2, 2, 2), STRATEGY_CLOSED)
    assert chart.records and "records" not in repr(chart)
    assert chart.records is chart[-1] and chart.entries is chart.entries
    same = EinftyChart(*chart[:5], records=list(chart.records))
    assert same == chart
    assert EinftyChart(*chart[:5], records=chart.records[1:]) != chart
    with pytest.raises(AttributeError):
        del chart.ring
    assert chart._replace(bound=9) == (*chart[:2], 9, *chart[3:])
    # a hand-made chart is built from records, its entries kept outside the tuple
    made = EinftyChart("x", Window(1, 1, 0), 8, 4, (), [(0, 0, 0, (1,), (0,))])
    assert made.at(0, 0) == ((0, "Z", 1),) and made.entries is made.entries
    assert made == ("x", Window(1, 1, 0), 8, 4, (), [(0, 0, 0, (1,), (0,))])


def test_empty_s1_tables_share_no_dict():
    a, b = S1Table(), S1Table()
    assert a == ({}, {}) and a.lookup(5) is UNKNOWN
    a.values[5], a.provenance[5] = 0, "user"
    assert b == S1Table() and b.lookup(5) is UNKNOWN
