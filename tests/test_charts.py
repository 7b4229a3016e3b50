"""Descent spectral sequence charts, symmetry check, rendering."""

import json
import xml.etree.ElementTree as ET

import pytest

from tmflevels.charts import (
    Chart,
    ChartEntry,
    anderson_symmetry_check,
    chart_to_dict,
    dss_chart,
    render,
)
from tmflevels.cohomology import UNKNOWN, rank_table
from tmflevels.duality import duality_scan

FIGURE_RANKS = [1, 12, 33, 55, 77, 99]


def by_place(chart):
    """A chart's entries keyed by (stem, filtration)."""
    return {(e.stem, e.filtration): e for e in chart.entries}


def test_dss_chart_23_matches_figure():
    chart = dss_chart(23, (-10, 10))
    entries = by_place(chart)
    for i, stem in enumerate((0, 2, 4, 6, 8, 10)):
        assert entries[stem, 0].rank == FIGURE_RANKS[i]
    for i, stem in enumerate((1, -1, -3, -5, -7, -9)):
        assert entries[stem, 1].rank == FIGURE_RANKS[i]
    assert entries.keys() == {(s, 0) for s in (0, 2, 4, 6, 8, 10)} | {
        (s, 1) for s in (1, -1, -3, -5, -7, -9)
    }
    assert all(e.marker == "exact" for e in chart.entries)


def test_dss_chart_n5():
    chart = dss_chart(5, (0, 4))
    assert [(e.stem, e.filtration, e.rank) for e in chart.entries] == [
        (0, 0, 1),
        (2, 0, 2),
        (4, 0, 3),
    ]


def test_dss_chart_empty_range():
    chart = dss_chart(7, (3, 2))
    assert chart.entries == ()


def test_dss_chart_needs_s1_markers():
    entries = by_place(dss_chart(31, (0, 4)))
    assert entries[2, 0].marker == "needs_s1"
    assert entries[1, 1].marker == "needs_s1"


def test_chart_rank_coherence():
    for n in range(5, 101):
        chart = dss_chart(n, (-8, 8))
        rt = rank_table(n, (-4, 4))
        for e in chart.entries:
            assert e.filtration == e.stem % 2
        entries = by_place(chart)
        for m in range(-8, 9):
            k = m // 2 if m % 2 == 0 else (m + 1) // 2
            expected = rt.h0_rank(k) if m % 2 == 0 else rt.h1_rank(k)
            e = entries.get((m, m % 2))
            if expected is UNKNOWN:
                assert e.marker == "needs_s1"
            elif expected:
                assert (e.rank, e.marker) == (expected, "exact")
            else:
                assert e is None


def test_anderson_symmetry_23():
    ok, violation = anderson_symmetry_check(23, -1, (-10, 10))
    assert ok is True and violation is None


def test_anderson_symmetry_n1():
    ok, _ = anderson_symmetry_check(1, 21, (-30, 30))
    assert ok is True


def test_anderson_symmetry_n9_fails_everywhere():
    # oracle: recompute stem ranks directly from the rank table
    rt = rank_table(9, (-16, 16))

    def stem_rank(m):
        return rt.h0[m // 2] if m % 2 == 0 else rt.h1[(m + 1) // 2]

    for l in range(-30, 31):
        ok, violation = anderson_symmetry_check(9, l, (-30, 30))
        assert ok is False
        m = violation
        assert stem_rank(m) != stem_rank(-m - l)


def test_anderson_symmetry_unknown():
    ok, _ = anderson_symmetry_check(31, 1, (-10, 10))
    assert ok is UNKNOWN


def test_symmetry_shift_unique_per_self_dual_level():
    for v in duality_scan(30):
        hits = [
            l
            for l in range(-30, 31)
            if anderson_symmetry_check(v.n, l, (-30, 30))[0] is True
        ]
        assert hits == [v.shift_l], v.n


def test_render_json_roundtrip():
    chart = dss_chart(23, (-10, 10))
    data = json.loads(render(chart, "json"))
    assert data == chart_to_dict(chart)
    assert data["n"] == 23 and data["range"] == [-10, 10]
    assert {"stem": 0, "filtration": 0, "rank": 1, "marker": "exact"} in data["entries"]


def test_render_ascii_figure():
    text = render(dss_chart(23, (-2, 2)), "ascii")
    expected = (
        "1 |      [12]       [1]\n"
        "0 |            [1]      [12]\n"
        "  +-------------------------\n"
        "      -2   -1    0    1    2\n"
    )
    assert text == expected


def test_render_ascii_row_content_23():
    text = render(dss_chart(23, (-10, 10)), "ascii")
    top, bottom = text.splitlines()[:2]
    assert [c for c in top.split() if c.startswith("[")] == [
        "[99]", "[77]", "[55]", "[33]", "[12]", "[1]",
    ]
    assert [c for c in bottom.split() if c.startswith("[")] == [
        "[1]", "[12]", "[33]", "[55]", "[77]", "[99]",
    ]


def test_render_empty_chart():
    chart = dss_chart(7, (5, 4))
    assert render(chart, "ascii") == ""
    assert json.loads(render(chart, "json"))["entries"] == []


def test_render_svg_structure():
    chart = dss_chart(23, (-10, 10))
    svg = render(chart, "svg")
    root = ET.fromstring(svg)
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    for rank in ("1", "12", "33", "55", "77", "99"):
        assert texts.count(rank) >= 2  # appears on both rows


def test_render_deterministic():
    chart = dss_chart(23, (-10, 10))
    for fmt in ("json", "ascii", "svg"):
        assert isinstance(render(chart, fmt), str)
        assert render(chart, fmt) == render(chart, fmt)


def test_render_unknown_format():
    with pytest.raises(ValueError):
        render(Chart(1, (0, 0), (ChartEntry(0, 0, 1),)), "png")
