"""Descent-spectral-sequence charts for pi_* Tmf_1(n) in the tame collapse case.

The two-row E_2 = E_infty chart places h0(k) at stem 2k, filtration 0 and
h1(k) at stem 2k-1, filtration 1.  Also here: the Anderson-duality rank
symmetry check, and deterministic JSON / ASCII / SVG emitters.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .cohomology import UNKNOWN, S1Table, rank_table

EXACT = "exact"
NEEDS_S1 = "needs_s1"

# Widest stem range one chart may span; at the budget a chart took 16-37 ms at
# n <= 4 and 13-30 ms at n = 23 in process (2 CPUs, any range and format).
MAX_STEMS = 10_000


class ChartEntry(NamedTuple):
    stem: int
    filtration: int
    rank: int
    marker: str = EXACT


class Chart(NamedTuple):
    n: int
    range: tuple[int, int]
    entries: tuple[ChartEntry, ...]


def _weight_window_for_stems(lo: int, hi: int) -> tuple[int, int]:
    # stem 2k needs h0(k), stem 2k-1 needs h1(k)
    return (lo // 2, (hi + 1) // 2)


def _stem_rank(rt, stem: int):
    """(filtration, rank, part of the rank known without s1) at a stem, where
    h0(k) sits at stem 2k and h1(k) at stem 2k - 1; the rank may be UNKNOWN."""
    k = (stem + 1) // 2
    if stem % 2:
        return 1, rt.h1_rank(k), rt.h1.get(k, 0)
    return 0, rt.h0_rank(k), rt.h0.get(k, 0)


def dss_chart(n: int, stem_range: tuple[int, int], table: S1Table | None = None) -> Chart:
    """Rank chart of the collapsed descent spectral sequence on a stem interval.

    Entries appear only at occupied spots.  If s1 is unknown for n, the two
    weight-1 spots carry marker ``needs_s1``; their rank field then holds only
    the part independent of s1 (the Eisenstein count at stem 2, zero at stem 1).
    A range wider than ``MAX_STEMS`` is refused with ValueError.
    """
    lo, hi = stem_range
    if lo > hi:
        return Chart(n, stem_range, ())
    if hi - lo + 1 > MAX_STEMS:
        raise ValueError(f"chart range {lo}..{hi} spans {hi - lo + 1} stems, budget {MAX_STEMS}")
    rt = rank_table(n, _weight_window_for_stems(lo, hi), table)
    entries = []
    for stem in range(lo, hi + 1):
        filt, rank, known = _stem_rank(rt, stem)
        if rank is UNKNOWN:
            entries.append(ChartEntry(stem, filt, known, NEEDS_S1))
        elif rank > 0:
            entries.append(ChartEntry(stem, filt, rank))
    return Chart(n, stem_range, tuple(entries))


def anderson_symmetry_check(
    n: int, l: int, window: tuple[int, int], table: S1Table | None = None
):
    """Check rank pi_m = rank pi_{-m-l} for all m with both stems in the window.

    Returns (True, None) on success, (False, first violating stem) on failure,
    and (UNKNOWN, None) if unknown weight-1 data intersects the window.
    """
    lo, hi = window
    rt = rank_table(n, _weight_window_for_stems(lo, hi), table)
    if rt.needs_s1 and (lo <= 1 <= hi or lo <= 2 <= hi):
        return UNKNOWN, None
    for m in range(lo, hi + 1):
        if not (lo <= -m - l <= hi):
            continue
        if _stem_rank(rt, m)[1] != _stem_rank(rt, -m - l)[1]:
            return False, m
    return True, None


def chart_to_dict(chart: Chart) -> dict:
    return {
        "n": chart.n,
        "range": [chart.range[0], chart.range[1]],
        "entries": [
            {"stem": e.stem, "filtration": e.filtration, "rank": e.rank, "marker": e.marker}
            for e in chart.entries
        ],
    }


def _label(entry: ChartEntry) -> str:
    return f"{entry.rank}?" if entry.marker == NEEDS_S1 else str(entry.rank)


def _render_ascii(chart: Chart) -> str:
    lo, hi = chart.range
    if lo > hi:
        return ""
    stems = list(range(lo, hi + 1))
    cells = {(e.stem, e.filtration): f"[{_label(e)}]" for e in chart.entries}
    width = max([len(str(s)) for s in stems] + [len(c) for c in cells.values()] + [1]) + 1
    lines = []
    for q in (1, 0):
        row = "".join(cells.get((s, q), "").rjust(width) for s in stems)
        lines.append((f"{q} |" + row).rstrip())
    lines.append("  +" + "-" * (width * len(stems)))
    lines.append("   " + "".join(str(s).rjust(width) for s in stems))
    return "\n".join(lines) + "\n"


# Fixed SVG layout; JSON/ASCII are the byte-exact formats, SVG is structural.
SVG_LAYOUT = {"cell": 36, "margin": 40, "font": 12, "font_family": "monospace"}


def _render_svg(chart: Chart) -> str:
    lo, hi = chart.range
    cell = SVG_LAYOUT["cell"]
    margin = SVG_LAYOUT["margin"]
    ncols = max(0, hi - lo + 1)
    width = margin * 2 + ncols * cell
    height = margin * 2 + 2 * cell
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">'
    ]
    for q in (0, 1):
        y = margin + (1 - q) * cell
        for stem in range(lo, hi + 1):
            x = margin + (stem - lo) * cell
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="none" stroke="lightgray"/>'
            )
    for e in chart.entries:
        x = margin + (e.stem - lo) * cell + cell // 2
        y = margin + (1 - e.filtration) * cell + cell // 2
        parts.append(
            f'<text x="{x}" y="{y}" text-anchor="middle" dominant-baseline="middle" '
            f'font-size="{SVG_LAYOUT["font"]}" font-family="{SVG_LAYOUT["font_family"]}">'
            f"{_label(e)}</text>"
        )
    for stem in range(lo, hi + 1):
        x = margin + (stem - lo) * cell + cell // 2
        y = margin + 2 * cell + SVG_LAYOUT["font"] + 4
        parts.append(
            f'<text x="{x}" y="{y}" text-anchor="middle" '
            f'font-size="{SVG_LAYOUT["font"]}" font-family="{SVG_LAYOUT["font_family"]}">'
            f"{stem}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render(chart: Chart, format: str = "json") -> str:
    """Deterministic rendering of a chart in json, ascii or svg; all three
    are ASCII text."""
    if format == "json":
        return json.dumps(chart_to_dict(chart), sort_keys=True) + "\n"
    if format == "ascii":
        return _render_ascii(chart)
    if format == "svg":
        return _render_svg(chart)
    raise ValueError(f"unsupported chart format: {format}")
