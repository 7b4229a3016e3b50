"""Regular RO(C2)-graded homotopy fixed point spectral sequence engine.

The E2-term is pi_{2*}R tensor Z[a, u^{+-1}]/2a with |a| = -sigma at
filtration 1 and |u| = 2 - 2*sigma at filtration 0; a weight-w monomial of
the coefficient ring sits in degree w*rho.  Writing RO(C2) degrees as
c + d*sigma, the class w * a^s * u^m lives at

    c = w + 2m,   d = w - 2m - s,   filtration s.

The only differentials fire on pages r = 2^(e+2) - 1 and send u^m (with
2-adic valuation e in m) to a^r * u^(m - 2^e) times the (e+1)-st element of
the v-sequence; classes whose differential vanishes on its one firing page
are permanent.  Supported coefficient rings are graded monomial rings,
Laurent in their invertible generators, so every page is computed by exact
monomial matching: integral lattices at filtration 0 (with an index-two
marker when the class supports a differential) and F2 above.

The predicate sees a monomial only through its v-valuation l: the index of
the lowest v_(l+1) that divides it (an invertible v divides everything), or
the effective height h when none does.  Let e = val2(m), or h + 1 when m = 0
or val2(m) >= h, and b(s) = min(h, bit_length(s + 1) - 2), so that the page
of v_j reaches filtration s iff j <= b(s).  Then monomial * a^s * u^m
survives iff

    b(s) <= l < e:

l < e makes it a permanent cycle and b(s) <= l keeps it off every image.  At
filtration 0 the survivors are full lattices and the rest index-two
sublattices.

Two strategies must agree: the reference (``STRATEGY_PAGES``,
``_page_by_page``) fires every page on bitsets of the E2 classes, and the
fast one (``STRATEGY_CLOSED``, ``_closed_form``) counts the predicate's
survivors.  Each reads the window out as one record (s, m, c_lo, fulls,
halves) per layer, the slots of one filtration s and u-exponent m, that can
hold a class, s ascending: the full and index-two counts of its slots
c = c_lo, c_lo + 1, ..., with halves None above s = 0.  A layer left out
holds no class.  ``STRATEGY_BOTH`` runs the two and compares the records
that hold a class.  Each request's work is first priced in arithmetic
(``_work``) and refused above ``MAX_WORK``.

Laurent directions make homotopy infinite-rank per degree; the chart caps
the exponents of invertible generators at a window-derived bound.  Reported
multiplicities are counts within that cap; emptiness and divisibility
statements are cap-independent.

The per-class library API (``PageClass``, ``e2_basis``, ``differential``,
``transfer_check`` and the rest) lives in ``hfpss_api``, which imports this
module; its names still resolve here, and the first such lookup loads it.
"""

from __future__ import annotations

import io
import json
from functools import cached_property
from itertools import compress, count, repeat
from operator import mod, sub
from typing import NamedTuple

from . import _poly

GROUP_Z = "Z"
GROUP_Z_DIV2 = "Z_div2"
GROUP_Z2 = "Z/2"

TERM_INVERTIBLE = "invertible"
TERM_IN_IDEAL = "in_ideal"


def __getattr__(name: str):
    """A name of ``hfpss_api.__all__``, importing that module on first use."""
    from . import hfpss_api
    if name in hfpss_api.__all__:
        return getattr(hfpss_api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _immutable(self, name: str, *value):
    """``__setattr__`` and ``__delattr__`` of the records that keep derived
    values in a ``__dict__``: they stay immutable, like the other records."""
    raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")


class Generator(NamedTuple):
    sym: str
    weight: int
    invertible: bool = False


class _RingFields(NamedTuple):
    name: str
    base: str
    generators: tuple[Generator, ...]
    v: tuple[str, ...]
    termination: str


class RingSpec(_RingFields):
    """A graded monomial coefficient ring with its v-sequence.

    ``v`` lists the generator symbols representing v_1, ..., v_h (v_0 = 2 is
    implicit).  ``termination`` declares how the chain ends: the last v is
    invertible, or the next one falls into the ideal of the earlier ones.
    A repeated symbol in the v-list marks the chain as degenerate from that
    point on; differentials beyond it vanish.

    Derived once at construction, and kept in the instance's ``__dict__``,
    out of the tuple, so out of ``==``, ``hash`` and ``repr``:
    ``effective_height``, the length of the non-degenerate initial segment
    of the v-chain, and ``v_index``, the generator index of each v in that
    segment.
    """

    __setattr__ = __delattr__ = _immutable

    def __new__(cls, name: str, base: str, generators: tuple[Generator, ...],
                v: tuple[str, ...], termination: str):
        self = super().__new__(cls, name, base, generators, v, termination)
        index = {g.sym: i for i, g in enumerate(self.generators)}
        if len(index) != len(self.generators):
            raise ValueError("generator symbols must be distinct")
        if self.base not in ("Z", "Z2loc"):
            raise ValueError("base must be 'Z' or 'Z2loc'")
        for g in self.generators:
            if g.weight < 1:
                raise ValueError(f"generator {g.sym} must have weight >= 1")
        if not self.v and self.termination != TERM_IN_IDEAL:
            raise ValueError("an empty v-sequence needs termination 'in_ideal'")
        for sym in self.v:
            if sym not in index:
                raise ValueError(f"v-assignment {sym} is not a generator")
        if self.termination not in (TERM_INVERTIBLE, TERM_IN_IDEAL):
            raise ValueError("termination must be 'invertible' or 'in_ideal'")
        h_eff = 0
        while h_eff < len(self.v) and self.v[h_eff] not in self.v[:h_eff]:
            h_eff += 1
        self.__dict__.update(_index=index, effective_height=h_eff,
                             v_index=tuple(index[sym] for sym in self.v[:h_eff]))
        for k, i in enumerate(self.v_index, start=1):
            g = self.generators[i]
            if g.weight != 2**k - 1:
                raise ValueError(
                    f"v_{k} = {g.sym} must have weight {2**k - 1}, got {g.weight}"
                )
        if self.termination == TERM_INVERTIBLE and h_eff == len(self.v):
            if not self.generators[index[self.v[-1]]].invertible:
                raise ValueError("termination 'invertible' requires an invertible last v")
        return self

    @classmethod
    def _make(cls, fields):  # what _replace calls: through the checks of __new__
        return cls(*fields)

    @property
    def height(self) -> int:
        return len(self.v)

    def divides(self, sym: str, exps: tuple[int, ...]) -> bool:
        """Whether the generator divides the monomial; invertible generators
        divide everything."""
        i = self._index[sym]
        return self.generators[i].invertible or exps[i] >= 1

    @property
    def vanishing_line(self) -> int | None:
        """Filtration above which E_infty vanishes, if the chain ends invertibly."""
        if self.termination == TERM_INVERTIBLE and self.effective_height == len(self.v):
            return 2 ** (len(self.v) + 1) - 2
        return None


class _WindowFields(NamedTuple):
    c: int
    d: int
    f: int


class Window(_WindowFields):
    """Symmetric degree rectangle |c| <= c, |d| <= d with filtration <= f."""

    __slots__ = ()

    def __new__(cls, c: int, d: int, f: int):
        if c < 0 or d < 0 or f < 0:
            raise ValueError("window extents must be nonnegative")
        return super().__new__(cls, c, d, f)

    @classmethod
    def _make(cls, fields):  # what _replace calls: through the checks of __new__
        return cls(*fields)

    def contains(self, c: int, d: int) -> bool:
        return abs(c) <= self.c and abs(d) <= self.d


class _ChartFields(NamedTuple):
    ring: str
    window: Window
    bound: int
    collapse_page: int
    pages_fired: tuple[int, ...]
    records: list


class EinftyChart(_ChartFields):
    """An E_infty chart on a window.  ``records`` is its strategy's readout,
    which both writers read (see the module docstring), and is left out of
    ``repr``.  ``entries``, (c, d) -> tuple of (filtration, group,
    multiplicity), is built from the records on first use."""

    __setattr__ = __delattr__ = _immutable

    def __repr__(self) -> str:
        shown = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields[:-1], self))
        return f"{type(self).__name__}({shown})"

    @cached_property
    def entries(self) -> dict:
        return _entries(self.records, self.window)

    def at(self, c: int, d: int) -> tuple:
        if not self.window.contains(c, d):
            raise ValueError(f"degree ({c},{d}) outside the computed window")
        return self.entries.get((c, d), ())


def _page_span(h: int) -> int:
    """Filtration spanned by the pages r = 2^(e+2) - 1, e < h."""
    return sum(2 ** (e + 2) - 1 for e in range(h))


def _auto_bound(spec: RingSpec, window: Window) -> int:
    """Exponent cap for invertible generators: large enough that every weight
    reachable inside the (padded) window is realized, plus a small margin."""
    h = spec.effective_height
    wmax = (window.c + h + 1 + window.d + window.f + _page_span(h)) // 2 + 1
    inv_weights = [g.weight for g in spec.generators if g.invertible]
    if not inv_weights:
        return max(8, wmax)
    return max(8, wmax // min(inv_weights) + 2)


def _window_box(window: Window) -> tuple[range, range, range]:
    return (
        range(-window.c, window.c + 1),
        range(-window.d, window.d + 1),
        range(0, window.f + 1),
    )


def _page_box(spec: RingSpec, window: Window, bound: int) -> tuple[range, range, range, int]:
    """The region ``_page_by_page`` materializes and its exponent cap: one
    column per firing page on each side in c, the span of every page in
    filtration, and the cap raised by h."""
    h = spec.effective_height
    return (
        range(-window.c - h - 1, window.c + h + 2),
        range(-window.d, window.d + 1),
        range(0, window.f + _page_span(h) + 1),
        bound + h,
    )


def _m_range(cr: range, dr: range, s: int) -> range:
    """The u-exponents m of a box's nonempty layers at filtration s."""
    return range(-((dr[-1] + s - cr[0]) // 4), (cr[-1] - dr[0] - s) // 4 + 1)


def _diagonals(records, f: int):
    """(signature, c_lo, t, n, counts of each slot) for each diagonal t of a
    readout, n slots long: the signature is its layers' filtrations, and a
    slot's counts are each layer's full count, and at s = 0 then its
    index-two count.  Every layer on the diagonal t = c - d = s + 4m spans
    the same c, max(-C, t - D) to min(C, t + D), so its layers' counts zip
    slot by slot.  Below f = 4 no two layers share a diagonal, so none is
    grouped."""
    if f < 4:  # grouping a 999999 0 0 window too: 1.35x its time and peak RSS (2 CPUs)
        for s, m, c_lo, fulls, halves in records:
            yield ((s,), c_lo, s + 4 * m, len(fulls),
                   zip(fulls) if halves is None else zip(fulls, halves))
        return
    by_t = {}
    for s, m, c_lo, fulls, halves in records:
        if (found := by_t.get(t := s + 4 * m)) is None:
            by_t[t] = [s], c_lo, [fulls] if halves is None else [fulls, halves]
        else:
            found[0].append(s)
            found[2].append(fulls)
    for t, (sig, c_lo, cols) in by_t.items():
        yield tuple(sig), c_lo, t, len(cols[0]), zip(*cols)


def _labels(sig: tuple) -> list:
    """The (filtration, group) of each of a slot's counts on a diagonal of
    signature ``sig``: each layer's full count, and at s = 0 then its
    index-two count."""
    return [(s, GROUP_Z2) for s in sig] if sig[0] else [
        (0, GROUP_Z), (0, GROUP_Z_DIV2), *((s, GROUP_Z2) for s in sig[1:])]


class _Cells(dict):
    """A signature's memo: a slot's counts -> its text, made by ``make`` on
    first use; a slot of zeros has None, no cell."""

    __slots__ = ("make",)

    def __init__(self, make, zeros: tuple):
        self.make = make
        self[zeros] = None

    def __missing__(self, counts: tuple):
        cell = self[counts] = self.make(counts)
        return cell


def _degrees(records, window: Window, cell) -> list:
    """The window's degrees in the order of the JSON entries, c then d
    ascending: (c, d) is at (c + C)(2D + 1) + d + D, and holds the text of
    its classes, or None if it holds none.  ``cell(sig)`` gives the function
    that makes a slot's text from its counts (``_labels``) on a diagonal of
    signature sig; a degree's classes come sorted, s ascending and Z before
    Z_div2.  Each diagonal's slots go through its signature's memo
    (``_Cells``), and into the grid as one slice of step 2D + 2, a slot's
    step in c and d."""
    rows, memos = 2 * window.d + 1, {}
    grid = [None] * ((2 * window.c + 1) * rows)
    for sig, c_lo, t, n, slots in _diagonals(records, window.f):
        if (memo := memos.get(sig)) is None:
            memo = memos[sig] = _Cells(cell(sig), (0,) * (len(sig) + (not sig[0])))
        i = (c_lo + window.c) * rows + c_lo - t + window.d
        if n == 1:  # as in a flat window: a slice would cost more than it saves
            grid[i] = memo[next(slots)]
        else:
            grid[i:i + n * (rows + 1):rows + 1] = map(memo.__getitem__, slots)
    return grid


def _held_cells(grid: list):
    """(position, text) of each degree of a ``_degrees`` grid that holds a
    class."""
    return zip(compress(range(len(grid)), grid), filter(None, grid))


def _class_cell(sig: tuple):
    """A slot's classes, (filtration, group, count) for each nonzero count."""
    labels = _labels(sig)
    return lambda counts: tuple([(s, g, n) for (s, g), n in zip(labels, counts) if n])


def _entries(records, window: Window) -> dict:
    """The library's chart, (c, d) -> classes, from a readout."""
    rows = 2 * window.d + 1
    return {(i // rows - window.c, i % rows - window.d): classes
            for i, classes in _held_cells(_degrees(records, window, _class_cell))}


def _held(records) -> list:
    """The records that hold a class, sorted by (s, m): what the two
    strategies must agree on."""
    return sorted(r for r in records if any(r[3]) or r[4] is not None and any(r[4]))


def _nonzero_span(tables) -> tuple[int, int]:
    """The first and last index at which some of the tables, all of one
    length n, is not zero, found without a Python step per entry; first > last
    if every entry is zero."""
    n = len(tables[0])
    return (min(next(compress(count(), table), n) for table in tables),
            n - 1 - min(next(compress(count(), reversed(table)), n) for table in tables))


def _kinds(spec: RingSpec, bound: int, w_lo: int, w_hi: int, b_top: int) -> list:
    """By b + 1, for b = -1, ..., b_top, the (first m, step, a, b, fulls,
    halves) of each (e, b) kind that holds a class at some weight w_lo..w_hi,
    the first at weight a and the last at weight b.  The tables are tuples,
    which the garbage collector stops tracking."""
    h = spec.effective_height
    free = _free_counts(spec, bound, w_lo, w_hi)
    kinds = []
    for b in range(-1, b_top + 1):
        lo, live = max(b, 0), []
        for e in (*range(h), h + 1):
            full = tuple([x - y for x, y in zip(free[lo], free[max(e, lo)])])
            half = tuple(free[e]) if b < 0 else None
            first_w, last_w = _nonzero_span((full,) if half is None else (full, half))
            if first_w <= last_w:
                first, step = (2**e, 2 ** (e + 1)) if e < h else (0, 2**h)
                live.append((first, step, w_lo + first_w, w_lo + last_w, full, half))
        kinds.append(live)
    return kinds


def _closed_form(spec: RingSpec, window: Window, bound: int) -> list:
    """Records from the predicate in valuation form: a slot of weight w at
    filtration s holds the weight-w monomials with b(s) <= l < e, and at
    s = 0 (b = -1) the rest as index-two sublattices.  Its counts are tabled
    over the box's weights up front, once per (e, b) kind (``_kinds``): the
    monomials of valuation >= max(b, 0) less those of valuation >= e, and at
    s = 0 those of valuation >= e, all rows of ``_free_counts``.  At each s
    only the m of the kinds whose table is not zero are visited: 2^e (2k + 1)
    for e < h, and the multiples of 2^h for e = h + 1, and of those only the
    m whose weights meet the weights a..b where the kind's table is not zero;
    a layer's record holds slices of its kind's tables."""
    h = spec.effective_height
    cr, dr, sr = _window_box(window)
    w_lo = (cr[0] + dr[0]) // 2
    kinds = _kinds(spec, bound, w_lo, (cr[-1] + dr[-1] + sr[-1]) // 2,
                   min(h, (sr[-1] + 1).bit_length() - 2))
    records, c_min, c_max = [], cr[0], cr[-1]
    for s in sr:
        ms, d_min, d_max = _m_range(cr, dr, s), dr[0] + s, dr[-1] + s
        for first, step, a, b, full, half in kinds[min(h, (s + 1).bit_length() - 2) + 1]:
            # layer m has the weights max(c_min - 2m, d_min + 2m) up to
            # min(c_max - 2m, d_max + 2m): they meet a..b on one run of m
            m_lo = max(ms.start, (c_min - b + 1) // 2, (a - d_max + 1) // 2)
            m_hi = min(ms.stop, (b - d_min) // 2 + 1, (c_max - a) // 2 + 1)
            for m in range(m_lo + (first - m_lo) % step, m_hi, step):
                c_lo, c_hi = max(c_min, d_min + 4 * m), min(c_max, d_max + 4 * m)
                i = c_lo - 2 * m - w_lo
                j = i + c_hi - c_lo + 1
                records.append((s, m, c_lo, full[i:j], None if half is None else half[i:j]))
    return records


def _layout(spec: RingSpec, window: Window, bound: int):
    """Where ``_page_by_page`` keeps exps * a^s * u^m: bit code of layer (s, m).
    The code has a digit per v exponent (minus its low, with a spare value
    above its high for a target), then the rank of the other exponents, dense
    for any number of generators.  Returns the box, the v digits' (low,
    place), the rank's place, and the factors (low, high, weight, place) of
    two series (see ``_series``): the v digits' codes, and the monomials in
    the other generators within the cap: no differential changes their
    exponents, so a class past it is never read out and meets none that is."""
    cr, dr, sr, pad_b = box = _page_box(spec, window, bound)
    # a polynomial exponent times its weight is at most the top weight plus
    # what the invertible exponents, each >= -pad_b, can take away
    top = (cr[-1] + dr[-1] + sr[-1]) // 2
    top += pad_b * sum(g.weight for g in spec.generators if g.invertible)

    def exponents(g, b):  # (low, high, weight), invertible ones within b
        return (-b, b, g.weight) if g.invertible else (0, max(top, 0) // g.weight, g.weight)

    digits, codes, radix = {}, [], 1
    for i in spec.v_index:
        lo, hi, weight = exponents(spec.generators[i], pad_b)
        digits[i] = (lo, radix)
        codes.append((lo, hi, weight, radix))
        radix *= hi - lo + 2
    rest = [(*exponents(g, bound), 0) for i, g in enumerate(spec.generators) if i not in digits]
    return box, digits, radix, (codes, rest)


def _series(table: list[int], lo: int, hi: int, weight: int, place: int) -> list[int]:
    """``table``, indexed by weight, times the sum over lo <= e <= hi of
    t^(e*weight) * x^(e - lo), x = 2^place; the result starts lo*weight
    lower.  One step per entry: each is x times the one a weight below plus
    the table's, less the term that went past hi, so the result is exact.  At
    place 0 it counts monomials; above, a term's bits are its codes."""
    n = hi - lo + 1
    out = table + [0] * ((n - 1) * weight)
    for k in range(weight, len(out)):
        out[k] += out[k - weight] << place
        if k >= n * weight:
            out[k] -= table[k - n * weight] << n * place
    return out


def _series_steps(factors) -> int:
    """The steps of ``_table``'s series, one per entry of each result."""
    entries, steps = 1, 0
    for lo, hi, weight, _ in factors:
        entries += (hi - lo) * weight
        steps += entries
    return steps


def _table(factors) -> dict[int, int]:
    """By weight, the product of ``_series`` over ``factors``, starting from
    the one monomial of weight 0."""
    first, table = 0, [1]
    for lo, hi, weight, place in factors:
        first, table = first + lo * weight, _series(table, lo, hi, weight, place)
    return dict(enumerate(table, first))


def _ranks(layout) -> tuple[list, int]:
    """The ranks of the monomials in the generators outside the v-chain:
    those of each weight x that a class of the region can have form one run
    (x, first rank, count).  Returns the runs that are not empty and the
    number of ranks."""
    (cr, dr, sr, _), _, _, (codes, rest) = layout
    v_lo, v_hi = sum(lo * w for lo, _, w, _ in codes), sum(hi * w for _, hi, w, _ in codes)
    counts = _table(rest)
    runs, start = [], 0
    for x in range((cr[0] + dr[0]) // 2 - v_hi, (cr[-1] + dr[-1] + sr[-1]) // 2 - v_lo + 1):
        if n := counts.get(x):
            runs.append((x, start, n))
            start += n
    return runs, start


def _unit(n: int, place: int) -> int:
    """Bits 0, place, ..., (n - 1)*place, doubled along the digits of n."""
    out, k = 0, 0
    for digit in bin(n)[2:]:
        out, k = out | out << k * place, 2 * k
        if digit == "1":
            out, k = out << place | 1, k + 1
    return out


def _materialize(spec: RingSpec, window: Window, bound: int):
    """The padded region's E2 classes as a bitset per layer, in one row per
    filtration s indexed by m - m_lo(s) (``_m_range``), the layout, and the
    bits of the monomials within the cap as a prefix sum over the weights
    from the region's lowest.  Weight w's bits are the sum over x of the v
    codes of weight w - x times the ranks of run x, and the capped ones lie
    under one mask: every rank, and an invertible v within the cap.  A layer
    is a difference of two prefix sums of all bits, taken a row at a time
    from slices of the prefix sums (``_rows``), and so is the capped mask of
    any run of weights: codes of different weights are disjoint."""
    layout = _layout(spec, window, bound)
    (cr, dr, sr, _), _, rank_place, (codes, _) = layout
    runs, n_ranks = _ranks(layout)
    table = _table(codes)
    mask = _unit(n_ranks, rank_place)
    for lo, hi, _, place in codes:  # an invertible v (lo < 0) within the cap only
        a, b = (-bound, bound) if lo < 0 else (lo, hi)
        mask *= _unit(b - a + 1, place) << (a - lo) * place
    runs = [(x, _unit(n, rank_place), start * rank_place) for x, start, n in runs]
    w_lo, prefix = (cr[0] + dr[0]) // 2, [0]
    for w in range(w_lo, (cr[-1] + dr[-1] + sr[-1]) // 2 + 1):
        bits = 0
        for x, run, at in runs:
            if code := table.get(w - x):
                bits += code * run << at
        prefix.append(prefix[-1] + bits)
    return _rows(prefix, cr, dr, sr), layout, [bits & mask for bits in prefix]


def _rows(prefix: list, cr: range, dr: range, sr: range) -> list:
    """A box's layers, in one row per filtration s indexed by m - m_lo(s),
    from ``prefix``, a prefix sum over the weights from the box's lowest, w_lo.
    Layer (s, m) is prefix[hi] - prefix[lo], hi = min(c_hi - 2m, d_hi + s + 2m)
    and lo = max(c_lo - 2m, d_lo + s + 2m), less w_lo (c_hi, d_hi one past
    the box).  As m rises, hi climbs by 2 until its terms cross at p, then
    falls by 2, and lo falls until q, then climbs: each run is one slice of
    prefix, read backwards where it falls, so no index is taken per layer."""
    w_lo = (cr[0] + dr[0]) // 2
    c_lo, c_hi, d_lo, d_hi = cr[0] - w_lo, cr[-1] - w_lo + 1, dr[0] - w_lo, dr[-1] - w_lo + 1
    rows = []
    for s in sr:
        m0, m1 = (ms := _m_range(cr, dr, s)).start, ms.stop
        p = min(max((c_hi - d_hi - s) // 4 + 1, m0), m1)
        q = min(max((c_lo - d_lo - s) // 4 + 1, m0), m1)
        top = (prefix[d_hi + s + 2 * m0:d_hi + s + 2 * p:2]
               + prefix[c_hi - 2 * m1 + 2:c_hi - 2 * p + 2:2][::-1])
        low = (prefix[c_lo - 2 * q + 2:c_lo - 2 * m0 + 2:2][::-1]
               + prefix[d_lo + s + 2 * q:d_lo + s + 2 * m1:2])
        rows.append(list(map(sub, top, low)))
    return rows


def _page_by_page(spec: RingSpec, window: Window, bound: int) -> tuple[list, tuple[int, ...]]:
    """Fire each page on ``_materialize``'s rows, then read the window's
    layers out as records.  Page e's sources are the layers
    m = 2^e mod 2^(e+1) of each row; a source's ``hit``, its live bits whose
    target (bit + place, in the layer a^r u^(-2^e) away) is live, leaves
    both layers; at s = 0 it is kept in ``half``.  A target layer outside
    the region holds nothing."""
    h = spec.effective_height
    rows, (box, digits, _, _), capped = _materialize(spec, window, bound)
    m_lo = [_m_range(box[0], box[1], s).start for s in box[2]]

    half, fired = {}, []
    for e in range(h):  # past the non-degenerate chain there is no v_{e+1}: d_r = 0
        r = 2 ** (e + 2) - 1
        # d_r multiplies by v_{e+1} a^r u^(-2^e), the same for every source
        idx = spec.v_index[e]
        dw, ds, dm = spec.generators[idx].weight, r, -(2**e)
        if (dw + 2 * dm, dw - 2 * dm - ds, ds) != (-1, 0, r):
            raise ArithmeticError("differential degree bookkeeping violated")
        place, page_fired = digits[idx][1], False
        for s in range(len(rows) - ds):
            row, target = rows[s], rows[s + ds]
            shift = m_lo[s] + dm - m_lo[s + ds]  # source index to target index
            for i in range((2**e - m_lo[s]) % 2 ** (e + 1), len(row), 2 ** (e + 1)):
                if not (src := row[i]) or not 0 <= (j := i + shift) < len(target):
                    continue
                if hit := src & (target[j] >> place):
                    row[i], target[j] = src ^ hit, target[j] ^ hit << place
                    if s == 0:
                        half[m_lo[0] + i] = hit
                    page_fired = True
        if page_fired:
            fired.append(r)

    records = []
    caps = [b - a for a, b in zip(capped, capped[1:])]  # each weight's capped bits
    w_lo = (box[0][0] + box[1][0]) // 2
    cr, dr, sr = _window_box(window)
    for s in sr:
        ms = _m_range(cr, dr, s)
        for m, layer in zip(ms, rows[s][ms.start - m_lo[s]:ms.stop - m_lo[s]]):
            lattice = 0 if s else half.get(m, 0)
            if not (layer or lattice):
                continue
            c_lo = max(cr[0], dr[0] + s + 4 * m)
            lo, hi = c_lo - 2 * m - w_lo, min(cr[-1], dr[-1] + s + 4 * m) - 2 * m - w_lo + 1
            if not (layer | lattice) & (capped[hi] - capped[lo]):
                continue  # no class of this layer is within the cap
            fulls = tuple([(layer & cap).bit_count() for cap in caps[lo:hi]])
            halves = tuple([(lattice & cap).bit_count() for cap in caps[lo:hi]]) if s == 0 else None
            records.append((s, m, c_lo, fulls, halves))
    return records, tuple(fired)


STRATEGY_CLOSED = "fast"
STRATEGY_PAGES = "reference"
STRATEGY_BOTH = "both"

# Most slots plus words or series steps one compute_einfty call may touch
# (see _work).
MAX_WORK = 1_000_000


def _series_order(generators, bound: int, w_hi: int) -> int:
    """The last power of t that ``_free_counts`` builds to reach weight w_hi."""
    return max(w_hi + bound * sum(g.weight for g in generators if g.invertible), 0)


def _free_counts(spec: RingSpec, bound: int, w_lo: int, w_hi: int) -> list[list[int]]:
    """Row l, entry w - w_lo: the weight-w monomials (invertible exponents in
    [-bound, bound]) that none of v_1, ..., v_l divides, those of valuation
    >= l: the basis of R/(v_1, ..., v_l).  Rows 0..h+1; the last is zero.

    Let v_1, ..., v_j be the polynomial v's before the first invertible one,
    which divides everything, so the rows past j are zero.  Row j is the
    coefficient of t^(w + shift), shift = bound * (sum of invertible weights),
    in prod_inv (1 - t^((2*bound+1)*wt)) / prod (1 - t^wt) over the generators
    other than v_1, ..., v_j, and row l - 1 is row l over 1 - t^|v_l|.  Each
    denominator of weight wt takes order + 1 - wt steps, priced by ``_work``."""
    h = spec.effective_height
    shift = bound * sum(g.weight for g in spec.generators if g.invertible)
    order = _series_order(spec.generators, bound, w_hi)
    j = next((l for l, i in enumerate(spec.v_index) if spec.generators[i].invertible), h)
    rest = [g for i, g in enumerate(spec.generators) if i not in spec.v_index[:j]]
    rows = [_poly.series_of_quotient([1], tuple(g.weight for g in rest), order)]
    for g in rest:
        if g.invertible:  # times 1 - t^cap: the exponent stays within [-bound, bound]
            cap = (2 * bound + 1) * g.weight
            for i in range(order, cap - 1, -1):
                rows[0][i] -= rows[0][i - cap]
    for i in reversed(spec.v_index[:j]):  # row l - 1 is row l over 1 - t^|v_l|
        rows.insert(0, _poly.series_of_quotient(rows[0], (spec.generators[i].weight,), order))
    return [[row[w + shift] if w + shift >= 0 else 0 for w in range(w_lo, w_hi + 1)]
            for row in rows] + [[0] * (w_hi - w_lo + 1)] * (h + 1 - j)


def _residues(rng: range, q: int) -> int:
    """The elements of rng congruent to q mod 4; ``len`` overflows past 2^63."""
    return max(0, (rng.stop - rng.start - (q - rng.start) % 4 + 3) // 4)


def _slot_count(cr: range, dr: range, sr: range) -> int:
    """Slots of a box, c = d + s mod 4, counted by residues, each range's
    taken once."""
    c, d, s = ([_residues(rng, q) for q in range(4)] for rng in (cr, dr, sr))
    return sum(c[(q + t) % 4] * d[q] * s[t] for q in range(4) for t in range(4))


def _layer_count(cr: range, dr: range, sr: range) -> int:
    """The nonempty layers of a box: at filtration s, those of ``_m_range``,
    (c_hi - d_lo - s)//4 + (d_hi + s - c_lo)//4 + 1, which depends only on
    s mod 4."""
    return sum(_residues(sr, t) * ((cr[-1] - dr[0] - t) // 4 + (dr[-1] + t - cr[0]) // 4 + 1)
               for t in range(4))


def _work(spec: RingSpec, window: Window, bound: int, strategy: str) -> int:
    """Slots visited plus what the strategies asked for touch, counted in
    arithmetic, walking no layer: for ``_page_by_page`` the 64-bit words of its
    bitsets (one per layer of the region, and per weight an entry of the
    prefix sums of all and of capped bits) or the steps of its series,
    whichever is more, and for ``_closed_form`` the steps of the series of
    ``_free_counts``, order + 1 - weight per generator.  Past ``MAX_WORK`` in
    slots, or in slots and the reference's steps, only those: no table is
    built."""
    page_box, box = _page_box(spec, window, bound), _window_box(window)
    pages, closed = strategy != STRATEGY_CLOSED, strategy != STRATEGY_PAGES
    work = pages * _slot_count(*page_box[:3]) + closed * _slot_count(*box)
    if work > MAX_WORK:
        return work
    if pages:
        layout = _layout(spec, window, bound)
        steps = sum(map(_series_steps, layout[3]))
        if work + steps > MAX_WORK:
            return work + steps
        (cr, dr, sr, _), _, radix, _ = layout
        n_bitsets = _layer_count(cr, dr, sr)
        n_bitsets += 2 * ((cr[-1] + dr[-1] + sr[-1]) // 2 - (cr[0] + dr[0]) // 2 + 1)
        layer_bytes = -(-radix * _ranks(layout)[1] // 8)
        work += max(steps, -(-n_bitsets * layer_bytes // 8))
    if closed:
        order = _series_order(spec.generators, bound, (box[0][-1] + box[1][-1] + box[2][-1]) // 2)
        work += sum(max(0, order + 1 - g.weight) for g in spec.generators)
    return work


def compute_einfty(spec: RingSpec, window: Window, strategy: str = STRATEGY_BOTH) -> EinftyChart:
    """E_infty chart on the window; both strategies must agree when asked.

    The page-by-page run materializes a padded region (page span in
    filtration, one column per firing page in the stem direction) so homology
    at the window edge is exact; padding and the exponent cap
    (``_auto_bound``) are computed, never configurable.
    A request whose ``_work`` is above ``MAX_WORK`` is refused first (ValueError).
    """
    if strategy not in (STRATEGY_CLOSED, STRATEGY_PAGES, STRATEGY_BOTH):
        raise ValueError(f"unknown strategy: {strategy}")
    bound = _auto_bound(spec, window)
    work = _work(spec, window, bound, strategy)
    if work > MAX_WORK:
        raise ValueError(
            f"hfpss window too large: {work} slots and monomials to visit, budget {MAX_WORK}"
        )
    collapse = 2 ** (spec.effective_height + 1)
    if strategy == STRATEGY_CLOSED:
        return EinftyChart(spec.name, window, bound, collapse, (),
                           records=_closed_form(spec, window, bound))
    pages, fired = _page_by_page(spec, window, bound)
    if strategy == STRATEGY_BOTH:
        closed = _closed_form(spec, window, bound)
        if _held(closed) != _held(pages):
            a, b = _entries(closed, window), _entries(pages, window)
            diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
            raise ArithmeticError(f"strategy disagreement at degrees {diff[:5]}")
    return EinftyChart(spec.name, window, bound, collapse, fired, records=pages)


_PRESETS = {spec.name: spec for spec in (
    RingSpec("height1-laurent", "Z2loc", (Generator("beta", 1, True),), ("beta",), TERM_INVERTIBLE),
    RingSpec("height2-poly", "Z2loc", (Generator("a1", 1), Generator("a3", 3)),
             ("a1", "a3"), TERM_IN_IDEAL),
    RingSpec("height2-laurent", "Z2loc", (Generator("a1", 1), Generator("a3", 3, True)),
             ("a1", "a3"), TERM_INVERTIBLE),
)}


def presets() -> dict[str, RingSpec]:
    """The three stock coefficient rings exercising every engine behavior,
    built and validated once; a new dict each call, so editing one changes
    no other."""
    return dict(_PRESETS)


RING_KEYS = ("name", "base", "generators", "v", "termination")


def ringspec_from_dict(data) -> RingSpec:
    """Ring spec from parsed JSON; a malformed shape raises ValueError."""
    if not isinstance(data, dict) or any(k not in data for k in RING_KEYS):
        raise ValueError(f"ring spec must be a JSON object with keys {', '.join(RING_KEYS)}")
    if not isinstance(data["name"], str):
        raise ValueError("ring spec 'name' must be a string")
    if not isinstance(data["generators"], list) or not all(
        isinstance(g, dict) and isinstance(g.get("sym"), str) and type(g.get("weight")) is int
        for g in data["generators"]
    ):
        raise ValueError("ring spec generators must be objects with a string 'sym' "
                         "and an integer 'weight'")
    if not all(type(g.get("invertible", False)) is bool for g in data["generators"]):
        raise ValueError("ring spec generator 'invertible' must be true or false")
    if not isinstance(data["v"], list) or not all(isinstance(sym, str) for sym in data["v"]):
        raise ValueError("ring spec 'v' must be a list of generator symbols")
    gens = tuple(
        Generator(g["sym"], g["weight"], g.get("invertible", False))
        for g in data["generators"]
    )
    return RingSpec(data["name"], data["base"], gens, tuple(data["v"]), data["termination"])


def load_ringspec(path: str) -> RingSpec:
    with open(path, encoding="utf-8") as fh:
        return ringspec_from_dict(json.load(fh))


def chart_to_dict(chart: EinftyChart) -> dict:
    return {
        "ring": chart.ring,
        "window": [chart.window.c, chart.window.d, chart.window.f],
        "bound": chart.bound,
        "collapse_page": chart.collapse_page,
        "entries": [
            {"c": c, "d": d, "classes": [[s, g, n] for s, g, n in classes]}
            for (c, d), classes in sorted(chart.entries.items())
        ],
    }


_GROUP_JSON = {g: json.dumps(g) for g in (GROUP_Z, GROUP_Z_DIV2, GROUP_Z2)}


def _json_cell(sig: tuple):
    """A slot's classes as the text of a JSON list's items, from its counts:
    each label's text, ``[s, "group", ``, is made once per signature."""
    heads = [f"[{s}, {_GROUP_JSON[g]}, " for s, g in _labels(sig)]
    return lambda counts: ", ".join([f"{head}{n}]" for head, n in zip(heads, counts) if n])


def render_json(chart: EinftyChart, version: int) -> str:
    """``json.dumps({**chart_to_dict(chart), "version": version},
    sort_keys=True)`` and a newline, written straight from the chart's grid
    (``_degrees``), which formats each distinct list of classes once.
    An entry is the head of its column c, its text and the tail of its row
    d, found from its place.  Heads and tails are formatted once per column
    and row when the grid holds more classes' texts than that; in a flat
    window, which holds fewer, each entry is formatted whole instead."""
    w, rows = chart.window, 2 * chart.window.d + 1
    grid = _degrees(chart.records, w, _json_cell)
    if len(grid) - grid.count(None) > 2 * w.c + 1 + rows:
        heads = [f'{{"c": {c}, "classes": [' for c in range(-w.c, w.c + 1)]
        tails = [f'], "d": {d}}}' for d in range(-w.d, w.d + 1)]
        parts = (f"{heads[i // rows]}{text}{tails[i % rows]}" for i, text in _held_cells(grid))
    else:  # heads and tails on a 999999 0 0 window: 1.35x its time, 2.3x its peak RSS
        parts = [f'{{"c": {i // rows - w.c}, "classes": [{text}], "d": {i % rows - w.d}}}'
                 for i, text in _held_cells(grid)]
        del grid  # not held through the join
    return (f'{{"bound": {chart.bound}, "collapse_page": {chart.collapse_page}, '
            f'"entries": [{", ".join(parts)}], "ring": {json.dumps(chart.ring)}, '
            f'"version": {version}, "window": [{w.c}, {w.d}, {w.f}]}}\n')


def render_ascii(chart: EinftyChart) -> str:
    """Rows are d descending, columns c ascending; cells count classes as
    lattice/index-two/F2 triples, written from the chart's grid
    (``_degrees``), which formats each distinct list of classes once.
    Columns are 9 wide, or one more than the longest cell, so cells never
    touch.  Row d is every (2D + 1)-th place of the grid from d + D; only
    the rows that hold a class are filled cell by cell."""
    w, texts = chart.window, set()

    def triple(z, z_div2, f2):
        texts.add(text := f"{z}/{z_div2}/{f2}")
        return text

    def cell(sig):  # a slot's counts: at s = 0 first the lattice, then index two
        if sig[0]:
            return lambda counts: triple(0, 0, sum(counts))
        return lambda counts: triple(counts[0], counts[1], sum(counts[2:]))

    grid, rows = _degrees(chart.records, w, cell), 2 * w.d + 1
    width = max([9] + [len(text) + 1 for text in texts])
    empty = ".".center(width)
    cells = {text: text.center(width) for text in texts}
    blank = empty * (2 * w.c + 1)
    out = io.StringIO()
    occupied = set(map(mod, compress(range(len(grid)), grid), repeat(rows)))
    for j in range(rows - 1, -1, -1):
        line = "".join(map(cells.get, grid[j::rows], repeat(empty))) if j in occupied else blank
        out.write(f"{j - w.d:>4} |{line}\n")
    out.write(f"     +{'-' * len(blank)}\n      ")
    out.writelines(map(str.center, map(str, range(-w.c, w.c + 1)), repeat(width)))
    out.write("\n")
    return out.getvalue()
