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

Two strategies are provided and must agree: ``page_by_page`` simulates the
differentials; ``closed_form`` evaluates the survivor predicate directly.
The predicate sees a monomial only through its v-divisibility mask, with
bit j set when v_{j+1} divides it (an invertible v divides everything).
With h the effective height, monomial * a^s * u^m is a permanent cycle iff

    m = 0,  or  val2(m) >= h,  or  mask & (2^val2(m) - 1) != 0,

and a boundary iff mask & B(s) != 0, where B(s) has bit j-1 for each j <= h
with s >= 2^(j+1) - 1.  Above filtration 0 the permanent cycles that are not
boundaries survive; at filtration 0 the permanent cycles are full lattices
and the rest index-two sublattices.  ``closed_form`` therefore counts the
monomials of each weight by mask once and sums the passing masks per slot.

Before either strategy runs, the work asked for (slots visited plus
monomials touched) is counted without enumerating it, and a request above
``MAX_WORK`` is refused with ValueError.

Laurent directions make homotopy infinite-rank per degree; enumeration caps
the exponents of invertible generators at a window-derived bound.  Reported
multiplicities are counts within that cap; emptiness and divisibility
statements are cap-independent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

from . import _poly

GROUP_Z = "Z"
GROUP_Z_DIV2 = "Z_div2"
GROUP_Z2 = "Z/2"

TERM_INVERTIBLE = "invertible"
TERM_IN_IDEAL = "in_ideal"

# Entries kept by the weight_basis cache; a warm hfpss-windows round holds 528.
WEIGHT_BASIS_CACHE_SIZE = 4096


@dataclass(frozen=True)
class RO2Degree:
    """c + d*sigma; the regular representation rho is 1 + sigma."""

    c: int
    d: int

    @property
    def underlying(self) -> int:
        return self.c + self.d

    def __add__(self, other: "RO2Degree") -> "RO2Degree":
        return RO2Degree(self.c + other.c, self.d + other.d)

    def __sub__(self, other: "RO2Degree") -> "RO2Degree":
        return RO2Degree(self.c - other.c, self.d - other.d)


@dataclass(frozen=True)
class Generator:
    sym: str
    weight: int
    invertible: bool = False


@dataclass(frozen=True)
class RingSpec:
    """A graded monomial coefficient ring with its v-sequence.

    ``v`` lists the generator symbols representing v_1, ..., v_h (v_0 = 2 is
    implicit).  ``termination`` declares how the chain ends: the last v is
    invertible, or the next one falls into the ideal of the earlier ones.
    A repeated symbol in the v-list marks the chain as degenerate from that
    point on; differentials beyond it vanish.

    Derived once at construction, and left out of ``==``, ``hash`` and
    ``repr``: ``effective_height``, the length of the non-degenerate initial
    segment of the v-chain, and ``v_index``, the generator index of each v
    in that segment.
    """

    name: str
    base: str
    generators: tuple[Generator, ...]
    v: tuple[str, ...]
    termination: str
    effective_height: int = field(init=False, compare=False, repr=False)
    v_index: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _index: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
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
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "effective_height", h_eff)
        object.__setattr__(self, "v_index", tuple(index[sym] for sym in self.v[:h_eff]))
        for k, i in enumerate(self.v_index, start=1):
            g = self.generators[i]
            if g.weight != 2**k - 1:
                raise ValueError(
                    f"v_{k} = {g.sym} must have weight {2**k - 1}, got {g.weight}"
                )
        if self.termination == TERM_INVERTIBLE and h_eff == len(self.v):
            if not self.generator(self.v[-1]).invertible:
                raise ValueError("termination 'invertible' requires an invertible last v")

    @property
    def height(self) -> int:
        return len(self.v)

    def generator(self, sym: str) -> Generator:
        return self.generators[self._index[sym]]

    def gen_index(self, sym: str) -> int:
        return self._index[sym]

    def divides(self, sym: str, exps: tuple[int, ...]) -> bool:
        """Whether the generator divides the monomial; invertible generators
        divide everything."""
        g = self.generator(sym)
        return g.invertible or exps[self.gen_index(sym)] >= 1

    @property
    def vanishing_line(self) -> int | None:
        """Filtration above which E_infty vanishes, if the chain ends invertibly."""
        if self.termination == TERM_INVERTIBLE and self.effective_height == len(self.v):
            return 2 ** (len(self.v) + 1) - 2
        return None


@lru_cache(maxsize=WEIGHT_BASIS_CACHE_SIZE)
def weight_basis(spec: RingSpec, w: int, bound: int) -> tuple[tuple[int, ...], ...]:
    """Monomial exponent tuples of weight w; invertible exponents in [-bound, bound]."""
    inv = [(i, g.weight) for i, g in enumerate(spec.generators) if g.invertible]
    poly = [(i, g.weight) for i, g in enumerate(spec.generators) if not g.invertible]
    out = []
    for inv_exps in product(range(-bound, bound + 1), repeat=len(inv)):
        rem = w - sum(e * wt for e, (_, wt) in zip(inv_exps, inv))
        stack = [(0, rem, ())]
        while stack:
            pos, need, acc = stack.pop()
            if pos == len(poly):
                if need == 0:
                    exps = [0] * len(spec.generators)
                    for (i, _), e in zip(inv, inv_exps):
                        exps[i] = e
                    for (i, _), e in zip(poly, acc):
                        exps[i] = e
                    out.append(tuple(exps))
                continue
            if need < 0:
                continue
            _, wt = poly[pos]
            if pos == len(poly) - 1:
                if need % wt == 0:
                    stack.append((pos + 1, 0, acc + (need // wt,)))
                continue
            for e in range(need // wt + 1):
                stack.append((pos + 1, need - e * wt, acc + (e,)))
    return tuple(sorted(out))


@dataclass(frozen=True)
class PageClass:
    """Monomial class w * a^s * u^m; filtration s, coefficients Z at s = 0
    and Z/2 above."""

    exps: tuple[int, ...]
    weight: int
    a_exp: int
    u_exp: int

    @property
    def filtration(self) -> int:
        return self.a_exp

    @property
    def degree(self) -> RO2Degree:
        return RO2Degree(
            self.weight + 2 * self.u_exp,
            self.weight - 2 * self.u_exp - self.a_exp,
        )

    @property
    def coefficient_group(self) -> str:
        return GROUP_Z if self.a_exp == 0 else GROUP_Z2


def _val2(m: int) -> int:
    return (m & -m).bit_length() - 1


def _page_exponent(r: int) -> int:
    """e with r = 2^(e+2) - 1, or raise."""
    x = r + 1
    if r < 3 or x & (x - 1):
        raise ValueError(f"differentials only fire on pages 2^k - 1 >= 3, not {r}")
    return x.bit_length() - 3


def e2_basis(
    spec: RingSpec, degree: RO2Degree | tuple[int, int], max_filtration: int,
    bound: int | None = None,
) -> list[PageClass]:
    """All E2 classes in one RO(C2) degree up to a filtration bound."""
    if isinstance(degree, tuple):
        degree = RO2Degree(*degree)
    c, d = degree.c, degree.d
    if bound is None:
        bound = (abs(c) + abs(d) + max_filtration) // 2 + 2
    out = []
    for s in range(0, max_filtration + 1):
        if (c + d + s) % 2 or (c - d - s) % 4:
            continue
        w = (c + d + s) // 2
        m = (c - d - s) // 4
        for exps in weight_basis(spec, w, bound):
            out.append(PageClass(exps, w, s, m))
    return sorted(out, key=lambda x: (x.a_exp, x.exps))


def differential(spec: RingSpec, cls: PageClass, r: int) -> PageClass | None:
    """Value of d_r on a monomial class, or None when it vanishes.

    Nonzero only when r matches the 2-adic valuation of the u-exponent
    (r = 2^(e+2)-1 with val_2(m) = e) and the (e+1)-st v exists in the
    non-degenerate chain; then d_r(w a^s u^m) = w*v_{e+1} a^(s+r) u^(m-2^e).
    """
    e = _page_exponent(r)
    m = cls.u_exp
    if m == 0 or _val2(m) != e:
        return None
    if e + 1 > spec.effective_height:
        return None
    idx = spec.v_index[e]
    exps = list(cls.exps)
    exps[idx] += 1
    target = PageClass(
        tuple(exps),
        cls.weight + spec.generators[idx].weight,
        cls.a_exp + r,
        m - 2**e,
    )
    src, tgt = cls.degree, target.degree
    if tgt.c != src.c - 1 or tgt.d != src.d or target.filtration != cls.filtration + r:
        raise ArithmeticError("differential degree bookkeeping violated")
    return target


def _v_mask(spec: RingSpec, exps: tuple[int, ...]) -> int:
    """v-divisibility mask of a monomial: bit j is set when v_{j+1} divides
    it (an invertible v divides everything)."""
    mask = 0
    for j, i in enumerate(spec.v_index):
        if exps[i] >= 1 or spec.generators[i].invertible:
            mask |= 1 << j
    return mask


def _is_permanent_cycle(h: int, mask: int, m: int) -> bool:
    """Whether u^m times a monomial with v-mask ``mask`` survives its one
    firing page: m = 0, or val2(m) >= h, or some v_j with j <= val2(m)
    divides the monomial."""
    if m == 0:
        return True
    e = _val2(m)
    return e >= h or mask & ((1 << e) - 1) != 0


def _boundary_mask(h: int, s: int) -> int:
    """B(s): bit j-1 for each j <= h with s >= 2^(j+1) - 1.  A class at
    filtration s with v-mask ``mask`` is a boundary iff ``mask & B(s)``."""
    return sum(1 << (j - 1) for j in range(1, h + 1) if s >= 2 ** (j + 1) - 1)


@dataclass(frozen=True)
class Window:
    """Symmetric degree rectangle |c| <= c, |d| <= d with filtration <= f."""

    c: int
    d: int
    f: int

    def __post_init__(self):
        if self.c < 0 or self.d < 0 or self.f < 0:
            raise ValueError("window extents must be nonnegative")

    def contains(self, c: int, d: int) -> bool:
        return abs(c) <= self.c and abs(d) <= self.d


@dataclass(frozen=True)
class EinftyChart:
    ring: str
    window: Window
    bound: int
    collapse_page: int
    pages_fired: tuple[int, ...]
    entries: dict  # (c, d) -> tuple of (filtration, group, multiplicity)

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
    """The region ``page_by_page`` materializes and its exponent cap: one
    column per firing page on each side in c, the span of every page in
    filtration, and the cap raised by h."""
    h = spec.effective_height
    return (
        range(-window.c - h - 1, window.c + h + 2),
        range(-window.d, window.d + 1),
        range(0, window.f + _page_span(h) + 1),
        bound + h,
    )


def _residues(rng: range, q: int) -> range:
    """The elements of ``rng`` congruent to q mod 4."""
    return range(rng.start + (q - rng.start) % 4, rng.stop, 4)


def _slots(cr, dr, sr):
    """(c, d, w, m, s) for each slot of a box: d = c - s mod 4 makes c - d - s
    divisible by 4 and c + d + s even."""
    for c in cr:
        for s in sr:
            for d in _residues(dr, c - s):
                yield c, d, (c + d + s) // 2, (c - d - s) // 4, s


def _closed_form(spec: RingSpec, window: Window, bound: int) -> dict:
    """Survivors from the predicate in mask form: the monomials of each
    weight are counted by v-mask once, and each slot sums the counts of the
    masks that pass."""
    h = spec.effective_height
    cr, dr, sr = _window_box(window)
    boundary = [_boundary_mask(h, s) for s in sr]
    hists: dict = {}
    survivors: dict = {}
    for c, d, w, m, s in _slots(cr, dr, sr):
        hist = hists.get(w)
        if hist is None:
            hist = hists[w] = {}
            for exps in weight_basis(spec, w, bound):
                mask = _v_mask(spec, exps)
                hist[mask] = hist.get(mask, 0) + 1
        n_total = n_cycle = n_alive = 0
        for mask, n in hist.items():
            n_total += n
            if _is_permanent_cycle(h, mask, m):
                n_cycle += n
                if not mask & boundary[s]:
                    n_alive += n
        if s == 0:
            if n_cycle:
                survivors.setdefault((c, d), []).append((0, GROUP_Z, n_cycle))
            if n_total - n_cycle:
                survivors.setdefault((c, d), []).append((0, GROUP_Z_DIV2, n_total - n_cycle))
        elif n_alive:
            survivors.setdefault((c, d), []).append((s, GROUP_Z2, n_alive))
    return {k: tuple(sorted(v)) for k, v in survivors.items()}


def _materialize(spec: RingSpec, window: Window, bound: int) -> tuple[dict, list, list, dict]:
    """The E2 classes of ``page_by_page``'s padded region as integer keys.

    A class exps * a^s * u^m is one integer with mixed-radix digits: each
    exponent minus its lowest possible value (with a spare value above its
    highest, for a differential's target), then s (with room for the longest
    page), then m on top, which needs no bound.  Returns the state (every key
    at 1), the sources filed under val2(m), the one page each can fire on,
    the places of the digits (one per generator, then s and m), and by weight
    the codes of the monomials within the window's exponent cap.
    """
    h = spec.effective_height
    cr, dr, sr, pad_b = _page_box(spec, window, bound)
    # a polynomial exponent times its weight is at most the top weight plus
    # what the invertible exponents, each >= -pad_b, can take away
    top = (cr[-1] + dr[-1] + sr[-1]) // 2
    top += pad_b * sum(g.weight for g in spec.generators if g.invertible)
    lows, place, radix = [], [], 1
    for g in spec.generators:
        lo, hi = (-pad_b, pad_b) if g.invertible else (0, max(top, 0) // g.weight)
        lows.append(lo)
        place.append(radix)
        radix *= hi - lo + 2
    place += [radix, radix * (sr[-1] + 2 ** (h + 1))]
    s_place, m_place = place[-2:]

    bases: dict = {}
    codes: dict = {}
    keys: list = []
    sources: list[list] = [[] for _ in range(h)]
    for c, d, w, m, s in _slots(cr, dr, sr):
        if w not in codes:
            bases[w] = weight_basis(spec, w, pad_b)
            codes[w] = [
                sum((x - lo) * p for x, lo, p in zip(exps, lows, place)) for exps in bases[w]
            ]
        offset = s * s_place + m * m_place
        slot = [x + offset for x in codes[w]]
        keys += slot
        if m and (e := _val2(m)) < h:
            sources[e] += slot
    state = dict.fromkeys(keys, 1)

    inv_idx = [i for i, g in enumerate(spec.generators) if g.invertible]
    capped = {
        w: [x for exps, x in zip(bases[w], codes[w])
            if all(abs(exps[i]) <= bound for i in inv_idx)]
        for w in bases
    }
    return state, sources, place, capped


def _page_by_page(spec: RingSpec, window: Window, bound: int) -> tuple[dict, tuple[int, ...]]:
    """Run the differentials page by page on ``_materialize``'s classes.

    The d_r of a page adds one fixed shift to a source's key, so its target
    is ``key + shift``.  State 1 is a full lattice (or F2 class) alive, 2 the
    index-two sublattice left.
    """
    h = spec.effective_height
    state, sources, place, capped = _materialize(spec, window, bound)
    s_place, m_place = place[-2:]

    fired = []
    for e in range(h + 2):
        r = 2 ** (e + 2) - 1
        page_fired = False
        if e < h:  # past the non-degenerate chain there is no v_{e+1}: d_r = 0
            # d_r multiplies by v_{e+1} a^r u^(-2^e), the same for every source
            idx = spec.v_index[e]
            dw, ds, dm = spec.generators[idx].weight, r, -(2**e)
            if (dw + 2 * dm, dw - 2 * dm - ds, ds) != (-1, 0, r):
                raise ArithmeticError("differential degree bookkeeping violated")
            shift = place[idx] + ds * s_place + dm * m_place
            for key in sources[e]:
                if state.get(key) != 1:
                    continue
                target = key + shift
                if state.get(target) != 1:
                    continue  # dead or unmaterialized target: differential is zero here
                page_fired = True
                del state[target]
                if key % m_place < s_place:  # s == 0
                    state[key] = 2
                else:
                    del state[key]
        if page_fired:
            if e >= h:
                raise ArithmeticError("differential fired past the declared collapse")
            fired.append(r)

    survivors: dict = {}
    for c, d, w, m, s in _slots(*_window_box(window)):
        offset = s * s_place + m * m_place
        alive = [state.get(x + offset) for x in capped[w]]
        if s:
            found = ((s, GROUP_Z2, alive.count(1)),)
        else:
            found = ((0, GROUP_Z, alive.count(1)), (0, GROUP_Z_DIV2, alive.count(2)))
        for entry in found:
            if entry[2]:
                survivors.setdefault((c, d), []).append(entry)
    return {k: tuple(sorted(v)) for k, v in survivors.items()}, tuple(fired)


STRATEGY_CLOSED = "closed_form"
STRATEGY_PAGES = "page_by_page"
STRATEGY_BOTH = "both"

# Most slots plus monomials one compute_einfty call may visit (see _work).
MAX_WORK = 1_000_000


def _weight_counts(spec: RingSpec, bound: int, w_lo: int, w_hi: int) -> list[int]:
    """Entry w - w_lo: the number of weight-w monomials with invertible
    exponents in [-bound, bound], for w_lo <= w <= w_hi.

    The coefficient of t^(w + shift), shift = bound * (sum of invertible
    weights), in prod_inv (1 - t^((2*bound+1)*wt)) / prod_all (1 - t^wt).
    The table costs one step per weight and generator up to t^(w_hi + shift);
    past ``MAX_WORK`` steps (heavy invertible generators) it is refused.
    """
    shift = bound * sum(g.weight for g in spec.generators if g.invertible)
    order = max(w_hi + shift, 0)
    if (order + 1) * len(spec.generators) > MAX_WORK:
        raise ValueError(
            f"hfpss window too large: a weight-count table of {order + 1} weights "
            f"by {len(spec.generators)} generators, budget {MAX_WORK}"
        )
    series = _poly.series_of_quotient([1], tuple(g.weight for g in spec.generators), order)
    for g in spec.generators:
        if g.invertible:  # times 1 - t^cap: the exponent stays within [-bound, bound]
            cap = (2 * bound + 1) * g.weight
            for i in range(order, cap - 1, -1):
                series[i] -= series[i - cap]
    return [series[w + shift] if w + shift >= 0 else 0 for w in range(w_lo, w_hi + 1)]


def _slot_count(cr: range, dr: range, sr: range) -> int:
    """Slots of a box, c = d + s mod 4, counted by residues."""
    return sum(
        len(_residues(cr, q + t)) * len(_residues(dr, q)) * len(_residues(sr, t))
        for q in range(4) for t in range(4)
    )


def _monomial_count(spec: RingSpec, cr, dr, sr, bound: int, per_slot: bool) -> int:
    """Monomials of the box's slot weights: summed over every slot (the
    states of ``page_by_page``) when ``per_slot``, else over the distinct
    weights (the histograms of ``closed_form``).  One step per (c, s) pair:
    the slots of a pair have weights w0, w0 + 2, ..., w1."""
    w_lo = (cr.start + dr.start + sr.start) // 2
    counts = _weight_counts(spec, bound, w_lo, (cr[-1] + dr[-1] + sr[-1]) // 2)
    prefix = [0, 0] + counts  # prefix[i + 2] = counts[i] + counts[i - 2] + ...
    for i in range(2, len(prefix)):
        prefix[i] += prefix[i - 2]
    seen = bytearray(len(counts))
    states = 0
    for c in cr:
        for s in sr:
            ds = _residues(dr, c - s)
            if ds:
                w0, w1 = (c + ds[0] + s) // 2 - w_lo, (c + ds[-1] + s) // 2 - w_lo
                states += prefix[w1 + 2] - prefix[w0]
                seen[w0:w1 + 1:2] = b"\x01" * len(ds)
    if per_slot:
        return states
    return sum(n for n, hit in zip(counts, seen) if hit)


def _work(spec: RingSpec, window: Window, bound: int, strategy: str) -> int:
    """Slots visited plus monomials touched by the strategies asked for,
    counted without enumerating either.  Once the slots alone pass
    ``MAX_WORK`` the monomials are not counted."""
    boxes = []
    if strategy != STRATEGY_CLOSED:
        boxes.append((*_page_box(spec, window, bound), True))
    if strategy != STRATEGY_PAGES:
        boxes.append((*_window_box(window), bound, False))
    work = sum(_slot_count(cr, dr, sr) for cr, dr, sr, _, _ in boxes)
    if work > MAX_WORK:
        return work
    return work + sum(_monomial_count(spec, *box) for box in boxes)


def compute_einfty(
    spec: RingSpec, window: Window, strategy: str = STRATEGY_BOTH,
    bound: int | None = None,
) -> EinftyChart:
    """E_infty chart on the window; both strategies must agree when asked.

    The page-by-page run materializes a padded region (page span in
    filtration, one column per firing page in the stem direction) so homology
    at the window edge is exact; padding is computed, never configurable.
    Before either strategy runs, their work is counted (``_work``) and a
    request above ``MAX_WORK`` is refused with ValueError.
    """
    if strategy not in (STRATEGY_CLOSED, STRATEGY_PAGES, STRATEGY_BOTH):
        raise ValueError(f"unknown strategy: {strategy}")
    if bound is None:
        bound = _auto_bound(spec, window)
    if bound < 1:
        raise ValueError("window too small to pad")
    work = _work(spec, window, bound, strategy)
    if work > MAX_WORK:
        raise ValueError(
            f"hfpss window too large: {work} slots and monomials to visit, budget {MAX_WORK}"
        )
    collapse = 2 ** (spec.effective_height + 1)
    if strategy == STRATEGY_CLOSED:
        return EinftyChart(spec.name, window, bound, collapse, (), _closed_form(spec, window, bound))
    pages, fired = _page_by_page(spec, window, bound)
    if strategy == STRATEGY_BOTH:
        closed = _closed_form(spec, window, bound)
        if closed != pages:
            diff_keys = {
                k
                for k in set(closed) | set(pages)
                if closed.get(k) != pages.get(k)
            }
            raise ArithmeticError(f"strategy disagreement at degrees {sorted(diff_keys)[:5]}")
    return EinftyChart(spec.name, window, bound, collapse, fired, pages)


def is_strongly_even(chart: EinftyChart, weight_range: tuple[int, int]) -> bool:
    """Check the k*rho / k*rho-1 / k*rho-2 pattern on the chart.

    True iff degrees k*rho-1 and k*rho-2 are empty and every class at k*rho
    is a full lattice at filtration 0, for all k in the range.  The chart
    window must cover all three degrees for every k.
    """
    k0, k1 = weight_range
    for k in range(k0, k1 + 1):
        for c, d in ((k, k), (k - 1, k), (k - 2, k)):
            if not chart.window.contains(c, d):
                raise ValueError(f"window does not cover degree ({c},{d})")
    for k in range(k0, k1 + 1):
        if chart.at(k - 1, k) or chart.at(k - 2, k):
            return False
        for s, group, _ in chart.at(k, k):
            if s != 0 or group != GROUP_Z:
                return False
    return True


def _normalize_image(spec: RingSpec, terms) -> tuple[int, ...] | None | str:
    """Reduce a generator image mod 2 to a single monomial, None (zero), or
    'unsupported' when more than one odd term remains."""
    if isinstance(terms, tuple) and terms and isinstance(terms[0], int):
        terms = [terms]
    odd = []
    for coeff, exps in terms:
        if coeff % 2:
            odd.append(tuple(exps))
    if not odd:
        return None
    if len(odd) > 1:
        return "unsupported"
    e = odd[0]
    if len(e) != len(spec.generators):
        raise ValueError("image exponent tuple has wrong arity")
    for g, x in zip(spec.generators, e):
        if x < 0 and not g.invertible:
            raise ValueError(f"negative exponent on non-invertible {g.sym}")
    return e


def transfer_check(
    source: RingSpec, target: RingSpec, gen_map: dict, max_weight: int,
    bound: int = 8,
) -> dict:
    """Mod-(2, v_1, .., v_i) injectivity of a monomial ring map, per level i.

    ``gen_map`` sends each source generator to a target monomial with integer
    coefficient, or to a list of such terms whose mod-2 reduction must be a
    single monomial (else the level reports 'unsupported').  Reduction by the
    v-ideals is exponent-wise: a monomial dies iff some listed v has positive
    exponent in it.  Weights 0..max_weight are compared.
    """
    images: dict[str, object] = {}
    unsupported = False
    for g in source.generators:
        if g.sym not in gen_map:
            raise ValueError(f"no image for generator {g.sym}")
        img = _normalize_image(target, gen_map[g.sym])
        if img == "unsupported":
            unsupported = True
        images[g.sym] = img

    def reduced_basis(spec: RingSpec, vsyms, w):
        idxs = [spec.gen_index(s) for s in vsyms]
        return [
            exps for exps in weight_basis(spec, w, bound)
            if all(exps[i] == 0 for i in idxs)
        ]

    levels = range(0, min(source.height, target.height) + 1)
    out = {}
    for i in levels:
        if unsupported:
            out[i] = "unsupported"
            continue
        src_v = source.v[:i]
        tgt_v = target.v[:i]
        tgt_idxs = [target.gen_index(s) for s in tgt_v]
        seen: dict = {}
        ok = True
        for w in range(0, max_weight + 1):
            for exps in reduced_basis(source, src_v, w):
                img = [0] * len(target.generators)
                zero = False
                for g, x in zip(source.generators, exps):
                    if x == 0:
                        continue
                    gi = images[g.sym]
                    if gi is None:
                        zero = True
                        break
                    for j, e in enumerate(gi):
                        img[j] += e * x
                if not zero:
                    zero = any(img[j] >= 1 for j in tgt_idxs)
                if zero:
                    ok = False
                    break
                key = tuple(img)
                if key in seen:
                    ok = False
                    break
                seen[key] = exps
            if not ok:
                break
        out[i] = ok
    return out


@dataclass(frozen=True)
class VChainReport:
    declared_height: int
    effective_height: int
    degenerate: bool
    rule_vanishes_past_chain: bool
    pages_fired: tuple[int, ...]


def v_chain_check(spec: RingSpec) -> VChainReport:
    """Confirm that differentials past the (possibly degenerate) v-chain vanish."""
    h = spec.effective_height
    zero_exps = tuple(0 for _ in spec.generators)
    vanish = True
    for e in range(h, h + 3):
        probe = PageClass(zero_exps, 0, 0, 2**e)
        if differential(spec, probe, 2 ** (e + 2) - 1) is not None:
            vanish = False
    chart = compute_einfty(spec, Window(8, 8, 8), STRATEGY_PAGES)
    allowed = {2 ** (e + 2) - 1 for e in range(h)}
    if not set(chart.pages_fired) <= allowed:
        vanish = False
    return VChainReport(spec.height, h, h < spec.height, vanish, chart.pages_fired)


def presets() -> dict[str, RingSpec]:
    """The three stock coefficient rings exercising every engine behavior."""
    return {
        "height1-laurent": RingSpec(
            "height1-laurent", "Z2loc",
            (Generator("beta", 1, True),),
            ("beta",), TERM_INVERTIBLE,
        ),
        "height2-poly": RingSpec(
            "height2-poly", "Z2loc",
            (Generator("a1", 1), Generator("a3", 3)),
            ("a1", "a3"), TERM_IN_IDEAL,
        ),
        "height2-laurent": RingSpec(
            "height2-laurent", "Z2loc",
            (Generator("a1", 1), Generator("a3", 3, True)),
            ("a1", "a3"), TERM_INVERTIBLE,
        ),
    }


RING_KEYS = ("name", "base", "generators", "v", "termination")


def ringspec_from_dict(data) -> RingSpec:
    """Ring spec from parsed JSON; a malformed shape raises ValueError."""
    if not isinstance(data, dict) or any(k not in data for k in RING_KEYS):
        raise ValueError(f"ring spec must be a JSON object with keys {', '.join(RING_KEYS)}")
    if not isinstance(data["generators"], list) or not all(
        isinstance(g, dict) and isinstance(g.get("sym"), str) and isinstance(g.get("weight"), int)
        for g in data["generators"]
    ):
        raise ValueError("ring spec generators must be objects with a string 'sym' "
                         "and an integer 'weight'")
    if not isinstance(data["v"], list):
        raise ValueError("ring spec 'v' must be a list of generator symbols")
    gens = tuple(
        Generator(g["sym"], int(g["weight"]), bool(g.get("invertible", False)))
        for g in data["generators"]
    )
    return RingSpec(data["name"], data["base"], gens, tuple(data["v"]), data["termination"])


def load_ringspec(path: str) -> RingSpec:
    with open(path, encoding="utf-8") as fh:
        return ringspec_from_dict(json.load(fh))


def ringspec_to_dict(spec: RingSpec) -> dict:
    return {
        "name": spec.name,
        "base": spec.base,
        "generators": [
            {"sym": g.sym, "weight": g.weight, "invertible": g.invertible}
            for g in spec.generators
        ],
        "v": list(spec.v),
        "termination": spec.termination,
    }


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


def render_ascii(chart: EinftyChart) -> str:
    """Rows are d descending, columns c ascending; cells count classes as
    lattice/index-two/F2 triples."""
    lines = []
    for d in range(chart.window.d, -chart.window.d - 1, -1):
        cells = []
        for c in range(-chart.window.c, chart.window.c + 1):
            classes = chart.entries.get((c, d), ())
            if not classes:
                cells.append(".".center(9))
                continue
            nz = sum(n for s, g, n in classes if g == GROUP_Z)
            n2 = sum(n for s, g, n in classes if g == GROUP_Z_DIV2)
            nf = sum(n for s, g, n in classes if g == GROUP_Z2)
            cells.append(f"{nz}/{n2}/{nf}".center(9))
        lines.append(f"{d:>4} |" + "".join(cells))
    lines.append("     +" + "-" * (9 * (2 * chart.window.c + 1)))
    lines.append("      " + "".join(str(c).center(9) for c in range(-chart.window.c, chart.window.c + 1)))
    return "\n".join(lines) + "\n"
