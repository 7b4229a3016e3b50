"""Per-class library API of the HFPSS engine, used by no command.

Explicit E2 classes and their differentials (``e2_basis``, ``differential``),
the strongly-even predicate on a chart, the quotient-injectivity check of a
ring map (``transfer_check``) and the v-chain check.  It imports the engine
(``hfpss``), never the reverse; ``tmflevels.hfpss`` hands out these names on
first use, so they stay reachable there and an ``hfpss`` request never
loads this module.
"""

from __future__ import annotations

from typing import NamedTuple

from . import hfpss
from .hfpss import GROUP_Z, GROUP_Z2, STRATEGY_PAGES, EinftyChart, RingSpec, Window

__all__ = [
    "RO2Degree", "weight_basis", "PageClass", "e2_basis", "differential",
    "is_strongly_even", "transfer_check", "VChainReport", "v_chain_check",
]


class RO2Degree(NamedTuple):
    """c + d*sigma; the regular representation rho is 1 + sigma."""

    c: int
    d: int

    @property
    def underlying(self) -> int:
        return self.c + self.d

    def __add__(self, other: "RO2Degree") -> "RO2Degree":
        return RO2Degree(self.c + other.c, self.d + other.d)


def weight_basis(spec: RingSpec, w: int, bound: int) -> tuple[tuple[int, ...], ...]:
    """Monomial exponent tuples of weight w; invertible exponents in [-bound, bound].
    Each exponent is taken only where the generators after it can still make
    up the rest of w: reach[k] holds the least and the most weight that the
    k-th generator of the walk and those after it make up (None: no most).
    The invertible generators go first, so the polynomial ones after them see
    a weight bounded below and the last exponent is fixed by the rest."""
    gens = spec.generators
    walk = sorted(range(len(gens)), key=lambda i: not gens[i].invertible)
    reach = [(0, 0)]
    for i in reversed(walk):
        (lo, hi), g = reach[-1], gens[i]
        if g.invertible:
            reach.append((lo - bound * g.weight, None if hi is None else hi + bound * g.weight))
        else:
            reach.append((lo, None))
    reach.reverse()
    partial = {w: [()]}  # by the weight left to make up, the exponents so far
    for i, (lo, hi) in zip(walk, reach[1:]):
        g, grown = gens[i], {}
        for need, accs in partial.items():
            e_lo, e_hi = -bound if g.invertible else 0, (need - lo) // g.weight
            if g.invertible:
                e_hi = min(e_hi, bound)
            if hi is not None:
                e_lo = max(e_lo, -((hi - need) // g.weight))
            for e in range(e_lo, e_hi + 1):
                grown.setdefault(need - e * g.weight, []).extend([acc + (e,) for acc in accs])
        partial = grown
    out = partial.get(0, [])
    if walk != sorted(walk):  # back to the order of the generators
        at = [walk.index(i) for i in range(len(gens))]
        out = [tuple(acc[k] for k in at) for acc in out]
    return tuple(sorted(out))


class PageClass(NamedTuple):
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


def _page_exponent(r: int) -> int:
    """e with r = 2^(e+2) - 1, or raise."""
    x = r + 1
    if r < 3 or x & (x - 1):
        raise ValueError(f"differentials only fire on pages 2^k - 1 >= 3, not {r}")
    return x.bit_length() - 3


def e2_basis(
    spec: RingSpec, degree: RO2Degree | tuple[int, int], max_filtration: int,
) -> list[PageClass]:
    """All E2 classes in one RO(C2) degree up to a filtration bound, the
    invertible exponents within (|c| + |d| + max_filtration)//2 + 2."""
    c, d = degree
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
    if m & -m != 2**e:  # m = 0 or val_2(m) != e
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


def transfer_check(source: RingSpec, target: RingSpec, gen_map: dict, max_weight: int) -> dict:
    """Mod-(2, v_1, .., v_i) injectivity of a monomial ring map, per level i.

    ``gen_map`` sends each source generator to a target monomial with integer
    coefficient, or to a list of such terms whose mod-2 reduction must be a
    single monomial (else the level reports 'unsupported').  A monomial dies
    mod (2, v_1, .., v_i) iff ``RingSpec.divides`` says one of those v
    divides it, so an invertible v kills everything.  Level i holds iff the
    source monomials that survive map to distinct target monomials that
    survive.  Weights 0..max_weight are compared, the source's invertible
    exponents within [-8, 8].
    """
    images = []
    for g in source.generators:
        if g.sym not in gen_map:
            raise ValueError(f"no image for generator {g.sym}")
        images.append(_normalize_image(target, gen_map[g.sym]))
    levels = range(0, min(source.height, target.height) + 1)
    if "unsupported" in images:
        return dict.fromkeys(levels, "unsupported")

    def image(exps):  # None when a generator that occurs maps to 0 mod 2
        img = [0] * len(target.generators)
        for gi, x in zip(images, exps):
            if x:
                if gi is None:
                    return None
                img = [y + e * x for y, e in zip(img, gi)]
        return tuple(img)

    mapped = [(exps, image(exps)) for w in range(max_weight + 1)
              for exps in weight_basis(source, w, 8)]
    out = {}
    for i in levels:
        imgs = [img for exps, img in mapped
                if not any(source.divides(v, exps) for v in source.v[:i])]
        out[i] = (None not in imgs and len(set(imgs)) == len(imgs)
                  and not any(target.divides(v, img) for img in imgs for v in target.v[:i]))
    return out


class VChainReport(NamedTuple):
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
    chart = hfpss.compute_einfty(spec, Window(8, 8, 8), STRATEGY_PAGES)
    allowed = {2 ** (e + 2) - 1 for e in range(h)}
    if not set(chart.pages_fired) <= allowed:
        vanish = False
    return VChainReport(spec.height, h, h < spec.height, vanish, chart.pages_fired)
