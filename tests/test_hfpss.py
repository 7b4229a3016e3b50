"""Spectral sequence engine: presets, differentials, pages, predicates."""

import itertools
import json
import re
import tracemalloc
from itertools import repeat
from pathlib import Path

import pytest

from tmflevels import _poly, hfpss, hfpss_api
from tmflevels.hfpss import (
    GROUP_Z,
    GROUP_Z2,
    GROUP_Z_DIV2,
    MAX_WORK,
    RING_KEYS,
    STRATEGY_BOTH,
    STRATEGY_CLOSED,
    STRATEGY_PAGES,
    EinftyChart,
    Generator,
    PageClass,
    RingSpec,
    RO2Degree,
    Window,
    _auto_bound,
    _closed_form,
    _entries,
    _free_counts,
    _layer_count,
    _layout,
    _m_range,
    _materialize,
    _page_box,
    _page_by_page,
    _ranks,
    _slot_count,
    _window_box,
    _work,
    chart_to_dict,
    compute_einfty,
    differential,
    e2_basis,
    is_strongly_even,
    load_ringspec,
    presets,
    render_ascii,
    render_json,
    ringspec_from_dict,
    transfer_check,
    v_chain_check,
    weight_basis,
)

P = presets()
H1 = P["height1-laurent"]
H2P = P["height2-poly"]
H2L = P["height2-laurent"]
DEGENERATE = RingSpec("degenerate", "Z2loc", (Generator("x", 1),), ("x", "x"), "in_ideal")
EMPTY_V = RingSpec("empty-v", "Z2loc", (Generator("x", 1),), (), "in_ideal")
CUSTOM = load_ringspec(Path(__file__).parent / "golden" / "ring_custom.json")
INV_V1 = RingSpec(
    "inv-v1", "Z2loc", (Generator("b1", 1, True), Generator("a3", 3)), ("b1", "a3"), "in_ideal"
)
THREE = RingSpec(
    "height3-poly", "Z2loc", (Generator("a1", 1), Generator("a3", 3), Generator("a7", 7)),
    ("a1", "a3", "a7"), "in_ideal",
)
ORACLE_RINGS = (H1, H2P, H2L, DEGENERATE, CUSTOM, INV_V1, THREE)
TWELVE = load_ringspec(Path(__file__).parent / "golden" / "ring_twelve.json")
INV_REST = RingSpec(
    "inv-rest", "Z2loc", (Generator("a1", 1), Generator("a3", 3), Generator("t", 2, True)),
    ("a1", "a3"), "in_ideal",
)
OUTSIDE = RingSpec(  # a polynomial and an invertible generator outside the v-chain
    "outside", "Z2loc", (Generator("a1", 1), Generator("p", 2), Generator("t", 3, True)),
    ("a1",), "in_ideal",
)
MANY = RingSpec("many", "Z2loc", tuple(Generator(f"g{i}", 1, True) for i in range(20)),
                ("g0",), "invertible")
ORACLE_WINDOWS = [Window(*w) for w in itertools.product((0, 1, 3, 7, 12), repeat=3)]


ORACLE_SMALL_CAPS = list(itertools.product(
    (Window(3, 3, 3), Window(7, 3, 12), Window(12, 7, 7)), (1, 2)
))


def ringspec_to_dict(spec):
    """The ring file's JSON object of ``spec``, ``ringspec_from_dict``'s
    inverse."""
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


def _layers(cr, dr, sr):
    """(s, m, c_lo, c_hi) for each nonempty layer of a box, the walk
    ``_layer_count`` counts.  The slots at filtration s and u-exponent m are
    c_lo <= c <= c_hi, with d = c - s - 4m and weight w = c - 2m, so a
    layer's weights form one interval."""
    for s in sr:
        for m in _m_range(cr, dr, s):
            yield s, m, max(cr[0], dr[0] + s + 4 * m), min(cr[-1], dr[-1] + s + 4 * m)


def closed_chart(spec, window, bound):
    """``_closed_form``'s records as the (c, d) -> classes dict."""
    return _entries(_closed_form(spec, window, bound), window)


def pages_chart(spec, window, bound):
    """``_page_by_page``'s records as the (c, d) -> classes dict, and the
    pages it fired."""
    records, fired = _page_by_page(spec, window, bound)
    return _entries(records, window), fired


def oracle_cases(spec):
    """The windows the oracles run on, with their exponent caps: the
    automatic caps, then caps small enough that differentials leave the
    materialized exponent range."""
    return [(w, _auto_bound(spec, w)) for w in ORACLE_WINDOWS] + ORACLE_SMALL_CAPS


def per_monomial_closed_form(spec, window, bound):
    """The closed form before the mask rewrite: every monomial of every slot
    goes through the survivor predicate, with divisibility tested by
    ``RingSpec.divides``."""
    h = spec.effective_height

    def permanent(exps, m):
        if m == 0:
            return True
        e = (m & -m).bit_length() - 1
        if e >= h:
            return True
        return any(spec.divides(spec.v[j - 1], exps) for j in range(1, e + 1))

    def boundary(exps, s):
        return any(
            s >= 2 ** (j + 1) - 1 and spec.divides(spec.v[j - 1], exps)
            for j in range(1, h + 1)
        )

    survivors, bases = {}, {}
    for c in range(-window.c, window.c + 1):
        for d in range(-window.d, window.d + 1):
            for s in range(0, window.f + 1):
                if (c + d + s) % 2 or (c - d - s) % 4:
                    continue
                w, m = (c + d + s) // 2, (c - d - s) // 4
                if w not in bases:
                    bases[w] = weight_basis(spec, w, bound)
                basis = bases[w]
                n_cycle = sum(1 for exps in basis if permanent(exps, m))
                if s == 0:
                    found = [(0, GROUP_Z, n_cycle), (0, GROUP_Z_DIV2, len(basis) - n_cycle)]
                else:
                    n = sum(1 for exps in basis if permanent(exps, m) and not boundary(exps, s))
                    found = [(s, GROUP_Z2, n)]
                survivors.setdefault((c, d), []).extend(x for x in found if x[2])
    return {k: tuple(sorted(v)) for k, v in survivors.items() if v}


def dict_page_by_page(spec, window, bound):
    """The reference before the bitset rewrite: one dict entry per class,
    keyed by a mixed-radix integer (each exponent minus its lowest value,
    with a spare value above its highest, then s with room for the longest
    page, then m on top), and one differential at a time.  State 1 is a full
    lattice (or F2 class) alive, 2 the index-two sublattice left."""
    def slots(cr, dr, sr):
        for c in cr:
            for s in sr:
                for d in range(dr.start + (c - s - dr.start) % 4, dr.stop, 4):
                    yield c, d, (c + d + s) // 2, (c - d - s) // 4, s

    h = spec.effective_height
    cr, dr, sr, pad_b = _page_box(spec, window, bound)
    top = (cr[-1] + dr[-1] + sr[-1]) // 2
    top += pad_b * sum(g.weight for g in spec.generators if g.invertible)
    lows, place, radix = [], [], 1
    for g in spec.generators:
        lo, hi = (-pad_b, pad_b) if g.invertible else (0, max(top, 0) // g.weight)
        lows.append(lo)
        place.append(radix)
        radix *= hi - lo + 2
    s_place, m_place = radix, radix * (sr[-1] + 2 ** (h + 1))
    bases, codes, state, sources = {}, {}, {}, [[] for _ in range(h)]
    for c, d, w, m, s in slots(cr, dr, sr):
        if w not in codes:
            bases[w] = weight_basis(spec, w, pad_b)
            codes[w] = [sum((x - lo) * p for x, lo, p in zip(exps, lows, place))
                        for exps in bases[w]]
        slot = [x + s * s_place + m * m_place for x in codes[w]]
        state.update(dict.fromkeys(slot, 1))
        if m and (m & -m).bit_length() - 1 < h:
            sources[(m & -m).bit_length() - 1] += slot

    fired = []
    for e in range(h):
        idx = spec.v_index[e]
        r = 2 ** (e + 2) - 1
        shift = place[idx] + r * s_place - 2**e * m_place
        page_fired = False
        for key in sources[e]:
            if state.get(key) == 1 and state.get(key + shift) == 1:
                page_fired = True
                del state[key + shift]
                if key % m_place < s_place:  # s == 0
                    state[key] = 2
                else:
                    del state[key]
        if page_fired:
            fired.append(r)

    inv_idx = [i for i, g in enumerate(spec.generators) if g.invertible]
    survivors = {}
    for c, d, w, m, s in slots(*_window_box(window)):
        alive = [state.get(x + s * s_place + m * m_place)
                 for exps, x in zip(bases[w], codes[w])
                 if all(abs(exps[i]) <= bound for i in inv_idx)]
        if s:
            found = [(s, GROUP_Z2, alive.count(1))]
        else:
            found = [(0, GROUP_Z, alive.count(1)), (0, GROUP_Z_DIV2, alive.count(2))]
        survivors.setdefault((c, d), []).extend(x for x in found if x[2])
    return {k: tuple(sorted(v)) for k, v in survivors.items() if v}, tuple(fired)


def test_presets_load_and_validate():
    assert set(P) == {"height1-laurent", "height2-poly", "height2-laurent"}
    assert H1.height == 1 and H1.effective_height == 1
    assert H2P.height == 2 and H2L.height == 2
    assert H1.vanishing_line == 2
    assert H2L.vanishing_line == 6
    assert H2P.vanishing_line is None
    # built once: each call gives a new dict of the same specs
    fresh = presets()
    fresh.pop("height1-laurent")
    assert presets() == P and presets() is not P
    assert all(presets()[name] is spec for name, spec in P.items())


def test_weight_basis_h2l_oracle():
    # exhaustive (i, j) scan with i + 3j = w, i >= 0, |j| <= bound
    for w in (0, 1, 5, -3):
        brute = sorted(
            (i, j)
            for j in range(-6, 7)
            for i in range(0, 40)
            if i + 3 * j == w
        )
        assert weight_basis(H2L, w, 6) == tuple(brute)


def test_weight_basis_h1():
    assert weight_basis(H1, 3, 8) == ((3,),)
    assert weight_basis(H1, -2, 8) == ((-2,),)
    assert weight_basis(H1, 5, 3) == ()  # beyond the cap


def test_weight_basis_poly():
    assert weight_basis(H2P, 3, 8) == ((0, 1), (3, 0))
    assert weight_basis(H2P, -1, 8) == ()


def test_weight_basis_equals_a_brute_force_filter():
    # every exponent tuple of a box that holds all the solutions, kept when
    # its weight is w; polynomial exponents reach the top weight plus what
    # the invertible ones can take away
    for spec in (*ORACLE_RINGS, INV_REST):
        for bound in (1, 2, 3):
            top = 6 + bound * sum(g.weight for g in spec.generators if g.invertible)
            ranges = [range(-bound, bound + 1) if g.invertible else range(top // g.weight + 1)
                      for g in spec.generators]
            for w in range(-6, 7):
                brute = tuple(exps for exps in itertools.product(*ranges)
                              if sum(e * g.weight for e, g in zip(exps, spec.generators)) == w)
                assert weight_basis(spec, w, bound) == brute, (spec.name, bound, w)


def test_ringspec_validation():
    x1, x2 = (Generator("x", 1),), (Generator("x", 2),)
    # each refusal keeps its message, and the checks run in this order
    for args, message in (
        (("Z2loc", (Generator("x", 1), Generator("x", 2)), ("x",), "in_ideal"),
         "generator symbols must be distinct"),
        (("Z2loc", x1, ("y",), "in_ideal"), "v-assignment y is not a generator"),
        (("Z2loc", x2, ("x",), "in_ideal"), "v_1 = x must have weight 1, got 2"),
        (("Z2loc", x1, ("x",), "invertible"),
         "termination 'invertible' requires an invertible last v"),
        (("Z2loc", x1, (), "invertible"), "an empty v-sequence needs termination 'in_ideal'"),
        (("Q", (Generator("x", 1), Generator("x", 2)), ("x",), "in_ideal"),
         "generator symbols must be distinct"),
        (("Q", x2, ("y",), "nope"), "base must be 'Z' or 'Z2loc'"),
        (("Z", (Generator("x", 0),), ("y",), "nope"), "generator x must have weight >= 1"),
        (("Z", x2, ("y",), "nope"), "v-assignment y is not a generator"),
        (("Z", x2, ("x",), "nope"), "termination must be 'invertible' or 'in_ideal'"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RingSpec("bad", *args)
    with pytest.raises(ValueError, match="^base must be 'Z' or 'Z2loc'$"):
        H2L._replace(base="Q")
    assert H2L._replace(name="twin").v_index == (0, 1)
    # empty v-chain with in_ideal termination is the no-differential ring
    empty = RingSpec("flat", "Z2loc", (Generator("x", 1),), (), "in_ideal")
    assert empty.effective_height == 0 and empty.vanishing_line is None


def test_ringspec_json_roundtrip(tmp_path):
    d = ringspec_to_dict(H2L)
    assert ringspec_from_dict(d) == H2L
    path = tmp_path / "ring.json"
    path.write_text(__import__("json").dumps(d), encoding="utf-8")
    assert load_ringspec(path) == H2L


def test_ringspec_from_dict_shape():
    good = ringspec_to_dict(H2L)
    keys = "ring spec must be a JSON object with keys name, base, generators, v, termination"
    gens = "ring spec generators must be objects with a string 'sym' and an integer 'weight'"
    for bad, message in (
        ([1, 2], keys),
        ({k: v for k, v in good.items() if k != "generators"}, keys),
        ({**good, "generators": [1]}, gens),
        ({**good, "generators": [{"sym": "a1"}]}, gens),
        ({**good, "generators": [{"sym": "a1", "weight": None}]}, gens),
        ({**good, "generators": [{"sym": "a1", "weight": 1.5}]}, gens),
        ({**good, "generators": {"sym": "a1", "weight": 1}}, gens),
        ({**good, "generators": [{"sym": "a1", "weight": 1, "invertible": 1}]},
         "ring spec generator 'invertible' must be true or false"),
        ({**good, "v": None}, "ring spec 'v' must be a list of generator symbols"),
        ({**good, "base": "Q"}, "base must be 'Z' or 'Z2loc'"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ringspec_from_dict(bad)
    for name in (1.5, float("inf"), float("nan"), {"b": 1, "a": 2}, None, 7, True):
        with pytest.raises(ValueError, match="^ring spec 'name' must be a string$"):
            ringspec_from_dict({**good, "name": name})


def test_e2_basis_degree_00():
    classes = e2_basis(H1, (0, 0), 4)
    assert [(c.exps, c.a_exp, c.u_exp) for c in classes] == [
        ((0,), 0, 0),
        ((2,), 4, -1),
    ]


def test_e2_basis_degree_rho():
    classes = e2_basis(H1, (1, 1), 0)
    assert [(c.exps, c.a_exp, c.u_exp) for c in classes] == [((1,), 0, 0)]


def test_e2_basis_hurewicz_a():
    classes = e2_basis(H1, (0, -1), 2)
    assert [(c.exps, c.a_exp, c.u_exp) for c in classes] == [((0,), 1, 0)]
    assert classes[0].coefficient_group == GROUP_Z2


def test_differential_d3_u():
    u = PageClass((0,), 0, 0, 1)
    img = differential(H1, u, 3)
    assert img == PageClass((1,), 1, 3, 0)  # a^3 * beta


def test_differential_d3_unit_is_zero():
    one = PageClass((0,), 0, 0, 0)
    assert differential(H1, one, 3) is None


def test_differential_d15_u4_terminates():
    u4 = PageClass((0, 0), 0, 0, 4)
    assert differential(H2L, u4, 15) is None
    assert differential(H2P, u4, 15) is None
    # but d7 on u^2 hits a^7 * a3
    u2 = PageClass((0, 0), 0, 0, 2)
    img = differential(H2L, u2, 7)
    assert img == PageClass((0, 1), 3, 7, 0)


def test_differential_page_validation():
    with pytest.raises(ValueError):
        differential(H1, PageClass((0,), 0, 0, 1), 4)
    with pytest.raises(ValueError):
        differential(H1, PageClass((0,), 0, 0, 1), 2)


def test_differential_degree_bookkeeping():
    for spec, m, r in ((H1, 1, 3), (H2L, 2, 7), (H2P, 1, 3)):
        cls = PageClass(tuple(0 for _ in spec.generators), 0, 2, m)
        img = differential(spec, cls, r)
        assert img is not None
        assert img.degree.c == cls.degree.c - 1
        assert img.degree.d == cls.degree.d
        assert img.filtration == cls.filtration + r


def test_h1_chart():
    chart = compute_einfty(H1, Window(12, 12, 12), STRATEGY_BOTH)
    assert chart.at(1, 0) == ((1, GROUP_Z2, 1),)
    assert chart.at(0, 0) == ((0, GROUP_Z, 1),)
    assert chart.collapse_page == 4
    assert chart.pages_fired == (3,)
    # vanishing line at height 2: nothing at filtration >= 3
    assert all(s <= 2 for classes in chart.entries.values() for s, g, n in classes)


def test_h1_divisibility_markers():
    chart = compute_einfty(H1, Window(12, 12, 4), STRATEGY_BOTH)
    # u*beta^w slots (odd u-exponent) support d3, leaving the index-two lattice
    assert chart.at(2, -2) == ((0, GROUP_Z_DIV2, 1),)  # the class u
    assert chart.at(4, -4) == ((0, GROUP_Z, 1),)  # the class u^2 survives fully


def test_h2l_chart_properties():
    chart = compute_einfty(H2L, Window(12, 12, 10), STRATEGY_BOTH)
    assert chart.collapse_page == 8
    assert chart.pages_fired == (3, 7)
    assert all(s <= 6 for classes in chart.entries.values() for s, g, n in classes)
    # u^4 is a permanent full-lattice class at degree 8 - 8 sigma
    groups = {g for s, g, n in chart.at(8, -8)}
    assert GROUP_Z in groups and GROUP_Z_DIV2 not in groups


def test_h2l_translation_invariance():
    chart = compute_einfty(H2L, Window(12, 12, 10), STRATEGY_CLOSED)
    for c in range(-12, 5):
        for d in range(-4, 13):
            if abs(c + 8) <= 12 and abs(d - 8) <= 12:
                assert chart.at(c, d) == chart.at(c + 8, d - 8), (c, d)


def test_h2p_has_no_vanishing_line():
    chart = compute_einfty(H2P, Window(10, 10, 12), STRATEGY_BOTH)
    # a-power towers on the unit survive to arbitrary filtration
    tall = [s for classes in chart.entries.values() for s, g, n in classes if s > 6]
    assert tall


def test_declared_vanishing_line_is_the_highest_filtration_held():
    # the engine, not the formula 2^(h+1) - 2: a class sits on the line, none above
    for spec in (H1, H2L):
        for window in (Window(12, 12, 20), Window(0, 30, 40), Window(30, 0, 40)):
            records = compute_einfty(spec, window, STRATEGY_BOTH).records
            held = {s for s, _, _, fulls, halves in records if any(fulls) or any(halves or ())}
            assert max(held) == spec.vanishing_line, (spec.name, window)


def test_strategies_agree_small_windows():
    for spec in (H1, H2P, H2L):
        a = compute_einfty(spec, Window(10, 10, 10), STRATEGY_CLOSED)
        b = compute_einfty(spec, Window(10, 10, 10), STRATEGY_PAGES)
        assert a.entries == b.entries


def test_strategies_agree_h2p_full_window():
    # the two localized presets run the full window in the acceptance suite
    compute_einfty(H2P, Window(24, 24, 16), STRATEGY_BOTH)


def test_strongly_even():
    c1 = compute_einfty(H1, Window(10, 10, 10), STRATEGY_CLOSED)
    assert is_strongly_even(c1, (-4, 4))
    c2 = compute_einfty(H2L, Window(10, 10, 10), STRATEGY_CLOSED)
    assert is_strongly_even(c2, (-4, 4))


DOCTORED = (  # hand-made charts: records (s, m, c_lo, fulls, halves)
    EinftyChart("doctored", Window(4, 4, 4), 8, 4, (),
                [(3, -1, 0, (1,), None)]),  # a class at rho - 1, filtration 3
    EinftyChart("doctored", Window(4, 4, 4), 8, 4, (),
                [(0, 0, 1, (0,), (1,))]),  # index-two lattice at rho
)


def test_strongly_even_doctored_chart():
    for bad in DOCTORED:
        assert not is_strongly_even(bad, (1, 1))


def test_strongly_even_window_error():
    chart = compute_einfty(H1, Window(4, 4, 4), STRATEGY_CLOSED)
    with pytest.raises(ValueError):
        is_strongly_even(chart, (-8, 8))
    for c, d in ((5, 0), (0, -5)):
        with pytest.raises(ValueError, match=rf"^degree \({c},{d}\) outside the computed window$"):
            chart.at(c, d)


def test_a_multiplication_above_line():
    # surviving classes at filtration >= 2^{h+1}-1 have surviving a-multiples
    chart = compute_einfty(H2P, Window(10, 10, 14), STRATEGY_CLOSED)
    line = 2 ** (H2P.effective_height + 1) - 1
    for (c, d), classes in chart.entries.items():
        for s, g, n in classes:
            if s < line or abs(d - 1) > 10 or s + 1 > 14:
                continue
            assert any(s2 == s + 1 for s2, g2, n2 in chart.at(c, d - 1)), (c, d, s)


def test_transfer_check_inclusion():
    # a3 is a unit of height2-laurent, so its quotient by (2, a1, a3) is zero
    # and the unit monomial of the source's F2 maps to zero at level 2
    gen_map = {"a1": (1, (1, 0)), "a3": (1, (0, 1))}
    out = transfer_check(H2P, H2L, gen_map, max_weight=8)
    assert out == {0: True, 1: True, 2: False}


def test_transfer_check_kills_by_divisibility():
    # b1 is an invertible v_1 of inv-v1, so R/(2, b1) = 0: level 1 keeps no
    # source monomial and holds vacuously.  Level 0 fails: b1^e a3^k goes to
    # b1^(e + 3k), one image per weight.
    gen_map = {"b1": (1, (1, 0)), "a3": (1, (3, 0))}
    assert transfer_check(INV_V1, INV_V1, gen_map, max_weight=3) == {0: False, 1: True, 2: True}


def test_transfer_check_zero_map_fails():
    gen_map = {"a1": (2, (1, 0)), "a3": (1, (0, 1))}  # a1 -> 0 mod 2
    out = transfer_check(H2P, H2L, gen_map, max_weight=2)
    assert out[0] is False


def test_transfer_check_c4_style_reduction():
    # c4 |-> a1^4 - 24*a1*a3 reduces mod 2 to a1^4
    c4ring = RingSpec("c4ring", "Z2loc", (Generator("c4", 4),), (), "in_ideal")
    gen_map = {"c4": [(1, (4, 0)), (-24, (1, 1))]}
    out = transfer_check(c4ring, H2P, gen_map, max_weight=16)
    assert out == {0: True}


def test_transfer_check_unsupported():
    gen_map = {"a1": [(1, (1, 0)), (1, (0, 0))], "a3": (1, (0, 1))}  # two odd terms
    out = transfer_check(H2P, H2L, gen_map, max_weight=4)
    assert all(v == "unsupported" for v in out.values())


def test_transfer_check_needs_distinct_images_that_do_not_die():
    source = RingSpec("xy", "Z", (Generator("x", 1), Generator("y", 1)), ("x",), "in_ideal")
    target = RingSpec("zu", "Z", (Generator("z", 1), Generator("u", 1)), ("z",), "in_ideal")
    assert transfer_check(source, target, {"x": (1, (1, 0)), "y": (1, (0, 1))}, 3) == {
        0: True, 1: True}
    # x and y collide on z
    assert transfer_check(source, target, {"x": (1, (1, 0)), "y": (1, (1, 0))}, 3)[0] is False
    # y survives mod x, but its image z dies mod z
    assert transfer_check(source, target, {"x": (1, (0, 1)), "y": (1, (1, 0))}, 3) == {
        0: True, 1: False}
    # a1 is the only monomial of positive weight up to 1, and it maps to 0 mod 2
    out = transfer_check(H2P, H2L, {"a1": (2, (1, 0)), "a3": (1, (0, 1))}, max_weight=1)
    assert out[0] is False


def test_transfer_check_refuses_a_malformed_map():
    good = {"a1": (1, (1, 0)), "a3": (1, (0, 1))}
    for gen_map, message in (
        ({"a1": good["a1"]}, "no image for generator a3"),
        ({**good, "a3": (1, (0, 1, 0))}, "image exponent tuple has wrong arity"),
        ({**good, "a3": (1, (-1, 1))}, "negative exponent on non-invertible a1"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            transfer_check(H2P, H2P, gen_map, max_weight=2)


def test_v_chain_check_presets():
    r1 = v_chain_check(H1)
    assert r1.effective_height == 1 and not r1.degenerate and r1.rule_vanishes_past_chain
    r2 = v_chain_check(H2P)
    assert r2.effective_height == 2 and r2.rule_vanishes_past_chain
    assert set(r2.pages_fired) <= {3, 7}


def test_v_chain_check_degenerate():
    spec = RingSpec(
        "degenerate", "Z2loc", (Generator("x", 1),), ("x", "x"), "in_ideal"
    )
    rep = v_chain_check(spec)
    assert rep.degenerate and rep.effective_height == 1
    assert rep.rule_vanishes_past_chain
    assert set(rep.pages_fired) <= {3}
    chart = compute_einfty(spec, Window(8, 8, 8), STRATEGY_BOTH)
    assert chart.collapse_page == 4


def test_v_chain_check_sees_a_differential_past_the_chain(monkeypatch):
    compute = hfpss.compute_einfty
    with monkeypatch.context() as patch:  # the rule fires past v_2
        patch.setattr(hfpss_api, "differential", lambda spec, cls, r: cls)
        assert v_chain_check(H2P).rule_vanishes_past_chain is False

    def fires_page_15(*args):  # a page past the chain of H2P, whose last is 7
        chart = compute(*args)
        return EinftyChart(chart.ring, chart.window, chart.bound, chart.collapse_page,
                           (*chart.pages_fired, 15), chart.records)

    monkeypatch.setattr(hfpss, "compute_einfty", fires_page_15)
    assert v_chain_check(H2P).rule_vanishes_past_chain is False


def test_library_api_names_resolve_from_the_engine():
    # the shim hands out the API's public names, each of them, and no other
    for name in hfpss_api.__all__:
        assert not name.startswith("_"), name
        assert getattr(hfpss, name) is getattr(hfpss_api, name), name
    assert set(hfpss_api.__all__) == {
        name for name, value in vars(hfpss_api).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == hfpss_api.__name__}
    for name in ("_page_exponent", "_normalize_image"):
        assert not hasattr(hfpss, name), name
    # any other name raises AttributeError, so getattr with a default works
    assert not hasattr(hfpss, "no_such_name")
    assert getattr(hfpss, "no_such_name", None) is None


def test_ro2degree_arithmetic():
    a = RO2Degree(-14, 2) + RO2Degree(8, -8)
    assert (a.c, a.d) == (-6, -6)
    assert a.underlying == -12
    assert RO2Degree(2, -3).underlying == -1


def test_window_validation():
    for extents in ((-1, 2, 2), (2, -1, 2), (2, 2, -1)):
        with pytest.raises(ValueError, match="^window extents must be nonnegative$"):
            Window(*extents)
    with pytest.raises(ValueError, match="^window extents must be nonnegative$"):
        Window(1, 2, 3)._replace(f=-1)
    for retired in ("banana", "closed_form", "page_by_page"):
        with pytest.raises(ValueError, match=f"^unknown strategy: {retired}$"):
            compute_einfty(H1, Window(4, 4, 4), retired)


def test_strategies_equal_the_per_monomial_oracle():
    for spec in ORACLE_RINGS:
        for window, bound in oracle_cases(spec):
            expected = per_monomial_closed_form(spec, window, bound)
            assert closed_chart(spec, window, bound) == expected, (spec.name, window)
            assert pages_chart(spec, window, bound)[0] == expected, (spec.name, window)


def test_strategies_equal_the_oracle_far_above_the_vanishing_line():
    # most layers of these windows hold no class, and both strategies skip
    # them; height2-poly and height1-poly have no vanishing line
    for spec, windows in ((H1, (Window(6, 5, 40), Window(0, 9, 40))),
                          (H2L, (Window(5, 4, 30), Window(1, 7, 30))),
                          (H2P, (Window(4, 3, 30), Window(0, 6, 40))),
                          (CUSTOM, (Window(5, 4, 30), Window(1, 7, 40)))):
        for window in windows:
            bound = _auto_bound(spec, window)
            expected = per_monomial_closed_form(spec, window, bound)
            assert closed_chart(spec, window, bound) == expected, (spec.name, window)
            assert pages_chart(spec, window, bound)[0] == expected, (spec.name, window)


def occupied_layers(entries) -> set:
    """The (s, m) layers that hold a class of a chart's entries."""
    return {(s, (c - d - s) // 4) for (c, d), classes in entries.items() for s, _, _ in classes}


def test_readout_files_only_the_layers_that_hold_a_class():
    window = Window(24, 24, 25)
    bound = _auto_bound(H1, window)
    n_layers = sum(1 for _ in _layers(*_window_box(window)))
    for strategy in (_page_by_page, _closed_form):
        out = strategy(H1, window, bound)
        records = out[0] if strategy is _page_by_page else out
        filed = [(s, m) for s, m, *_ in records]
        entries = _entries(records, window)
        assert len(filed) == len(set(filed)) == len(occupied_layers(entries)), strategy.__name__
        assert set(filed) == occupied_layers(entries)
        assert len(filed) < n_layers == 631


def test_fast_files_the_layers_of_the_live_kinds():
    # the layers _closed_form files are those of the _layers walk whose
    # weights meet the weights from the first to the last that hold a
    # monomial of the layer's kind (e, b): any at s = 0, one of v-valuation
    # b(s) <= l < e above, found by weight_basis and divides
    def valuation(spec, exps):
        h = spec.effective_height
        return next((l for l, v in enumerate(spec.v[:h]) if spec.divides(v, exps)), h)

    flat = (Window(12, 0, 0), Window(0, 12, 0), Window(0, 0, 12))
    cases = [(spec, window) for spec in (H1, H2P, H2L, EMPTY_V, DEGENERATE, CUSTOM)
             for window in (Window(3, 1, 7), Window(6, 5, 40), Window(0, 9, 40), *flat)]
    cases += [(spec, window) for spec in (TWELVE, INV_REST, OUTSIDE)
              for window in (Window(2, 1, 3), Window(4, 0, 0), Window(0, 4, 0), Window(1, 0, 12))]
    cases.append((H1, Window(24, 24, 25)))
    for spec, window in cases:
        h, bound = spec.effective_height, _auto_bound(spec, window)
        cr, dr, sr = box = _window_box(window)
        weights = range((cr[0] + dr[0]) // 2, (cr[-1] + dr[-1] + sr[-1]) // 2 + 1)
        found = {w: {valuation(spec, exps) for exps in weight_basis(spec, w, bound)}
                 for w in weights}

        def live(s, m, c_lo, c_hi):
            e = next((k for k in range(h) if m % 2 ** (k + 1)), h + 1)  # val2(m) < h, or h + 1
            b = min(h, (s + 1).bit_length() - 2)
            held = [w for w in weights if any(b <= l < e for l in found[w]) or not s and found[w]]
            return bool(held) and c_lo - 2 * m <= held[-1] and held[0] <= c_hi - 2 * m

        filed = [(s, m) for s, m, *_ in _closed_form(spec, window, bound)]
        expected = [(s, m) for s, m, c_lo, c_hi in _layers(*box) if live(s, m, c_lo, c_hi)]
        assert sorted(filed) == expected, (spec.name, window)
    # height1-laurent's vanishing line is s = 2: fast visits no layer above it
    assert filed and max(s for s, _ in filed) == 2
    # a polynomial ring has no monomial of negative weight: of a flat
    # window's layers, fast files none that holds only zeros
    window = Window(40, 0, 0)
    records = _closed_form(CUSTOM, window, _auto_bound(CUSTOM, window))
    assert records and all(any(fulls) or any(halves) for _, _, _, fulls, halves in records)


def test_chart_classes_come_out_sorted():
    # both strategies file a degree's classes by s, then Z before Z_div2
    for spec in ORACLE_RINGS:
        for window in (Window(3, 1, 7), Window(7, 12, 3), Window(12, 12, 12), Window(2, 5, 30)):
            for strategy in (STRATEGY_CLOSED, STRATEGY_PAGES):
                for classes in compute_einfty(spec, window, strategy).entries.values():
                    assert classes and list(classes) == sorted(classes), (spec.name, window)


def test_bitset_engine_equals_the_dict_oracle():
    for spec in ORACLE_RINGS:
        for window, bound in oracle_cases(spec):
            assert pages_chart(spec, window, bound) == dict_page_by_page(spec, window, bound), (
                spec.name, window, bound)


def test_exponents_outside_the_v_chain_share_one_dense_digit():
    # twelve generators: the eleven that are not v_1 are ranked, not given a
    # digit each, so the layout stays near the states; an invertible one is
    # ranked with its exponents within the cap
    for spec, windows in ((TWELVE, (Window(0, 0, 0), Window(2, 1, 3), Window(3, 0, 0))),
                          (INV_REST, (Window(0, 0, 0), Window(3, 3, 3), Window(7, 1, 5)))):
        for window in windows:
            bound = _auto_bound(spec, window)
            expected = dict_page_by_page(spec, window, bound)
            assert pages_chart(spec, window, bound) == expected, (spec.name, window)
            assert closed_chart(spec, window, bound) == expected[0], (spec.name, window)
    zero = Window(0, 0, 0)
    layout = _layout(TWELVE, zero, _auto_bound(TWELVE, zero))
    _, digits, rank_place, _ = layout
    n_ranks = _ranks(layout)[1]
    assert (digits, rank_place, n_ranks) == ({0: (0, 1)}, 4, 78)
    assert -(-rank_place * n_ranks // 8) == 39  # v_1 exponent 0..2 and a spare, times 78 ranks
    assert _work(TWELVE, zero, _auto_bound(TWELVE, zero), STRATEGY_BOTH) < 1000


def test_bitset_engine_equals_the_dict_oracle_outside_the_v_chain():
    # no ring of ORACLE_RINGS has a generator outside the v-chain; these do,
    # polynomial and invertible, at the automatic cap and at caps 1 and 2
    for spec, windows in ((TWELVE, (Window(0, 0, 0), Window(1, 1, 1), Window(2, 0, 2))),
                          (INV_REST, (Window(0, 0, 0), Window(3, 3, 3), Window(7, 3, 12))),
                          (OUTSIDE, (Window(0, 0, 0), Window(3, 3, 3), Window(7, 3, 12)))):
        for window in windows:
            for bound in (_auto_bound(spec, window), 1, 2):
                expected = dict_page_by_page(spec, window, bound)
                assert pages_chart(spec, window, bound) == expected, (spec.name, window, bound)


def layer_dict(rows, layout) -> dict:
    """``_materialize``'s rows as a dict (s, m) -> bits: row s holds the
    layers m_lo(s), m_lo(s) + 1, ... of the padded region."""
    cr, dr, sr, _ = layout[0]
    return {(s, m): bits for s, row in zip(sr, rows) for m, bits in zip(_m_range(cr, dr, s), row)}


def test_bitsets_hold_each_monomial_once():
    # a layer's bits are the monomials of its slots, and a weight's capped
    # bits those within the cap, both counted by weight_basis: an invertible
    # v within the region's pad_b, an invertible generator outside the
    # v-chain within the cap, since no differential changes its exponent
    for spec in (*ORACLE_RINGS, TWELVE, INV_REST, OUTSIDE):
        outside = [i for i, g in enumerate(spec.generators)
                   if g.invertible and i not in spec.v_index]
        for window, bound in ((Window(0, 0, 0), 0), (Window(3, 1, 7), 0), (Window(3, 3, 3), 1)):
            bound = bound or _auto_bound(spec, window)
            rows, layout, capped = _materialize(spec, window, bound)
            layers, ((cr, dr, sr, pad_b), *_) = layer_dict(rows, layout), layout
            w_lo, w_hi = (cr[0] + dr[0]) // 2, (cr[-1] + dr[-1] + sr[-1]) // 2
            bases = {w: [exps for exps in weight_basis(spec, w, pad_b)
                         if all(abs(exps[i]) <= bound for i in outside)]
                     for w in range(w_lo, w_hi + 1)}
            for s, m, c_lo, c_hi in _layers(cr, dr, sr):
                states = sum(len(bases[c - 2 * m]) for c in range(c_lo, c_hi + 1))
                assert layers[s, m].bit_count() == states, (spec.name, window, s, m)
            inv = [i for i, g in enumerate(spec.generators) if g.invertible]
            assert [(capped[i + 1] - capped[i]).bit_count() for i in range(len(capped) - 1)] == [
                sum(all(abs(exps[i]) <= bound for i in inv) for exps in bases[w])
                for w in range(w_lo, w_hi + 1)], (spec.name, window)


def spare_bits(layout, n_ranks) -> int:
    """The codes of a layout, over every rank, that hold a v digit's spare
    value (the one above its high, which only a target past the region
    takes), decoded from the layout's own digit places and radix."""
    _, digits, radix, _ = layout
    places = sorted(place for _, place in digits.values()) + [radix]
    spare = 0
    for place, above in zip(places, places[1:]):
        # digit value above // place - 1: the top place bits of each period
        spare |= int(("1" * place + "0" * (above - place)) * (radix * n_ranks // above), 2)
    return spare


def test_no_bit_holds_a_spare_digit():
    # a rank one code too low would shift every rank but the first onto
    # codes whose v digits read wrong, some of them spare
    for spec in (*ORACLE_RINGS, TWELVE, INV_REST, OUTSIDE):
        for window in (Window(0, 0, 0), Window(3, 3, 3)):
            for bound in (_auto_bound(spec, window), 1, 2):
                rows, layout, capped = _materialize(spec, window, bound)
                spare = spare_bits(layout, _ranks(layout)[1])
                assert not any(bits & spare for bits in (*itertools.chain(*rows), *capped)), (
                    spec.name, window, bound)


def test_layer_count_is_the_length_of_the_layer_walk():
    for spec in ORACLE_RINGS:
        for window in itertools.starmap(Window, itertools.product(
                range(7), range(7), (0, 1, 2, 3, 6, 13))):
            bound = _auto_bound(spec, window)
            for box in (_window_box(window), _page_box(spec, window, bound)[:3]):
                assert _layer_count(*box) == sum(1 for _ in _layers(*box)), (spec.name, window)
    # a side past 2^63, where len() of a range overflows: the count is affine
    # in a side n = 0 mod 4, so two walked boxes give it
    huge = _window_box(Window(4 * 10**19, 1, 1))
    with pytest.raises(OverflowError):
        len(huge[0])
    a, b = (sum(1 for _ in _layers(*_window_box(Window(n, 1, 1)))) for n in (4, 8))
    assert _layer_count(*huge) == a + (b - a) * (10**19 - 1)


def test_work_walks_no_layer(monkeypatch):
    def no_walk(*args):
        raise AssertionError("the price walked the layers")

    strategies = (STRATEGY_CLOSED, STRATEGY_PAGES, STRATEGY_BOTH)
    prices = {(spec, window, bound, strategy): _work(spec, window, bound, strategy)
              for spec in ORACLE_RINGS for window, bound in oracle_cases(spec)
              for strategy in strategies}
    monkeypatch.setattr(hfpss, "_m_range", no_walk)  # every layer walk takes its m from it
    for case, price in prices.items():
        assert _work(*case) == price, case


def test_materialized_layers_are_the_page_box_layers():
    # a bitset for each layer of the padded region, and so for each layer of
    # the window
    for spec in ORACLE_RINGS:
        for window in (Window(0, 0, 0), Window(3, 1, 7), Window(7, 12, 3), Window(12, 12, 12),
                       Window(0, 0, 40), Window(1, 2, 30)):
            bound = _auto_bound(spec, window)
            rows, layout, _ = _materialize(spec, window, bound)
            cr, dr, sr, _ = _page_box(spec, window, bound)
            assert [len(row) for row in rows] == [len(_m_range(cr, dr, s)) for s in sr]
            layers = layer_dict(rows, layout)
            assert list(layers) == [(s, m) for s, m, _, _ in _layers(cr, dr, sr)], (spec.name, window)
            assert {(s, m) for s, m, _, _ in _layers(*_window_box(window))} <= set(layers)


def test_both_detects_a_skipped_page(monkeypatch):
    materialize = hfpss._materialize

    def skip_page_7(spec, window, bound):
        rows, layout, capped = materialize(spec, window, bound)
        cr, dr, sr, _ = layout[0]
        # clear the sources of page 7, the layers with val2(m) = 1
        return [[0 if m % 4 == 2 else bits for m, bits in zip(_m_range(cr, dr, s), row)]
                for s, row in zip(sr, rows)], layout, capped

    monkeypatch.setattr(hfpss, "_materialize", skip_page_7)
    assert compute_einfty(H2L, Window(6, 6, 6), STRATEGY_PAGES).pages_fired == (3,)
    with pytest.raises(ArithmeticError, match="strategy disagreement"):
        compute_einfty(H2L, Window(6, 6, 6), STRATEGY_BOTH)


def test_ringspec_derived_fields_stay_out_of_eq_hash_repr_and_dict():
    twin = ringspec_from_dict(ringspec_to_dict(H2L))
    assert (twin.effective_height, twin.v_index) == (2, (0, 1))
    for name in ("effective_height", "v_index", "_index"):
        object.__setattr__(twin, name, None)
    assert twin == H2L and hash(twin) == hash(H2L) and repr(twin) == repr(H2L)
    assert ringspec_to_dict(twin) == ringspec_to_dict(H2L)
    for name in ("effective_height", "v_index", "_index", "name"):  # read-only
        with pytest.raises(AttributeError):
            setattr(H2L, name, None)
    assert tuple(ringspec_to_dict(H2L)) == RING_KEYS


def series_steps(monkeypatch, run) -> int:
    """The steps of the series built while ``run()`` runs: for ``fast`` one
    per power of t from each denominator's weight up, for ``reference`` one
    per entry of each ``_series`` result."""
    steps, quotient, series = [], _poly.series_of_quotient, hfpss._series

    def spy_quotient(num, den_exponents, order):
        steps.append(sum(max(0, order + 1 - e) for e in den_exponents))
        return quotient(num, den_exponents, order)

    def spy_series(*args):
        out = series(*args)
        steps.append(len(out))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(hfpss._poly, "series_of_quotient", spy_quotient)
        patch.setattr(hfpss, "_series", spy_series)
        run()
    return sum(steps)


def test_work_counts_what_the_strategies_touch(monkeypatch):
    windows = (Window(0, 0, 0), Window(3, 1, 7), Window(7, 12, 3), Window(12, 12, 12))
    for spec in (H1, H2P, H2L, DEGENERATE, CUSTOM, TWELVE, INV_REST, OUTSIDE):
        for window in windows[:2] if spec is TWELVE else windows:
            bound = _auto_bound(spec, window)
            built = []
            ref_steps = series_steps(
                monkeypatch, lambda: built.append(_materialize(spec, window, bound)))
            (rows, layout, capped), = built
            layers = layer_dict(rows, layout)
            (cr, dr, sr, _), _, rank_place, _ = layout
            # a bitset per layer, then per weight a prefix sum of all bits and
            # one of the capped bits, after the empty prefix, each with room
            # for every code of the region
            layer_bytes = -(-rank_place * _ranks(layout)[1] // 8)
            assert capped[0] == 0 and len(layers) == sum(map(len, rows)) == sum(
                1 for _ in _layers(cr, dr, sr))
            assert all(bits.bit_length() <= 8 * layer_bytes for bits in layers.values())
            assert all(bits.bit_length() <= 8 * layer_bytes for bits in capped)
            words = -(-(len(layers) + 2 * (len(capped) - 1)) * layer_bytes // 8)
            box = _window_box(window)
            steps = series_steps(monkeypatch, lambda: _closed_form(spec, window, bound))
            page_slots, slots = _slot_count(cr, dr, sr), _slot_count(*box)
            assert page_slots == sum(hi - lo + 1 for _, _, lo, hi in _layers(cr, dr, sr))
            assert slots == sum(hi - lo + 1 for _, _, lo, hi in _layers(*box))
            pages = page_slots + max(words, ref_steps)
            assert _work(spec, window, bound, STRATEGY_PAGES) == pages, (spec.name, window)
            assert _work(spec, window, bound, STRATEGY_CLOSED) == slots + steps
            assert _work(spec, window, bound, STRATEGY_BOTH) == pages + slots + steps


def test_window_over_budget_is_refused_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("a strategy ran on a refused window")

    big = Window(60, 60, 60)
    bound = _auto_bound(H2L, big)
    # over budget on the bitset words only, and on the slots alone
    closed, pages = (_work(H2L, big, bound, st) for st in (STRATEGY_CLOSED, STRATEGY_PAGES))
    assert closed <= MAX_WORK < pages
    assert _slot_count(*_page_box(H2L, big, bound)[:3]) + sum(
        map(hfpss._series_steps, _layout(H2L, big, bound)[3])) <= MAX_WORK
    assert _slot_count(*_window_box(Window(200, 200, 200))) > MAX_WORK
    monkeypatch.setattr(hfpss, "_page_by_page", no_work)
    monkeypatch.setattr(hfpss, "_closed_form", no_work)
    # a heavy invertible generator makes the series themselves too long;
    # twenty invertible generators make 17^20 codes per weight for the reference
    heavy = RingSpec("heavy", "Z2loc", (Generator("x", 1), Generator("y", 10**9, True)),
                     ("x",), "in_ideal")
    for spec, window, strategy in ((H2L, big, STRATEGY_PAGES), (H2L, big, STRATEGY_BOTH),
                                   (H2L, Window(200, 200, 200), STRATEGY_CLOSED),
                                   (heavy, Window(2, 2, 2), STRATEGY_CLOSED),
                                   (MANY, Window(2, 2, 2), STRATEGY_PAGES)):
        with pytest.raises(ValueError, match="window too large"):
            compute_einfty(spec, window, strategy)
    # the reference's steps are counted in arithmetic, so the heavy ring is
    # refused before any series is built
    monkeypatch.setattr(hfpss, "_series", no_work)
    for strategy in (STRATEGY_PAGES, STRATEGY_BOTH):
        with pytest.raises(ValueError, match="window too large"):
            compute_einfty(heavy, Window(2, 2, 2), strategy)


def test_both_detects_a_dropped_class(monkeypatch):
    closed_form = hfpss._closed_form

    def drop_one_class(spec, window, bound):
        records = closed_form(spec, window, bound)
        k = next(k for k, record in enumerate(records) if any(record[3]))
        s, m, c_lo, fulls, halves = records[k]
        i = next(i for i, n in enumerate(fulls) if n)
        records[k] = s, m, c_lo, (*fulls[:i], fulls[i] - 1, *fulls[i + 1:]), halves
        return records

    monkeypatch.setattr(hfpss, "_closed_form", drop_one_class)
    with pytest.raises(ArithmeticError, match="strategy disagreement"):
        compute_einfty(H2L, Window(6, 6, 6), STRATEGY_BOTH)


def test_both_names_the_degree_of_a_changed_count(monkeypatch):
    # one count of fast's records one more or one less, full or index-two: in
    # a degree that holds other classes, in one that held none, and in one
    # whose only class goes; both names that degree alone
    window, closed_form = Window(6, 6, 6), hfpss._closed_form
    records = closed_form(H2P, window, _auto_bound(H2P, window))
    entries = _entries(records, window)
    slots = [(k, field, i, (c_lo + i, c_lo + i - s - 4 * m), counts[i])
             for k, (s, m, c_lo, *pair) in enumerate(records)
             for field, counts in zip((3, 4), pair) if counts is not None
             for i in range(len(counts))]
    cases = [
        next((k, field, i, 1) for k, field, i, degree, n in slots
             if field == 4 and n and len(entries[degree]) > 1),
        next((k, field, i, 1) for k, field, i, degree, _ in slots if degree not in entries),
        next((k, field, i, -1) for k, field, i, degree, n in slots
             if n == 1 and len(entries[degree]) == 1),
    ]
    for k, field, i, step in cases:
        def changed(spec, window, bound):
            out = closed_form(spec, window, bound)
            counts = list(out[k][field])
            counts[i] += step
            out[k] = (*out[k][:field], tuple(counts), *out[k][field + 1:])
            return out

        with monkeypatch.context() as patch:
            patch.setattr(hfpss, "_closed_form", changed)
            with pytest.raises(ArithmeticError) as raised:
                compute_einfty(H2P, window, STRATEGY_BOTH)
        s, m, c_lo = records[k][:3]
        c = c_lo + i
        assert str(raised.value) == f"strategy disagreement at degrees [({c}, {c - s - 4 * m})]"


def test_both_ignores_an_extra_all_zero_record(monkeypatch):
    # a record of zeros for a layer a strategy did not read out, on either
    # side: the strategies still agree and the chart is the same
    window = Window(6, 6, 6)
    expected = render_json(compute_einfty(H2L, window, STRATEGY_BOTH), 1)
    closed_form, page_by_page = hfpss._closed_form, hfpss._page_by_page

    def with_zero_layer(records):
        filed = {record[:2] for record in records}
        s, m, c_lo, c_hi = next(layer for layer in _layers(*_window_box(window))
                                if layer[:2] not in filed)
        zeros = (0,) * (c_hi - c_lo + 1)
        records.append((s, m, c_lo, zeros, zeros if s == 0 else None))
        records.sort(key=lambda record: record[0])  # s ascending, as read out
        return records

    def pages_with_zero_layer(*args):
        records, fired = page_by_page(*args)
        return with_zero_layer(records), fired

    for name, patched in (("_closed_form", lambda *args: with_zero_layer(closed_form(*args))),
                          ("_page_by_page", pages_with_zero_layer)):
        with monkeypatch.context() as patch:
            patch.setattr(hfpss, name, patched)
            assert render_json(compute_einfty(H2L, window, STRATEGY_BOTH), 1) == expected, name


def test_page_by_page_checks_degree_bookkeeping():
    spec = ringspec_from_dict(ringspec_to_dict(H2P))
    object.__setattr__(spec, "v_index", (1, 0))  # v_1 would be a3, of weight 3
    with pytest.raises(ArithmeticError, match="bookkeeping"):
        _page_by_page(spec, Window(4, 4, 4), 8)


def test_closed_form_enumerates_nothing(monkeypatch):
    # nor does any other strategy: the expected entries come from the
    # per-monomial oracle, before weight_basis is made to raise
    def no_enumeration(*args):
        raise AssertionError("a strategy enumerated monomials")

    expected = {(spec, window): per_monomial_closed_form(spec, window, _auto_bound(spec, window))
                for spec in (*ORACLE_RINGS, INV_REST, OUTSIDE)
                for window in (Window(0, 0, 0), Window(3, 1, 7), Window(7, 12, 3))}
    monkeypatch.setattr(hfpss_api, "weight_basis", no_enumeration)
    for (spec, window), entries in expected.items():
        for strategy in (STRATEGY_CLOSED, STRATEGY_PAGES, STRATEGY_BOTH):
            assert compute_einfty(spec, window, strategy).entries == entries, (spec.name, window)


def test_free_counts_count_the_monomials_no_early_v_divides():
    for spec in (*ORACLE_RINGS, TWELVE, INV_REST):
        h = spec.effective_height
        for bound, w_lo, w_hi in ((1, -6, 6), (3, -3, 6)):
            rows = _free_counts(spec, bound, w_lo, w_hi)
            assert len(rows) == h + 2 and not any(rows[h + 1])
            for w in range(w_lo, w_hi + 1):
                basis = weight_basis(spec, w, bound)
                found = [sum(1 for exps in basis if not any(spec.divides(v, exps)
                                                            for v in spec.v[:l]))
                         for l in range(h + 1)]
                assert [row[w - w_lo] for row in rows[:h + 1]] == found, (spec.name, bound, w)


def test_closed_form_is_priced_by_its_series_steps(monkeypatch):
    for spec in (INV_V1, THREE, TWELVE, INV_REST, MANY):
        for window in (Window(0, 0, 0), Window(2, 2, 2), Window(5, 1, 9)):
            bound = _auto_bound(spec, window)
            steps = series_steps(monkeypatch, lambda: _closed_form(spec, window, bound))
            slots = _slot_count(*_window_box(window))
            assert _work(spec, window, bound, STRATEGY_CLOSED) == slots + steps, (spec.name, window)
    # twenty invertible generators: the reference is refused, fast answers
    assert compute_einfty(MANY, Window(2, 2, 2), STRATEGY_CLOSED).at(0, 0)


def test_slot_count_takes_no_len_of_a_huge_range():
    huge = Window(10**20, 1, 1)
    assert _slot_count(*_window_box(huge)) > 10**20
    assert _slot_count(*_window_box(Window(0, 0, 0))) == 1
    with pytest.raises(ValueError, match="hfpss window too large"):
        compute_einfty(H2L, huge, STRATEGY_CLOSED)


GOLDEN = Path(__file__).parent / "golden"
WRITER_RINGS = [(spec, (STRATEGY_CLOSED, STRATEGY_PAGES, STRATEGY_BOTH)) for spec in (
    H1, H2P, H2L, CUSTOM, TWELVE, load_ringspec(GOLDEN / "ring_escaped_name.json"))]
WRITER_RINGS.append((load_ringspec(GOLDEN / "ring_twenty_laurent.json"), (STRATEGY_CLOSED,)))
WRITER_WINDOWS = [Window(*w) for w in (
    (0, 0, 0), (3, 1, 2), (1, 4, 0), (2, 0, 5), (6, 0, 0), (0, 6, 0), (0, 0, 6), (4, 4, 4),
    # several layers on one diagonal, or past a vanishing line
    (5, 4, 30), (12, 12, 12), (9, 0, 17), (0, 9, 40))]


def test_rows_are_the_per_layer_prefix_differences(monkeypatch):
    # the oracle is the per-layer comprehension the slices replace: layer
    # (s, m) is prefix[min(c_hi - 2m, d_hi + s + 2m)] less
    # prefix[max(c_lo - 2m, d_lo + s + 2m)], every index within prefix (a
    # negative one would wrap silently)
    seen, rows_of = [], hfpss._rows

    def spy(prefix, *box):
        seen.append(prefix)
        return rows_of(prefix, *box)

    monkeypatch.setattr(hfpss, "_rows", spy)
    windows = [*WRITER_WINDOWS, *itertools.starmap(Window, (
        (30, 30, 0), (40, 0, 0), (0, 40, 0), (0, 0, 40)))]
    for spec, _ in WRITER_RINGS:
        for window in windows:
            bound = _auto_bound(spec, window)
            if _work(spec, window, bound, STRATEGY_PAGES) > MAX_WORK:
                continue  # refused by the reference
            seen.clear()
            rows, layout, _ = _materialize(spec, window, bound)
            (prefix,), (cr, dr, sr, _) = seen, layout[0]
            w_lo = (cr[0] + dr[0]) // 2
            c_lo, c_hi = cr[0] - w_lo, cr[-1] - w_lo + 1
            d_lo, d_hi = dr[0] - w_lo, dr[-1] - w_lo + 1
            pairs = [[(min(c_hi - 2 * m, d_hi + s + 2 * m), max(c_lo - 2 * m, d_lo + s + 2 * m))
                      for m in _m_range(cr, dr, s)] for s in sr]
            indices = [k for row in pairs for pair in row for k in pair]
            assert all(0 <= k < len(prefix) for k in indices), (spec.name, window)
            assert rows == [[prefix[i] - prefix[j] for i, j in row] for row in pairs], (
                spec.name, window)


def writer_charts():
    for spec, strategies in WRITER_RINGS:
        for window, strategy in itertools.product(WRITER_WINDOWS, strategies):
            if spec is TWELVE and strategy != STRATEGY_CLOSED and window.f > 6:
                continue  # the reference refuses these windows of twelve generators
            yield compute_einfty(spec, window, strategy)


def test_degrees_place_each_slot_of_a_record():
    # the plain loop: a record's slots are c = c_lo, c_lo + 1, ..., one per
    # count, at d = c - s - 4m, each degree's classes s ascending and Z
    # before Z_div2; chart_to_dict reads entries, built by the same walk as
    # the writers, so only this catches a wrong stride
    for chart in writer_charts():
        placed = {}
        for s, m, c_lo, fulls, halves in chart.records:
            for c, n, half in zip(itertools.count(c_lo), fulls, halves or repeat(0)):
                classes = placed.setdefault((c, c - s - 4 * m), [])
                classes += [(s, GROUP_Z2 if s else GROUP_Z, n)] if n else []
                classes += [(0, GROUP_Z_DIV2, half)] if half else []
        expected = {degree: tuple(classes) for degree, classes in placed.items() if classes}
        assert _entries(chart.records, chart.window) == expected, (chart.ring, chart.window)


def test_render_json_is_json_dumps_of_chart_to_dict():
    for chart in (*writer_charts(), *DOCTORED):
        expected = json.dumps({**chart_to_dict(chart), "version": 1}, sort_keys=True) + "\n"
        assert render_json(chart, 1) == expected, (chart.ring, chart.window)


def test_render_json_of_a_flat_window_peaks_under_five_times_its_output():
    """A flat window, 40,001 degrees in one row or column, each entry
    formatted whole from ungrouped diagonals, peaks at about 4.1 times the
    length of its JSON in traced memory (this process's allocations only);
    writing heads and tails, or grouping diagonals, takes it past 5."""
    for window in (Window(20000, 0, 0), Window(0, 20000, 0)):
        chart = compute_einfty(CUSTOM, window, STRATEGY_CLOSED)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            text = render_json(chart, 1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 5 * len(text), (window, peak, len(text))


# ring_custom windows the ascii writer fills over several blocks of
# _ASCII_BLOCK cells: one column of three blocks, three columns of four blocks,
# and one row longer than a block, its axis labels written in two blocks
MULTI_BLOCK_WINDOWS = (Window(0, 9000, 0), Window(1, 5000, 0), Window(4500, 0, 0))


def test_render_ascii_cells_sum_the_classes_by_group():
    """Each row is rebuilt cell by cell from ``chart.at``; every cell is
    centered in 9 columns, or in one more than the longest cell, and so is
    each axis label below them."""
    multi_block = (compute_einfty(CUSTOM, w, STRATEGY_CLOSED) for w in MULTI_BLOCK_WINDOWS)
    for chart in (*writer_charts(), *DOCTORED, *multi_block):
        w = chart.window
        lines = render_ascii(chart).split("\n")
        assert len(lines) == 2 * w.d + 4 and lines[-1] == ""
        grid = []
        for d in range(w.d, -w.d - 1, -1):
            cells = []
            for c in range(-w.c, w.c + 1):
                classes = chart.at(c, d)
                counts = [sum(n for _, g, n in classes if g == group)
                          for group in (GROUP_Z, GROUP_Z_DIV2, GROUP_Z2)]
                cells.append("/".join(map(str, counts)) if classes else ".")
            grid.append((d, cells))
        width = max(9, 1 + max(len(cell) for _, cells in grid for cell in cells))
        for row, (d, cells) in zip(lines, grid):
            assert row == f"{d:>4} |" + "".join(cell.center(width) for cell in cells), (chart.ring, w, d)
        assert lines[-3:-1] == ["     +" + "-" * ((2 * w.c + 1) * width), "      " + "".join(
            str(c).center(width) for c in range(-w.c, w.c + 1))], (chart.ring, w)


def test_render_ascii_columns_line_up_with_their_axis_labels():
    """Cut at the width of the axis labels' columns, every row of a grid with
    cells wider than 9 splits into one cell per column, with a space to spare
    in each, centered over its label: wide cells never run together."""
    spec = load_ringspec(GOLDEN / "ring_twenty_laurent.json")
    for w in (Window(2, 2, 2), Window(3, 1, 2), Window(0, 2, 1)):
        *rows, axis, labels, end = render_ascii(compute_einfty(spec, w, STRATEGY_CLOSED)).split("\n")
        columns = 2 * w.c + 1
        width, rest = divmod(len(labels) - 6, columns)
        assert (rest, end, len(rows)) == (0, "", 2 * w.d + 1) and width > 9
        assert len(axis) == len(labels)

        def cut(line):
            return [line[6 + j * width:6 + (j + 1) * width] for j in range(columns)]

        assert [slot.strip() for slot in cut(labels)] == [str(c) for c in range(-w.c, w.c + 1)]
        for row in rows:
            slots = cut(row)
            assert len(row) == len(labels) and all(" " in slot for slot in slots), (w, row)
            assert [slot.strip() for slot in slots] == row[6:].split(), (w, row)
            for slot in slots:
                left, right = len(slot) - len(slot.lstrip()), len(slot) - len(slot.rstrip())
                assert abs(left - right) <= 1, (w, slot)
