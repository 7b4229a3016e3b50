"""Command line entry point.

Subcommands: invariants, chart, split, duality, hfpss, equivariant.
Output is versioned JSON by default (human formats are derived views) and is
byte-deterministic for fixed inputs.  Every number printed is exact; rationals
appear as "a/b".  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import charts, duality, equivariant, hfpss, splitting
from .cohomology import UNKNOWN, load_s1_table
from .levels import curve_invariants

MAX_LEVEL = 10**7
S1_ENV = "TMFLEVELS_S1_FILE"
VERSION = 1


class DomainError(Exception):
    pass


def _parse_range(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(-?\d+)\.\.(-?\d+)", text)
    if not m:
        raise argparse.ArgumentTypeError(f"range must look like A..B, got {text!r}")
    return int(m.group(1)), int(m.group(2))


def _s1_table(args):
    path = getattr(args, "s1_file", None) or os.environ.get(S1_ENV) or None
    return load_s1_table(path)


def _check_level(n: int):
    if n < 1:
        raise DomainError("level must be a positive integer")
    if n > MAX_LEVEL:
        raise DomainError(f"level {n} exceeds the size bound {MAX_LEVEL}")


def _emit(out, payload):
    out.write(payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True) + "\n")


def _cmd_invariants(args, out) -> int:
    _check_level(args.n)
    inv = curve_invariants(args.n)
    if inv.valid_for_curve:
        payload = {
            "version": VERSION, "n": inv.n, "curve": True, "d": inv.d,
            "deg_omega": inv.deg_omega, "cusps": inv.cusps, "genus": inv.genus,
        }
    else:
        payload = {
            "version": VERSION, "n": inv.n, "curve": False, "d": inv.d,
            "stacky_weights": list(inv.stacky.weights),
        }
    _emit(out, payload)
    return 0


def _cmd_chart(args, out) -> int:
    _check_level(args.n)
    chart = charts.dss_chart(args.n, args.range, _s1_table(args))
    out.write(charts.render(chart, args.format).decode("utf-8"))
    return 0


def _cmd_split(args, out) -> int:
    _check_level(args.n)
    if args.n < 2:
        raise DomainError("split requires n >= 2")
    table = _s1_table(args)
    base = splitting.base_for_prime(args.prime)
    try:
        q = splitting.shift_polynomial(args.n, base, table)
    except ValueError as exc:
        raise DomainError(str(exc))
    if q is UNKNOWN:
        raise DomainError(
            f"s1 data required for n={args.n}; supply --s1-file or {S1_ENV}"
        )
    if isinstance(q, splitting.NoSplitting):
        _emit(out, {"version": VERSION, "base": base.name, "no_splitting": q.reason})
        return 0
    torsion = (
        splitting.Torsion.HOLDS
        if args.prime == 0
        else splitting.torsion_condition(args.n, args.prime)
    )
    payload = {
        "version": VERSION,
        "base": base.name,
        "coeffs": {str(j): c for j, c in sorted(q.coeffs.items())},
        "torsion": torsion.value,
        "rank_check": q.rank(),
    }
    if args.rho:
        if base is not splitting.Base.L2:
            raise DomainError("--rho applies to the 2-local base only")
        payload["rho_shifts"] = {str(k): c for k, c in splitting.rho_decorate(q).items()}
    if args.mod is not None:
        sums, equal = splitting.profile_mod(q, args.mod)
        payload["profile_mod"] = {"m": args.mod, "sums": sums, "equal": equal}
    _emit(out, payload)
    return 0


def _verdict_row(v) -> dict:
    return {"n": v.n, "l": v.shift_l}


def _cmd_duality(args, out) -> int:
    table = _s1_table(args)
    if args.n is not None:
        _check_level(args.n)
        v = duality.verdict(args.n, table)
        if v is UNKNOWN:
            raise DomainError(f"verdict for n={args.n} requires s1 data")
        payload = {
            "version": VERSION, "n": v.n, "self_dual": v.self_dual,
            "twist": v.twist, "l": v.shift_l, "reason": v.reason,
            "c2_shift": list(v.c2_shift) if v.c2_shift else None,
        }
        if v.c2_shift:
            payload["c2_shift_rho"] = duality.rho_string(v.c2_shift)
        _emit(out, payload)
        return 0
    if args.scan is None:
        raise DomainError("duality needs --n or --scan")
    _check_level(args.scan)
    rows = duality.duality_scan(args.scan, table)
    if args.format == "table":
        lines = ["n   l"] + [f"{v.n:<4}{v.shift_l}" for v in rows]
        out.write("\n".join(lines) + "\n")
    else:
        _emit(out, {"version": VERSION, "scan": args.scan, "rows": [_verdict_row(v) for v in rows]})
    return 0


def _cmd_hfpss(args, out) -> int:
    name = args.ring
    stock = hfpss.presets()
    if name in stock:
        spec = stock[name]
    elif os.path.exists(name):
        spec = hfpss.load_ringspec(name)
    else:
        raise DomainError(f"unknown ring preset or missing file: {name}")
    c, d, f = args.window
    strategy = {
        "both": hfpss.STRATEGY_BOTH,
        "fast": hfpss.STRATEGY_CLOSED,
        "reference": hfpss.STRATEGY_PAGES,
    }[args.strategy]
    chart = hfpss.compute_einfty(spec, hfpss.Window(c, d, f), strategy)
    if args.format == "ascii":
        out.write(hfpss.render_ascii(chart))
    else:
        payload = hfpss.chart_to_dict(chart)
        payload["version"] = VERSION
        _emit(out, payload)
    return 0


def _cmd_equivariant(args, out) -> int:
    try:
        orders = [int(x) for x in args.group.split(",")]
        G = equivariant.FiniteAbelian.from_orders(orders)
    except ValueError as exc:
        raise DomainError(str(exc))
    if G.order > equivariant.MAX_ORDER:
        raise DomainError(f"group order {G.order} exceeds the bound {equivariant.MAX_ORDER}")
    if args.prime is not None and G.rank > 1:
        raise DomainError("--prime splitting applies to cyclic groups only")
    payload = {
        "version": VERSION,
        "group": list(G.factors),
        "components": [
            {"quotient": list(c.quotient), "label": c.label, "multiplicity": c.multiplicity}
            for c in equivariant.components(G)
        ],
    }
    if args.prime is not None:
        try:
            split = equivariant.cyclic_full_split(G.order, args.prime, _s1_table(args))
        except ValueError as exc:
            raise DomainError(str(exc))
        payload["split"] = {
            "unit": split["unit"],
            "divisors": [
                {
                    "divisor": p.divisor,
                    "coeffs": (
                        None
                        if p.poly is UNKNOWN or isinstance(p.poly, splitting.NoSplitting)
                        else {str(j): c for j, c in sorted(p.poly.coeffs.items())}
                    ),
                    "status": (
                        "unknown_s1" if p.poly is UNKNOWN
                        else "no_splitting" if isinstance(p.poly, splitting.NoSplitting)
                        else "ok"
                    ),
                    "expected_rank": p.expected_rank,
                }
                for p in split["divisors"]
            ],
        }
    _emit(out, payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmflevels",
        description="Exact invariants, charts, splittings and duality data "
        "for topological modular forms with level structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="degree/cusp/genus data for a level")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("chart", help="descent spectral sequence rank chart")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--range", type=_parse_range, required=True, metavar="A..B")
    p.add_argument("--format", choices=["json", "ascii", "svg"], default="json")
    p.add_argument("--s1-file")
    p.set_defaults(func=_cmd_chart)

    p = sub.add_parser("split", help="module splitting shift multiset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--prime", type=int, choices=[2, 3, 0], required=True)
    p.add_argument("--rho", action="store_true", help="decorate with rho-shifts (2-local)")
    p.add_argument("--mod", type=int, help="profile multiplicities modulo M")
    p.add_argument("--s1-file")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("duality", help="Anderson self-duality verdicts")
    p.add_argument("--n", type=int)
    p.add_argument("--scan", type=int)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility and ignored")
    p.add_argument("--s1-file")
    p.set_defaults(func=_cmd_duality)

    p = sub.add_parser("hfpss", help="RO(C2) fixed point spectral sequence chart")
    p.add_argument("--ring", required=True, help="preset name or ring spec JSON file")
    p.add_argument("--window", type=int, nargs=3, required=True, metavar=("C", "D", "F"))
    p.add_argument("--strategy", choices=["both", "fast", "reference"], default="both")
    p.add_argument("--format", choices=["json", "ascii"], default="json")
    p.set_defaults(func=_cmd_hfpss)

    p = sub.add_parser("equivariant", help="components of equivariant fixed points")
    p.add_argument("--group", required=True, help="cyclic orders, e.g. 2,2 or 6")
    p.add_argument("--prime", type=int)
    p.add_argument("--s1-file")
    p.set_defaults(func=_cmd_equivariant)

    return parser


def _normalize_argv(argv):
    """Join '--range -10..10' into '--range=-10..10' so argparse does not
    mistake a negative stem bound for an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--range" and i + 1 < len(argv) and re.fullmatch(
            r"-?\d+\.\.-?\d+", argv[i + 1]
        ):
            out.append(f"--range={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_normalize_argv(list(argv)))
    try:
        return args.func(args, out)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
