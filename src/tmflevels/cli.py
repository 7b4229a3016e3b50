"""Command line entry point.

Subcommands: invariants, chart, split, duality, hfpss, equivariant.
Output is JSON by default (human formats are derived views) and is
byte-deterministic for fixed inputs.  Every JSON payload carries
``"version"`` except chart JSON, which is ``charts.render``'s text as it
is.  Every number printed is exact; rationals appear as "a/b".  Exit codes:
0 success, 1 domain error, 2 usage error.

Each ``_cmd_*(args)`` returns a dict (a JSON payload) or a str (output already
rendered); ``main`` stamps the version on a dict, writes the result and
reports errors.  hfpss JSON, like chart JSON, arrives rendered: it is
``hfpss.render_json``'s text, which carries the version itself.

A request loads only the modules its subcommand uses: ``charts``,
``duality``, ``equivariant``, ``hfpss`` and ``splitting`` are bound here
lazily (``_lazy``) and run when a request first reads one of their
attributes, so ``invariants`` runs none of them and ``duality`` only
``duality``.

A request whose first token names a subcommand builds two parsers: the
top-level one and that subcommand's, from ``COMMANDS``.  The top-level
parser hands every later token to the subparser, and its usage line lists
every subcommand through a metavar.  Anything else (no token, an unknown
name, ``-h`` or another option first) builds the whole parser, with every
subparser, because its help and its "invalid choice" and "required"
messages list or name the subcommands; it has no metavar, so these
messages still say "command".  No parser is kept from one request to the
next.  A cached parser would make a request several times faster, and the
benchmark's worker keeps one latency per request in a list, so its peak
RSS would then grow past its bound (ROADMAP items 2 and 9).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import re
import sys

from .cohomology import UNKNOWN, load_s1_table
from .levels import curve_invariants

MAX_LEVEL = 10**7
S1_ENV = "TMFLEVELS_S1_FILE"
VERSION = 1


def _lazy(short: str):
    """``tmflevels.<short>``, registered like an import but run only when one
    of its attributes is first read; a module already imported is returned
    as it is, so each name keeps one module object."""
    name = f"{__package__}.{short}"
    if (module := sys.modules.get(name)) is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], short, module)
    return module


charts, duality, equivariant, hfpss, splitting = map(
    _lazy, ("charts", "duality", "equivariant", "hfpss", "splitting"))


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
        raise ValueError("level must be a positive integer")
    if n > MAX_LEVEL:
        raise ValueError(f"level {n} exceeds the size bound {MAX_LEVEL}")


def _coeffs(q) -> dict:
    return {str(j): c for j, c in sorted(q.coeffs.items())}


def _cmd_invariants(args):
    _check_level(args.n)
    inv = curve_invariants(args.n)
    if inv.valid_for_curve:
        return {
            "n": inv.n, "curve": True, "d": inv.d,
            "deg_omega": inv.deg_omega, "cusps": inv.cusps, "genus": inv.genus,
        }
    return {
        "n": inv.n, "curve": False, "d": inv.d,
        "stacky_weights": list(inv.stacky.weights),
    }


def _cmd_chart(args):
    _check_level(args.n)
    chart = charts.dss_chart(args.n, args.range, _s1_table(args))
    return charts.render(chart, args.format)


def _cmd_split(args):
    _check_level(args.n)
    if args.n < 2:
        raise ValueError("split requires n >= 2")
    table = _s1_table(args)
    base = splitting.base_for_prime(args.prime)
    q = splitting.shift_polynomial(args.n, base, table)
    if q is UNKNOWN:
        raise ValueError(
            f"s1 data required for n={args.n}; supply --s1-file or {S1_ENV}"
        )
    if isinstance(q, splitting.NoSplitting):
        return {"base": base.name, "no_splitting": q.reason}
    torsion = (
        splitting.Torsion.HOLDS
        if args.prime == 0
        else splitting.torsion_condition(args.n, args.prime)
    )
    payload = {
        "base": base.name,
        "coeffs": _coeffs(q),
        "torsion": torsion.value,
        "rank_check": q.rank(),
    }
    if args.rho:
        if base is not splitting.Base.L2:
            raise ValueError("--rho applies to the 2-local base only")
        payload["rho_shifts"] = payload["coeffs"]
    if args.mod is not None:
        sums, equal = splitting.profile_mod(q, args.mod)
        payload["profile_mod"] = {"m": args.mod, "sums": sums, "equal": equal}
    return payload


def _cmd_duality(args):
    table = _s1_table(args)
    if args.n is not None:
        _check_level(args.n)
        v = duality.verdict(args.n, table)
        payload = {
            "n": v.n, "self_dual": v.self_dual,
            "twist": v.twist, "l": v.shift_l, "reason": v.reason,
            "c2_shift": list(v.c2_shift) if v.c2_shift else None,
        }
        if v.c2_shift:
            payload["c2_shift_rho"] = duality.rho_string(v.c2_shift)
        return payload
    if args.scan is None:
        raise ValueError("duality needs --n or --scan")
    _check_level(args.scan)
    rows = duality.duality_scan(args.scan, table)
    if args.format == "table":
        return "".join(["n   l\n"] + [f"{v.n:<4}{v.shift_l}\n" for v in rows])
    return {"scan": args.scan, "rows": [{"n": v.n, "l": v.shift_l} for v in rows]}


def _cmd_hfpss(args):
    name = args.ring
    stock = hfpss.presets()
    if name in stock:
        spec = stock[name]
    elif os.path.exists(name):
        spec = hfpss.load_ringspec(name)
    else:
        raise ValueError(f"unknown ring preset or missing file: {name}")
    window = hfpss.Window(*args.window)
    cells = (2 * window.c + 1) * (2 * window.d + 1)  # ascii writes every cell, held or not
    if args.format == "ascii" and cells > hfpss.MAX_WORK:
        raise ValueError(
            f"hfpss ascii grid too large: {cells} cells to write, budget {hfpss.MAX_WORK}"
        )
    chart = hfpss.compute_einfty(spec, window, args.strategy)
    if args.format == "ascii":
        return hfpss.render_ascii(chart)
    return hfpss.render_json(chart, VERSION)


def _split_row(p) -> dict:
    if p.poly is UNKNOWN:
        status, coeffs = "unknown_s1", None
    elif isinstance(p.poly, splitting.NoSplitting):
        status, coeffs = "no_splitting", None
    else:
        status, coeffs = "ok", _coeffs(p.poly)
    return {
        "divisor": p.divisor,
        "coeffs": coeffs,
        "status": status,
        "expected_rank": p.expected_rank,
    }


def _cmd_equivariant(args):
    orders = [int(x) for x in args.group.split(",")]
    order = math.prod(orders)  # the order of G, bounded before trial division
    if order > equivariant.MAX_ORDER and min(orders) >= 1:
        raise ValueError(f"group order {order} exceeds the bound {equivariant.MAX_ORDER}")
    if args.prime is not None and args.prime > MAX_LEVEL:  # bounded before trial division
        raise ValueError(f"prime {args.prime} exceeds the size bound {MAX_LEVEL}")
    G = equivariant.FiniteAbelian.from_orders(orders)
    if args.prime is not None and G.rank > 1:
        raise ValueError("--prime splitting applies to cyclic groups only")
    payload = {
        "group": list(G.factors),
        "components": [
            {"quotient": list(c.quotient), "label": c.label, "multiplicity": c.multiplicity}
            for c in equivariant.components(G)
        ],
    }
    if args.prime is not None:
        split = equivariant.cyclic_full_split(G.order, args.prime, _s1_table(args))
        payload["split"] = {
            "unit": split["unit"],
            "divisors": [_split_row(p) for p in split["divisors"]],
        }
    return payload


def _invariants_arguments(p):
    p.add_argument("--n", type=int, required=True)


def _chart_arguments(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--range", type=_parse_range, required=True, metavar="A..B")
    p.add_argument("--format", choices=["json", "ascii", "svg"], default="json")
    p.add_argument("--s1-file")


def _split_arguments(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--prime", type=int, choices=[2, 3, 0], required=True)
    p.add_argument("--rho", action="store_true", help="decorate with rho-shifts (2-local)")
    p.add_argument("--mod", type=int, help="profile multiplicities modulo M")
    p.add_argument("--s1-file")


def _duality_arguments(p):
    p.add_argument("--n", type=int)
    p.add_argument("--scan", type=int)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility and ignored")
    p.add_argument("--s1-file")


def _hfpss_arguments(p):
    p.add_argument("--ring", required=True, help="preset name or ring spec JSON file")
    p.add_argument("--window", type=int, nargs=3, required=True, metavar=("C", "D", "F"))
    p.add_argument("--strategy", default=hfpss.STRATEGY_BOTH,
                   choices=[hfpss.STRATEGY_BOTH, hfpss.STRATEGY_CLOSED, hfpss.STRATEGY_PAGES])
    p.add_argument("--format", choices=["json", "ascii"], default="json")


def _equivariant_arguments(p):
    p.add_argument("--group", required=True, help="cyclic orders, e.g. 2,2 or 6")
    p.add_argument("--prime", type=int)
    p.add_argument("--s1-file")


# name: (help, add_arguments, handler), in the order of the usage line
COMMANDS = {
    "invariants": ("degree/cusp/genus data for a level",
                   _invariants_arguments, _cmd_invariants),
    "chart": ("descent spectral sequence rank chart", _chart_arguments, _cmd_chart),
    "split": ("module splitting shift multiset", _split_arguments, _cmd_split),
    "duality": ("Anderson self-duality verdicts", _duality_arguments, _cmd_duality),
    "hfpss": ("RO(C2) fixed point spectral sequence chart", _hfpss_arguments, _cmd_hfpss),
    "equivariant": ("components of equivariant fixed points",
                    _equivariant_arguments, _cmd_equivariant),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand when ``command`` is None, else the
    top-level parser with the subparser of ``command`` only."""
    parser = argparse.ArgumentParser(
        prog="tmflevels",
        description="Exact invariants, charts, splittings and duality data "
        "for topological modular forms with level structure.",
    )
    # keeps every subcommand on the usage line; on the whole parser it would
    # replace "command" in the "required" and "invalid choice" messages
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (text, add_arguments, handler) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=text)
            add_arguments(p)
            p.set_defaults(func=handler)
    return parser


def _parse(argv):
    """``argv`` parsed by the subparser of its first token when that names
    a subcommand: the top-level parser then hands it every later token.
    Anything else (no token, an unknown name, an option first) is left to
    the whole parser, whose help and errors list every subcommand."""
    command = argv[0] if argv and argv[0] in COMMANDS else None
    return build_parser(command).parse_args(argv)


def _normalize_argv(argv):
    """Join '--range -10..10' into '--range=-10..10' so argparse does not
    mistake a negative stem bound for an option."""
    out = []
    for tok in argv:
        if out and out[-1] == "--range" and re.fullmatch(r"-?\d+\.\.-?\d+", tok):
            out[-1] = f"--range={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    args = _parse(_normalize_argv(sys.argv[1:] if argv is None else argv))
    try:
        result = args.func(args)
        if isinstance(result, dict):
            result = json.dumps({**result, "version": VERSION}, sort_keys=True) + "\n"
        out.write(result)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
