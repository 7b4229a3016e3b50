"""Golden stdout corpus for the command line.

``tests/golden/cases.json`` holds fixed invocations with the stdout, stderr
and exit code they produced when recorded.  Each case is replayed through
``cli.main`` from inside ``tests/golden`` (so fixture paths, and the paths in
error messages, are relative) and must match byte for byte; a usage error
is argparse's ``SystemExit``, replayed as its exit code 2, and so is a
request for help, as exit code 0 with the help argparse prints as its
stdout; these cases set ``COLUMNS`` so that the text wraps the same
everywhere.  A ``null`` stderr is not compared: the builtin-override
warning prints a source line number.  Warnings are recorded during the
replay, and a case must raise exactly those of ``WARNINGS``.  The corpus is
not a snapshot to refresh: changing a recorded output changes the
program's behavior, and that is a change of its own.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import sys
import types
import warnings
from pathlib import Path

import pytest

from tmflevels import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text("utf-8"))

# The warnings each case raises, by name; every other case raises none.
WARNINGS = {"chart-s1-override": ["user s1 value for n=23 (0) overrides builtin (1)"]}


def replay(argv, main=cli.main):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(list(argv), out)
        except SystemExit as exc:  # a usage error (exit 2) or help (exit 0), from argparse
            code = exc.code
    return out.getvalue(), err.getvalue(), code, caught


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_case(case, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.delenv(cli.S1_ENV, raising=False)
    for key, value in case.get("env", {}).items():
        monkeypatch.setenv(key, value)
    stdout, stderr, code, caught = replay(case["argv"])
    assert stdout.encode("utf-8") == case["stdout"].encode("utf-8")
    if case["stderr"] is not None:
        assert stderr.encode("utf-8") == case["stderr"].encode("utf-8")
    assert code == case["exit"]
    assert [(w.category, str(w.message)) for w in caught] == [
        (UserWarning, text) for text in WARNINGS.get(case["name"], [])]


def test_corpus_covers_every_subcommand_and_choice():
    """Each subcommand, and each value of each option with ``choices``
    (``--format``, ``--strategy``, ``--prime`` of split), is the parsed value
    of at least one case, so a new one cannot ship unpinned.  Usage errors and
    help requests parse to no namespace and are left out."""
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    wanted = set()
    for name, sub in subparsers.choices.items():
        wanted.add((name, "command", name))
        for action in sub._actions:
            for value in action.choices or ():
                wanted.add((name, action.dest, value))
    parsed = [parser.parse_args(cli._normalize_argv(c["argv"])) for c in CASES
              if c["exit"] != 2 and not {"-h", "--help"} & set(c["argv"])]
    missing = {
        (name, dest, value) for name, dest, value in wanted
        if not any(a.command == name and getattr(a, dest) == value for a in parsed)
    }
    assert missing == set()



# The module-level functions of ``src/tmflevels`` that no golden case calls,
# each kept for library callers and the tests, with the reason.
LIBRARY_API = (
    ("charts._rank_at_stem", "anderson_symmetry_check's rank lookup"),
    ("charts.anderson_symmetry_check", "checks rank pi_m = rank pi_{-m-l} over a window"),
    ("charts.slices", "the chart read as slices, k*rho and k*rho - 1"),
    ("duality.degree_equality_via_ratios", "degreecomp_solutions recomputed from ratio_table"),
    ("duality.degreecomp_solutions", "the levels with f(n) = 12 g(n), self-dual candidates"),
    ("duality.hom_dual_shift", "the Hom(Tmf_1(3), -) suspension shifts"),
    ("duality.ratio_table", "exact g(p^k)/f(p^k), the multiplicative cross-check"),
    ("equivariant.quotient_invariant_factors", "the oracle of components' quotients"),
    ("equivariant.subgroups", "the enumerated oracle of components' subgroup count"),
    ("hfpss.__getattr__", "hfpss_api's names reached through hfpss"),
    ("hfpss._class_cell", "a cell of EinftyChart.entries"),
    ("hfpss._entries", "EinftyChart.entries, the library's (c, d) -> classes"),
    ("hfpss._immutable", "refuses to set or delete a record's attribute"),
    ("hfpss.chart_to_dict", "an EinftyChart as a dict, as render_json writes it"),
    ("hfpss_api._normalize_image", "transfer_check's reduction of a generator image"),
    ("hfpss_api._page_exponent", "differential's page check"),
    ("hfpss_api.differential", "d_r on one monomial class, the per-monomial oracle"),
    ("hfpss_api.e2_basis", "the E2 classes of one RO(C2) degree"),
    ("hfpss_api.is_strongly_even", "the k*rho strongly even pattern of a chart"),
    ("hfpss_api.transfer_check", "mod-(2, v_1, .., v_i) injectivity of a ring map"),
    ("hfpss_api.v_chain_check", "differentials past the v-chain vanish"),
    ("hfpss_api.weight_basis", "the monomials of one weight"),
    ("levels.is_tame", "tameness of a congruence subgroup at a prime"),
    ("splitting.c2_descent_applicable", "whether the descent to the Gamma0 level applies"),
    ("splitting.rational_multiplicities", "omega-power multiplicities with the duality verdict"),
)


def test_every_function_is_reached_by_a_case_or_is_library_api(monkeypatch):
    """Replaying the corpus, as ``tmflevels`` would run each case, calls every
    module-level function of the package but those of ``LIBRARY_API``.  The
    caches start empty, so that a call answered from a cache still reaches
    what it calls when cold, and a fresh ``cli`` module runs its body under
    the hook too, because a command imports it before it parses."""
    package = Path(cli.__file__).parent
    where = {}  # (file, first line) -> "module.function"
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"tmflevels.{path.stem}")
        for name, value in vars(module).items():
            if callable(value) and hasattr(value, "cache_clear"):
                value.cache_clear()
                value = value.__wrapped__
            if isinstance(value, types.FunctionType) and value.__module__ == module.__name__:
                code = value.__code__
                where[code.co_filename, code.co_firstlineno] = f"{path.stem}.{name}"
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    monkeypatch.chdir(GOLDEN)
    monkeypatch.delenv(cli.S1_ENV, raising=False)
    spec = importlib.util.find_spec(cli.__name__)
    fresh = importlib.util.module_from_spec(spec)
    sys.setprofile(hook)
    try:
        spec.loader.exec_module(fresh)
        for case in CASES:
            with monkeypatch.context() as env:
                for key, value in case.get("env", {}).items():
                    env.setenv(key, value)
                stdout, _, code, _ = replay(case["argv"], fresh.main)
            assert (stdout, code) == (case["stdout"], case["exit"]), case["name"]
    finally:
        sys.setprofile(None)
    unreached = sorted(name for key, name in where.items() if key not in called)
    assert unreached == sorted(name for name, _ in LIBRARY_API)
