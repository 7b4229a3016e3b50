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
import functools
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



# Why a function of ``src/tmflevels`` may be reached by no golden case: the
# owner that keeps it, and what that owner is.
OWNERS = {
    "item 4": "the duality certificate of ROADMAP item 4 will report it",
    "item 12": "the Gamma_H(n) ranks of ROADMAP item 12 will call it",
    "oracle": "the tests compare a command's result against it",
    "public API": "library callers reach it, as the README documents",
    "safety": "it refuses a use that would break an invariant, such as a record's checks",
    "perfbench trace": "perfbench traces it by name and fails if it is gone (ROADMAP item 9)",
    "import": "it runs once, while its module is imported",
}

# The functions and methods of ``src/tmflevels`` that no golden case calls:
# (name, owner, what it is).
LIBRARY_API = (
    ("charts._rank_at_stem", "item 4", "anderson_symmetry_check's rank lookup"),
    ("charts.anderson_symmetry_check", "item 4", "rank pi_m = rank pi_{-m-l} over a window"),
    ("duality.degree_equality_via_ratios", "item 4", "degreecomp_solutions from ratio_table"),
    ("duality.degreecomp_solutions", "item 4", "the levels with f(n) = 12 g(n)"),
    ("duality.hom_dual_shift", "item 4", "the Hom(Tmf_1(3), -) suspension shifts"),
    ("duality.ratio_table", "item 4", "exact g(p^k)/f(p^k), the multiplicative cross-check"),
    ("splitting.ShiftPolynomial.as_list", "item 4", "rational_multiplicities' coefficients"),
    ("splitting.ShiftPolynomial.degree", "item 4", "the top shift of a splitting"),
    ("splitting.c2_descent_applicable", "item 4", "whether the descent to Gamma0 applies"),
    ("splitting.rational_multiplicities", "item 4", "omega-power multiplicities, l_{10+i-j} = l_j"),
    ("levels.LevelSpec.__new__", "item 12", "checks a Gamma_H(n) residue list"),
    ("levels.LevelSpec.index_over_gamma1", "item 12", "[Gamma : Gamma1(n)]"),
    ("levels.is_tame", "item 12", "tameness of a congruence subgroup at a prime"),
    ("equivariant.FiniteAbelian.add", "oracle", "the group law that subgroups closes under"),
    ("equivariant.FiniteAbelian.elements", "oracle", "the elements that subgroups enumerates"),
    ("equivariant.FiniteAbelian.zero", "oracle", "the identity of subgroups' closures"),
    ("cohomology._Unknown.__repr__", "public API", "UNKNOWN prints as Unknown"),
    ("hfpss.EinftyChart.__repr__", "public API", "a chart's repr, without its records"),
    ("hfpss.EinftyChart.at", "public API", "the classes of one degree in the window"),
    ("hfpss.EinftyChart.entries", "public API", "(c, d) -> classes, read by hfpss_api"),
    ("hfpss._class_cell", "public API", "a cell of EinftyChart.entries"),
    ("hfpss._entries", "public API", "builds EinftyChart.entries from the records"),
    ("hfpss.RingSpec.divides", "public API", "transfer_check's divisibility test"),
    ("hfpss.RingSpec.height", "public API", "the declared height, read by hfpss_api"),
    ("hfpss.RingSpec.vanishing_line", "public API", "the filtration E_infty ends at"),
    ("hfpss.Window.contains", "public API", "EinftyChart.at's window check"),
    ("hfpss_api.PageClass.coefficient_group", "public API", "Z at filtration 0, Z/2 above"),
    ("hfpss_api.PageClass.degree", "public API", "a class's RO(C2) degree"),
    ("hfpss_api.PageClass.filtration", "public API", "a class's filtration"),
    ("hfpss_api.RO2Degree.__add__", "public API", "the sum of two RO(C2) degrees"),
    ("hfpss_api.RO2Degree.underlying", "public API", "c + d, the underlying degree"),
    ("hfpss_api._normalize_image", "public API", "transfer_check's reduction of an image"),
    ("hfpss_api._page_exponent", "public API", "differential's page check"),
    ("hfpss_api.differential", "public API", "d_r on one monomial class, the per-monomial oracle"),
    ("hfpss_api.e2_basis", "public API", "the E2 classes of one RO(C2) degree"),
    ("hfpss_api.is_strongly_even", "public API", "the k*rho strongly even pattern of a chart"),
    ("hfpss_api.transfer_check", "public API", "mod-(2, v_1, .., v_i) injectivity of a ring map"),
    ("hfpss_api.v_chain_check", "public API", "differentials past the v-chain vanish"),
    ("hfpss_api.weight_basis", "public API", "the monomials of one weight"),
    ("cohomology._Unknown.__bool__", "safety", "refuses to read UNKNOWN as a truth value"),
    ("equivariant.FiniteAbelian._make", "safety", "_replace through the checks of __new__"),
    ("hfpss.RingSpec._make", "safety", "_replace through the checks of __new__"),
    ("hfpss.Window._make", "safety", "_replace through the checks of __new__"),
    ("hfpss._immutable", "safety", "refuses to set or delete a record's attribute"),
    ("levels.LevelSpec._make", "safety", "_replace through the checks of __new__"),
    ("equivariant.quotient_invariant_factors", "perfbench trace",
     "the oracle of components' quotients"),
    ("equivariant.subgroups", "perfbench trace", "the oracle of components' subgroup count"),
    ("hfpss.__getattr__", "perfbench trace", "resolves hfpss.weight_basis from hfpss_api"),
    ("hfpss.chart_to_dict", "perfbench trace", "an EinftyChart as the dict render_json writes"),
    ("cohomology._Unknown.__new__", "import", "makes the one UNKNOWN"),
)


def _functions(module):
    """(qualified name, function) for each function that ``module`` defines:
    its module-level functions first, and then, for each class it defines at
    module level, the plain methods, property getters, setters and deleters,
    class and static methods and cached properties of its own namespace.
    Caches are emptied on the way."""
    def own(value):
        return getattr(value, "__module__", None) == module.__name__

    classes = []
    for name, value in vars(module).items():
        if callable(value) and hasattr(value, "cache_clear"):
            value.cache_clear()
            value = value.__wrapped__
        if isinstance(value, type) and own(value):
            classes.append((name, value))
        elif isinstance(value, types.FunctionType) and own(value):
            yield name, value
    for cls_name, cls in classes:
        for name, value in vars(cls).items():
            if isinstance(value, property):
                found = (value.fget, value.fset, value.fdel)
            elif isinstance(value, (classmethod, staticmethod)):
                found = (value.__func__,)
            elif isinstance(value, functools.cached_property):
                found = (value.func,)
            else:
                found = (value,)
            for function in found:
                if isinstance(function, types.FunctionType) and own(function):
                    yield f"{cls_name}.{name}", function


def test_every_function_is_reached_by_a_case_or_is_library_api(monkeypatch):
    """Replaying the corpus, as ``tmflevels`` would run each case, calls every
    function of the package, and every method of its module-level classes,
    but those of ``LIBRARY_API``.  Each is keyed by where its code starts, so
    ``hfpss._immutable``, bound in classes as ``__setattr__`` and
    ``__delattr__`` too, counts once, under its module-level name.  The
    caches start empty, so that a call answered from a cache still reaches
    what it calls when cold, and a fresh ``cli`` module runs its body under
    the hook too, because a command imports it before it parses."""
    package = Path(cli.__file__).parent
    where = {}  # (file, first line) -> "module.function" or "module.Class.method"
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"tmflevels.{path.stem}")
        for qualname, function in _functions(module):
            code = function.__code__
            where.setdefault((code.co_filename, code.co_firstlineno), f"{path.stem}.{qualname}")
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
    unreached = {name: key for key, name in where.items() if key not in called}
    assert {owner for _, owner, _ in LIBRARY_API} <= OWNERS.keys()
    declared = {name for name, _, _ in LIBRARY_API}
    new = [f"{name} ({Path(file).name}:{line})"
           for name, (file, line) in sorted(unreached.items()) if name not in declared]
    stale = sorted(declared - unreached.keys())
    assert not new and not stale, (
        "reached by no golden case and not in LIBRARY_API:\n  " + "\n  ".join(new or ["none"])
        + "\nin LIBRARY_API but reached by a case, or gone:\n  " + "\n  ".join(stale or ["none"]))
