"""Command line behavior: formats, determinism, exactness, exit codes."""

import argparse
import ast
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tmflevels
from tmflevels import cli
from tmflevels.cli import main


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def no_floats(value):
    if isinstance(value, float):
        return False
    if isinstance(value, dict):
        return all(no_floats(v) for v in value.values())
    if isinstance(value, list):
        return all(no_floats(v) for v in value)
    return True


def test_invariants_curve():
    code, text = run(["invariants", "--n", "23"])
    assert code == 0
    data = json.loads(text)
    assert data == {
        "version": 1, "n": 23, "curve": True, "d": 528,
        "deg_omega": 22, "cusps": 22, "genus": 12,
    }


def test_invariants_stacky():
    code, text = run(["invariants", "--n", "3"])
    assert code == 0
    data = json.loads(text)
    assert data["curve"] is False and data["stacky_weights"] == [1, 3]


def test_invariants_size_error(capsys):
    code, _ = run(["invariants", "--n", "9999999999"])
    assert code == 1
    assert "exceeds the size bound" in capsys.readouterr().err


def test_chart_json():
    code, text = run(["chart", "--n", "23", "--range", "-10..10"])
    assert code == 0
    data = json.loads(text)
    assert data["n"] == 23
    assert {"stem": -9, "filtration": 1, "rank": 99, "marker": "exact"} in data["entries"]


def test_chart_bad_range_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["chart", "--n", "23", "--range", "banana"])
    assert exc.value.code == 2


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_flag_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["invariants", "--n", "5", "--frobnicate"])
    assert exc.value.code == 2


def test_split_json():
    code, text = run(["split", "--n", "5", "--prime", "2"])
    assert code == 0
    data = json.loads(text)
    assert data["base"] == "L2"
    assert data["coeffs"] == {"0": 1, "1": 1, "2": 1}
    assert data["torsion"] == "holds"
    assert data["rank_check"] == 3


def test_split_rho_and_mod():
    code, text = run(["split", "--n", "5", "--prime", "3", "--mod", "4"])
    data = json.loads(text)
    assert data["profile_mod"] == {"m": 4, "sums": [2, 2, 2, 2], "equal": True}
    code, text = run(["split", "--n", "5", "--prime", "2", "--rho"])
    assert json.loads(text)["rho_shifts"] == {"0": 1, "1": 1, "2": 1}


def test_split_rho_wrong_base(capsys):
    code, _ = run(["split", "--n", "5", "--prime", "3", "--rho"])
    assert code == 1
    assert "2-local" in capsys.readouterr().err


def test_split_not_tame(capsys):
    code, _ = run(["split", "--n", "6", "--prime", "2"])
    assert code == 1
    assert "tame" in capsys.readouterr().err


def test_split_unknown_s1(capsys):
    code, _ = run(["split", "--n", "25", "--prime", "2"])
    assert code == 1
    assert "s1" in capsys.readouterr().err


def test_split_s1_file(tmp_path):
    f = tmp_path / "s1.csv"
    f.write_text("n,s1\n25,0\n", encoding="utf-8")
    code, text = run(["split", "--n", "25", "--prime", "2", "--s1-file", str(f)])
    assert code == 0
    data = json.loads(text)
    assert data["rank_check"] == 25 * 3  # deg omega = 600/24 = 25, e1*e2 = 3


def test_s1_env_var(tmp_path, monkeypatch):
    f = tmp_path / "s1.csv"
    f.write_text("n,s1\n25,0\n", encoding="utf-8")
    monkeypatch.setenv("TMFLEVELS_S1_FILE", str(f))
    code, _ = run(["split", "--n", "25", "--prime", "2"])
    assert code == 0


def test_s1_file_missing_field(tmp_path, capsys):
    f = tmp_path / "s1.csv"
    f.write_text("n,s1\n5\n", encoding="utf-8")
    code, text = run(["chart", "--n", "25", "--range", "0..2", "--s1-file", str(f)])
    assert (code, text) == (1, "")
    assert capsys.readouterr().err == f"error: s1 file {f}: line 2 has no s1 value\n"


def test_duality_single():
    code, text = run(["duality", "--n", "23"])
    data = json.loads(text)
    assert data["self_dual"] is True and data["l"] == -1
    assert data["c2_shift"] == [2, -3] and data["c2_shift_rho"] == "5-3rho"


def test_duality_missing_args(capsys):
    code, _ = run(["duality"])
    assert code == 1


def test_duality_scan_json():
    code, text = run(["duality", "--scan", "50"])
    data = json.loads(text)
    assert data["rows"] == [
        {"n": 1, "l": 21}, {"n": 2, "l": 13}, {"n": 3, "l": 9}, {"n": 4, "l": 7},
        {"n": 5, "l": 5}, {"n": 6, "l": 5}, {"n": 7, "l": 3}, {"n": 8, "l": 3},
        {"n": 11, "l": 1}, {"n": 14, "l": 1}, {"n": 15, "l": 1}, {"n": 23, "l": -1},
    ]


def test_duality_scan_jobs_deterministic():
    _, seq = run(["duality", "--scan", "60"])
    _, par = run(["duality", "--scan", "60", "--jobs", "2"])
    assert seq == par


SRC = str(Path(tmflevels.__file__).resolve().parent.parent)
LAZY = ("charts", "duality", "equivariant", "hfpss", "splitting")


def run_python(probe, *path):
    """Run ``probe`` in a fresh interpreter that imports from ``path`` (the
    source tree by default) and return what it printed, parsed as JSON."""
    search = list(path or [SRC]) + [os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, search)))
    res = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def test_cli_import_loads_no_process_pool():
    # The scan runs in-process, and a request runs only the modules its
    # subcommand uses: importing the CLI pays for neither a pool nor hfpss,
    # and no subcommand loads dataclasses or inspect.  Only the modules that
    # the import and the requests add count, not what site preloaded.
    probe = f"""if True:
        import io, json, sys, types
        held = set(sys.modules)
        import tmflevels.cli as cli

        def ran():
            return [n for n in {LAZY!r} if type(sys.modules["tmflevels." + n]) is types.ModuleType]

        def added():
            return [m for m in ("multiprocessing", "concurrent.futures", "dataclasses", "inspect")
                    if m in sys.modules and m not in held]

        seen = [added(), ran()]
        for argv in (["invariants", "--n", "23"], ["duality", "--n", "1"],
                     ["hfpss", "--ring", "height1-laurent", "--window", "2", "2", "2"],
                     ["chart", "--n", "5", "--range", "0..4"], ["split", "--n", "5", "--prime", "2"],
                     ["equivariant", "--group", "6", "--prime", "5"]):
            assert cli.main(argv, io.StringIO()) == 0
            seen.append(ran())
        seen.append(added())
        seen.append("tmflevels.hfpss_api" in sys.modules)
        print(json.dumps(seen))
    """
    assert run_python(probe) == [
        [], [], [], ["duality"], ["duality", "hfpss"], ["charts", "duality", "hfpss"],
        ["charts", "duality", "hfpss", "splitting"], list(LAZY), [], False,
    ]


def test_cheap_requests_load_no_fractions_csv_or_poly():
    # The integer arithmetic of levels and duality, the packaged s1 table and
    # the rank tables need neither fractions (with decimal and numbers), csv
    # nor _poly.  Only the modules that the import and the requests add
    # count, not what site preloaded.
    probe = """if True:
        import io, json, sys
        held = set(sys.modules)
        import tmflevels.cli as cli

        for argv in (["invariants", "--n", "23"], ["duality", "--n", "1"],
                     ["duality", "--scan", "50"], ["chart", "--n", "5", "--range", "0..4"]):
            assert cli.main(argv, io.StringIO()) == 0
        print(json.dumps([m for m in ("fractions", "decimal", "numbers", "csv", "tmflevels._poly")
                          if m in sys.modules and m not in held]))
    """
    assert run_python(probe) == []


@pytest.mark.parametrize("before", ["import tmflevels.hfpss, tmflevels.equivariant", "pass"])
def test_one_module_object_per_name(before):
    # Whether a module was imported before the CLI or is bound lazily by it,
    # the CLI, the package and sys.modules hold one object, and a patch made
    # through the package is what a request calls.
    probe = f"""if True:
        import io, json, sys
        {before}
        early = {{n: sys.modules.get("tmflevels." + n) for n in {LAZY!r}}}
        import tmflevels.cli as cli
        import tmflevels

        same = [early[n] in (None, getattr(cli, n))
                and getattr(cli, n) is getattr(tmflevels, n) is sys.modules["tmflevels." + n]
                for n in early]
        seen = []
        tmflevels.equivariant.components = lambda G: seen.append(list(G.factors)) or []
        code = cli.main(["equivariant", "--group", "6"], io.StringIO())
        print(json.dumps([same, code, seen]))
    """
    assert run_python(probe) == [[True] * len(LAZY), 0, [[6]]]


def test_package_runs_under_another_name(tmp_path):
    # Nothing in the package names it, so a copy under a second name answers
    # from its own files, the builtin s1 table among them.
    shutil.copytree(Path(tmflevels.__file__).parent, tmp_path / "tmflevels_copy",
                    ignore=shutil.ignore_patterns("__pycache__"))
    probe = """if True:
        import io, json, sys
        import tmflevels_copy.cli as cli

        out = io.StringIO()
        code = cli.main(["duality", "--n", "23"], out)
        print(json.dumps([code, json.loads(out.getvalue()),
                          sorted(n for n in sys.modules if n.split(".")[0] == "tmflevels")]))
    """
    code, payload, loaded = run_python(probe, str(tmp_path))
    assert (code, loaded) == (0, [])
    assert payload == json.loads(run(["duality", "--n", "23"])[1])


def test_hfpss_preset_json():
    code, text = run(["hfpss", "--ring", "height1-laurent", "--window", "4", "4", "4"])
    assert code == 0
    data = json.loads(text)
    assert data["collapse_page"] == 4
    (entry,) = [e for e in data["entries"] if (e["c"], e["d"]) == (1, 0)]
    assert entry["classes"] == [[1, "Z/2", 1]]
    assert no_floats(data)


def test_hfpss_ring_file(tmp_path):
    path = tmp_path / "ring.json"
    path.write_text(
        json.dumps({
            "name": "custom-height1", "base": "Z2loc",
            "generators": [{"sym": "b", "weight": 1, "invertible": True}],
            "v": ["b"], "termination": "invertible",
        }),
        encoding="utf-8",
    )
    code, text = run(["hfpss", "--ring", str(path), "--window", "2", "2", "2"])
    assert code == 0
    assert json.loads(text)["ring"] == "custom-height1"


@pytest.mark.parametrize("spec", [{"name": "x"}, [1, 2]])
def test_hfpss_malformed_ring_file(tmp_path, capsys, spec):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, text = run(["hfpss", "--ring", str(path), "--window", "2", "2", "2"])
    assert (code, text) == (1, "")
    assert capsys.readouterr().err == (
        "error: ring spec must be a JSON object with keys name, base, generators, v, termination\n"
    )


def test_hfpss_unknown_ring(capsys):
    code, _ = run(["hfpss", "--ring", "nonsense", "--window", "2", "2", "2"])
    assert code == 1


def test_hfpss_ascii():
    code, text = run([
        "hfpss", "--ring", "height1-laurent", "--window", "2", "2", "2",
        "--format", "ascii",
    ])
    assert code == 0 and "|" in text


def test_equivariant():
    code, text = run(["equivariant", "--group", "2,2"])
    data = json.loads(text)
    assert data["group"] == [2, 2]
    assert {"quotient": [2], "label": "M1(2)", "multiplicity": 3} in data["components"]


def test_equivariant_with_prime():
    code, text = run(["equivariant", "--group", "5", "--prime", "2"])
    data = json.loads(text)
    assert data["split"]["divisors"] == [
        {"divisor": 5, "coeffs": {"0": 1, "1": 1, "2": 1}, "status": "ok", "expected_rank": 3}
    ]


def test_equivariant_prime_noncyclic(capsys, monkeypatch):
    # refused before any component is counted
    def fail(G):
        raise AssertionError("components called for a refused request")

    monkeypatch.setattr(tmflevels.equivariant, "components", fail)
    code, text = run(["equivariant", "--group", "2,2", "--prime", "3"])
    assert (code, text) == (1, "")
    assert capsys.readouterr().err == "error: --prime splitting applies to cyclic groups only\n"


def test_equivariant_order_bound(capsys):
    code, text = run(["equivariant", "--group", "10007"])
    assert (code, text) == (1, "")
    assert capsys.readouterr().err == "error: group order 10007 exceeds the bound 10000\n"


@pytest.mark.parametrize("group", ["10,10,10,10", "2,2,2,2,2,2,2,2,2,2,2,2,2", "8,8,8,8,2"])
def test_equivariant_worst_accepted_orders_within_budget(group):
    # the largest orders the bound accepts, at the highest ranks
    start = time.perf_counter()
    code, text = run(["equivariant", "--group", group])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(text)["components"][0]["label"] == "M_ell"
    assert elapsed < 0.5, f"equivariant --group {group} took {elapsed:.3f} s"


TWELVE_RING = str(Path(__file__).parent / "golden" / "ring_twelve.json")
CUSTOM_RING = str(Path(__file__).parent / "golden" / "ring_custom.json")
EXTREME_ARGV = {
    "chart-huge-range": (["chart", "--n", "23", "--range", "0..1000000000000000000000"], 1),
    "chart-at-the-budget": (["chart", "--n", "23", "--range", "-5000..4999", "--format", "svg"], 0),
    "group-huge-prime": (["equivariant", "--group", "1000000000000000003"], 1),
    "group-huge-prime-and-zero": (["equivariant", "--group", "1000000000000000003,0"], 1),
    "group-many-factors": (["equivariant", "--group", ",".join(["2"] * 1000)], 1),
    "group-many-large-factors": (["equivariant", "--group", ",".join(["999999937"] * 100)], 1),
    "hfpss-huge-window": (["hfpss", "--ring", "height2-laurent", "--window"] + ["1000000"] * 3, 1),
    "hfpss-huge-filtration": (
        ["hfpss", "--ring", "height2-poly", "--window", "0", "0", "10000000000", "--strategy", "fast"],
        1,
    ),
    # twelve generators: the largest accepted cube, 42 layers of 94,478 bytes
    # with under 2 % of their bits set, and the next one, refused
    "hfpss-many-generators": (["hfpss", "--ring", TWELVE_RING, "--window", "4", "4", "4"], 0),
    "hfpss-many-generators-over": (["hfpss", "--ring", TWELVE_RING, "--window", "5", "5", "5"], 1),
    # long flat windows of a Laurent ring: one candidate exponent per weight,
    # not every one within the cap
    "hfpss-laurent-flat-d-reference": (
        ["hfpss", "--ring", "height1-laurent", "--window", "0", "3898", "0", "--strategy", "reference"],
        0,
    ),
    "hfpss-laurent-flat-d-both": (["hfpss", "--ring", "height1-laurent", "--window", "0", "3890", "0"], 0),
    "hfpss-laurent-flat-f-both": (["hfpss", "--ring", "height1-laurent", "--window", "0", "0", "5280"], 0),
    # a window side past 2^63, where len() of a range overflows
    "hfpss-window-past-ssize": (
        ["hfpss", "--ring", "height2-laurent", "--window", "100000000000000000000", "1", "1"], 1,
    ),
    # the largest fast cube, whose price is nearly all slots, and the next one
    "hfpss-fast-largest-cube": (
        ["hfpss", "--ring", "height2-laurent", "--window", "99", "99", "99", "--strategy", "fast"], 0,
    ),
    "hfpss-fast-cube-over": (
        ["hfpss", "--ring", "height2-laurent", "--window", "100", "100", "100", "--strategy", "fast"], 1,
    ),
    # the largest reference cube, whose price is nearly all bitset words, and
    # the next one
    "hfpss-reference-largest-cube": (
        ["hfpss", "--ring", "height2-laurent", "--window", "54", "54", "54", "--strategy", "reference"],
        0,
    ),
    "hfpss-reference-cube-over": (
        ["hfpss", "--ring", "height2-laurent", "--window", "55", "55", "55", "--strategy", "reference"],
        1,
    ),
    # long flat windows of a polynomial ring, over the budget for the
    # reference: priced from counted layers, not by walking them
    "hfpss-reference-flat-f-over": (
        ["hfpss", "--ring", CUSTOM_RING, "--window", "0", "0", "560000", "--strategy", "reference"], 1,
    ),
    "hfpss-reference-flat-c-over": (
        ["hfpss", "--ring", CUSTOM_RING, "--window", "399000", "0", "0", "--strategy", "reference"], 1,
    ),
    # ascii writes (2C + 1)(2D + 1) cells however few of them hold a class:
    # refused past the budget before any work, answered at it
    "hfpss-ascii-flat-d-over": (
        ["hfpss", "--ring", CUSTOM_RING, "--window", "0", "999999", "0", "--strategy", "fast",
         "--format", "ascii"], 1,
    ),
    "hfpss-ascii-flat-c-over": (
        ["hfpss", "--ring", CUSTOM_RING, "--window", "999999", "0", "0", "--strategy", "fast",
         "--format", "ascii"], 1,
    ),
    "hfpss-ascii-flat-d-at-the-budget": (
        ["hfpss", "--ring", CUSTOM_RING, "--window", "0", "499999", "0", "--strategy", "fast",
         "--format", "ascii"], 0,
    ),
    # the largest accepted c = d windows, whose time goes to reading out and
    # writing some 10 MB
    "hfpss-c-equals-d-reference": (
        ["hfpss", "--ring", "height1-laurent", "--window", "483", "483", "0", "--strategy", "reference"],
        0,
    ),
    "hfpss-c-equals-d-both": (["hfpss", "--ring", "height1-laurent", "--window", "434", "434", "0"], 0),
    "split-huge-prime": (["equivariant", "--group", "5", "--prime", "1000000000000000003"], 1),
    # 64 divisors, the most of any order within the bound (as 9240 has), each
    # split in turn
    "split-most-divisors": (["equivariant", "--group", "7560", "--prime", "11"], 0),
    # one sum per residue: the largest modulus, and the next one
    "split-mod-at-the-bound": (["split", "--n", "5", "--prime", "2", "--mod", "1000000"], 0),
    "split-mod-over": (["split", "--n", "5", "--prime", "2", "--mod", "1000001"], 1),
    # stacky levels at the stem budget: each rank a count of the solutions of
    # a*i + b*j = k, weights up to 5,000
    "chart-stacky-negative-at-the-budget": (
        ["chart", "--n", "4", "--range", "-9999..0", "--format", "svg"], 0,
    ),
    "chart-stacky-positive-at-the-budget": (["chart", "--n", "3", "--range", "0..9999"], 0),
}


@pytest.mark.parametrize("name", EXTREME_ARGV)
def test_extreme_inputs_finish_within_a_second(name, capsys):
    # in-process, so no thread or process is started; an input is either
    # answered or refused up front with exit 1 and one error line
    argv, expected = EXTREME_ARGV[name]
    start = time.perf_counter()
    code, text = run(argv)
    elapsed = time.perf_counter() - start
    assert code == expected
    if expected:
        assert text == "" and capsys.readouterr().err.startswith("error: ")
    assert elapsed < 1, f"{name} took {elapsed:.3f} s"


def test_determinism_byte_identical():
    for argv in (
        ["duality", "--scan", "30"],
        ["chart", "--n", "23", "--range", "-10..10", "--format", "ascii"],
        ["hfpss", "--ring", "height2-poly", "--window", "4", "4", "4"],
        ["equivariant", "--group", "4,2"],
    ):
        assert run(argv) == run(argv)


def test_exactness_no_floats_anywhere():
    for argv in (
        ["invariants", "--n", "23"],
        ["duality", "--scan", "30"],
        ["split", "--n", "7", "--prime", "2"],
        ["chart", "--n", "23", "--range", "-4..4"],
        ["equivariant", "--group", "6"],
    ):
        _, text = run(argv)
        assert no_floats(json.loads(text))


def test_exactness_no_float_arithmetic_in_source():
    # no float literal, float() call or true division anywhere in the library
    hits = []
    for path in sorted(Path(tmflevels.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
                or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "float")
                or (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div))
            ):
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []


# The whole parser, ``build_parser()``, is the oracle for the one a request
# builds, which has the requested subcommand's subparser only.
GOLDEN_ARGV = [case["argv"] for case in json.loads(
    (Path(__file__).parent / "golden" / "cases.json").read_text("utf-8"))]
USAGE_ARGV = [
    [], ["frobnicate"], [""], ["-h", "chart"], ["--", "invariants", "--n", "5"],
    ["--n", "5", "chart"], ["--frobnicate", "invariants", "--n", "5"],
    ["invariants", "--n", "5", "--frobnicate"], ["chart", "--n", "5"],
    ["chart", "--n", "5", "--range", "banana"], ["duality", "--format", "xml"],
    ["hfpss", "--ring", "x", "--window", "1", "2"], ["split", "--n", "5", "--prime", "5"],
    ["invariants"], ["-h"], ["--he", "invariants"],
    ["invariants", "--n", "5", "chart"], ["invariants", "--n", "5", "--", "x"],
    ["invariants", "--", "--n", "5"], ["invariants", "--nn", "5"],
    ["chart", "--n", "5", "--range", "-10..10", "extra"],
] + [[name, "-h"] for name in cli.COMMANDS]


def parsed(parse, argv):
    """The namespace ``parse`` makes of ``argv``, or the exit code, stdout
    and stderr of its usage error or help."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parse(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argvs", [GOLDEN_ARGV, USAGE_ARGV], ids=["golden", "usage"])
def test_request_parser_parses_like_the_whole_parser(argvs, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for argv in map(cli._normalize_argv, argvs):
        assert parsed(cli._parse, argv) == parsed(cli.build_parser().parse_args, argv), argv


def subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def arguments(parser):
    return parser._defaults, [
        (a.option_strings, a.dest, a.nargs, a.const, a.default, a.type, a.choices,
         a.required, a.help, a.metavar)
        for a in parser._actions
    ]


def test_hfpss_strategy_choices_are_the_engine_strategies():
    from tmflevels.hfpss import STRATEGY_BOTH, STRATEGY_CLOSED, STRATEGY_PAGES

    (action,) = [a for a in subparsers(cli.build_parser("hfpss"))["hfpss"]._actions
                 if a.dest == "strategy"]
    assert set(action.choices) == {STRATEGY_BOTH, STRATEGY_CLOSED, STRATEGY_PAGES}
    assert action.default == STRATEGY_BOTH


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_request_parser_gives_arguments_to_its_subcommand_only(command, monkeypatch):
    """A request's parser holds its own subcommand's subparser only, built as
    the whole parser builds it, and a usage line that still names them all."""
    monkeypatch.setenv("COLUMNS", "80")
    whole, built = cli.build_parser(), cli.build_parser(command)
    assert list(subparsers(built)) == [command]
    assert list(subparsers(whole)) == list(cli.COMMANDS)
    sub, oracle = subparsers(built)[command], subparsers(whole)[command]
    assert arguments(sub) == arguments(oracle)
    assert sub.format_help() == oracle.format_help()
    assert built.format_usage() == whole.format_usage()


def count_parsers(monkeypatch):
    """A list that grows by one for each ``ArgumentParser`` built from now on."""
    built, init = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def test_request_builds_two_parsers(monkeypatch):
    built = count_parsers(monkeypatch)
    assert cli.main(["invariants", "--n", "23"], io.StringIO()) == 0
    assert len(built) == 2  # the top level and ``invariants``


@pytest.mark.parametrize(("argv", "code"), [(["-h"], 0), (["frobnicate"], 2)])
def test_request_without_a_command_first_builds_the_whole_parser(argv, code, monkeypatch):
    built = count_parsers(monkeypatch)
    assert parsed(cli._parse, argv)[0] == code
    assert len(built) == 1 + len(cli.COMMANDS)
