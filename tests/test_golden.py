"""Golden stdout corpus for the command line.

``tests/golden/cases.json`` holds fixed invocations with the stdout, stderr
and exit code they produced when recorded.  Each case is replayed through
``cli.main`` from inside ``tests/golden`` (so fixture paths, and the paths in
error messages, are relative) and must match byte for byte.  A ``null``
stderr is not compared: the builtin-override warning prints a source line
number.  Warnings are recorded during the replay, and a case must raise
exactly those of ``WARNINGS``.  The corpus is not a snapshot to refresh:
changing a recorded output changes the program's behavior, and that is a
change of its own.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import warnings
from pathlib import Path

import pytest

from tmflevels import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text("utf-8"))

# The warnings each case raises, by name; every other case raises none.
WARNINGS = {"chart-s1-override": ["user s1 value for n=23 (0) overrides builtin (1)"]}


def replay(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(list(argv), out)
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
    of at least one case, so a new one cannot ship unpinned."""
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    wanted = set()
    for name, sub in subparsers.choices.items():
        wanted.add((name, "command", name))
        for action in sub._actions:
            for value in action.choices or ():
                wanted.add((name, action.dest, value))
    parsed = [parser.parse_args(cli._normalize_argv(c["argv"])) for c in CASES]
    missing = {
        (name, dest, value) for name, dest, value in wanted
        if not any(a.command == name and getattr(a, dest) == value for a in parsed)
    }
    assert missing == set()

