"""CLI output on the shipped fixtures, pinned byte for byte.

``golden_cli.json`` holds, for every call below, the exit code, the
sha256 of stdout and stderr as written.  The calls are ``validate`` on
each algebra fixture, ``invariant`` with each of the 8 flag sets, and
``integrate`` on every (algebra, module) pair, mismatched pairs included.
A change that alters any output fails here; if the change is meant, rerun

    PYTHONPATH=src python tests/test_golden_cli.py

to rewrite the file, and say why in the commit.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
from pathlib import Path

from superhaar.cli import main
from superhaar.fileio import builtin_fixture

from conftest import ALGEBRA_FILES, MODULE_FILES

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
FLAGS = ("--emit-matrix", "--emit-dual-pair", "--oracle")


def calls() -> list[list[str]]:
    algebras = sorted(ALGEBRA_FILES.values())
    modules = sorted({f for fs in MODULE_FILES.values() for f in fs})
    out = [["validate", a] for a in algebras]
    for a in algebras:
        for picks in itertools.product((False, True), repeat=len(FLAGS)):
            out.append(["invariant", a] + [f for f, on in zip(FLAGS, picks) if on])
    out += [["integrate", a, m] for a in algebras for m in modules]
    return out


def run(call: list[str]) -> dict:
    """Exit code, stdout digest and stderr of one call on the fixtures."""
    argv = [builtin_fixture(arg) if arg.endswith(".json") else arg for arg in call]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"call": " ".join(call), "exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": err.getvalue()}


def test_cli_output_matches_golden(monkeypatch):
    monkeypatch.delenv("SUPERHAAR_MAX_ODD", raising=False)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [g["call"] for g in golden] == [" ".join(c) for c in calls()]
    for call, want in zip(calls(), golden):
        assert run(call) == want


if __name__ == "__main__":
    os.environ.pop("SUPERHAAR_MAX_ODD", None)
    GOLDEN.write_text(json.dumps([run(c) for c in calls()], indent=1) + "\n",
                      encoding="utf-8")
