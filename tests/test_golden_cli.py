"""CLI output on the shipped fixtures, pinned byte for byte.

``golden_cli.json`` holds, for every call below, the exit code, the
sha256 of stdout and stderr as written.  The calls are ``validate`` on
each algebra fixture, ``invariant`` with each of the 8 flag sets, and
``integrate`` on every (algebra, module) pair, mismatched pairs included.
Then come gl(2|1), gl(3|1) and gl(3|1) after a +-1 unitriangular odd
basis change, written to a temporary directory, under ``invariant
--oracle`` and ``invariant --emit-matrix --emit-dual-pair --oracle``.
Then comes ``twisted_dual_algebra``, whose dual pair the twist alpha
changes, under ``invariant --emit-matrix --emit-dual-pair`` with and
without ``--oracle``.  Last come ``rescaled_algebra`` of gl(2|1) and of
the twisted algebra, whose integer scales S are 15120 and 10 (every
other call runs at S = 1), under the same flag sets as their originals.
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
import random
import tempfile
from fractions import Fraction
from pathlib import Path

from superhaar.cli import main
from superhaar.fileio import algebra_to_json, builtin_fixture, dumps_canonical

from conftest import (ALGEBRA_FILES, MODULE_FILES, gl_supermatrix_units, identity,
                      rescaled_algebra, twisted_dual_algebra)
from randgen import change_basis

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
FLAGS = ("--emit-matrix", "--emit-dual-pair", "--oracle")
EXTRA_FLAGS = (["--oracle"], ["--emit-matrix", "--emit-dual-pair", "--oracle"])
TWISTED_FLAGS = (["--emit-matrix", "--emit-dual-pair"],
                 ["--emit-matrix", "--emit-dual-pair", "--oracle"])


def extra_algebras() -> dict:
    """File name -> algebra, for the calls beyond the fixtures.  The basis
    change has signs +-1 drawn from random.Random(31) in every entry above
    the diagonal."""
    gl31 = gl_supermatrix_units(3, 1)
    rng = random.Random(31)
    m = gl31.n_odd
    signs = [[Fraction(1) if i == j else Fraction(rng.choice((1, -1))) if j > i
              else Fraction(0) for j in range(m)] for i in range(m)]
    dense, _ = change_basis(gl31, identity(gl31.n_even), signs, name="gl(3|1)-pm1")
    return {"gl21.json": gl_supermatrix_units(2, 1), "gl31.json": gl31,
            "gl31_pm1.json": dense, "twisted_dual.json": twisted_dual_algebra(),
            "gl21_rescaled.json": rescaled_algebra(gl_supermatrix_units(2, 1)),
            "twisted_dual_rescaled.json": rescaled_algebra(twisted_dual_algebra())}


def write_extra_algebras(directory: str) -> dict:
    """Write ``extra_algebras`` into ``directory``; file name -> path."""
    paths = {}
    for name, alg in extra_algebras().items():
        paths[name] = os.path.join(directory, name)
        Path(paths[name]).write_text(dumps_canonical(algebra_to_json(alg)), encoding="utf-8")
    return paths


def calls() -> list[list[str]]:
    algebras = sorted(ALGEBRA_FILES.values())
    modules = sorted({f for fs in MODULE_FILES.values() for f in fs})
    out = [["validate", a] for a in algebras]
    for a in algebras:
        for picks in itertools.product((False, True), repeat=len(FLAGS)):
            out.append(["invariant", a] + [f for f, on in zip(FLAGS, picks) if on])
    out += [["integrate", a, m] for a in algebras for m in modules]
    out += [["invariant", a] + flags for a in ("gl21.json", "gl31.json", "gl31_pm1.json")
            for flags in EXTRA_FLAGS]
    out += [["invariant", "twisted_dual.json"] + flags for flags in TWISTED_FLAGS]
    out += [["invariant", "gl21_rescaled.json"] + flags for flags in EXTRA_FLAGS]
    out += [["invariant", "twisted_dual_rescaled.json"] + flags for flags in TWISTED_FLAGS]
    return out


def run(call: list[str], extra: dict) -> dict:
    """Exit code, stdout digest and stderr of one call on the fixtures, or
    on the files of ``extra`` (file name -> path)."""
    argv = [extra.get(arg) or builtin_fixture(arg) if arg.endswith(".json") else arg
            for arg in call]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"call": " ".join(call), "exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": err.getvalue()}


def test_cli_output_matches_golden(monkeypatch, tmp_path):
    monkeypatch.delenv("SUPERHAAR_MAX_ODD", raising=False)
    extra = write_extra_algebras(str(tmp_path))
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [g["call"] for g in golden] == [" ".join(c) for c in calls()]
    for call, want in zip(calls(), golden):
        assert run(call, extra) == want


if __name__ == "__main__":
    os.environ.pop("SUPERHAAR_MAX_ODD", None)
    with tempfile.TemporaryDirectory() as directory:
        extra = write_extra_algebras(directory)
        GOLDEN.write_text(json.dumps([run(c, extra) for c in calls()], indent=1) + "\n",
                          encoding="utf-8")
