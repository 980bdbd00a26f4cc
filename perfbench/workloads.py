"""The benchmark's three workloads: seeded job lists and their correctness
checks.

One pass of a workload is a fixed, seeded list of CLI jobs; a run repeats
the pass.  Every job carries what its construction fixes about the answer
(exit code, violator, the shape of ``z``), and ``check`` compares the
program's stdout against it without using the package under test.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import gen

# Seed-independent facts about the answers, recorded from the reference seed:
# the rank and the number of nonzero entries of the integral matrix per
# integrate class.  Both are unchanged by the seeded relabelling of the
# algebra and module bases, so they hold for every seed.
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json"),
          encoding="utf-8") as _fh:
    INTEGRAL_SHAPES = json.load(_fh)["integral_matrix"]

# Each entry is (family, module shape or None, instances per pass).  The
# classes have a role each, and their measured shares of a pass's job time
# are recorded under "mix" in reference.json (``run.py`` prints them on every
# run).  invariant: gl31, the largest z, carries most of the time and so
# jobs_per_s; the parabolics are the rejections, one of each shape, about a
# quarter of the time; the many gl11 and gl21 calls are the quick z requests
# that put job_s.p50 on the per-call cost and job_s.tail (the eleventh
# slowest job) on the mid-size gl21.  integrate: the 81-dimensional
# gl21 (VV*)2 module carries more than half the time, as module validation cost
# grows with dimension; the smaller modules set p50 and the tail.  report:
# the emitted matrices and the dual-pair check grow as 2^m, so the two m = 6
# and m = 5 classes (par32, heis5) and gl21 carry most of the time.
# Counts are set so that p50 and the tail each fall inside one class, not on
# the edge between two, where they would jump between classes from run to
# run.
PASSES = {
    "invariant": [("gl11", None, 28), ("gl21", None, 12), ("gl31", None, 4),
                  ("par32", None, 1), ("par23", None, 1)],
    "integrate": [("gl11", "VV*", 5), ("gl11", "VV*V", 3), ("gl11", "(VV*)2", 3),
                  ("gl21", "VV*", 3), ("gl21", "VV*V", 4), ("gl21", "(VV*)2", 1)],
    "report": [("gl11", None, 2), ("gl21", None, 2), ("heis4", None, 3),
               ("heis5", None, 2), ("par22", None, 3), ("par32", None, 1)],
}

REPORT_FLAGS = ["--emit-matrix", "--emit-dual-pair", "--oracle"]


@dataclass
class Job:
    id: str                        # "<class>.<instance>", unique in a run
    cls: str                       # "<family>[.<shape>]"
    argv: list[str]
    algebra_path: str
    alg: gen.Algebra
    exit_code: int
    violator: str | None = None    # expected on exit 3
    lam: str | None = None
    unit_z: bool = False           # z must be the top odd monomial, coeff +-1
    module: gen.Module | None = None


def _algebra(family: str, rng: random.Random, canonical: bool) -> gen.Algebra:
    if family.startswith("heis"):
        return gen.odd_heisenberg(int(family[4:]), rng)
    order = None if canonical else rng
    p, q = int(family[-2]), int(family[-1])
    return (gen.gl if family.startswith("gl") else gen.parabolic)(p, q, order)


def _module(alg: gen.Algebra, p: int, shape: str, rng: random.Random) -> gen.Module:
    v = gen.defining_module(alg, p)
    vv = gen.tensor_module(alg, v, gen.dual_module(alg, v))
    mod = {"VV*": vv,
           "VV*V": gen.tensor_module(alg, vv, v),
           "(VV*)2": gen.tensor_module(alg, vv, vv)}[shape]
    return gen.permute_module(mod, rng)


def build(workload: str, seed: int, outdir: str, passes: int = 1) -> list[Job]:
    """Write the inputs of ``passes`` passes of ``workload`` under ``outdir``
    and return their jobs, each pass in its seeded order.

    Every job of a run has its own input, drawn afresh from the seed, with
    its own name and file: a run never hands the program the same algebra
    twice, so a cache inside the program cannot serve a later pass from an
    earlier one, as it could not for separate CLI calls."""
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(outdir, exist_ok=True)
    jobs = []
    for k in range(passes):
        one_pass = []
        for family, shape, count in PASSES[workload]:
            cls = ".".join([family] + ([shape] if shape else []))
            for t in range(k * count, (k + 1) * count):
                one_pass.append(_job(workload, family, shape, cls, t, rng, outdir))
        rng.shuffle(one_pass)
        jobs += one_pass
    return jobs


def _job(workload, family, shape, cls, t, rng, outdir) -> Job:
    job_id = f"{cls}.{t}"
    stem = os.path.join(outdir, job_id)
    alg = _algebra(family, rng, canonical=workload == "report")
    if workload == "report":
        alg = gen.change_odd_basis(alg, gen.unitriangular(len(alg.odd), rng))
    alg.name = job_id
    a_path = stem + ".alg.json"
    gen.write_json(a_path, gen.algebra_json(alg))
    job = Job(job_id, cls, ["invariant", a_path], a_path, alg, 0)
    traces = gen.odd_traces(alg)
    bad = [i for i, v in enumerate(traces) if v]
    if bad:
        job.exit_code = 3
        job.violator = alg.basis_name(bad[0])
        job.lam = str(traces[bad[0]])
    if workload == "invariant":
        job.unit_z = family.startswith("gl")
    elif workload == "report":
        job.argv += REPORT_FLAGS
    else:
        job.module = _module(alg, int(family[-2]), shape, rng)
        m_path = stem + ".mod.json"
        gen.write_json(m_path, gen.module_json(alg, job.module))
        job.argv = ["integrate", a_path, m_path]
    return job


# -- correctness -------------------------------------------------------------

def _parse_matrix(rows) -> list[list[Fraction]]:
    return [[Fraction(c) for c in row] for row in rows]


def _annihilates(mod: gen.Module, mat: list[list[Fraction]]) -> bool:
    """rho(w) M = 0 for every basis element w, in sparse exact arithmetic."""
    width = len(mat[0]) if mat else 0
    for action in mod.action.values():
        rows: dict[int, list[Fraction]] = {}
        for (r, c), v in action.items():
            acc = rows.setdefault(r, [Fraction(0)] * width)
            for s, x in enumerate(mat[c]):
                if x:
                    acc[s] += v * x
        if any(any(row) for row in rows.values()):
            return False
    return True


def _rank(mat: list[list[Fraction]]) -> int:
    """Rank by exact Gaussian elimination over sparse rows."""
    pivots: dict[int, dict[int, Fraction]] = {}     # pivot column -> row
    for row in mat:
        vec = {c: x for c, x in enumerate(row) if x}
        while vec:
            col = min(vec)
            if col not in pivots:
                pivots[col] = vec
                break
            piv = pivots[col]
            f = vec[col] / piv[col]
            for c, x in piv.items():
                v = vec.get(c, 0) - f * x
                if v:
                    vec[c] = v
                else:
                    vec.pop(c, None)
    return len(pivots)


def integral_shape(mat: list[list[Fraction]]) -> dict[str, int]:
    return {"rank": _rank(mat), "nonzeros": sum(1 for row in mat for x in row if x)}


def check(workload: str, job: Job, code: int, stdout: str) -> list[str]:
    """Problems with one job's outcome; empty when it is correct."""
    if code != job.exit_code:
        return [f"exit {code}, expected {job.exit_code}"]
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    problems = []
    m = len(job.alg.odd)
    if workload == "integrate":
        for key in ("left_invariant", "right_invariant"):
            if out.get(key) is not True:
                problems.append(f"{key} is not true")
        if out.get("semisimple", {}).get("ok") is not True:
            problems.append("semisimple.ok is not true")
        mat = out.get("integral_matrix")
        if not isinstance(mat, list) or len(mat) != job.module.dim:
            problems.append("integral_matrix is not dim x dim")
            return problems
        mat = _parse_matrix(mat)
        if not _annihilates(job.module, mat):
            problems.append("rho(w) M != 0 for some basis element w")
        shape = integral_shape(mat)
        if shape != INTEGRAL_SHAPES[job.cls]:
            problems.append(f"integral_matrix has {shape}, expected "
                            f"{INTEGRAL_SHAPES[job.cls]}")
        return problems
    if code == 3:
        if out.get("violator") != job.violator or out.get("lambda") != job.lam:
            problems.append(f"violator {out.get('violator')}={out.get('lambda')}, "
                            f"expected {job.violator}={job.lam}")
    else:
        residues = out.get("certificate", {})
        if set(residues) != set(job.alg.even + job.alg.odd) or any(residues.values()):
            problems.append("certificate residues are not all empty")
        if job.unit_z:
            z = out.get("z", [])
            if (len(z) != 1 or z[0].get("monomial") != job.alg.odd
                    or z[0].get("coeff") not in ("1", "-1")):
                problems.append(f"z is not +-(top odd monomial): {z}")
    if workload == "report":
        if len(out.get("dual_pair", [])) != 1 << m:
            problems.append("dual_pair does not have 2^m entries")
        if len(out.get("frobenius_inverse", [])) != 1 << m:
            problems.append("frobenius_inverse does not have 2^m rows")
        if code == 0 and out.get("oracle_agrees") is not True:
            problems.append("oracle_agrees is not true")
        if out.get("oracle_dimension") != (1 if code == 0 else 0):
            problems.append(f"oracle_dimension is {out.get('oracle_dimension')}")
    return problems
