#!/usr/bin/env python3
"""Regenerate the shipped fixture corpus under src/superhaar/fixtures/.

Structure constants for the orthosymplectic example are extracted from an
explicit 3x3 supermatrix realization (1 even and 2 odd dimensions,
symmetric form on the even line, symplectic form on the odd plane), so the
bracket table is consistent by construction; every emitted algebra and
module is re-checked with the validators before writing.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from superhaar import (GradedModule, LieSuperalgebra, quotient_module,
                       validate_module, validate_superalgebra)
from superhaar.fileio import algebra_to_json, dumps_canonical, module_to_json
from superhaar.linalg import mat_mul

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "superhaar", "fixtures")


def write(name: str, payload: dict):
    path = os.path.join(OUT, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(payload))
    print("wrote", path)


def check_algebra(alg: LieSuperalgebra) -> LieSuperalgebra:
    report = validate_superalgebra(alg)
    assert report.ok, f"{alg.name}: {report.violations}"
    return alg


def check_module(alg, module) -> GradedModule:
    report = validate_module(alg, module)
    assert report.ok, f"{module.name}: {report.violations}"
    return module


# -- supermatrix helpers for the osp example ---------------------------------

def super_bracket(a, pa, b, pb):
    ab, ba = mat_mul(a, b), mat_mul(b, a)
    sign = -1 if pa and pb else 1
    return [[ab[i][j] - sign * ba[i][j] for j in range(len(a))]
            for i in range(len(a))]


def osp12() -> tuple[LieSuperalgebra, list, list[int]]:
    """Basis (H, E, F | u, v) acting on a (1|2)-dimensional space."""
    F0 = Fraction(0)

    def m(rows):
        return [[Fraction(x) for x in row] for row in rows]

    H = m([[0, 0, 0], [0, 1, 0], [0, 0, -1]])
    E = m([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    Fm = m([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    u = m([[0, 0, 1], [-1, 0, 0], [0, 0, 0]])      # weight +1
    v = m([[0, -1, 0], [0, 0, 0], [-1, 0, 0]])     # weight -1
    mats = [H, E, Fm, u, v]
    parities = [0, 0, 0, 1, 1]

    # expand each bracket over the basis: the five matrices have
    # disjoint-enough supports to read coefficients off single entries
    def coords(x):
        c = {}
        c[0] = x[1][1]
        c[1] = x[1][2]
        c[2] = x[2][1]
        c[3] = -x[1][0]
        c[4] = -x[0][1]
        # consistency: reconstruct and compare
        recon = [[F0] * 3 for _ in range(3)]
        for k, ck in c.items():
            for i in range(3):
                for j in range(3):
                    recon[i][j] += ck * mats[k][i][j]
        assert recon == x, (x, c)
        return {k: ck for k, ck in c.items() if ck}

    brackets = {}
    for i in range(5):
        for j in range(5):
            vec = coords(super_bracket(mats[i], parities[i], mats[j], parities[j]))
            if vec:
                brackets[(i, j)] = vec
    alg = LieSuperalgebra("osp12", ["H", "E", "F"], ["u", "v"], brackets)
    return check_algebra(alg), mats, parities


def tensor_square(alg, module: GradedModule, name: str) -> GradedModule:
    """V (x) V with the graded Leibniz action."""
    d = module.dim
    parities = [(module.parities[a] + module.parities[b]) % 2
                for a in range(d) for b in range(d)]
    action = {}
    for i in range(alg.dim):
        rho = module.rho(i)
        pi = alg.parity(i)
        big = [[Fraction(0)] * (d * d) for _ in range(d * d)]
        for c1 in range(d):
            for c2 in range(d):
                col = c1 * d + c2
                for r1 in range(d):
                    if rho[r1][c1]:
                        big[r1 * d + c2][col] += rho[r1][c1]
                sign = -1 if pi and module.parities[c1] else 1
                for r2 in range(d):
                    if rho[r2][c2]:
                        big[c1 * d + r2][col] += sign * rho[r2][c2]
        if any(any(row) for row in big):
            action[i] = big
    return check_module(alg, GradedModule(alg, parities, action, name=name))


def main():
    os.makedirs(OUT, exist_ok=True)

    g2 = check_algebra(LieSuperalgebra("g2_grassmann", [], ["x1", "x2"], {}))
    write("g2_grassmann.json", algebra_to_json(g2))
    write("exterior_module.json",
          module_to_json(quotient_module(g2, name="exterior_module")))

    g3 = check_algebra(LieSuperalgebra("g3_grassmann", [],
                                       ["x1", "x2", "x3"], {}))
    write("g3_grassmann.json", algebra_to_json(g3))
    write("exterior3_module.json",
          module_to_json(quotient_module(g3, name="exterior3_module")))

    bad2 = check_algebra(LieSuperalgebra("bad2", ["X"], ["th"],
                                         {(0, 1): {1: 1}, (1, 0): {1: -1}}))
    write("bad2.json", algebra_to_json(bad2))
    write("trivial_module.json", module_to_json(
        check_module(bad2, GradedModule(bad2, [0], {}, name="trivial_module"))))

    one = Fraction(1)
    gl11 = check_algebra(LieSuperalgebra("gl11", ["h1", "h2"], ["e", "f"], {
        (0, 2): {2: one}, (2, 0): {2: -one},
        (1, 2): {2: -one}, (2, 1): {2: one},
        (0, 3): {3: -one}, (3, 0): {3: one},
        (1, 3): {3: one}, (3, 1): {3: -one},
        (2, 3): {0: one, 1: one}, (3, 2): {0: one, 1: one},
    }))
    write("gl11.json", algebra_to_json(gl11))
    # defining 2-dimensional module: the matrix units themselves
    write("defining_module.json", module_to_json(check_module(
        gl11, GradedModule(gl11, [0, 1], {
            0: [[1, 0], [0, 0]],
            1: [[0, 0], [0, 1]],
            2: [[0, 1], [0, 0]],
            3: [[0, 0], [1, 0]],
        }, name="defining_module"))))
    # nilpotent nonzero central action: valid module, not semisimple
    write("jordan_module.json", module_to_json(check_module(
        gl11, GradedModule(gl11, [0, 0], {
            0: [[0, 1], [0, 0]],
            1: [[0, -1], [0, 0]],
        }, name="jordan_module"))))

    osp, mats, parities = osp12()
    write("osp12.json", algebra_to_json(osp))
    defining = check_module(osp, GradedModule(
        osp, [0, 1, 1], {i: mats[i] for i in range(5)},
        name="osp12_defining_module"))
    write("osp12_defining_module.json", module_to_json(defining))
    write("osp12_tensor_module.json", module_to_json(
        tensor_square(osp, defining, "osp12_tensor_module")))

    sl2 = check_algebra(LieSuperalgebra("sl2", ["H", "E", "F"], [], {
        (0, 1): {1: 2}, (1, 0): {1: -2},
        (0, 2): {2: -2}, (2, 0): {2: 2},
        (1, 2): {0: 1}, (2, 1): {0: -1},
    }))
    write("sl2.json", algebra_to_json(sl2))
    write("sl2_defining_module.json", module_to_json(check_module(
        sl2, GradedModule(sl2, [0, 0], {
            0: [[1, 0], [0, -1]],
            1: [[0, 1], [0, 0]],
            2: [[0, 0], [1, 0]],
        }, name="sl2_defining_module"))))


if __name__ == "__main__":
    main()
