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
from superhaar.linalg import mat_comb, mat_mul

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
    sign = -1 if pa and pb else 1
    return mat_comb([(1, mat_mul(a, b)), (-sign, mat_mul(b, a))])


def osp12() -> tuple[LieSuperalgebra, list, list[int]]:
    """Basis (H, E, F | u, v) acting on a (1|2)-dimensional space."""

    def m(rows):
        return {r: nz for r, row in enumerate(rows)
                if (nz := {c: Fraction(x) for c, x in enumerate(row) if x})}

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
        def at(i, j):
            return x.get(i, {}).get(j, 0)
        c = {k: ck for k, ck in ((0, at(1, 1)), (1, at(1, 2)), (2, at(2, 1)),
                                 (3, -at(1, 0)), (4, -at(0, 1))) if ck}
        # consistency: reconstruct and compare
        recon = mat_comb((ck, mats[k]) for k, ck in c.items())
        assert recon == x, (x, c)
        return c

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
        pi = alg.parity(i)
        big = {}

        def add(row, col, x):
            big.setdefault(row, {})
            big[row][col] = big[row].get(col, 0) + x

        for r, row in module.rho(i).items():
            for c, x in row.items():
                for t in range(d):
                    # on the first factor, and on the second past the
                    # parity of the first
                    add(r * d + t, c * d + t, x)
                    add(t * d + r, t * d + c,
                        -x if pi and module.parities[t] else x)
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
