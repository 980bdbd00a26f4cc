#!/usr/bin/env python3
"""Regenerate the shipped fixture corpus under src/superhaar/fixtures/.

gl11, sl2 and osp12 (on a (1|2)-dimensional space, with a symmetric form on
the even line and a symplectic form on the odd plane) and their defining
modules come from supermatrices by ``realization`` (tests/realizations.py),
which derives the structure constants from the matrices.  Every emitted
algebra and module is validated before writing.  Run it as a script; it
puts src/ and tests/ on the import path itself.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(__file__)
sys.path[:0] = [os.path.join(HERE, "..", "src"), os.path.join(HERE, "..", "tests")]

from superhaar import (GradedModule, LieSuperalgebra, quotient_module,
                       validate_module, validate_superalgebra)
from superhaar.fileio import algebra_to_json, dumps_canonical, module_to_json

from realizations import realization, tensor_module

OUT = os.path.join(HERE, "..", "src", "superhaar", "fixtures")


def write(name: str, payload: dict):
    path = os.path.join(OUT, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(payload))
    print("wrote", path)


def check_algebra(alg: LieSuperalgebra) -> LieSuperalgebra:
    report = validate_superalgebra(alg)
    assert report.ok, f"{alg.name}: {report.violations}"
    return alg


def check_module(module) -> GradedModule:
    report = validate_module(module)
    assert report.ok, f"{module.name}: {report.violations}"
    return module


def tensor_square(module: GradedModule, name: str) -> GradedModule:
    """V (x) V with the graded Leibniz action."""
    return check_module(tensor_module(module, module, name))


def main():
    os.makedirs(OUT, exist_ok=True)

    g2 = check_algebra(LieSuperalgebra("g2_grassmann", [], ["x1", "x2"], {}))
    write("g2_grassmann.json", algebra_to_json(g2))
    write("exterior_module.json",
          module_to_json(quotient_module(g2, name="exterior_module")))

    g3 = check_algebra(LieSuperalgebra("g3_grassmann", [], ["x1", "x2", "x3"], {}))
    write("g3_grassmann.json", algebra_to_json(g3))
    write("exterior3_module.json",
          module_to_json(quotient_module(g3, name="exterior3_module")))

    bad2 = check_algebra(LieSuperalgebra("bad2", ["X"], ["th"],
                                         {(0, 1): {1: 1}, (1, 0): {1: -1}}))
    write("bad2.json", algebra_to_json(bad2))
    write("trivial_module.json", module_to_json(
        check_module(GradedModule(bad2, [0], {}, name="trivial_module"))))

    gl11, defining = realization(
        "gl11", [("h1", {0: {0: 1}}), ("h2", {1: {1: 1}})],
        [("e", {0: {1: 1}}), ("f", {1: {0: 1}})], [0, 1], "defining_module")
    write("gl11.json", algebra_to_json(gl11))
    write("defining_module.json", module_to_json(defining))
    # nilpotent nonzero central action: valid module, not semisimple
    write("jordan_module.json", module_to_json(check_module(GradedModule(
        gl11, [0, 0], {0: {0: {1: 1}}, 1: {0: {1: -1}}}, name="jordan_module"))))

    osp, defining = realization(
        "osp12",
        [("H", {1: {1: 1}, 2: {2: -1}}), ("E", {1: {2: 1}}), ("F", {2: {1: 1}})],
        [("u", {0: {2: 1}, 1: {0: -1}}),       # weight +1
         ("v", {0: {1: -1}, 2: {0: -1}})],     # weight -1
        [0, 1, 1], "osp12_defining_module")
    write("osp12.json", algebra_to_json(osp))
    write("osp12_defining_module.json", module_to_json(defining))
    write("osp12_tensor_module.json", module_to_json(
        tensor_square(defining, "osp12_tensor_module")))

    sl2, defining = realization(
        "sl2", [("H", {0: {0: 1}, 1: {1: -1}}), ("E", {0: {1: 1}}), ("F", {1: {0: 1}})],
        [], [0, 0], "sl2_defining_module")
    write("sl2.json", algebra_to_json(sl2))
    write("sl2_defining_module.json", module_to_json(defining))


if __name__ == "__main__":
    main()
