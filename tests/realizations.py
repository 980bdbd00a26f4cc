"""Lie superalgebras realized by supermatrices, with their defining modules,
and the graded dual and tensor product of modules.

``realization`` derives the structure constants from the matrices, so they
are consistent by construction.  The tests import this module as
``realizations`` and ``tools/gen_fixtures.py`` builds its matrix-realized
fixtures with it, so it reads the library only through public names and
does not need pytest.
"""

from __future__ import annotations

from superhaar import (GradedModule, LieSuperalgebra, validate_module,
                       validate_superalgebra)
from superhaar.linalg import mat_comb, mat_mul, nullspace


def realization(name, even, odd, parities, module_name=""):
    """The Lie superalgebra ``name`` spanned by the matrices of ``even`` and
    ``odd``, lists of (basis name, square matrix as rows of nonzeros), and
    its defining module ``module_name`` on a space with basis ``parities``.

    The coordinates of [A, B] = AB - (-1)^(|A||B|) BA are minus the kernel
    vector of (flattened basis matrices | flattened [A, B]) with last entry
    1, that entry dropped.  ``ValueError`` names the basis when the matrices
    are linearly dependent, the pair when a bracket leaves their span, and
    the violations when the algebra or the module fails validation."""
    names = [b for b, _ in even + odd]
    mats = [m for _, m in even + odd]
    dim = len(mats)
    # one row per matrix entry, one column per basis element
    entries: dict = {}
    for k, mat in enumerate(mats):
        for r, row in mat.items():
            for c, x in row.items():
                entries.setdefault((r, c), {})[k] = x
    if nullspace(entries.values(), dim):
        raise ValueError(f"{name}: the matrices of {names} are linearly dependent")
    brackets = {}
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            sign = -1 if i >= len(even) and j >= len(even) else 1
            bracket = mat_comb([(1, mat_mul(a, b)), (-sign, mat_mul(b, a))])
            if not bracket:
                continue
            flat = {(r, c): x for r, row in bracket.items() for c, x in row.items()}
            rows = [{**entries.get(at, {}), dim: x} for at, x in flat.items()]
            rows += [row for at, row in entries.items() if at not in flat]
            kernel = nullspace(rows, dim + 1)
            if not kernel:
                raise ValueError(f"{name}: [{names[i]}, {names[j]}] leaves the span")
            brackets[i, j] = {k: -x for k, x in kernel[0].items() if k != dim}
    alg = LieSuperalgebra(name, names[:len(even)], names[len(even):], brackets)
    module = GradedModule(alg, parities, dict(enumerate(mats)), name=module_name)
    for report in (validate_superalgebra(alg), validate_module(module)):
        if not report.ok:
            raise ValueError(f"{name}: {report.violations}")
    return alg, module


def gl_realization(p, q, name=None, keep=lambda i, j: True):
    """gl(p|q) on the units E_ij, named E{i+1}{j+1}, |E_ij| = |i| + |j| mod 2:
    the even units first, then the odd, each part in (i, j) order, and its
    defining module on p even and q odd basis vectors.  With ``keep``, the
    subalgebra spanned by the units E_ij with keep(i, j)."""
    deg = [0] * p + [1] * q
    units = [(i, j) for i in range(p + q) for j in range(p + q) if keep(i, j)]
    part = [[(f"E{i + 1}{j + 1}", {i: {j: 1}}) for i, j in units
             if (deg[i] + deg[j]) % 2 == odd] for odd in (0, 1)]
    return realization(name or f"gl({p}|{q})", *part, deg)


def gl_supermatrix_units(p, q, name=None, keep=lambda i, j: True):
    """The algebra of ``gl_realization``."""
    return gl_realization(p, q, name, keep)[0]


def parabolic_supermatrix_units(p, q):
    """The subalgebra of gl(p|q) spanned by its even units and the odd units
    of the upper-right block, E_ij with i < p <= j.  Its odd part is
    abelian, and E_ii acts on it with trace q for i < p and -p otherwise,
    so for p, q >= 1 it fails the trace condition."""
    return gl_supermatrix_units(p, q, f"par({p}|{q})",
                                lambda i, j: (i < p) == (j < p) or i < p)


def dual_module(v, name=""):
    """V* with the graded dual action, (xf)(a) = -(-1)^(|x||f|) f(xa), so
    rho*(x)[c][r] = -(-1)^(|x||c|) rho(x)[r][c], on the dual basis."""
    alg = v.alg
    action = {}
    for i in range(alg.dim):
        odd = alg.parity(i)
        dual = {}
        for r, row in v.rho(i).items():
            for c, x in row.items():
                dual.setdefault(c, {})[r] = x if odd and v.parities[c] else -x
        action[i] = dual
    return GradedModule(alg, list(v.parities), action, name=name)


def tensor_module(v, w, name=""):
    """V (x) W with the graded Leibniz action, x(a (x) b) = xa (x) b +
    (-1)^(|x||a|) a (x) xb, on the basis a (x) b at index a dim(W) + b."""
    alg, dv, dw = v.alg, v.dim, w.dim
    parities = [(p + q) % 2 for p in v.parities for q in w.parities]
    action = {}
    for i in range(alg.dim):
        odd = alg.parity(i)
        big = {}

        def add(row, col, x):
            big.setdefault(row, {})
            big[row][col] = big[row].get(col, 0) + x

        for r, row in v.rho(i).items():
            for c, x in row.items():
                for t in range(dw):
                    add(r * dw + t, c * dw + t, x)
        for r, row in w.rho(i).items():
            for c, x in row.items():
                for t in range(dv):
                    add(t * dw + r, t * dw + c, -x if odd and v.parities[t] else x)
        action[i] = big
    return GradedModule(alg, parities, action, name=name)
