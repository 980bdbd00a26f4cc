"""Lie superalgebras realized by supermatrices, with their defining modules,
and the graded dual and tensor product of modules.

``realization`` derives the structure constants from the matrices, so they
are consistent by construction.  ``equivariant_superalgebra`` builds an
algebra from its even part and the even part's action on the odd part
alone, solving for the bracket of two odd elements.  The tests import
this module as ``realizations`` and ``tools/gen_fixtures.py`` builds its
matrix-realized fixtures with it, so it reads the library only through
public names and does not need pytest.
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


def equivariant_superalgebra(name, even, odd_names, action):
    """The Lie superalgebra ``name`` whose even part g0 is spanned by the
    matrices of ``even``, a list of (basis name, square matrix as rows of
    nonzeros), with its table derived by ``realization``, and whose odd part
    g1 has the basis ``odd_names``, on which the even basis element a acts
    by the matrix ``action[a]``: [X_a, u_c] = sum_r action[a][r][c] u_r.

    The bracket of two odd elements is a symmetric g0-valued map (Kac, Adv.
    Math. 26, 1977).  Its coordinates B[u, v][d], u <= v, are solved by one
    ``nullspace`` of two sets of linear equations: equivariance,
    [X, {u, v}] = {[X, u], v} + {u, [X, v]}, and the Jacobi identity on
    three odd elements, rho({v, w}) u + rho({w, u}) v + rho({u, v}) w = 0.
    The other Jacobi identities hold when ``action`` is a representation.
    ``ValueError`` when the solutions do not form a line, and when the
    algebra fails validation."""
    size = 1 + max(max(r, *row) for _, mat in even for r, row in mat.items())
    g0, _ = realization(f"{name} even part", even, [], [0] * size)
    n0, n1 = g0.dim, len(odd_names)

    def var(u, v, d):
        u, v = min(u, v), max(u, v)
        return (v * (v + 1) // 2 + u) * n0 + d

    def column(mat, c):
        """Column c of a matrix given as rows of nonzeros."""
        return [(r, row[c]) for r, row in mat.items() if c in row]

    rows = []
    for a in range(n0):
        for u in range(n1):
            for v in range(u, n1):
                # [X_a, {u, v}] - {[X_a, u], v} - {u, [X_a, v]}, by target d
                eq: dict = {d: {} for d in range(n0)}
                for e in range(n0):
                    for d, x in g0.bracket(a, e):
                        eq[d][var(u, v, e)] = x
                for d in range(n0):
                    for r, x in column(action[a], u):
                        eq[d][var(r, v, d)] = eq[d].get(var(r, v, d), 0) - x
                    for r, x in column(action[a], v):
                        eq[d][var(u, r, d)] = eq[d].get(var(u, r, d), 0) - x
                rows += ({k: x for k, x in e.items() if x} for e in eq.values())
    for u in range(n1):
        for v in range(u, n1):
            for w in range(v, n1):
                # rho({v, w}) u + rho({w, u}) v + rho({u, v}) w, by target r
                eq = {r: {} for r in range(n1)}
                for d in range(n0):
                    for a, b, c in ((v, w, u), (w, u, v), (u, v, w)):
                        for r, x in column(action[d], c):
                            eq[r][var(a, b, d)] = eq[r].get(var(a, b, d), 0) + x
                rows += ({k: x for k, x in e.items() if x} for e in eq.values())
    kernel = nullspace(rows, n0 * n1 * (n1 + 1) // 2)
    if len(kernel) != 1:
        raise ValueError(f"{name}: the equivariant brackets on g1 form a space "
                         f"of dimension {len(kernel)}, not a line")
    brackets = {(a, e): dict(g0.bracket(a, e)) for a in range(n0) for e in range(n0)}
    for a in range(n0):
        for r, row in action[a].items():
            for c, x in row.items():
                brackets.setdefault((a, n0 + c), {})[n0 + r] = x
                brackets.setdefault((n0 + c, a), {})[n0 + r] = -x
    for u in range(n1):
        for v in range(n1):
            brackets[n0 + u, n0 + v] = {d: kernel[0].get(var(u, v, d), 0) for d in range(n0)}
    alg = LieSuperalgebra(name, [b for b, _ in even], odd_names, brackets)
    if not (report := validate_superalgebra(alg)).ok:
        raise ValueError(f"{name}: {report.violations}")
    return alg


def psl(n):
    """psl(n|n) from its even part sl(n) + sl(n), block diagonal in gl(n|n)
    and named by the units E_ij and H_k = E_kk - E_{k+1,k+1} of each block,
    acting on g1 = V (x) W* + V* (x) W, the odd units E_ij of gl(n|n), by
    [X, E] = XE - EX (``equivariant_superalgebra``)."""
    even = []
    for o in (0, n):
        even += [(f"H{o + k + 1}", {o + k: {o + k: 1}, o + k + 1: {o + k + 1: -1}})
                 for k in range(n - 1)]
        even += [(f"E{o + i + 1}{o + j + 1}", {o + i: {o + j: 1}})
                 for i in range(n) for j in range(n) if i != j]
    odd = [(i, j) for i in range(2 * n) for j in range(2 * n) if (i < n) != (j < n)]
    position = {unit: k for k, unit in enumerate(odd)}
    action = []
    for _, x in even:
        rho: dict = {}
        for c, (i, j) in enumerate(odd):
            unit = {i: {j: 1}}
            for r, row in mat_comb([(1, mat_mul(x, unit)), (-1, mat_mul(unit, x))]).items():
                for s, y in row.items():
                    rho.setdefault(position[r, s], {})[c] = y
        action.append(rho)
    return equivariant_superalgebra(f"psl({n}|{n})", even,
                                    [f"E{i + 1}{j + 1}" for i, j in odd], action)


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


def orthosymplectic(M, n):
    """osp(M|2n) on the space (M|2n) with the form B = diag(I_M | J),
    J = [[0, I_n], [-I_n, 0]], and its defining module.  The even and the
    odd basis are the canonical ``nullspace`` bases, over the matrix units
    of that parity, of B(Xu, v) + (-1)^(|X||u|) B(u, Xv) = 0 on basis
    vectors u, v; they are named X1, X2, ... and Y1, Y2, ...."""
    size = M + 2 * n
    deg = [0] * M + [1] * (2 * n)
    form = {i: {i: 1} for i in range(M)}
    for k in range(M, M + n):
        form[k], form[k + n] = {k + n: 1}, {k: -1}
    parts = []
    for parity, prefix in ((0, "X"), (1, "Y")):
        units = [(i, j) for i in range(size) for j in range(size)
                 if (deg[i] + deg[j]) % 2 == parity]
        # the (a, b) condition: sum_c X_ca B_cb + (-1)^(|X||a|) B_ac X_cb = 0
        rows = []
        for a in range(size):
            sign = -1 if parity and deg[a] else 1
            for b in range(size):
                row = {}
                for u, (i, j) in enumerate(units):
                    x = (form[i].get(b, 0) if j == a else 0) + \
                        (sign * form[a].get(i, 0) if j == b else 0)
                    if x:
                        row[u] = x
                rows.append(row)
        parts.append([(f"{prefix}{k + 1}", _unit_matrix(units, v))
                      for k, v in enumerate(nullspace(rows, len(units)))])
    return realization(f"osp({M}|{2 * n})", *parts, deg)


def _unit_matrix(units, coeffs):
    """The matrix sum of coeffs[u] E_units[u], as rows of nonzeros."""
    mat: dict = {}
    for u, x in coeffs.items():
        i, j = units[u]
        mat.setdefault(i, {})[j] = x
    return mat


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
