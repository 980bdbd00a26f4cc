"""Seeded input generator for the benchmark.

Everything here is built from first principles in exact rational arithmetic
and written in the documented superhaar file format; nothing is imported
from the package under test, so the benchmark's inputs do not change when
the library's API does.

An algebra is a ``Algebra`` record: even and odd basis names plus a bracket
table mapping ordered index pairs (even indices first, then odd) to sparse
result vectors ``{index: Fraction}``.  A module is a ``Module`` record: a
parity per basis vector and a sparse action matrix ``{(row, col): Fraction}``
per algebra basis element.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

Vec = dict[int, Fraction]
Sparse = dict[tuple[int, int], Fraction]


@dataclass
class Algebra:
    name: str
    even: list[str]
    odd: list[str]
    brackets: dict[tuple[int, int], Vec]

    @property
    def n_even(self) -> int:
        return len(self.even)

    @property
    def dim(self) -> int:
        return len(self.even) + len(self.odd)

    def parity(self, i: int) -> int:
        return 0 if i < len(self.even) else 1

    def basis_name(self, i: int) -> str:
        return (self.even + self.odd)[i]


@dataclass
class Module:
    name: str
    parities: list[int]
    action: dict[int, Sparse]   # algebra basis index -> sparse matrix

    @property
    def dim(self) -> int:
        return len(self.parities)


def _add(acc: Vec, vec: Vec, scale: Fraction) -> None:
    for k, c in vec.items():
        acc[k] = acc.get(k, Fraction(0)) + scale * c


def _clean(vec: Vec) -> Vec:
    return {k: c for k, c in vec.items() if c}


# -- families ----------------------------------------------------------------

def _matrix_unit_algebra(name: str, p: int, q: int, keep, rng: random.Random | None) -> Algebra:
    """Span of the supermatrix units E_ij of gl(p|q) selected by ``keep``,
    with the supercommutator as bracket.  Unless ``rng`` is None it shuffles
    the even basis, and the odd basis within the upper-right and within the
    lower-left block, upper-right block first; names stay tied to the
    matrix units.  Keeping the blocks apart keeps ``z`` of gl(p|q) a single
    top odd monomial, which the invariant workload checks."""
    n = p + q

    def parity(i, j):
        return int(i >= p) ^ int(j >= p)

    units = [(i, j) for i in range(n) for j in range(n) if keep(i, j)]
    even = [u for u in units if not parity(*u)]
    odd = [u for u in units if parity(*u)]
    if rng is not None:
        upper, lower = [u for u in odd if u[0] < p], [u for u in odd if u[0] >= p]
        rng.shuffle(even)
        rng.shuffle(upper)
        rng.shuffle(lower)
        odd = upper + lower
    basis = even + odd
    index = {u: t for t, u in enumerate(basis)}
    brackets = {}
    for a, (i, j) in enumerate(basis):
        for b, (k, l) in enumerate(basis):
            sign = -1 if parity(i, j) and parity(k, l) else 1
            vec: Vec = {}
            if j == k:
                vec[index[(i, l)]] = vec.get(index[(i, l)], Fraction(0)) + 1
            if l == i:
                vec[index[(k, j)]] = vec.get(index[(k, j)], Fraction(0)) - sign
            vec = _clean(vec)
            if vec:
                brackets[(a, b)] = vec
    return Algebra(name, [f"E{i + 1}{j + 1}" for i, j in even],
                   [f"E{i + 1}{j + 1}" for i, j in odd], brackets)


def gl(p: int, q: int, rng: random.Random | None) -> Algebra:
    """gl(p|q) in a (shuffled) supermatrix-unit basis; m = 2pq."""
    return _matrix_unit_algebra(f"gl{p}{q}", p, q, lambda i, j: True, rng)


def parabolic(p: int, q: int, rng: random.Random | None) -> Algebra:
    """Even part gl(p)+gl(q), odd part only the upper-right p x q block.

    A subalgebra of gl(p|q) whose odd part is abelian; it is not unimodular
    (E_ii acts on the odd part with trace q for i <= p, -p otherwise)."""
    return _matrix_unit_algebra(f"par{p}{q}", p, q,
                                lambda i, j: (i < p) == (j < p) or i < p, rng)


def odd_heisenberg(m: int, rng: random.Random) -> Algebra:
    """One even central element c and m odd generators t_s with
    [t_s, t_s] = w_s c for seeded nonzero weights w_s; super Jacobi holds
    for any symmetric form because c is central."""
    brackets = {}
    for s in range(m):
        w = Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2])) * rng.choice([1, -1])
        brackets[(1 + s, 1 + s)] = {0: w}
    return Algebra(f"heis{m}", ["c"], [f"t{s + 1}" for s in range(m)], brackets)


# -- basis changes -----------------------------------------------------------

def unitriangular(m: int, rng: random.Random) -> list[list[Fraction]]:
    """An upper unitriangular m x m matrix with seeded signs +-1 in every
    entry above the diagonal.  Entries of larger size make the cost of the
    same algebra vary several-fold from seed to seed."""
    return [[Fraction(1) if i == j else
             (Fraction(rng.choice((1, -1))) if j > i else Fraction(0))
             for j in range(m)] for i in range(m)]


def _invert_unitriangular(u: list[list[Fraction]]) -> list[list[Fraction]]:
    m = len(u)
    inv = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    for i in range(m - 1, -1, -1):
        for j in range(i + 1, m):
            c = u[i][j]
            if c:
                for t in range(m):
                    inv[i][t] -= c * inv[j][t]
    return inv


def change_odd_basis(alg: Algebra, u: list[list[Fraction]], prefix: str = "y") -> Algebra:
    """New odd basis y_i = sum_j u[i][j] x_j; even basis unchanged.

    Brackets are extended bilinearly from the old table and the odd part of
    each result is re-expressed in the new basis through u^-1.
    """
    n0, m = alg.n_even, len(alg.odd)
    uinv = _invert_unitriangular(u)

    def combo(i: int) -> Vec:       # new basis element i in old coordinates
        if i < n0:
            return {i: Fraction(1)}
        return {n0 + j: c for j, c in enumerate(u[i - n0]) if c}

    brackets = {}
    for a in range(alg.dim):
        ca = combo(a)
        for b in range(alg.dim):
            cb = combo(b)
            old: Vec = {}
            for i, x in ca.items():
                for j, y in cb.items():
                    if (i, j) in alg.brackets:
                        _add(old, alg.brackets[(i, j)], x * y)
            new: Vec = {k: c for k, c in old.items() if k < n0}
            for k, c in old.items():
                if k >= n0 and c:
                    for t in range(m):
                        if uinv[k - n0][t]:
                            new[n0 + t] = new.get(n0 + t, Fraction(0)) + c * uinv[k - n0][t]
            new = _clean(new)
            if new:
                brackets[(a, b)] = new
    return Algebra(alg.name + "-" + prefix, list(alg.even),
                   [f"{prefix}{t + 1}" for t in range(m)], brackets)


# -- modules -----------------------------------------------------------------

def defining_module(alg: Algebra, p: int) -> Module:
    """The defining module C^{p|q} of a matrix-unit algebra: E_ij acts as
    the matrix unit.  Basis names must be E<i><j> with 1-based digits."""
    n = max(int(name[1]) for name in alg.even + alg.odd)
    action = {}
    for a in range(alg.dim):
        name = alg.basis_name(a)
        i, j = int(name[1]) - 1, int(name[2]) - 1
        action[a] = {(i, j): Fraction(1)}
    return Module("V", [int(t >= p) for t in range(n)], action)


def dual_module(alg: Algebra, mod: Module) -> Module:
    """Graded dual: (x f)(v) = -(-1)^{|x||f|} f(x v), i.e.
    rho*(x)[l][k] = -(-1)^{|x||k|} rho(x)[k][l]."""
    action = {}
    for a, mat in mod.action.items():
        pa = alg.parity(a)
        action[a] = {(l, k): -c if not (pa and mod.parities[k]) else c
                     for (k, l), c in mat.items()}
    return Module(mod.name + "*", list(mod.parities), action)


def tensor_module(alg: Algebra, v: Module, w: Module) -> Module:
    """Graded tensor product: x (a (x) b) = xa (x) b + (-1)^{|x||a|} a (x) xb,
    basis a (x) b at index a * dim(w) + b."""
    dv, dw = v.dim, w.dim
    parities = [(v.parities[a] + w.parities[b]) % 2 for a in range(dv) for b in range(dw)]
    action = {}
    for x in range(alg.dim):
        px = alg.parity(x)
        mat: Sparse = {}
        for (r, c), val in v.action.get(x, {}).items():
            for b in range(dw):
                key = (r * dw + b, c * dw + b)
                mat[key] = mat.get(key, Fraction(0)) + val
        for (r, c), val in w.action.get(x, {}).items():
            for a in range(dv):
                sign = -1 if px and v.parities[a] else 1
                key = (a * dw + r, a * dw + c)
                mat[key] = mat.get(key, Fraction(0)) + sign * val
        mat = {k: c for k, c in mat.items() if c}
        if mat:
            action[x] = mat
    return Module(f"({v.name}{w.name})", parities, action)


def permute_module(mod: Module, rng: random.Random) -> Module:
    """Relabel the module basis by a seeded permutation."""
    perm = list(range(mod.dim))
    rng.shuffle(perm)           # old index t becomes perm[t]
    parities = [0] * mod.dim
    for t, p in enumerate(mod.parities):
        parities[perm[t]] = p
    action = {x: {(perm[r], perm[c]): v for (r, c), v in mat.items()}
              for x, mat in mod.action.items()}
    return Module(mod.name, parities, action)


# -- traces (for the expected exit-3 violator) -------------------------------

def odd_traces(alg: Algebra) -> list[Fraction]:
    """tr(ad(e) restricted to the odd part) for every even basis element e."""
    n0 = alg.n_even
    return [sum((alg.brackets.get((e, o), {}).get(o, Fraction(0))
                 for o in range(n0, alg.dim)), Fraction(0))
            for e in range(n0)]


# -- file format -------------------------------------------------------------

def _rational(c: Fraction) -> str:
    return str(Fraction(c))


def algebra_json(alg: Algebra) -> dict:
    return {
        "name": alg.name,
        "even_basis": list(alg.even),
        "odd_basis": list(alg.odd),
        "brackets": [{
            "left": alg.basis_name(i),
            "right": alg.basis_name(j),
            "result": [{"basis": alg.basis_name(k), "coeff": _rational(c)}
                       for k, c in sorted(vec.items())],
        } for (i, j), vec in sorted(alg.brackets.items())],
    }


def module_json(alg: Algebra, mod: Module) -> dict:
    d = mod.dim
    action = {}
    for x in sorted(mod.action):
        rows = [["0"] * d for _ in range(d)]
        for (r, c), v in mod.action[x].items():
            rows[r][c] = _rational(v)
        action[alg.basis_name(x)] = rows
    return {
        "algebra": alg.name,
        "name": mod.name,
        "dim": d,
        "parities": ["odd" if p else "even" for p in mod.parities],
        "action": action,
    }


def write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
