"""Exact linear algebra over the rationals.

There is one matrix type.  A vector is ``{index: Fraction}`` holding its
nonzero entries only, and a matrix is ``{row: vector}`` with its zero rows
left out, so an absent key always means zero.  Nothing here stores a zero,
which makes ``==`` on two vectors or two matrices exact equality and a
matrix's truth value the test for the zero matrix.  Shapes are not stored:
callers pass a dimension wherever one is needed (``nullspace``, ``invert``,
``minimal_polynomial``).  No function mutates its arguments.

Entries may be any numbers closed under ``+`` and ``*`` whose zero is
falsy, such as ints or Fractions.  ``mat_mul``, ``mat_comb`` and
``transpose`` keep the entry type, so int rows give int rows: the module
layer multiplies its matrices in exact integers, scaled to a common
denominator by ``scaled``.  The elimination functions (``rref`` and
everything built on it) and the polynomial helpers divide, and they need
Fractions.  ``minimal_polynomial`` takes either and eliminates
fraction-free, by ``_reduce``, the step the module layer's semisimplicity
split uses too.

The functions that depend only on the row space (``rref``, ``rank``,
``nullspace``, ``row_space_basis``, ``same_span``) take any iterable of
row vectors, such as ``mat.values()`` or a list of basis vectors.
Elimination touches only the entries it changes.  The reduced row echelon
form is unique, so the order of the rows does not change any result.
Everything is computed exactly (no tolerances).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

Vector = dict[int, Fraction]
Matrix = dict[int, Vector]

ZERO = Fraction(0)
ONE = Fraction(1)


def identity(n: int) -> Matrix:
    return {i: {i: ONE} for i in range(n)}


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    out = {}
    for r, arow in a.items():
        acc = {}
        for t, x in arow.items():
            for c, y in b.get(t, {}).items():
                acc[c] = acc[c] + x * y if c in acc else x * y
        acc = {c: x for c, x in acc.items() if x}
        if acc:
            out[r] = acc
    return out


def mat_vec(a: Matrix, v: Vector) -> Vector:
    out = {}
    for r, row in a.items():
        s = sum((x * v[c] for c, x in row.items() if c in v), ZERO)
        if s:
            out[r] = s
    return out


def mat_comb(terms: Iterable[tuple[Fraction, Matrix]]) -> Matrix:
    """The linear combination sum of f * mat over the (f, mat) pairs."""
    acc: dict[int, dict[int, Fraction]] = {}
    for f, mat in terms:
        one, minus_one = f == 1, f == -1     # the common scales, without a product
        for r, row in mat.items():
            out = acc.setdefault(r, {})
            for c, x in row.items():
                if not one:
                    x = -x if minus_one else f * x
                out[c] = out[c] + x if c in out else x
    return {r: nz for r, row in acc.items()
            if (nz := {c: x for c, x in row.items() if x})}


def scaled(mats: Iterable[Matrix]) -> tuple[int, list[Matrix]]:
    """The lcm d of the denominators of all entries of ``mats`` (1 when
    there are none), and each matrix times d, with int entries."""
    mats = list(mats)
    d = math.lcm(*(x.denominator for mat in mats for row in mat.values()
                   for x in row.values()))
    return d, [{r: {c: x.numerator * (d // x.denominator) for c, x in row.items()}
                for r, row in mat.items()} for mat in mats]


def transpose(a: Matrix) -> Matrix:
    out: Matrix = {}
    for r, row in a.items():
        for c, x in row.items():
            out.setdefault(c, {})[r] = x
    return out


def _subtract_multiple(v: Vector, f: Fraction, w: Vector) -> None:
    """v -= f w, dropping the entries that cancel."""
    for c, y in w.items():
        x = v.get(c, ZERO) - f * y
        if x:
            v[c] = x
        else:
            del v[c]


def rref(rows: Iterable[Vector]) -> tuple[list[Vector], list[int]]:
    """The nonzero rows of the reduced row echelon form, in pivot order,
    and the list of pivot columns.

    Gauss-Jordan: each input row is copied and reduced against the pivot
    rows found so far (which are zero at every other pivot column), and a
    row that stays nonzero becomes a pivot row at its leading column and is
    eliminated from the earlier pivot rows.
    """
    pivot_rows: dict[int, Vector] = {}   # pivot column -> row
    for row in rows:
        v = dict(row)
        for p in [c for c in v if c in pivot_rows]:
            _subtract_multiple(v, v[p], pivot_rows[p])
        if not v:
            continue
        lead = min(v)
        inv = ONE / v[lead]
        v = {c: x * inv for c, x in v.items()}
        for w in pivot_rows.values():
            if lead in w:
                _subtract_multiple(w, w[lead], v)
        pivot_rows[lead] = v
    pivots = sorted(pivot_rows)
    return [pivot_rows[p] for p in pivots], pivots


def rank(rows: Iterable[Vector]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Iterable[Vector], cols: int) -> list[Vector]:
    """Canonical basis of the right kernel of a matrix with ``cols``
    columns (free variables set to 1), in order of the free column."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        v = {f: ONE}
        for p, row in zip(pivots, red):
            if f in row:
                v[p] = -row[f]
        basis.append(dict(sorted(v.items())))
    return basis


def row_space_basis(rows: Iterable[Vector]) -> list[Vector]:
    return rref(rows)[0]


def invert(mat: Matrix, n: int) -> Matrix:
    """Inverse of the n x n matrix ``mat``; ``ValueError`` when singular."""
    aug = [{**mat.get(r, {}), n + r: ONE} for r in range(n)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return {r: {c - n: x for c, x in row.items() if c >= n}
            for r, row in enumerate(red[:n])}


def same_span(a: list[Vector], b: list[Vector]) -> bool:
    """Do the two vector lists span the same subspace?"""
    ra, rb = rank(a), rank(b)
    return ra == rb == rank(a + b)


def trace(mat: Matrix) -> Fraction:
    return sum((row[r] for r, row in mat.items() if r in row), ZERO)


# -- polynomials (coefficient lists, ascending powers) ----------------------

def poly_normalize(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p = p[:-1]
    return p


def poly_derivative(p: list[Fraction]) -> list[Fraction]:
    return [c * i for i, c in enumerate(p)][1:]


def poly_mod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = poly_normalize(a[:]), poly_normalize(b)
    while len(a) >= len(b) > 0:
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a = poly_normalize(a)
    return a


def poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = poly_normalize(a), poly_normalize(b)
    while b:
        a, b = b, poly_mod(a, b)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def is_squarefree(p: list[Fraction]) -> bool:
    p = poly_normalize(p)
    if len(p) <= 1:
        return True
    return len(poly_gcd(p, poly_derivative(p))) == 1


def _reduce(v: dict[int, int], combo: dict[int, int],
            reduced: list[tuple[int, dict[int, int], dict[int, int]]]) -> bool:
    """Fraction-free elimination of one int vector, in place.

    ``combo`` writes v as an int combination of the vectors offered before
    it.  At each pivot p of ``reduced`` (rows w with their combinations wc)
    where v is nonzero, v := s v - f w and combo := s combo - f wc, with
    s = w_p / g and f = v_p / g for g their gcd.  A v that stays nonzero is
    divided, with combo, by the gcd of all their entries and appended to
    ``reduced`` with its least column as pivot, so that every row there is
    zero at the pivots before its own.  Returns whether v was appended;
    when it was not, combo is a linear dependence.
    """
    for p, w, wc in reduced:
        f = v.get(p)
        if f is None:
            continue
        g = math.gcd(w[p], f)
        s, f = w[p] // g, f // g
        for u, x in ((v, w), (combo, wc)):
            if s != 1:
                for c in u:
                    u[c] *= s
            for c, y in x.items():
                z = u[c] - f * y if c in u else -f * y
                if z:
                    u[c] = z
                else:
                    del u[c]
    if not v:
        return False
    g = math.gcd(*v.values(), *combo.values())
    if g != 1:
        for u in (v, combo):
            for c in u:
                u[c] //= g
    reduced.append((min(v), v, combo))
    return True


def minimal_polynomial(mat: Matrix, n: int) -> list[Fraction]:
    """Monic minimal polynomial of the n x n rational matrix ``mat``, as
    Fraction coefficients in ascending powers.

    Found as the first linear dependence among the flattened powers
    I, A, A^2, ... of the int matrix A = d mat (d from ``scaled``), each
    reduced once by ``_reduce`` against the earlier ones.  The first power
    A^k that reduces to zero gives sum_j c_j A^j = 0, and the minimal
    polynomial of mat has coefficients c_j / (c_k d^(k-j)); k is at most n.
    """
    if n == 0:
        return [ONE]
    d, (a,) = scaled([mat])
    reduced: list[tuple[int, dict[int, int], dict[int, int]]] = []
    power: dict[int, dict[int, int]] = {i: {i: 1} for i in range(n)}
    for k in range(n + 1):
        combo = {k: 1}       # power = sum of combo[j] A^j
        if not _reduce({r * n + c: x for r, row in power.items() for c, x in row.items()},
                       combo, reduced):
            return [Fraction(combo.get(j, 0), combo[k] * d ** (k - j)) for j in range(k + 1)]
        power = mat_mul(power, a)
    raise AssertionError("no minimal polynomial found")  # pragma: no cover
