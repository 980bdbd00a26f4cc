"""Exact linear algebra over the rationals.

Matrices are lists of rows, rows are lists of ``Fraction``; everything is
computed exactly (no tolerances).  The matrices met here (module actions,
stacked even actions, quotient actions) are mostly zeros, so elimination
works on rows of nonzeros, ``{column: value}`` dicts, and touches only the
entries it changes; ``rref`` still takes and returns dense matrices.  The
reduced row echelon form is unique, so which pivot rows are chosen does not
change any result.
"""

from __future__ import annotations

from fractions import Fraction

Vector = list[Fraction]
Matrix = list[list[Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)


def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = zeros(n, m)
    for i in range(n):
        row = a[i]
        acc = out[i]
        for t in range(k):
            c = row[t]
            if c:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        acc[j] += c * bt[j]
    return out


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return [sum((c * x for c, x in zip(row, v) if c), ZERO) for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def _subtract_multiple(v: dict[int, Fraction], f: Fraction,
                       w: dict[int, Fraction]) -> None:
    """v -= f w on rows of nonzeros, dropping the entries that cancel."""
    for c, y in w.items():
        x = v.get(c, ZERO) - f * y
        if x:
            v[c] = x
        else:
            del v[c]


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    Gauss-Jordan on rows of nonzeros: each input row is reduced against the
    pivot rows found so far (which are zero at every other pivot column),
    and a row that stays nonzero becomes a pivot row at its leading column
    and is eliminated from the earlier pivot rows.
    """
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    pivot_rows: dict[int, dict[int, Fraction]] = {}   # pivot column -> row
    for row in mat:
        v = {c: x for c, x in enumerate(row) if x}
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
    red = []
    for p in pivots:
        dense = [ZERO] * cols
        for c, x in pivot_rows[p].items():
            dense[c] = x
        red.append(dense)
    red.extend([ZERO] * cols for _ in range(rows - len(pivots)))
    return red, pivots


def rank(mat: Matrix) -> int:
    return len(rref(mat)[1]) if mat else 0


def nullspace(mat: Matrix) -> list[Vector]:
    """Canonical basis of the right kernel (free variables set to 1)."""
    if not mat:
        return []
    cols = len(mat[0])
    red, pivots = rref(mat)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * cols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def row_space_basis(rows: list[Vector]) -> list[Vector]:
    nonzero = [r for r in rows if any(r)]
    if not nonzero:
        return []
    red, pivots = rref(nonzero)
    return [red[i] for i in range(len(pivots))]


def invert(mat: Matrix) -> Matrix:
    n = len(mat)
    aug = [list(row) + e for row, e in zip(mat, identity(n))]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def same_span(a: list[Vector], b: list[Vector]) -> bool:
    """Do the two vector lists span the same subspace?"""
    if not a and not b:
        return True
    if bool(a) != bool(b):
        return not any(any(v) for v in a + b)
    ra, rb = rank(a), rank(b)
    return ra == rb == rank(a + b)


def trace(mat: Matrix) -> Fraction:
    return sum((mat[i][i] for i in range(len(mat))), ZERO)


# -- polynomials (coefficient lists, ascending powers) ----------------------

def poly_normalize(p: Vector) -> Vector:
    while p and not p[-1]:
        p = p[:-1]
    return p


def poly_derivative(p: Vector) -> Vector:
    return [c * i for i, c in enumerate(p)][1:]


def poly_mod(a: Vector, b: Vector) -> Vector:
    a, b = poly_normalize(a[:]), poly_normalize(b)
    while len(a) >= len(b) > 0:
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a = poly_normalize(a)
    return a


def poly_gcd(a: Vector, b: Vector) -> Vector:
    a, b = poly_normalize(a), poly_normalize(b)
    while b:
        a, b = b, poly_mod(a, b)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def is_squarefree(p: Vector) -> bool:
    p = poly_normalize(p)
    if len(p) <= 1:
        return True
    return len(poly_gcd(p, poly_derivative(p))) == 1


def minimal_polynomial(mat: Matrix) -> Vector:
    """Monic minimal polynomial of a square rational matrix.

    Found as the first linear dependence among the flattened powers
    I, M, M^2, ...: each power is reduced once against the earlier ones
    (kept as rows of nonzeros with a unit pivot, zero at every earlier
    pivot), while its coefficients over the powers are tracked.  The first
    power that reduces to zero gives the polynomial; its degree is at most
    the matrix dimension.
    """
    n = len(mat)
    if n == 0:
        return [ONE]
    reduced: list[tuple[int, dict[int, Fraction], Vector]] = []
    power = identity(n)
    for k in range(n + 1):
        v = {r * n + c: x for r, row in enumerate(power) for c, x in enumerate(row) if x}
        combo = [ZERO] * k + [ONE]       # v = sum of combo[j] M^j
        for p, w, wc in reduced:
            f = v.get(p)
            if f is not None:
                _subtract_multiple(v, f, w)
                for j, y in enumerate(wc):
                    combo[j] -= f * y
        if not v:
            return combo
        lead = min(v)
        inv = ONE / v[lead]
        reduced.append((lead, {c: x * inv for c, x in v.items()},
                        [x * inv for x in combo]))
        power = mat_mul(power, mat)
    raise AssertionError("no minimal polynomial found")  # pragma: no cover
