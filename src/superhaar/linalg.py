"""Exact linear algebra over the rationals.

There is one matrix type.  A vector is ``{index: Fraction}`` holding its
nonzero entries only, and a matrix is ``{row: vector}`` with its zero rows
left out, so an absent key always means zero.  Nothing here stores a zero,
which makes ``==`` on two vectors or two matrices exact equality and a
matrix's truth value the test for the zero matrix.  Shapes are not stored:
callers pass a dimension wherever one is needed (``nullspace``, ``invert``,
``is_semisimple``, ``minimal_polynomial``).  No function mutates its arguments.

Entries may be any numbers closed under ``+`` and ``*`` whose zero is
falsy, such as ints or Fractions.  ``mat_mul``, ``mat_comb`` and
``transpose`` keep the entry type, so int rows give int rows: the module
layer multiplies its matrices in exact integers, scaled to a common
denominator by ``scaled``, and eliminates them through the public
functions below.  All elimination is one fraction-free Gauss-Jordan step
on int rows, ``_eliminate``: ``rref`` (and so ``rank``, ``nullspace``,
``row_space_basis``, ``invert`` and ``same_span``) scales each int or
Fraction row to ints, and ``minimal_polynomial``, ``is_semisimple`` and
``is_squarefree`` build int rows.  Results that need division (the
reduced rows, kernels, inverses, polynomial coefficients) come back in
Fractions.

The functions that depend only on the row space (``rref``, ``rank``,
``nullspace``, ``row_space_basis``, ``same_span``) take any iterable of
row vectors, such as ``mat.values()`` or a list of basis vectors.
Elimination touches only the entries it changes.  The reduced row echelon
form is unique, so the order of the rows does not change any result.
Everything is computed exactly (no tolerances).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

Vector = dict[int, Fraction]
Matrix = dict[int, Vector]

ZERO = Fraction(0)
ONE = Fraction(1)


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


def _cancel(v: dict[int, int], vc: dict[int, int],
            w: dict[int, int], wc: dict[int, int], p: int) -> None:
    """v := s v - f w and vc := s vc - f wc in place, with s = w_p / g and
    f = v_p / g for g their gcd, so that v becomes zero at p."""
    g = math.gcd(w[p], v[p])
    s, f = w[p] // g, v[p] // g
    for u, x in ((v, w), (vc, wc)):
        if s != 1:
            for c in u:
                u[c] *= s
        for c, y in x.items():
            z = u[c] - f * y if c in u else -f * y
            if z:
                u[c] = z
            else:
                del u[c]


def _primitive(v: dict[int, int], vc: dict[int, int]) -> None:
    """Divide v and vc in place by the gcd of all their entries."""
    g = math.gcd(*v.values(), *vc.values())
    if g != 1:
        for u in (v, vc):
            for c in u:
                u[c] //= g


def _eliminate(v: dict[int, int], combo: dict[int, int],
               pivots: dict[int, tuple[dict[int, int], dict[int, int]]]) -> bool:
    """One fraction-free Gauss-Jordan step on the int vector v, in place.

    ``combo`` writes v as an int combination of the vectors offered before
    it, and ``pivots`` maps each pivot column to its row and that row's
    combination; every row there is zero at every other pivot column.  So v
    is reduced in one pass over the pivot columns where it is nonzero, each
    by ``_cancel``.  A v that stays nonzero is made primitive (divided with
    combo by the gcd of their entries) and stored at its least column,
    which is then cancelled, the same way, from each earlier row that has
    it; that row is made primitive again.  Returns whether v was stored;
    when it was not, combo is a linear dependence.  Dividing by the gcd
    keeps the entries small where Bareiss (Math. Comp. 22, 1968) divides by
    the previous pivot.
    """
    for p in [c for c in v if c in pivots]:
        _cancel(v, combo, *pivots[p], p)
    if not v:
        return False
    _primitive(v, combo)
    lead = min(v)
    for w, wc in pivots.values():
        if lead in w:
            _cancel(w, wc, v, combo, lead)
            _primitive(w, wc)
    pivots[lead] = (v, combo)
    return True


def rref(rows: Iterable[Vector]) -> tuple[list[Vector], list[int]]:
    """The nonzero rows of the reduced row echelon form, in pivot order,
    and the list of pivot columns.

    Each row is scaled to ints by the lcm of its denominators and offered
    to ``_eliminate``; each stored row divided by its pivot entry is a row
    of the (unique) reduced row echelon form, in Fractions.
    """
    pivots: dict = {}
    for row in rows:
        d = math.lcm(*(x.denominator for x in row.values()))
        _eliminate({c: x.numerator * (d // x.denominator) for c, x in row.items()},
                   {}, pivots)
    cols = sorted(pivots)
    red = []
    for p in cols:
        w = pivots[p][0]
        red.append({c: Fraction(x, w[p]) for c, x in w.items()})
    return red, cols


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


def is_squarefree(p: list[Fraction]) -> bool:
    """Has the polynomial p (coefficients in ascending powers) no repeated
    root?  True for degree at most 0, the zero polynomial included: its
    Sylvester matrix below has no rows.

    p of degree n >= 1 is squarefree exactly when p and p' are coprime,
    that is when their Sylvester matrix, the 2n - 1 int rows x^i d p for
    i < n - 1 and x^i d p' for i < n (d the lcm of the denominators of p),
    has full rank.  Its columns run in descending powers, so elimination
    pivots on leading coefficients, as polynomial division does; the rank
    does not depend on the column order.
    """
    n = max((i for i, c in enumerate(p) if c), default=0)
    d = math.lcm(*(c.denominator for c in p))
    a = [c.numerator * (d // c.denominator) for c in p[:n + 1]]
    rows = ({2 * n - 2 - s - i: c for i, c in enumerate(q) if c}
            for q, shifts in ((a, n - 1), ([i * c for i, c in enumerate(a)][1:], n))
            for s in range(shifts))
    pivots: dict = {}
    return all(_eliminate(row, {}, pivots) for row in rows)


def is_semisimple(mat: Matrix, n: int) -> bool:
    """Has the n x n rational matrix ``mat`` a squarefree minimal
    polynomial, that is, is it diagonalizable over the algebraic closure?

    A p with e_i p(A) = 0 for every unit row e_i has p(A) = 0, so the
    minimal polynomial of A (that of its transpose) is the lcm of the local
    ones, each the least p with e_i p(A) = 0 (Wiedemann, IEEE Trans. Inf.
    Theory 32, 1986), and an lcm is squarefree exactly when all its
    arguments are.  The local polynomial of e_i is the first linear
    dependence among e_i, e_i A, e_i A^2, ... for the int matrix A = d mat
    (d from ``scaled``; scaling x by d keeps squarefreeness), found by
    ``_eliminate`` as in ``minimal_polynomial``.  Only one of degree at
    least 2 needs ``is_squarefree``, and each such polynomial, made
    primitive with a positive leading coefficient, is tested once.  A row
    with e_i A = c e_i has degree at most 1 and is passed over before any
    elimination, so a diagonal matrix costs one look at each row.
    """
    _, (a,) = scaled([mat])
    tested: set[tuple[int, ...]] = set()
    for i in range(n):
        row = a.get(i, {})
        if not row or len(row) == 1 and i in row:
            continue            # e_i A = c e_i
        v: dict[int, int] = {i: 1}      # e_i A^k
        k, pivots = 0, {}
        # at the first v that reduces to zero, combo is the dependence
        # sum_j combo[j] e_i A^j = 0, of degree k
        while _eliminate(dict(v), combo := {k: 1}, pivots):
            k += 1
            w: dict[int, int] = {}
            for r, x in v.items():
                for c, y in a.get(r, {}).items():
                    w[c] = w[c] + x * y if c in w else x * y
            v = {c: x for c, x in w.items() if x}
        if k >= 2:
            g = math.gcd(*combo.values()) * (1 if combo[k] > 0 else -1)
            poly = tuple(combo.get(j, 0) // g for j in range(k + 1))
            if poly not in tested:
                if not is_squarefree(poly):
                    return False
                tested.add(poly)
    return True


def minimal_polynomial(mat: Matrix, n: int) -> list[Fraction]:
    """Monic minimal polynomial of the n x n rational matrix ``mat``, as
    Fraction coefficients in ascending powers.

    Found as the first linear dependence among the flattened powers
    I, A, A^2, ... of the int matrix A = d mat (d from ``scaled``), each
    offered to ``_eliminate`` after the earlier ones.  The first power
    A^k that reduces to zero gives sum_j c_j A^j = 0, and the minimal
    polynomial of mat has coefficients c_j / (c_k d^(k-j)); k is at most n.
    """
    if n == 0:
        return [ONE]
    d, (a,) = scaled([mat])
    pivots: dict = {}
    power: dict[int, dict[int, int]] = {i: {i: 1} for i in range(n)}
    for k in range(n + 1):
        combo = {k: 1}       # power = sum of combo[j] A^j
        if not _eliminate({r * n + c: x for r, row in power.items() for c, x in row.items()},
                          combo, pivots):
            return [Fraction(combo.get(j, 0), combo[k] * d ** (k - j)) for j in range(k + 1)]
        power = mat_mul(power, a)
    raise AssertionError("no minimal polynomial found")  # pragma: no cover
