"""Frobenius structure of the enveloping algebra over its even subalgebra.

The top-coefficient projection pi sends ``u = sum_I u_I x^I`` (left
coefficients, read off the PBW normal form) to the coefficient of
the full odd monomial.  The pairing <x, y> = pi(x y) is associative with a
twist on the right slot; the matrix of the pairing on odd-subset monomials,
taken in a cardinality-refining order, is lower triangular with diagonal
entries +-1, hence invertible over the even subalgebra by forward
substitution.  Its inverse yields a dual basis and, column zero, a
canonical representative of the invariant line in the quotient by the left
ideal generated by the even part -- the element that drives Berezin-style
integration downstream.

U(g) is free as a left module over the even subalgebra on the x^I (PBW),
and right multiplication by an odd generator x_t is a map of left
modules.  ``_pairing`` reads the matrix R_t of each such map off
``multiply(x^I, x_t)`` and builds the columns of A in one pass over the
subsets, c_M = R_{min M} c_{M - min M} from c_empty = e_top.  This is the
Frobenius-extension structure of U(g) over U(g0) (Bell and Farnsteiner,
Trans. AMS 335, 1993).  The ring of the entries is the pass's one
parameter.  ``frobenius_matrix`` keeps the left coefficients, which lie in
the even subalgebra, builds A and solves every column of its inverse.
``invariant_z`` without a matrix needs only the counit of column zero.  The
counit is an algebra map on the even subalgebra, so it keeps only the
counits of the left coefficients, and the same pass builds the scalar
matrix counit(A), whose column zero it solves with no even-subalgebra
arithmetic.  A and counit(A) share one construction, one check and one
solve: ``_check_unitriangular`` checks that the matrix is lower triangular
with diagonal +-1, and ``_solve_column`` forward-substitutes a column of
the inverse and verifies A * b = e_j exactly, summed over the band
j <= k <= i that triangularity leaves.

The exhaustive duality check of ``dual_pair`` builds the products x^I y
along prefixes, keeps only the terms that can still reach the full odd
monomial, and compares the top parts in the kernel's integers
(``_prefix_pairings``).  The invariance certificate of
``invariant_z`` reads the classes of z and of x_i z in U(g)/U(g)*g0 from
the enveloping layer's quotient recursion, which shares only the bracket
table with the pass.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algebra import LieSuperalgebra, lambda_values
from .enveloping import (UEElement, _normal_form, _odd_mask, _odd_word, _rewrite,
                         act_on_quotient, alpha, counit, multiply, quotient_project)


class InternalInvariantError(RuntimeError):
    """A property the construction guarantees failed to hold; indicates a
    rewriting or substitution bug, not bad user input."""


class NoInvariantError(Exception):
    """The trace condition fails, so the quotient module has no invariants."""

    def __init__(self, alg: LieSuperalgebra, violator: int, value: Fraction):
        self.violator = violator
        self.value = value
        super().__init__(
            f"no invariant exists: tr(ad'({alg.basis_name(violator)})) = {value}")


def odd_subset_order(m: int) -> tuple[int, ...]:
    """The 2^m odd-subset bitmasks, ordered by cardinality then by the
    ascending index tuple.  First element is the empty set, last the full set."""
    def bits(mask: int) -> tuple[int, ...]:
        return tuple(t for t in range(m) if mask >> t & 1)
    return tuple(sorted(range(1 << m), key=lambda k: (k.bit_count(), bits(k))))


def subset_monomial(alg: LieSuperalgebra, mask: int) -> UEElement:
    """The ordered product of the odd generators in ``mask``, an int in
    range(2^m)."""
    return UEElement(alg, {_odd_word(alg, mask): Fraction(1)})


def _left_coefficients(u: UEElement) -> dict[int, UEElement]:
    """The nonzero left coefficients u_J of u = sum_J u_J x^J, by mask J:
    elements of the even subalgebra.  Each PBW word splits at its first
    odd letter into a word of u_J and x^J."""
    n0 = u.alg.n_even
    terms: dict = defaultdict(dict)
    for w, c in u.terms.items():
        k = bisect_left(w, n0)
        terms[_odd_mask(n0, w[k:])][w[:k]] = c
    return {j: UEElement._trusted(u.alg, t) for j, t in terms.items()}


def frobenius_pi(u: UEElement) -> UEElement:
    """Left coefficient of the top odd monomial (an element of the even
    enveloping subalgebra): the words with all m odd letters, cut off
    before them.  For m = 0 this is the identity map."""
    m, n0 = u.alg.n_odd, u.alg.n_even
    top = {}
    for w, c in u.terms.items():
        k = bisect_left(w, n0)
        if len(w) - k == m:
            top[w[:k]] = c
    return UEElement._trusted(u.alg, top)


def _left_counits(u: UEElement) -> dict[int, Fraction]:
    """The nonzero counits of the left coefficients u_J of
    u = sum_J u_J x^J, by mask J: the terms of u with no even letter."""
    n0 = u.alg.n_even
    return {_odd_mask(n0, w): c for w, c in u.terms.items() if not w or w[0] >= n0}


@dataclass(frozen=True)
class FrobeniusMatrix:
    """Pairing matrix A[i][j] = <x^{I_i}, x^{complement(I_j)}> together with
    its exact right inverse over the even subalgebra."""
    alg: LieSuperalgebra
    order: tuple[int, ...]                       # subset masks, cardinality order
    entries: tuple[tuple[UEElement, ...], ...]
    inverse: tuple[tuple[UEElement, ...], ...]
    diagonal: tuple[int, ...]                    # each +1 or -1


def _check_unitriangular(rows, n: int, zero, one, what: str) -> tuple[int, ...]:
    """The diagonal of the n x n matrix ``rows`` (rows of nonzeros over a
    ring with ``zero`` and ``one``), after checking that the matrix is lower
    triangular with diagonal entries +-1."""
    diagonal = []
    for i in range(n):
        row = rows.get(i, {})
        above = [k for k in row if k > i]
        if above:
            raise InternalInvariantError(
                f"{what} not lower triangular at ({i}, {min(above)})")
        d = row.get(i, zero)
        if d == one:
            diagonal.append(1)
        elif d == -one:
            diagonal.append(-1)
        else:
            raise InternalInvariantError(
                f"{what}: diagonal entry at {i} is {d}, expected +-1")
    return tuple(diagonal)


def _solve_column(rows, diagonal: tuple[int, ...], j: int, zero, one,
                  what: str) -> list:
    """Column j of the inverse of the unitriangular matrix ``rows`` by
    forward substitution; the +-1 diagonal makes the division exact and
    sidesteps noncommutativity (each product is A[i][k] * b[k]).  Entries
    above row j are zero, b[j] = d_j, and below it b[i] is -d_i times the
    sum of A[i][k] * b[k] over k < i, stored only when that sum is nonzero.
    Verifies A * b = e_j exactly: triangularity leaves only the band
    j <= k <= i of each sum."""
    col = {}

    def row_sum(i: int):
        acc = zero
        for k, a in rows.get(i, {}).items():
            if k in col:
                acc = acc + a * col[k]
        return acc

    n = len(diagonal)
    col[j] = one if diagonal[j] > 0 else -one
    for i in range(j + 1, n):
        acc = row_sum(i)
        if acc:
            col[i] = -acc if diagonal[i] > 0 else acc
    for i in range(j, n):
        if row_sum(i) != (one if i == j else zero):
            raise InternalInvariantError(
                f"{what} times its inverse is not the identity at ({i}, {j})")
    return [col.get(i, zero) for i in range(n)]


def _pairing(alg: LieSuperalgebra, order: tuple[int, ...], read, one) -> dict:
    """The pairing matrix A[i][k] = <x^{I_i}, x^{complement(I_k)}>, or its
    image under a ring map phi on the even subalgebra, as rows of nonzeros
    indexed by position in ``order``.  ``read(u)`` maps u = sum_J u_J x^J
    to the nonzero phi(u_J) by mask J, and ``one`` is the unit of phi's
    ring, whose elements are true exactly when nonzero.

    R_t[I][J] is the left coefficient of x^J in x^I * x_t.  Right
    multiplication by x_t and pi are maps of left modules over the even
    subalgebra, so for M = {t_1 < ... < t_r} the column
    c_M[I] = pi(x^I * x^M) is R_{t_1} c_{M - t_1}, with c_empty = e_top,
    and A[i][k] is entry I_i of c_{complement(I_k)}.  Each product is
    formed as R_t[I][J] * c[J], in that order, because the even subalgebra
    is not commutative.
    """
    top = (1 << alg.n_odd) - 1
    monomials = [subset_monomial(alg, mask) for mask in range(top + 1)]
    # the transpose of each R_t: J -> {I: phi(R_t[I][J])}
    right = []
    for t in range(alg.n_odd):
        x_t = UEElement.generator(alg, alg.n_even + t)
        rt: dict = {}
        for mask, x in enumerate(monomials):
            for j, r in read(multiply(x, x_t)).items():
                rt.setdefault(j, {})[mask] = r
        right.append(rt)
    cols = [{top: one}]
    for mask in range(1, top + 1):
        low = mask & -mask
        rt, acc = right[low.bit_length() - 1], {}
        for j, c in cols[mask ^ low].items():
            for i, r in rt.get(j, {}).items():
                acc[i] = acc[i] + r * c if i in acc else r * c
        cols.append({i: x for i, x in acc.items() if x})
    position = {mask: i for i, mask in enumerate(order)}
    rows: dict = {}
    for k, mask in enumerate(order):
        for i_mask, x in cols[top ^ mask].items():
            rows.setdefault(position[i_mask], {})[k] = x
    return rows


def _counit_column_zero(alg: LieSuperalgebra, order: tuple[int, ...]) -> list[Fraction]:
    """The counit of column zero b of the inverse of the pairing matrix A,
    from counit(A) alone: counit(A) * counit(b) = e_0, solved and checked
    like A itself."""
    zero, one, what = linalg.ZERO, linalg.ONE, "counit of the pairing matrix"
    scalar = _pairing(alg, order, _left_counits, one)
    diagonal = _check_unitriangular(scalar, len(order), zero, one, what)
    return _solve_column(scalar, diagonal, 0, zero, one, what)


def frobenius_matrix(alg: LieSuperalgebra) -> FrobeniusMatrix:
    """The pairing matrix A[i][k] = <x^{I_i}, x^{complement(I_k)}> over the
    even subalgebra and every column of its inverse, checked."""
    order = odd_subset_order(alg.n_odd)
    n = len(order)
    zero, one, what = UEElement.zero(alg), UEElement.one(alg), "pairing matrix"
    rows = _pairing(alg, order, _left_coefficients, one)
    diagonal = _check_unitriangular(rows, n, zero, one, what)
    columns = [_solve_column(rows, diagonal, j, zero, one, what) for j in range(n)]
    return FrobeniusMatrix(
        alg, order,
        tuple(tuple(rows.get(i, {}).get(k, zero) for k in range(n)) for i in range(n)),
        tuple(tuple(col[i] for col in columns) for i in range(n)),
        diagonal)


def _prefix_pairings(alg: LieSuperalgebra, y: UEElement) -> tuple[list[dict], int, int]:
    """The top parts of x^I y for every odd subset I, in the rewriting
    kernel's integers: ``(tops, D, deg y)``, where ``tops[mask]`` holds the
    PBW words of x^I y with all m odd letters, each with its nonzero int
    value.  Such a word of degree L carries D * S^(deg y + |I| - L) times
    its coefficient, D the lcm of the denominators of y and S the
    algebra's integer scale; its even prefix is a word of pi(x^I y).

    The products are built along prefixes: x^I y = x_s (x^{I - s} y) with
    s = min I, one multiplication by a generator each.  No rewriting step
    raises the number of odd letters in a word when every bracket has
    parity p(a) + p(b): a transposition keeps the letters, [even, even] is
    even, [even, odd] is odd, and an odd-odd bracket or an odd square
    x x = [x, x]/2 trades two odd letters for one even one.  Only the
    generators x_0, ..., x_{s-1} can still be prepended to x^I y, each
    adding at most one odd letter, so a term with fewer than m - s odd
    letters never reaches the full odd monomial in x^I y or in any product
    built from it, and is dropped.  That needs a graded bracket table
    (``LieSuperalgebra._parity_graded``), which the caller checks.

    The chain runs in ints (``_rewrite``).  y is scaled once: a term c w of
    y carries c * D * S^(deg y - |w|).  Prepending x_s raises both the
    degree and |I| by one, and the kernel keeps the scale.
    """
    m, n0, scale = alg.n_odd, alg.n_even, alg._int_scale
    den = math.lcm(*(c.denominator for c in y.terms.values()))
    deg = max(map(len, y.terms), default=0)
    products = [{w: c.numerator * (den // c.denominator) * scale ** (deg - len(w))
                 for w, c in y.terms.items()}]
    for mask in range(1, 1 << m):
        low = mask & -mask
        s = low.bit_length() - 1
        prev, letter, floor = products[mask ^ low], (n0 + s,), m - s
        if not prev:
            products.append(prev)
            continue
        out = _rewrite(alg, [(letter + w, v) for w, v in prev.items()])
        # the odd letters of a PBW word are its suffix, and floor >= 1
        products.append({w: v for w, v in out.items()
                         if v and len(w) >= floor and w[-floor] >= n0})
    tops = [{w: v for w, v in u.items() if len(w) - bisect_left(w, n0) == m}
            for u in products]
    return tops, den, deg


def dual_pair(alg: LieSuperalgebra, fm: FrobeniusMatrix | None = None) -> list[UEElement]:
    """Elements y^I with <x^I, y^J> = delta_IJ, in the subset order.

    y^I = sum_J x^{complement(J)} * alpha(inverse[J][I]); duality is
    verified exhaustively before returning, every cell compared exactly in
    the kernel's integers (``_prefix_pairings``).  pi(x^I y^J) = delta_IJ
    says that x^I y^J has no word with all m odd letters unless I = J, and
    then exactly the bare x^top, with value D * S^(deg y + |I| - m).  The
    check prunes the products it forms, which needs a graded bracket
    table: raises ``ValueError`` on any other.
    """
    if not alg._parity_graded:
        raise ValueError(f"the bracket table of {alg.name} does not respect parity")
    if fm is None:
        fm = frobenius_matrix(alg)
    n, m = len(fm.order), alg.n_odd
    top = (1 << m) - 1
    comp = [_odd_word(alg, top ^ mask) for mask in fm.order]
    top_word = _odd_word(alg, top)
    ys = []
    for j in range(n):
        # one kernel call on the heads of every x^{complement(K)} * alpha(b_Kj)
        heads = [(comp[k] + w, c) for k in range(n) if fm.inverse[k][j]
                 for w, c in alpha(fm.inverse[k][j]).terms.items()]
        ys.append(UEElement._trusted(alg, _normal_form(alg, heads)))
    # every cell is checked; the first failure in row order is reported
    failures = []
    for j, y in enumerate(ys):
        tops, den, deg = _prefix_pairings(alg, y)
        # below degree m, x^{I_j} y has no top word: its diagonal cell fails
        e = deg + fm.order[j].bit_count() - m
        diagonal = {top_word: den * alg._int_scale ** e} if e >= 0 else None
        for i, mask in enumerate(fm.order):
            if tops[mask] != (diagonal if i == j else {}):
                failures.append((i, j))
    if failures:
        raise InternalInvariantError("dual pair fails at ({}, {})".format(*min(failures)))
    return ys


@dataclass(frozen=True)
class InvariantZ:
    """Representative of the invariant line in the quotient by the left
    ideal generated by the even part, plus the per-generator residues of
    w*z - counit(w)*z modulo that ideal (all zero when valid), and the
    class of z in that quotient over the basis x^I."""
    z: UEElement
    certificate: dict[int, dict[int, Fraction]]
    quotient_class: dict[int, Fraction]


def invariant_z(alg: LieSuperalgebra, fm: FrobeniusMatrix | None = None) -> InvariantZ:
    """The canonical invariant: z = sum_J x^{complement(J)} * counit(inverse[J][empty]).

    Column zero of the inverse is read from ``fm`` when given.  Otherwise
    only its counit is computed, from the scalar matrix counit(A), with no
    arithmetic in the even subalgebra.

    Requires the trace condition; otherwise the invariant space of the
    quotient module is zero and ``NoInvariantError`` names the violating
    even basis element and its trace.
    """
    lam = lambda_values(alg)
    for i, v in sorted(lam.items()):
        if v:
            raise NoInvariantError(alg, i, v)
    if fm is None:
        order = odd_subset_order(alg.n_odd)
        column = _counit_column_zero(alg, order)
    else:
        order = fm.order
        column = [counit(row[0]) for row in fm.inverse]
    top = (1 << alg.n_odd) - 1
    z = UEElement.zero(alg)
    for k, mask in enumerate(order):
        c = column[k]
        if c:
            z = z + subset_monomial(alg, top ^ mask) * c

    z_class = quotient_project(z)
    certificate = {}
    for i in range(alg.dim):
        # residue of w z - counit(w) z; counit vanishes on generators
        residue = act_on_quotient(alg, i, z_class)
        certificate[i] = residue
        if residue:
            raise InternalInvariantError(
                f"z is not invariant under {alg.basis_name(i)}: residue {residue}")
    if not z_class:
        raise InternalInvariantError("z lies in the ideal it should represent "
                                     "a nonzero class against")
    return InvariantZ(z, certificate, z_class)
