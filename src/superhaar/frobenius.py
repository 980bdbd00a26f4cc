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
modules.  ``_pairing`` reads the matrix R_t of each such map off the
products x^I x_t and builds the columns of A in one pass over the
subsets, c_M = R_{min M} c_{M - min M} from c_empty = e_top.  This is the
Frobenius-extension structure of U(g) over U(g0) (Bell and Farnsteiner,
Trans. AMS 335, 1993).  The products are built along prefixes,
x^I x_t = x_s (x^{I - s} x_t) with s = min I, one ``multiply`` by a
generator each, which is associative on a table that passes validation
(the CLI validates every algebra first); the benchmark's tracer counts
these calls.  Every element keeps its ints by the enveloping layer's rule
(``UEElement``).  A chain product x^I x_t is over S^(|I| + 1), S the
algebra's integer scale, and splitting its words at their first odd
letter gives each left coefficient with the same ints over
S^(|I| + 1 - |J|).  So an entry at (i, k) of A or of its inverse is over
S^(|I_i| - |I_k|), and an (i, k) entry times a (k, j) entry is one
``multiply`` call over the denominator of (i, j).  ``_solve`` inverts A
by forward substitution, checking each row as it reaches it, lower
triangular with diagonal +-1, and verifies every entry it stores exactly.
The counit is an algebra map on the even subalgebra, so the same
recursion on the counits, plain ints, gives counit(A), whose column zero
is all ``invariant_z`` needs without a matrix: ``_counit_column_zero``
solves it lazily, forming only the cells its forward substitution reads.
Fractions are built only when an element's ``terms`` are read, as the
output does.

``dual_pair`` builds each y^J from the sparse int rows of the inverse.
Its exhaustive duality check builds the products x^I y along prefixes,
keeps only the terms that can still reach the full odd monomial, and
compares the top parts in the kernel's integers (``_prefix_pairings``).
Each prefix head x_s w that can still reach the full odd monomial is
rewritten once per call, into a memo that ``dual_pair`` creates and drops,
so the 2^m chains of the 2^m elements y share their rewrites.  The
invariance certificate of ``invariant_z`` reads the classes of z and of
x_i z in U(g)/U(g)*g0 from the enveloping layer's quotient recursion,
which shares only the bracket table with the pass.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from operator import add

from .algebra import LieSuperalgebra, lambda_values
from .enveloping import (UEElement, _odd_mask, _odd_word, _rewrite,
                         act_on_quotient, alpha, multiply, quotient_project)


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
    ascending index tuple.  First element is the empty set, last the full set.

    Of two sets of one size, the smaller tuple holds the least element of
    their symmetric difference, which is the highest bit where their m-bit
    reversals differ; so the sort key is the cardinality, then the
    reversal descending, as one int."""
    rev = [0] * (1 << m)
    for k in range(1, 1 << m):
        rev[k] = rev[k >> 1] >> 1 | (k & 1) << (m - 1)
    return tuple(sorted(range(1 << m), key=lambda k: (k.bit_count() << m) - rev[k]))


def _even_ints(u: UEElement) -> dict[int, UEElement]:
    """The nonzero left coefficients u_J of a chain product
    u = sum_J u_J x^J, by mask J: each PBW word of u splits at its first
    odd letter, and u_J keeps the ints of its prefixes as they are, over
    the denominator of u divided by S^|J|, exact since u is a product of
    generators, each over S."""
    alg, n0 = u.alg, u.alg.n_even
    parts: dict = defaultdict(dict)
    for w, v in u._ints.items():
        k = bisect_left(w, n0)
        parts[_odd_mask(n0, w[k:])][w[:k]] = v
    den, scale = u._den, alg._int_scale
    return {j: UEElement._trusted(alg, t, den // scale ** j.bit_count()) for j, t in parts.items()}


def _counit_ints(u: UEElement) -> dict[int, int]:
    """The nonzero counits of the left coefficients of a chain product u,
    by mask J, as the ints of ``_even_ints``, over its denominators: the
    words with no even letter."""
    n0 = u.alg.n_even
    return {_odd_mask(n0, w): v for w, v in u._ints.items() if not w or w[0] >= n0}


@dataclass(frozen=True)
class FrobeniusMatrix:
    """Pairing matrix A[i][j] = <x^{I_i}, x^{complement(I_j)}> together with
    its exact right inverse over the even subalgebra."""
    alg: LieSuperalgebra
    order: tuple[int, ...]                       # subset masks, cardinality order
    entries: tuple[tuple[UEElement, ...], ...]
    inverse: tuple[tuple[UEElement, ...], ...]
    _inverse_rows: tuple = field(repr=False, compare=False)   # ``_solve``'s, for dual_pair


def _solve(rows, n, zero, one, what: str) -> list[dict]:
    """The inverse B of the n x n matrix A given as ``rows`` of nonzeros
    over a ring with ``zero`` and ``one``, as rows of nonzeros, by forward
    substitution row by row.  Each row of A is checked when it is reached:
    no entry above the diagonal, and a diagonal entry d_i of +-1, which
    makes the division exact and sidesteps noncommutativity (each product
    is A[i][k] * B[k][j]).  With s the sum of A[i][k] * B[k][j] over
    k < i, B[i][j] = d_i (e_i[j] - s), stored only when s differs from
    e_i[j], so a column j starts at row j.  Each stored entry is checked:
    s + A[i][i] * B[i][j] must be e_i[j] exactly, and an entry not stored
    holds with B[i][j] = 0.  The first failure in row order is reported;
    within its row, triangularity, then the diagonal, then the smallest j."""
    inverse = []
    for i in range(n):
        row = rows.get(i, {})
        above = [k for k in row if k > i]
        if above:
            raise InternalInvariantError(
                f"{what} not lower triangular at ({i}, {min(above)})")
        a_ii = row.get(i, zero)
        if a_ii == one:
            d = 1
        elif a_ii == -one:
            d = -1
        else:
            raise InternalInvariantError(
                f"{what}: diagonal entry at {i} is {a_ii}, expected +-1")
        sums = {i: zero}
        for k, a in row.items():
            # the rows of B solved so far are those above row i
            if k < i:
                for j, b in inverse[k].items():
                    p = a * b
                    sums[j] = sums[j] + p if j in sums else p
        out = {}
        for j in sorted(sums):
            s, target = sums[j], one if i == j else zero
            if s != target:
                out[j] = b = target - s if d > 0 else s - target
                if s + a_ii * b != target:
                    raise InternalInvariantError(
                        f"{what} times its inverse is not the identity at ({i}, {j})")
        inverse.append(out)
    return inverse


def _odd_weights(alg: LieSuperalgebra) -> list[tuple[int, ...]]:
    """wt[mask] for every odd subset I: the eigenvalues, times S, of x^I
    under ad h for the even basis elements h whose adjoint action is
    diagonal on the odd basis, [h, x_t] = w_t(h) x_t for every t, and has a
    nonzero eigenvalue.  Read exactly off ``alg._int_rows``; wt(I) is the
    sum of w_t over t in I, and () when there is no such h."""
    n0, rows = alg.n_even, alg._int_rows
    torus = []
    for h in range(n0):
        w = []
        for t in range(n0, alg.dim):
            entry = rows[h].get(t, ())
            if entry and (len(entry) > 1 or entry[0][0] != t):
                break
            w.append(entry[0][1] if entry else 0)
        else:
            if any(w):
                torus.append(w)
    letters = list(zip(*torus)) or [()] * alg.n_odd
    wt = [(0,) * len(torus)]
    for mask in range(1, 1 << alg.n_odd):
        low = mask & -mask
        wt.append(tuple(map(add, wt[mask ^ low], letters[low.bit_length() - 1])))
    return wt


def _pairing(alg: LieSuperalgebra, order: tuple[int, ...]) -> dict:
    """The pairing matrix A[i][k] = <x^{I_i}, x^{complement(I_k)}> over the
    even subalgebra, as rows of nonzeros indexed by position in ``order``.

    R_t[I][J] is the left coefficient of x^J in x^I * x_t.  Right
    multiplication by x_t and pi are maps of left
    modules over the even subalgebra, so for M = {t_1 < ... < t_r} the
    column c_M[I] = pi(x^I * x^M) is R_{t_1} c_{M - t_1}, with
    c_empty = e_top, and A[i][k] is entry I_i of c_{complement(I_k)}.
    Each product is formed as R_t[I][J] * c[J], in that order, because the
    even subalgebra is not commutative.
    """
    top = (1 << alg.n_odd) - 1
    letters = [UEElement.generator(alg, alg.n_even + t) for t in range(alg.n_odd)]
    # the transpose of each R_t: J -> {I: R_t[I][J]}
    right = []
    for x_t in letters:
        products, rt = [x_t], {}
        for mask in range(top + 1):
            if mask:
                low = mask & -mask
                products.append(multiply(letters[low.bit_length() - 1], products[mask ^ low]))
            for j, r in _even_ints(products[mask]).items():
                rt.setdefault(j, {})[mask] = r
        right.append(rt)
    cols = [{top: UEElement.one(alg)}]
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


def _counit_column_zero(alg: LieSuperalgebra) -> dict[int, int]:
    """The counit b of column zero of the inverse of the pairing matrix A,
    as {subset mask: nonzero int}: counit(A) * b = e_empty solved by forward
    substitution in ints, forming only the cells of counit(A) that the solve
    reads; b[I] is the empty-word int of the inverse entry, over S^|I|.

    The cell counit(A)[I][K] is cell(M, I) with M = complement(K), and
    cell(M, I) = sum over J of counit(R_t[I][J]) * cell(M - t, J) with
    t = min M and cell(empty, I) = [I = top] (``_pairing``, through the
    counit, an algebra map on the even subalgebra).  The chain products
    x^I x_t are built along prefixes, as ``_pairing`` builds them, and
    read by ``_counit_ints``; the memos of products and cells are dropped
    when the call returns or raises.

    counit(A)[I][K] is zero unless wt(I) = wt(K) (``_odd_weights``): ad h
    is a derivation, so c_M[I] has eigenvalue wt(I) + wt(M) - wt(top), and
    the counit kills ad h(u) = h u - u h, so it kills every even element of
    nonzero eigenvalue.  So counit(A) is block diagonal by weight, b is zero
    off the block of the empty set, and the solve walks that block's rows.
    Row I reads its diagonal, which must be +-1, and the columns where b is
    already nonzero.  The cells above the diagonal are not formed.  On a
    table that respects parity they are zero, since no rewriting step adds
    an odd letter: x^I x^{complement K} has |I| + m - |K| < m odd letters
    when |I| < |K|, and when |I| = |K| and I != K it repeats a letter, which
    only a bracket of two odd letters, an even letter, removes.  On any
    table the certificate and the class of z at x^top in ``invariant_z``
    decide whether z is right.  A failure is reported at its position in
    ``odd_subset_order``."""
    wt, top = _odd_weights(alg), (1 << alg.n_odd) - 1
    letters = [UEElement.generator(alg, alg.n_even + t) for t in range(alg.n_odd)]

    @cache
    def chain(t, mask):
        """x^I x_t = x_s (x^{I - s} x_t), s = min I."""
        if not mask:
            return letters[t]
        low = mask & -mask
        return multiply(letters[low.bit_length() - 1], chain(t, mask ^ low))

    @cache
    def counits(t, mask):
        return _counit_ints(chain(t, mask))

    @cache
    def cell(col, row):
        if not col:
            return int(row == top)
        low = col & -col
        t = low.bit_length() - 1
        return sum(r * cell(col ^ low, j) for j, r in counits(t, row).items())

    column: dict[int, int] = {}
    try:
        for i, mask in enumerate(odd_subset_order(alg.n_odd)):
            if wt[mask] != wt[0]:
                continue
            d = cell(top ^ mask, mask)
            if d not in (1, -1):
                raise InternalInvariantError(
                    f"counit of the pairing matrix: diagonal entry at {i} is {d}, expected +-1")
            s = sum(cell(top ^ k, mask) * b for k, b in column.items())
            if c := d * (int(not mask) - s):
                column[mask] = c
        return column
    finally:
        del chain, counits, cell   # a closure cycle would keep the memos until gc runs


def frobenius_matrix(alg: LieSuperalgebra) -> FrobeniusMatrix:
    """The pairing matrix A[i][k] = <x^{I_i}, x^{complement(I_k)}> over the
    even subalgebra and every column of its inverse, checked."""
    order = odd_subset_order(alg.n_odd)
    n = len(order)
    zero, one = UEElement.zero(alg), UEElement.one(alg)
    rows = _pairing(alg, order)
    solved = _solve(rows, n, zero, one, "pairing matrix")
    dense = [[[zero] * n for _ in range(n)] for _ in range(2)]
    for out, sparse in zip(dense, (rows.items(), enumerate(solved))):
        for i, row in sparse:
            for k, x in row.items():
                out[i][k] = x
    entries, inverse = (tuple(map(tuple, out)) for out in dense)
    return FrobeniusMatrix(alg, order, entries, inverse, tuple(solved))


def _prefix_pairings(alg: LieSuperalgebra, y: dict, memo: dict) -> list[dict]:
    """The top parts of x'^I y for every odd subset I, y given as
    {PBW word: int} in the enveloping layer's integral basis:
    ``tops[mask]`` holds the PBW words of x'^I y with all m odd letters,
    each with its nonzero int value; its even prefix is a word of
    pi(x^I y).

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

    The same argument skips work before it is done.  A head x_s w whose w
    has fewer than floor - 1 = m - s - 1 odd letters has fewer than the
    floor, and so has every word it rewrites to: it is neither rewritten
    nor memoised.  An empty product x^{I - s} y gives an empty x^I y with
    no loop, and the top parts are read from the nonempty products only.

    ``_rewrite`` is linear in the head weights, so each head x_s w is
    rewritten once, with weight 1, and pruned at the floor m - s that its
    first letter fixes; ``memo`` maps the head to the kept (word, int)
    pairs, and every use of the head with weight v adds v times them.  A
    memo is valid for any y over the same algebra.
    """
    m, n0 = alg.n_odd, alg.n_even
    products = [y]
    for mask in range(1, 1 << m):
        low = mask & -mask
        s = low.bit_length() - 1
        prev = products[mask ^ low]
        if not prev:
            products.append(prev)
            continue
        letter, floor = (n0 + s,), m - s
        acc: dict = defaultdict(int)
        for w, v in prev.items():
            # the odd letters of a PBW word are its suffix: x_s w keeps
            # nothing unless w has floor - 1 of them
            if floor > 1 and (len(w) < floor - 1 or w[1 - floor] < n0):
                continue
            head = letter + w
            kept = memo.get(head)
            if kept is None:
                # the odd letters of a PBW word are its suffix, and floor >= 1
                kept = memo[head] = tuple(
                    (u, x) for u, x in _rewrite(alg, [(head, 1)]).items()
                    if x and len(u) >= floor and u[-floor] >= n0)
            for u, x in kept:
                acc[u] += v * x
        products.append({u: x for u, x in acc.items() if x})
    tops = [{w: v for w, v in u.items() if len(w) - bisect_left(w, n0) == m} if u else {}
            for u in products]
    return tops


def dual_pair(fm: FrobeniusMatrix) -> list[UEElement]:
    """Elements y^I with <x^I, y^J> = delta_IJ, in the subset order of
    ``fm``, the pairing matrix of their algebra.

    y^I = sum_J x^{complement(J)} * alpha(inverse[J][I]), from the sparse
    int rows of the inverse as they are, over S^(m - |I|).  Duality is
    verified exhaustively before returning, every cell compared exactly in
    ints (``_prefix_pairings``, whose memo of prefix heads lives for this
    call only).  pi(x^I y^J) = delta_IJ says that x^I y^J has no word with
    all m odd letters unless I = J, and then exactly the bare x^top, whose
    int is 1 in x'^I y^I.  So an off-diagonal cell fails when its top part
    is nonempty, and the diagonal cell when its top part is not
    {x^top: 1}.  The first failure in row order is reported.  The check
    prunes the products it forms, which needs a graded bracket table:
    raises ``ValueError`` on any other.

    ``alpha`` returns an inverse entry as it is when none of its letters
    has a nonzero trace, so under the trace condition no entry is twisted.
    """
    alg = fm.alg
    if not alg._parity_graded:
        raise ValueError(f"the bracket table of {alg.name} does not respect parity")
    n, m, top = len(fm.order), alg.n_odd, (1 << alg.n_odd) - 1
    comp = [_odd_word(alg, top ^ mask) for mask in fm.order]
    heads: list[list] = [[] for _ in range(n)]
    for k, row in enumerate(fm._inverse_rows):
        for j, b in row.items():
            heads[j] += [(comp[k] + w, v) for w, v in alpha(alg, b._ints).items()]
    # one kernel call per y^J, in column order
    ys = [{w: v for w, v in _rewrite(alg, h).items() if v} for h in heads]
    # every cell is checked; the first failure in row order is reported
    failures, memo, top_word = [], {}, _odd_word(alg, top)
    for j, y in enumerate(ys):
        tops = _prefix_pairings(alg, y, memo)
        if tops[fm.order[j]] != {top_word: 1}:
            failures.append((j, j))
        failures += [(i, j) for i, mask in enumerate(fm.order) if tops[mask] and i != j]
    if failures:
        raise InternalInvariantError("dual pair fails at ({}, {})".format(*min(failures)))
    scale = alg._int_scale
    return [UEElement._trusted(alg, y, scale ** (m - mask.bit_count()))
            for y, mask in zip(ys, fm.order)]


@dataclass(frozen=True)
class InvariantZ:
    """Representative of the invariant line in the quotient by the left
    ideal generated by the even part, plus the per-generator residues of
    w*z - counit(w)*z modulo that ideal (all zero when valid), and the
    class of z in that quotient over the basis x^I."""
    z: UEElement
    certificate: dict[int, dict[int, Fraction]]
    quotient_class: dict[int, Fraction]


def _check_trace_condition(alg: LieSuperalgebra) -> None:
    """``NoInvariantError`` naming the first even basis element whose
    tr(ad') is nonzero, if there is one."""
    for i, v in sorted(lambda_values(alg).items()):
        if v:
            raise NoInvariantError(alg, i, v)


def invariant_z(alg: LieSuperalgebra, fm: FrobeniusMatrix | None = None) -> InvariantZ:
    """The canonical invariant: z = sum_J x^{complement(J)} * counit(inverse[J][empty]).

    Column zero of the inverse is read from ``fm`` when given.  Otherwise
    only its counit is computed, by a forward solve in ints that forms only
    the cells of counit(A) it reads (``_counit_column_zero``), with no
    arithmetic in the even subalgebra.  Both checks are exact: the class of
    w z - counit(w) z in the quotient is zero for every basis element w (the
    certificate), and the class of z is 1 at x^top, which makes z the
    canonical invariant and not only a nonzero one.  They decide whether z
    is right on either path, also where the plain path's solve has not
    checked counit(A) above the diagonal.

    Requires the trace condition; otherwise the invariant space of the
    quotient module is zero and ``NoInvariantError`` names the violating
    even basis element and its trace.  ``ValueError``, naming both
    algebras, when ``fm`` is the pairing matrix of another algebra.
    """
    if fm is not None and fm.alg != alg:
        raise ValueError(f"the pairing matrix is of {fm.alg.name}, not of {alg.name}")
    _check_trace_condition(alg)
    m, top = alg.n_odd, (1 << alg.n_odd) - 1
    if fm is None:
        column = _counit_column_zero(alg)
    else:
        column = {mask: c for mask, row in zip(fm.order, fm.inverse)
                  if (c := row[0]._ints.get((), 0))}
    # b[I] is over S^|I|, and the same int over S^m has that value on the
    # complement's word, of m - |I| letters; complements are distinct words
    z = UEElement._trusted(alg, {_odd_word(alg, top ^ mask): c for mask, c in column.items()},
                           alg._int_scale ** m)

    z_class = quotient_project(z)
    certificate = {}
    for i in range(alg.dim):
        # residue of w z - counit(w) z; counit vanishes on generators
        certificate[i] = residue = act_on_quotient(alg, i, z_class)
        if residue:
            raise InternalInvariantError(
                f"z is not invariant under {alg.basis_name(i)}: residue {residue}")
    # the x^top coefficient is counit(B[empty][empty]) = 1 / A[empty][empty],
    # and A[empty][empty] = pi(x^top) = 1
    if z_class.get(top) != 1:
        raise InternalInvariantError(
            f"the class of z is {z_class.get(top, 0)} at x^top, expected 1")
    return InvariantZ(z, certificate, z_class)
