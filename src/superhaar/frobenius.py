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
these calls.  All else runs in the rewriting kernel's integers in one
graded scale, S the algebra's integer scale: an entry at (i, k) of A or
of its inverse is {even word w: int v} (``_Even``) for
sum v / S^(|I_i| - |I_k| - |w|) w.  ``_rewrite`` keeps the scale, so an
(i, k) entry times a (k, j) entry lands at (i, j) unscaled.  A chain
product x^I x_t is read into ints at its degree |I| + 1, exactly, since
``multiply`` built it from the kernel's ints.  The counit is an algebra
map on the even subalgebra, so the same pass on the counits, plain ints,
gives counit(A), whose column zero is all ``invariant_z`` needs without
a matrix.  Both share one check that the matrix is lower triangular with
diagonal +-1 (``_check_unitriangular``) and one forward substitution of
the columns asked for (``_solve``), which verifies every entry it stores
exactly.  Fractions and elements are built once, at the output.

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

from .algebra import LieSuperalgebra, lambda_values
from .enveloping import (UEElement, _odd_mask, _odd_word, _rewrite,
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


class _Even:
    """An element of the even subalgebra in the kernel's integers,
    ``terms`` = {PBW word: nonzero int}, in the graded scale of its matrix
    cell.  A product is one ``_rewrite`` call, or none with a scalar factor."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: LieSuperalgebra, terms: dict):
        self.alg, self.terms = alg, terms

    def __mul__(self, other):
        a, b = self.terms, other.terms
        for s, u in ((a, b), (b, a)):
            if len(s) == 1 and () in s:
                c = s[()]
                return _Even(self.alg, {w: c * v for w, v in u.items()})
        out = _rewrite(self.alg, [(w + w2, v * v2) for w, v in a.items() for w2, v2 in b.items()])
        return _Even(self.alg, {w: v for w, v in out.items() if v})

    def __add__(self, other):
        out = dict(self.terms)
        for w, v in other.terms.items():
            out[w] = out.get(w, 0) + v
        return _Even(self.alg, {w: v for w, v in out.items() if v})

    def __neg__(self):
        return _Even(self.alg, {w: -v for w, v in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __eq__(self, other):
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return repr(self.terms)


def _even_ints(u: UEElement, deg: int) -> dict[int, _Even]:
    """The nonzero left coefficients u_J of a chain product
    u = sum_J u_J x^J of degree ``deg``, by mask J, each term c w read as
    the int c * S^(deg - |w|); each PBW word splits at its first odd letter."""
    n0, scale = u.alg.n_even, u.alg._int_scale
    terms: dict = defaultdict(dict)
    for w, c in u.terms.items():
        k = bisect_left(w, n0)
        terms[_odd_mask(n0, w[k:])][w[:k]] = c.numerator * scale ** (deg - len(w)) // c.denominator
    return {j: _Even(u.alg, t) for j, t in terms.items()}


def _counit_ints(u: UEElement, deg: int) -> dict[int, int]:
    """The nonzero counits of the left coefficients of a chain product u,
    by mask J, read as ``_even_ints`` reads them: the terms with no even letter."""
    n0, scale = u.alg.n_even, u.alg._int_scale
    return {_odd_mask(n0, w): c.numerator * scale ** (deg - len(w)) // c.denominator
            for w, c in u.terms.items() if not w or w[0] >= n0}


def _rational(alg: LieSuperalgebra, terms: dict, e: int) -> UEElement:
    """The element whose word w carries S^(e - |w|) in ``terms``."""
    scale = alg._int_scale
    if scale == 1:
        return UEElement._trusted(alg, {w: Fraction(v) for w, v in terms.items()})
    return UEElement._trusted(alg, {w: Fraction(v, scale ** (e - len(w)))
                                    for w, v in terms.items()})


@dataclass(frozen=True)
class FrobeniusMatrix:
    """Pairing matrix A[i][j] = <x^{I_i}, x^{complement(I_j)}> together with
    its exact right inverse over the even subalgebra."""
    alg: LieSuperalgebra
    order: tuple[int, ...]                       # subset masks, cardinality order
    entries: tuple[tuple[UEElement, ...], ...]
    inverse: tuple[tuple[UEElement, ...], ...]
    diagonal: tuple[int, ...]                    # each +1 or -1
    _inverse_rows: tuple = field(repr=False, compare=False)   # ``_solve``'s, for dual_pair


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


def _solve(rows, diagonal: tuple[int, ...], columns, zero, one, what: str) -> list[dict]:
    """The columns ``columns`` of the inverse B of the unitriangular matrix
    ``rows``, as rows of nonzeros, by forward substitution row by row; the
    +-1 diagonal makes the division exact and sidesteps noncommutativity
    (each product is A[i][k] * B[k][j]).  With s the sum of A[i][k] * B[k][j]
    over k < i, B[i][j] = d_i (e_i[j] - s), stored only when s differs from
    e_i[j], so a column j starts at row j.  Each stored entry is checked:
    s + A[i][i] * B[i][j] must be e_i[j] exactly, and an entry not stored
    holds with B[i][j] = 0.  The first failure in row order is reported,
    within its row the smallest j."""
    inverse = []
    for i, d in enumerate(diagonal):
        row = rows.get(i, {})
        sums = {i: zero} if i in columns else {}
        for k, a in row.items():
            if k < i:
                for j, b in inverse[k].items():
                    p = a * b
                    sums[j] = sums[j] + p if j in sums else p
        out = {}
        for j in sorted(sums):
            s, target = sums[j], one if i == j else zero
            if s != target:
                out[j] = b = target - s if d > 0 else s - target
                if s + row.get(i, zero) * b != target:
                    raise InternalInvariantError(
                        f"{what} times its inverse is not the identity at ({i}, {j})")
        inverse.append(out)
    return inverse


def _pairing(alg: LieSuperalgebra, order: tuple[int, ...], read, one) -> dict:
    """The pairing matrix A[i][k] = <x^{I_i}, x^{complement(I_k)}>, or its
    image under a ring map phi on the even subalgebra, as rows of nonzeros
    indexed by position in ``order``, in the graded int scale.
    ``read(u, deg)`` maps a chain product u = sum_J u_J x^J of degree
    ``deg`` to the nonzero phi(u_J) by mask J, and ``one`` is the unit of
    phi's ring, whose elements are true exactly when nonzero.

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
    # the transpose of each R_t: J -> {I: phi(R_t[I][J])}
    right = []
    for x_t in letters:
        products, rt = [x_t], {}
        for mask in range(1, top + 1):
            low = mask & -mask
            products.append(multiply(letters[low.bit_length() - 1], products[mask ^ low]))
        for mask, u in enumerate(products):
            for j, r in read(u, mask.bit_count() + 1).items():
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
    like A itself, in ints; entry i of the solved column carries S^|I_i|."""
    what = "counit of the pairing matrix"
    scalar = _pairing(alg, order, _counit_ints, 1)
    diagonal = _check_unitriangular(scalar, len(order), 0, 1, what)
    return [Fraction(row.get(0, 0), alg._int_scale ** mask.bit_count())
            for row, mask in zip(_solve(scalar, diagonal, (0,), 0, 1, what), order)]


def frobenius_matrix(alg: LieSuperalgebra) -> FrobeniusMatrix:
    """The pairing matrix A[i][k] = <x^{I_i}, x^{complement(I_k)}> over the
    even subalgebra and every column of its inverse, checked."""
    order = odd_subset_order(alg.n_odd)
    n = len(order)
    zero, one, what = _Even(alg, {}), _Even(alg, {(): 1}), "pairing matrix"
    rows = _pairing(alg, order, _even_ints, one)
    diagonal = _check_unitriangular(rows, n, zero, one, what)
    solved = _solve(rows, diagonal, range(n), zero, one, what)
    sizes, empty = [mask.bit_count() for mask in order], UEElement.zero(alg)
    dense = [[[empty] * n for _ in range(n)] for _ in range(2)]
    for out, sparse in zip(dense, (rows.items(), enumerate(solved))):
        for i, row in sparse:
            for k, x in row.items():
                out[i][k] = _rational(alg, x.terms, sizes[i] - sizes[k])
    entries, inverse = (tuple(map(tuple, out)) for out in dense)
    return FrobeniusMatrix(alg, order, entries, inverse, diagonal, tuple(solved))


def _prefix_pairings(alg: LieSuperalgebra, y: dict, memo: dict) -> list[dict]:
    """The top parts of x^I y for every odd subset I, y given as
    {PBW word: int} in the rewriting kernel's integers: ``tops[mask]``
    holds the PBW words of x^I y with all m odd letters, each with its
    nonzero int value.  If a word of degree L of y carries K * S^(e - L)
    times its coefficient, one of x^I y carries K * S^(e + |I| - L); its
    even prefix is a word of pi(x^I y).

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

    The chain runs in ints (``_rewrite``), which keep their scale.
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


def dual_pair(alg: LieSuperalgebra, fm: FrobeniusMatrix | None = None) -> list[UEElement]:
    """Elements y^I with <x^I, y^J> = delta_IJ, in the subset order.

    y^I = sum_J x^{complement(J)} * alpha(inverse[J][I]), from the sparse
    int rows of the inverse with no rescaling: every word of degree L of
    y^I carries S^(m - |I| - L).  Duality is verified exhaustively before
    returning, every cell compared exactly in the kernel's integers
    (``_prefix_pairings``, whose memo of prefix heads lives for this call
    only).  pi(x^I y^J) = delta_IJ says that x^I y^J has no word with all
    m odd letters unless I = J, and then exactly the bare x^top, with value
    1.  So an off-diagonal cell fails when its top part is nonempty, and
    the diagonal cell when its top part is not {x^top: 1}.  The first
    failure in row order is reported.  The check prunes the products it
    forms, which needs a graded bracket table: raises ``ValueError`` on
    any other.

    ``alpha`` returns an inverse entry as it is when none of its letters
    has a nonzero trace, so under the trace condition no entry is twisted.
    """
    if not alg._parity_graded:
        raise ValueError(f"the bracket table of {alg.name} does not respect parity")
    if fm is None:
        fm = frobenius_matrix(alg)
    n, m, top = len(fm.order), alg.n_odd, (1 << alg.n_odd) - 1
    comp = [_odd_word(alg, top ^ mask) for mask in fm.order]
    heads: list[list] = [[] for _ in range(n)]
    for k, row in enumerate(fm._inverse_rows):
        for j, b in row.items():
            heads[j] += [(comp[k] + w, v) for w, v in alpha(alg, b.terms).items()]
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
    return [_rational(alg, y, m - mask.bit_count()) for y, mask in zip(ys, fm.order)]


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
    only its counit is computed, from the scalar matrix counit(A), with no
    arithmetic in the even subalgebra.

    Requires the trace condition; otherwise the invariant space of the
    quotient module is zero and ``NoInvariantError`` names the violating
    even basis element and its trace.
    """
    _check_trace_condition(alg)
    if fm is None:
        order = odd_subset_order(alg.n_odd)
        column = _counit_column_zero(alg, order)
    else:
        order = fm.order
        column = [counit(row[0]) for row in fm.inverse]
    top = (1 << alg.n_odd) - 1
    # the complements are distinct words, so each term is stored once
    z = UEElement._trusted(alg, {_odd_word(alg, top ^ mask): c
                                 for mask, c in zip(order, column) if c})

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
