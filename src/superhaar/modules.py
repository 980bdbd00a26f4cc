"""Graded representations, the invariant projector, and integral matrices.

A module is given by one rational matrix per basis element of the algebra
(left action on column vectors) plus a parity for each module basis vector,
and carries its algebra: every function below reads the algebra from the
module.  The actions are kept once, as one integer copy over a common
denominator, which the module layer computes with; ``GradedModule.rho``
is a Fraction view built from it on each call.  Integration evaluates the
canonical invariant on matrix elements: the integral matrix is the action
of the invariant composed with the projector onto the even-part
invariants K along the image of the even actions, P = K (C K)^-1 C with C
the coinvariants, and left invariance of the result is verified exactly
on every call, which pins the sign conventions operationally.  The split
is decided with ``linalg``'s public functions only, on the coordinates
that the diagonal even actions kill.

The brute-force invariant search at the bottom is deliberately independent
of the Frobenius machinery: it only uses the quotient action provided by
the enveloping-algebra layer, so agreement between the two is a genuine
cross-check.  It eliminates only the odd generators' rows, whose common
kernel is at most one-dimensional, reading them as the layer's memoised
ints, and tests the one candidate against each even generator through the
public ``act_on_quotient`` (the argument is in its docstring).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algebra import (EvenPartReport, InputError, LieSuperalgebra,
                      ValidationReport, _relation_failures, even_part_structure,
                      nonzero_rows)
from .enveloping import UEElement, _int_action_rows, act_on_quotient
from .frobenius import InternalInvariantError, InvariantZ, odd_subset_order


class NotSemisimpleError(Exception):
    """The module is not semisimple over the even part."""


class GradedModule:
    """A finite-dimensional graded representation: a parity per basis
    vector and one action matrix per algebra basis element (absent means
    zero).

    Each action comes densely or as rows of nonzeros (see
    :func:`~superhaar.algebra.nonzero_rows`, which checks it) and is stored
    once, as an integer copy: ``_int_rho[i]`` is D rho(i) in ints for every
    basis element i, rows and columns in increasing order, D =
    ``_int_scale`` the lcm of the denominators of all action entries
    (``linalg.scaled``).  The module layer computes with that copy;
    ``rho(i)`` builds a fresh Fraction matrix from it, which callers may
    mutate.
    """

    def __init__(self, alg: LieSuperalgebra, parities, action: Mapping[int, object],
                 name: str = ""):
        self.alg = alg
        self.name = name
        if not isinstance(parities, (list, tuple)):
            raise InputError(f"parities must be a list, got {type(parities).__name__}")
        if not isinstance(action, Mapping):
            raise InputError(f"action must be a mapping, got {type(action).__name__}")
        self.parities = tuple(parities)
        for p in self.parities:
            if isinstance(p, bool) or not isinstance(p, int) or p not in (0, 1):
                raise InputError(f"parity must be the int 0 (even) or 1 (odd), got {p!r}")
        self.dim = len(self.parities)
        rho = [{}] * alg.dim
        for i, mat in action.items():
            if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < alg.dim:
                raise InputError(f"action index {i!r} out of range")
            rho[i] = nonzero_rows(mat, self.dim)
        self._int_scale, self._int_rho = linalg.scaled(rho)

    @classmethod
    def _checked(cls, alg: LieSuperalgebra, parities: tuple[int, ...], rho: list,
                 name: str = "") -> GradedModule:
        """The module of ``parities`` (each 0 or 1) and actions ``rho[i]``
        for every basis element i as ``nonzero_rows`` returns them, unchecked."""
        self = cls.__new__(cls)
        self.alg, self.name, self.parities, self.dim = alg, name, parities, len(parities)
        self._int_scale, self._int_rho = linalg.scaled(rho)
        return self

    def rho(self, i: int) -> linalg.Matrix:
        """Action matrix of basis element i, in Fractions."""
        return _fractions(self._int_rho[i], self._int_scale)

    def __repr__(self):
        return f"GradedModule({self.name or '?'}, dim={self.dim}, over {self.alg.name})"


def validate_module(module: GradedModule) -> ValidationReport:
    """Check parity compatibility of each action matrix and the bracket
    relation rho([x,y]) = rho(x)rho(y) - (-1)^([x][y]) rho(y)rho(x) on all
    basis pairs.

    The relations are checked in exact integers by
    :func:`~superhaar.algebra._relation_failures`, the check that also
    screens super Jacobi: with S the algebra's integer scale, it runs on the
    columns of the module's integer copy P(i) = D rho(i) with lhs = S and
    rhs = D.  Each unordered pair a <= b is computed once; where the table
    is super antisymmetric at the pair, [b,a] = -(-1)^([a][b]) [a,b], the
    relation at (b, a) is -(-1)^([a][b]) times the one at (a, b) and fails
    on the same columns, and anywhere else (b, a) is computed on its own,
    so a table that is not antisymmetric is checked correctly too.  The
    sorted triples of super Jacobi do not apply: they need the adjoint
    action on a table that passed the parity and antisymmetry checks.  On
    a weight basis, where the Cartan elements act diagonally, a pair of a
    Cartan element h with x, [h, x] a multiple of x, is read off the
    nonzeros of rho(x) once; a pair that fails that reading is computed
    in full.  Failing pairs are reported in lexicographic order."""
    alg, ints, d, parities = module.alg, module._int_rho, module._int_scale, module.parities
    report = ValidationReport()
    for i in range(alg.dim):
        pi = alg.parity(i)
        for r, row in ints[i].items():
            for c, x in row.items():
                if (parities[r] - parities[c] - pi) % 2:
                    report.add("module-parity", (i, r, c),
                               f"rho({alg.basis_name(i)})[{r}][{c}] = {Fraction(x, d)} "
                               f"violates the parity pattern")
    cols = [{c: list(col.items()) for c, col in linalg.transpose(mat).items()}
            for mat in ints]
    failing = _relation_failures(alg, cols, alg._int_scale, d)
    for a, b in dict.fromkeys((a, b) for a, b, _ in failing):
        report.add("module-bracket", (a, b),
                   f"rho([{alg.basis_name(a)}, {alg.basis_name(b)}]) does "
                   f"not match the supercommutator of the actions")
    return report


def _diagonal(mat: linalg.Matrix) -> bool:
    """Whether the matrix has only diagonal entries (the zero matrix has)."""
    return all(len(row) == 1 and r in row for r, row in mat.items())


def _zero_product(a: linalg.Matrix, b: linalg.Matrix) -> bool:
    """Whether a b is the zero matrix.

    Where a has only diagonal entries, row r of a b is a_rr times row r of
    b, so a b is zero exactly when no nonzero row of b is a nonzero row of
    a; where b has, the same holds of the columns of a and the rows of b.
    Only when neither factor is diagonal is the product formed."""
    if _diagonal(a):
        return a.keys().isdisjoint(b)
    if _diagonal(b):
        return all(b.keys().isdisjoint(row) for row in a.values())
    return not linalg.mat_mul(a, b)


def _fractions(mat: linalg.Matrix, d: int) -> linalg.Matrix:
    """The int matrix ``mat`` divided by d, in Fractions."""
    return {r: {c: Fraction(x, d) for c, x in row.items()} for r, row in mat.items()}


def module_action(module: GradedModule, u: UEElement) -> linalg.Matrix:
    """The action matrix of an enveloping-algebra element (rho extended
    multiplicatively along each PBW word)."""
    q, mat = _act_on(module, u, {i: {i: 1} for i in range(module.dim)})
    return _fractions(mat, q)


def _act_on(module: GradedModule, u: UEElement, mat: linalg.Matrix) -> tuple[int, linalg.Matrix]:
    """q rho(u) mat in ints and the int q, for an int matrix ``mat``,
    without forming rho(u).

    A word g_1 ... g_k acts as D^-k (D rho(g_1)) (... ((D rho(g_k)) mat)),
    applied right to left with the integer copy; the words are summed in
    ints over their common denominator q.  ``ValueError`` when u and the
    module live over different algebras."""
    if u.alg != module.alg:
        raise ValueError("element and module live over different algebras")
    ints, d, coeffs = module._int_rho, module._int_scale, u.terms
    q = math.lcm(*(c.denominator * d ** len(word) for word, c in coeffs.items()))
    terms = []
    for word, c in coeffs.items():
        acc = mat
        for g in reversed(word):
            acc = linalg.mat_mul(ints[g], acc)
        terms.append((c.numerator * (q // (c.denominator * d ** len(word))), acc))
    return q, linalg.mat_comb(terms)


@dataclass
class SemisimplicityReport:
    """Certificate that a module is semisimple over the even part:
    squarefree minimal polynomials for the central generators, and an exact
    direct-sum decomposition into even-invariants plus the even image.  The
    invariants (column vectors v with rho(X) v = 0 for every even X) and
    the coinvariants (row vectors phi with phi rho(X) = 0, the annihilator
    of the image) have the canonical kernel bases of ``linalg.nullspace``."""
    central_squarefree: list[bool]
    invariants_basis: list[linalg.Vector]
    coinvariants_basis: list[linalg.Vector]
    decomposition_direct: bool

    @property
    def ok(self) -> bool:
        return all(self.central_squarefree) and self.decomposition_direct

    @property
    def invariants_dim(self) -> int:
        return len(self.invariants_basis)


def check_semisimple_over_even(module: GradedModule,
                               even_report: EvenPartReport | None = None) -> SemisimplicityReport:
    """Semisimplicity of the module over the even part, verified exactly.

    Central elements must act with squarefree minimal polynomial (they
    commute, so this certifies joint diagonalizability over the closure):
    ``linalg.is_semisimple`` decides it from the local minimal polynomials
    of the unit rows, whose lcm is the minimal polynomial, without forming
    a power of the action.  The module must split exactly into joint-kernel
    plus image of the even action.  Semisimplicity of the derived part's
    action is a theorem in characteristic zero and is not re-derived here.

    Both kernels are eliminated on Z, the coordinates where every even
    action with only diagonal entries is zero (on a weight basis, the
    weight-zero ones), from the other even actions restricted to Z: the
    rows and columns of a diagonal action are unit pivots that the full
    elimination would cancel from the rest, so the bases are the canonical
    ones of the full elimination.  Where no action is diagonal, Z is every
    coordinate.
    """
    alg = module.alg
    if even_report is None:
        even_report = even_part_structure(alg)
    d = module.dim

    # a central element c acts as a nonzero multiple of the int matrix
    # sum_i (e c_i) D rho(i), e the lcm of the denominators of the c_i, and
    # a nonzero multiple has a squarefree minimal polynomial exactly when
    # the element's action has
    central_ok = []
    for center_vec in even_report.center:
        e = math.lcm(*(ci.denominator for ci in center_vec.values()))
        mat = linalg.mat_comb((ci.numerator * (e // ci.denominator), module._int_rho[i])
                              for i, ci in center_vec.items())
        central_ok.append(linalg.is_semisimple(mat, d))

    # the invariants K and the coinvariants C, which span the annihilator of
    # the image: the split is direct when |C| = |K| (dim K + dim image = d)
    # and the pairing C K has rank |K| (no invariant lies in the image).
    # Both are taken on Z: a diagonal action (the zero matrix included) has
    # rows and columns x e_r, x != 0, for r outside Z only
    moved, others = set(), []
    for mat in module._int_rho[:alg.n_even]:
        if _diagonal(mat):
            moved.update(mat)
        else:
            others.append(mat)
    z = [r for r in range(d) if r not in moved]
    on_z = {r: t for t, r in enumerate(z)}

    def kernel(vectors):
        restricted = ({on_z[c]: x for c, x in v.items() if c in on_z} for v in vectors)
        return [{z[t]: x for t, x in v.items()} for v in linalg.nullspace(restricted, len(z))]

    invariants = kernel(row for mat in others for row in mat.values())
    coinvariants = kernel(col for mat in others for col in linalg.transpose(mat).values())
    pairing = linalg.mat_mul(dict(enumerate(coinvariants)),
                             linalg.transpose(dict(enumerate(invariants))))
    direct = (len(coinvariants) == len(invariants)
              and linalg.rank(pairing.values()) == len(invariants))
    return SemisimplicityReport(central_ok, invariants, coinvariants, direct)


def invariant_projector(module: GradedModule,
                        report: SemisimplicityReport | None = None) -> linalg.Matrix:
    """Projector onto the even-part invariants along the even image.

    Its (k, j) entry is the value of the normalized even integral on the
    matrix element t_kj: the trivial isotypic component survives, the rest
    is annihilated.  With K the matrix whose columns are the invariants and
    C the one whose rows are the coinvariants, it is P = K (C K)^-1 C: it
    fixes K, and C, so P, kills the image.  ``ValueError`` when the
    report's coinvariants do not pair with its invariants (``linalg.invert``
    refuses a singular pairing).  The identities are checked in ints;
    rho(X) P = 0 and P rho(X) = 0 are read off the supports where rho(X)
    has only diagonal entries (``_zero_product``).
    """
    if report is None:
        report = check_semisimple_over_even(module)
    if not report.ok:
        raise NotSemisimpleError("module is not semisimple over the even part")
    k = report.invariants_dim
    if len(report.coinvariants_basis) != k:
        raise ValueError("the coinvariants do not pair with the invariants")
    # scaling K and C keeps P, so with K and C in ints,
    # P = t^-1 K (t (C K)^-1) C, t the common denominator of (C K)^-1;
    # checked in ints
    _, (invariant_cols, coinvariant_rows) = linalg.scaled([
        linalg.transpose(dict(enumerate(report.invariants_basis))),
        dict(enumerate(report.coinvariants_basis))])
    t, (inverse,) = linalg.scaled([linalg.invert(
        linalg.mat_mul(coinvariant_rows, invariant_cols), k)])
    proj = linalg.mat_mul(linalg.mat_mul(invariant_cols, inverse), coinvariant_rows)

    if linalg.mat_mul(proj, proj) != linalg.mat_comb([(t, proj)]):
        raise InternalInvariantError("projector is not idempotent")
    if linalg.mat_mul(proj, invariant_cols) != linalg.mat_comb([(t, invariant_cols)]):
        raise InternalInvariantError("projector does not fix the invariants")
    for m in module._int_rho[:module.alg.n_even]:
        if not _zero_product(m, proj):
            raise InternalInvariantError("even action does not kill the projector image")
        if not _zero_product(proj, m):
            raise InternalInvariantError("projector does not kill the even image")
    return _fractions(proj, t)


@dataclass(frozen=True)
class IntegralMatrix:
    """The integral evaluated on matrix elements: entry (i, j) is the value
    on t_ij.  Columns are invariant vectors of the module (scaled), and the
    support respects parity(i) + parity(j) = parity of the invariant."""
    entries: linalg.Matrix
    parity: int


def integral_matrix(module: GradedModule, invariant: InvariantZ,
                    projector: linalg.Matrix | None = None) -> IntegralMatrix:
    """Action of the invariant composed with the even-invariant projector.

    M = rho(z) P is formed without rho(z): each PBW word of z is applied,
    right to left, to the int rows of P, whose few nonzero columns are the
    coinvariants' support (``_act_on``).  Left invariance (rho(w) M =
    counit(w) M for every basis element w, that is rho(w) M = 0) is
    verified before returning, read off the supports where rho(w) has only
    diagonal entries (``_zero_product``); a failure indicates a
    sign-convention fault in the library, not bad input.  An invariant
    over another algebra raises ``ValueError``.
    """
    alg = module.alg
    if projector is None:
        projector = invariant_projector(module)
    # M = (q t)^-1 (q rho(z)) (t P), t the common denominator of P, formed
    # right to left on the rows of t P and checked in ints
    t, (p,) = linalg.scaled([projector])
    q, m = _act_on(module, invariant.z, p)
    for i in range(alg.dim):
        if not _zero_product(module._int_rho[i], m):
            raise InternalInvariantError(
                f"integral matrix is not left invariant under {alg.basis_name(i)}")
    return IntegralMatrix(_fractions(m, q * t), alg.n_odd % 2)


def check_right_integral(module: GradedModule, integral: IntegralMatrix) -> bool:
    """Row-side invariance: M rho(w) = counit(w) M, that is M rho(w) = 0,
    for every basis element w, read off the supports where rho(w) has only
    diagonal entries (``_zero_product``)."""
    _, (m,) = linalg.scaled([integral.entries])
    return all(_zero_product(m, rho) for rho in module._int_rho)


def brute_force_quotient_invariants(alg: LieSuperalgebra) -> list[linalg.Vector]:
    """Invariant classes of the 2^m-dimensional quotient module, in the
    canonical kernel basis of ``linalg.nullspace``, found by exact linear
    algebra over the quotient action.

    Only the m odd basis elements' rows are eliminated.  The part of
    x_t x^I with |I| + 1 odd letters is +-x^(I + t), or 0 when t is in I,
    so the part of highest degree |I| of a class that every odd x_t kills
    is a multiple of x^top, and two such classes with the same multiple
    are equal: the odd kernel is at most one-dimensional
    (``InternalInvariantError`` if not).  Its vector v is an invariant
    when every even basis element kills it too.  Then the rows of all
    basis elements span the functionals that vanish on v, as the odd rows
    already do, so both row sets have the same canonical kernel basis.

    The odd rows are the enveloping layer's ints (``_int_action_rows``):
    each is a rational row times a power of the algebra's integer scale,
    and scaling a row keeps the row space, so the kernel and its canonical
    basis are those of the rational rows.

    Independent oracle: uses only the enveloping-algebra quotient action,
    none of the Frobenius construction.
    """
    n = 1 << alg.n_odd
    rows = [row for t in range(alg.n_even, alg.dim)
            for row in _int_action_rows(alg, t).values()]
    kernel = linalg.nullspace(rows, n)
    if len(kernel) > 1:
        raise InternalInvariantError(
            f"the odd generators of {alg.name} kill {len(kernel)} independent classes")
    if any(act_on_quotient(alg, i, v) for v in kernel for i in range(alg.n_even)):
        return []
    return kernel


def quotient_module(alg: LieSuperalgebra, name: str = "") -> GradedModule:
    """The quotient by the left ideal generated by the even part, packaged
    as a graded module with basis the odd-subset classes in cardinality
    order.  For a purely odd abelian algebra this is the exterior algebra
    on the odd generators with generators acting by left multiplication.
    Its rows are those of ``_int_action_rows``, divided by the power of S
    that its docstring gives."""
    m, scale = alg.n_odd, alg._int_scale
    order = odd_subset_order(m)
    pos = {mask: t for t, mask in enumerate(order)}
    parities = tuple(mask.bit_count() & 1 for mask in order)
    action = [{pos[j]: {pos[mask]: Fraction(row[mask], scale ** (m + 1 - j.bit_count()))
                        for mask in sorted(row, key=pos.get)}
               for j, row in sorted(_int_action_rows(alg, i).items(), key=lambda jr: pos[jr[0]])}
              for i in range(alg.dim)]
    return GradedModule._checked(alg, parities, action, name or f"{alg.name}-quotient")
