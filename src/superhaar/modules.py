"""Graded representations, the invariant projector, and integral matrices.

A module is given by one rational matrix per basis element of the algebra
(left action on column vectors) plus a parity for each module basis vector.
Integration evaluates the canonical invariant on matrix elements: the
integral matrix is the action of the invariant composed with the projector
onto the even-part invariants, and left invariance of the result is
verified exactly on every call, which pins the sign conventions
operationally.

The brute-force invariant search at the bottom is deliberately independent
of the Frobenius machinery: it only uses the quotient action provided by
the enveloping-algebra layer, so agreement between the two is a genuine
cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from . import linalg
from .algebra import (EvenPartReport, InputError, LieSuperalgebra,
                      ValidationReport, _relation_failures, even_part_structure,
                      nonzero_rows)
from .enveloping import UEElement, act_on_quotient
from .frobenius import InternalInvariantError, InvariantZ, odd_subset_order
from .linalg import ONE


class NotSemisimpleError(Exception):
    """The module is not semisimple over the even part."""


class GradedModule:
    """A finite-dimensional graded representation: a parity per basis
    vector and one action matrix per algebra basis element (absent means
    zero).

    Each action comes densely or as rows of nonzeros (see
    :func:`~superhaar.algebra.nonzero_rows`, which checks it) and is stored
    once as a ``linalg.Matrix``, rows and columns in increasing order; an
    action without nonzeros is not stored at all.  ``rho(i)`` returns the
    stored rows, which callers must not mutate.
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
        rho = {}
        for i, mat in action.items():
            if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < alg.dim:
                raise InputError(f"action index {i!r} out of range")
            rows = nonzero_rows(mat, self.dim)
            if rows:
                rho[i] = rows
        self._rho = rho

    def rho(self, i: int) -> linalg.Matrix:
        """Action matrix of basis element i."""
        return self._rho.get(i, {})

    def __repr__(self):
        return f"GradedModule({self.name or '?'}, dim={self.dim}, over {self.alg.name})"


def validate_module(alg: LieSuperalgebra, module: GradedModule) -> ValidationReport:
    """Check parity compatibility of each action matrix and the bracket
    relation rho([x,y]) = rho(x)rho(y) - (-1)^([x][y]) rho(y)rho(x) on all
    basis pairs.

    The relations are checked in exact integers by
    :func:`~superhaar.algebra._relation_failures`, the check that also
    screens super Jacobi: with D the lcm of the denominators of all action
    entries and S the algebra's integer scale, it runs on the columns of
    P(i) = D rho(i) with lhs = S and rhs = D.  Failing pairs are reported
    in lexicographic order."""
    report = ValidationReport()
    if module.alg != alg:
        raise InputError("module was built over a different algebra")
    rho, parities = module.rho, module.parities
    for i in range(alg.dim):
        pi = alg.parity(i)
        for r, row in rho(i).items():
            for c, x in row.items():
                if (parities[r] - parities[c] - pi) % 2:
                    report.add("module-parity", (i, r, c),
                               f"rho({alg.basis_name(i)})[{r}][{c}] = {x} "
                               f"violates the parity pattern")
    d = math.lcm(*(x.denominator for i in range(alg.dim)
                   for row in rho(i).values() for x in row.values()))
    cols = [{c: [(r, x.numerator * (d // x.denominator)) for r, x in col.items()]
             for c, col in linalg.transpose(rho(i)).items()} for i in range(alg.dim)]
    failing = _relation_failures(alg, cols, alg._int_scale, d)
    for a, b in dict.fromkeys((a, b) for a, b, _ in failing):
        report.add("module-bracket", (a, b),
                   f"rho([{alg.basis_name(a)}, {alg.basis_name(b)}]) does "
                   f"not match the supercommutator of the actions")
    return report


def module_action(module: GradedModule, u: UEElement) -> linalg.Matrix:
    """The action matrix of an enveloping-algebra element (rho extended
    multiplicatively along each PBW word)."""
    if u.alg != module.alg:
        raise ValueError("element and module live over different algebras")
    terms = []
    for word, c in u.terms.items():
        acc = linalg.identity(module.dim)
        for g in word:
            acc = linalg.mat_mul(acc, module.rho(g))
        terms.append((c, acc))
    return linalg.mat_comb(terms)


@dataclass
class SemisimplicityReport:
    """Certificate that a module is semisimple over the even part:
    squarefree minimal polynomials for the central generators, and an exact
    direct-sum decomposition into even-invariants plus the even image."""
    central_squarefree: list[bool]
    invariants_basis: list[linalg.Vector]
    image_basis: list[linalg.Vector]
    decomposition_direct: bool

    @property
    def ok(self) -> bool:
        return all(self.central_squarefree) and self.decomposition_direct

    @property
    def invariants_dim(self) -> int:
        return len(self.invariants_basis)


def check_semisimple_over_even(alg: LieSuperalgebra, module: GradedModule,
                               even_report: EvenPartReport | None = None) -> SemisimplicityReport:
    """Semisimplicity of the module over the even part, verified exactly.

    Central elements must act with squarefree minimal polynomial (they
    commute, so this certifies joint diagonalizability over the closure);
    the module must split exactly into joint-kernel plus image of the even
    action.  Semisimplicity of the derived part's action is a theorem in
    characteristic zero and is not re-derived here.
    """
    if even_report is None:
        even_report = even_part_structure(alg)
    d = module.dim
    evens = [module.rho(i) for i in range(alg.n_even)]

    central_ok = []
    for center_vec in even_report.center:
        mat = linalg.mat_comb((ci, evens[i]) for i, ci in center_vec.items())
        central_ok.append(linalg.is_squarefree(linalg.minimal_polynomial(mat, d)))

    # the joint kernel of the even actions is the kernel of their stacked
    # rows; the even image is spanned by their columns
    invariants = linalg.nullspace((row for mat in evens for row in mat.values()), d)
    image = linalg.row_space_basis(col for mat in evens
                                   for col in linalg.transpose(mat).values())
    direct = (len(invariants) + len(image) == d
              and linalg.rank(invariants + image) == d)
    return SemisimplicityReport(central_ok, invariants, image, direct)


def invariant_projector(alg: LieSuperalgebra, module: GradedModule,
                        report: SemisimplicityReport | None = None) -> linalg.Matrix:
    """Projector onto the even-part invariants along the even image.

    Its (k, j) entry is the value of the normalized even integral on the
    matrix element t_kj: the trivial isotypic component survives, the rest
    is annihilated.  With C the matrix whose columns are the invariants
    and then the image basis, it is C cut to the invariant columns, times
    the inverse of C.
    """
    if report is None:
        report = check_semisimple_over_even(alg, module)
    if not report.ok:
        raise NotSemisimpleError("module is not semisimple over the even part")
    basis = report.invariants_basis + report.image_basis
    cols = linalg.transpose(dict(enumerate(basis)))
    invariant_cols = linalg.transpose(dict(enumerate(report.invariants_basis)))
    proj = linalg.mat_mul(invariant_cols, linalg.invert(cols, module.dim))

    if linalg.mat_mul(proj, proj) != proj:
        raise InternalInvariantError("projector is not idempotent")
    for i in range(alg.n_even):
        m = module.rho(i)
        if linalg.mat_mul(m, proj):
            raise InternalInvariantError("even action does not kill the projector image")
        if linalg.mat_mul(proj, m):
            raise InternalInvariantError("projector does not kill the even image")
    return proj


@dataclass(frozen=True)
class IntegralMatrix:
    """The integral evaluated on matrix elements: entry (i, j) is the value
    on t_ij.  Columns are invariant vectors of the module (scaled), and the
    support respects parity(i) + parity(j) = parity of the invariant."""
    entries: linalg.Matrix
    parity: int


def integral_matrix(alg: LieSuperalgebra, module: GradedModule,
                    invariant: InvariantZ,
                    projector: linalg.Matrix | None = None) -> IntegralMatrix:
    """Action of the invariant composed with the even-invariant projector.

    Left invariance (rho(w) M = counit(w) M for every basis element w) is
    verified before returning; a failure indicates a sign-convention fault
    in the library, not bad input.
    """
    if projector is None:
        projector = invariant_projector(alg, module)
    m = linalg.mat_mul(module_action(module, invariant.z), projector)
    for i in range(alg.dim):
        if linalg.mat_mul(module.rho(i), m):
            raise InternalInvariantError(
                f"integral matrix is not left invariant under {alg.basis_name(i)}")
    return IntegralMatrix(m, alg.n_odd % 2)


def check_right_integral(alg: LieSuperalgebra, module: GradedModule,
                         integral: IntegralMatrix) -> bool:
    """Row-side invariance: M rho(w) = counit(w) M for every basis element."""
    return not any(linalg.mat_mul(integral.entries, module.rho(i))
                   for i in range(alg.dim))


def _quotient_action(alg: LieSuperalgebra, i: int, masks) -> linalg.Matrix:
    """Matrix of basis element i on the quotient classes ``masks``, rows
    and columns numbered by position in ``masks``."""
    pos = {mask: t for t, mask in enumerate(masks)}
    columns = {}
    for col, mask in enumerate(masks):
        image = act_on_quotient(alg, i, {mask: ONE})
        columns[col] = {pos[m]: c for m, c in image.items()}
    return linalg.transpose(columns)


def brute_force_quotient_invariants(alg: LieSuperalgebra) -> list[linalg.Vector]:
    """Invariant classes of the 2^m-dimensional quotient module, found by
    exact linear algebra over the quotient action of every basis element.

    Independent oracle: uses only the enveloping-algebra quotient action,
    none of the Frobenius construction.
    """
    n = 1 << alg.n_odd
    rows = [row for i in range(alg.dim)
            for row in _quotient_action(alg, i, range(n)).values()]
    return linalg.nullspace(rows, n)


def quotient_module(alg: LieSuperalgebra, name: str = "") -> GradedModule:
    """The quotient by the left ideal generated by the even part, packaged
    as a graded module with basis the odd-subset classes in cardinality
    order.  For a purely odd abelian algebra this is the exterior algebra
    on the odd generators with generators acting by left multiplication."""
    order = odd_subset_order(alg.n_odd)
    parities = [mask.bit_count() & 1 for mask in order]
    action = {i: _quotient_action(alg, i, order) for i in range(alg.dim)}
    return GradedModule(alg, parities, action, name or f"{alg.name}-quotient")
