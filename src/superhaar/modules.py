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

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import linalg
from .algebra import (EvenPartReport, InputError, LieSuperalgebra,
                      ValidationReport, as_scalar, even_part_structure)
from .enveloping import UEElement, act_on_quotient
from .frobenius import InternalInvariantError, InvariantZ, odd_subset_order, pi_parity
from .linalg import ONE, ZERO

Matrix = tuple[tuple[Fraction, ...], ...]
_Rows = dict[int, dict[int, Fraction]]   # row -> {column: nonzero entry}


class NotSemisimpleError(Exception):
    """The module is not semisimple over the even part."""


def _nonzero_rows(rows, dim: int) -> _Rows:
    """Validate a d x d matrix and keep its nonzero entries, rows and
    columns in increasing order."""
    if len(rows) != dim:
        raise InputError(f"matrix has {len(rows)} rows, expected {dim}")
    out = {}
    for r, row in enumerate(rows):
        if len(row) != dim:
            raise InputError(f"matrix row has {len(row)} entries, expected {dim}")
        nz = {}
        for c, x in enumerate(row):
            x = as_scalar(x)
            if x:
                nz[c] = x
        if nz:
            out[r] = nz
    return out


def _sparse(mat) -> _Rows:
    """Rows of nonzeros of a dense matrix."""
    return {r: nz for r, row in enumerate(mat)
            if (nz := {c: x for c, x in enumerate(row) if x})}


def _mul(a: _Rows, b: _Rows) -> _Rows:
    """Product of two matrices given as rows of nonzeros."""
    out = {}
    for r, arow in a.items():
        acc = {}
        for t, x in arow.items():
            for c, y in b.get(t, {}).items():
                acc[c] = acc.get(c, ZERO) + x * y
        acc = {c: x for c, x in acc.items() if x}
        if acc:
            out[r] = acc
    return out


class GradedModule:
    """A finite-dimensional graded representation: a parity per basis
    vector and one action matrix per algebra basis element (absent means
    zero).

    Each action is stored once, as rows of nonzeros ``{row: {column:
    Fraction}}`` with rows and columns in increasing order; zero entries are
    validated on input but not stored, and an action without nonzeros is
    not stored at all.  ``rho(i)`` builds the dense view on demand.
    """

    def __init__(self, alg: LieSuperalgebra, parities, action: Mapping[int, object],
                 name: str = ""):
        self.alg = alg
        self.name = name
        self.parities = tuple(int(p) for p in parities)
        if any(p not in (0, 1) for p in self.parities):
            raise InputError("parities must be 0 (even) or 1 (odd)")
        self.dim = len(self.parities)
        rho = {}
        for i, mat in action.items():
            if not 0 <= i < alg.dim:
                raise InputError(f"action index {i} out of range")
            rows = _nonzero_rows(mat, self.dim)
            if rows:
                rho[i] = rows
        self._rho = rho

    def rho(self, i: int) -> Matrix:
        """Dense action matrix of basis element i."""
        d = self.dim
        rows = self._rho.get(i, {})
        zero_row = (ZERO,) * d
        out = []
        for r in range(d):
            if r in rows:
                row = [ZERO] * d
                for c, x in rows[r].items():
                    row[c] = x
                out.append(tuple(row))
            else:
                out.append(zero_row)
        return tuple(out)

    def __repr__(self):
        return f"GradedModule({self.name or '?'}, dim={self.dim}, over {self.alg.name})"


def _product(a: _Rows, b: _Rows) -> dict[tuple[int, int], Fraction]:
    """a b keyed by (row, column); a key may hold a zero sum."""
    out: dict[tuple[int, int], Fraction] = {}
    for r, arow in a.items():
        for t, x in arow.items():
            for c, y in b.get(t, {}).items():
                key = (r, c)
                out[key] = out.get(key, ZERO) + x * y
    return out


def validate_module(alg: LieSuperalgebra, module: GradedModule) -> ValidationReport:
    """Check parity compatibility of each action matrix and the bracket
    relation rho([x,y]) = rho(x)rho(y) - (-1)^([x][y]) rho(y)rho(x) on all
    basis pairs.

    The pairs (i, j) and (j, i) share the products rho(i)rho(j) and
    rho(j)rho(i), so both are checked from one pair of products; failing
    pairs are reported in lexicographic order."""
    report = ValidationReport()
    if module.alg != alg:
        raise InputError("module was built over a different algebra")
    rho, parities = module._rho, module.parities
    for i in range(alg.dim):
        pi = alg.parity(i)
        for r, row in rho.get(i, {}).items():
            for c, x in row.items():
                if (parities[r] - parities[c] - pi) % 2:
                    report.add("module-parity", (i, r, c),
                               f"rho({alg.basis_name(i)})[{r}][{c}] = {x} "
                               f"violates the parity pattern")
    failing = []
    for i in range(alg.dim):
        mi = rho.get(i, {})
        for j in range(i, alg.dim):
            mj = rho.get(j, {})
            both_odd = alg.parity(i) and alg.parity(j)
            pij = _product(mi, mj)
            if i == j:
                pairs = [(i, i, pij, pij)]
            else:
                pji = _product(mj, mi)
                pairs = [(i, j, pij, pji), (j, i, pji, pij)]
            for a, b, ab, ba in pairs:
                # rho(a)rho(b) - sign rho(b)rho(a) - rho([a, b]), zero iff
                # the relation holds
                residue = dict(ab)
                for key, x in ba.items():
                    residue[key] = residue.get(key, ZERO) + (x if both_odd else -x)
                for k, c in alg.bracket(a, b):
                    for r, row in rho.get(k, {}).items():
                        for s, x in row.items():
                            residue[(r, s)] = residue.get((r, s), ZERO) - c * x
                if any(residue.values()):
                    failing.append((a, b))
    for a, b in sorted(failing):
        report.add("module-bracket", (a, b),
                   f"rho([{alg.basis_name(a)}, {alg.basis_name(b)}]) does "
                   f"not match the supercommutator of the actions")
    return report


def module_action(module: GradedModule, u: UEElement) -> linalg.Matrix:
    """The action matrix of an enveloping-algebra element (rho extended
    multiplicatively along each PBW word)."""
    if u.alg != module.alg:
        raise ValueError("element and module live over different algebras")
    d = module.dim
    out = linalg.zeros(d, d)
    for mono, c in u.terms.items():
        acc = {r: {r: ONE} for r in range(d)}
        for g in mono.word(module.alg.n_even):
            acc = _mul(acc, module._rho.get(g, {}))
        for r, row in acc.items():
            for s, x in row.items():
                out[r][s] += c * x
    return out


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
    n0 = alg.n_even

    rho = module._rho
    central_ok = []
    for center_vec in even_report.center:
        mat = linalg.zeros(d, d)
        for i, ci in enumerate(center_vec):
            if ci:
                for r, row in rho.get(i, {}).items():
                    for c, x in row.items():
                        mat[r][c] += ci * x
        central_ok.append(linalg.is_squarefree(linalg.minimal_polynomial(mat)))

    # the zero rows of the stacked even actions change neither its kernel
    # nor the span of its nonzero columns, so only nonzero rows are built
    stacked_rows = []
    columns = []
    for i in range(n0):
        by_col: _Rows = {}
        for r, row in rho.get(i, {}).items():
            dense = [ZERO] * d
            for c, x in row.items():
                dense[c] = x
                by_col.setdefault(c, {})[r] = x
            stacked_rows.append(dense)
        for c in sorted(by_col):
            col = [ZERO] * d
            for r, x in by_col[c].items():
                col[r] = x
            columns.append(col)
    invariants = linalg.nullspace(stacked_rows) if stacked_rows else [
        [Fraction(int(r == t)) for t in range(d)] for r in range(d)]
    image = linalg.row_space_basis(columns)
    direct = (len(invariants) + len(image) == d
              and linalg.rank(invariants + image) == d)
    return SemisimplicityReport(central_ok, invariants, image, direct)


def invariant_projector(alg: LieSuperalgebra, module: GradedModule,
                        report: SemisimplicityReport | None = None) -> linalg.Matrix:
    """Projector onto the even-part invariants along the even image.

    Its (k, j) entry is the value of the normalized even integral on the
    matrix element t_kj: the trivial isotypic component survives, the rest
    is annihilated.
    """
    if report is None:
        report = check_semisimple_over_even(alg, module)
    if not report.ok:
        raise NotSemisimpleError("module is not semisimple over the even part")
    d = module.dim
    basis = report.invariants_basis + report.image_basis
    cols = linalg.transpose(basis)  # basis vectors as columns
    k = len(report.invariants_basis)
    diag = linalg.zeros(d, d)
    for t in range(k):
        diag[t][t] = Fraction(1)
    proj = linalg.mat_mul(linalg.mat_mul(cols, diag), linalg.invert(cols))

    if linalg.mat_mul(proj, proj) != proj:
        raise InternalInvariantError("projector is not idempotent")
    sparse_proj = _sparse(proj)
    for i in range(alg.n_even):
        m = module._rho.get(i, {})
        if _mul(m, sparse_proj):
            raise InternalInvariantError("even action does not kill the projector image")
        if _mul(sparse_proj, m):
            raise InternalInvariantError("projector does not kill the even image")
    return proj


@dataclass(frozen=True)
class IntegralMatrix:
    """The integral evaluated on matrix elements: entry (i, j) is the value
    on t_ij.  Columns are invariant vectors of the module (scaled), and the
    support respects parity(i) + parity(j) = parity of the invariant."""
    entries: Matrix
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
    sparse_m = _sparse(m)
    for i in range(alg.dim):
        if _mul(module._rho.get(i, {}), sparse_m):
            raise InternalInvariantError(
                f"integral matrix is not left invariant under {alg.basis_name(i)}")
    return IntegralMatrix(tuple(tuple(row) for row in m), pi_parity(alg))


def check_right_integral(alg: LieSuperalgebra, module: GradedModule,
                         integral: IntegralMatrix) -> bool:
    """Row-side invariance: M rho(w) = counit(w) M for every basis element."""
    m = _sparse(integral.entries)
    return not any(_mul(m, module._rho.get(i, {})) for i in range(alg.dim))


def brute_force_quotient_invariants(alg: LieSuperalgebra) -> list[dict[int, Fraction]]:
    """Invariant classes of the 2^m-dimensional quotient module, found by
    exact linear algebra over the quotient action of every basis element.

    Independent oracle: uses only the enveloping-algebra quotient action,
    none of the Frobenius construction.
    """
    n = 1 << alg.n_odd
    rows = []
    for i in range(alg.dim):
        action = linalg.zeros(n, n)
        for col in range(n):
            for mask, c in act_on_quotient(alg, i, {col: Fraction(1)}).items():
                action[mask][col] = c
        rows.extend(action)
    basis = linalg.nullspace(rows) if rows else [
        [Fraction(int(r == t)) for t in range(n)] for r in range(n)]
    out = []
    for vec in basis:
        out.append({mask: c for mask, c in enumerate(vec) if c})
    return out


def quotient_module(alg: LieSuperalgebra, name: str = "") -> GradedModule:
    """The quotient by the left ideal generated by the even part, packaged
    as a graded module with basis the odd-subset classes in cardinality
    order.  For a purely odd abelian algebra this is the exterior algebra
    on the odd generators with generators acting by left multiplication."""
    order = odd_subset_order(alg.n_odd)
    pos = {mask: t for t, mask in enumerate(order)}
    d = len(order)
    parities = [mask.bit_count() & 1 for mask in order]
    action = {}
    for i in range(alg.dim):
        mat = [[Fraction(0)] * d for _ in range(d)]
        hit = False
        for col, mask in enumerate(order):
            for out_mask, c in act_on_quotient(alg, i, {mask: Fraction(1)}).items():
                mat[pos[out_mask]][col] = c
                hit = True
        if hit:
            action[i] = mat
    return GradedModule(alg, parities, action, name or f"{alg.name}-quotient")
