"""Finite-dimensional Lie superalgebras given by rational structure constants.

Basis convention, fixed package-wide: indices ``0 .. n_even-1`` are even,
``n_even .. n_even+n_odd-1`` are odd.  Brackets are stored for every ordered
pair exactly as supplied; super antisymmetry is *validated*, never derived,
so inconsistent input shows up as a diagnostic instead of being silently
symmetrized.

All scalars are exact rationals (``fractions.Fraction``).  Floats are
rejected on input: downstream the engine relies on exact yes/no answers
(triangularity, ideal membership), so approximate coefficients are never
meaningful.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .linalg import ONE, ZERO

EVEN = 0
ODD = 1


class InputError(ValueError):
    """Structurally malformed input: bad index, bad scalar, bad shape.

    Distinct from a mathematical violation of the superalgebra axioms,
    which is reported through :class:`ValidationReport`.
    """


def as_scalar(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise InputError(f"scalar must be an exact rational, got {value!r}")


def _merged(pairs) -> tuple[tuple[int, Fraction], ...]:
    """The (target, scalar) pairs of a bracket with repeated targets summed,
    zeros dropped, sorted by target."""
    acc: dict[int, Fraction] = {}
    for k, c in pairs:
        acc[k] = acc[k] + c if k in acc else c
    return tuple(sorted((k, c) for k, c in acc.items() if c))


def _is_int(i) -> bool:
    """Whether ``i`` is an int and not a bool."""
    return isinstance(i, int) and not isinstance(i, bool)


def _pairs(vec):
    """``vec`` if it is a list or tuple of 2-item lists or tuples, else
    None."""
    if isinstance(vec, (list, tuple)) and all(
            isinstance(p, (list, tuple)) and len(p) == 2 for p in vec):
        return vec
    return None


def _index(i, dim: int) -> int:
    if not _is_int(i) or not 0 <= i < dim:
        raise InputError(f"matrix index {i!r} out of range for dimension {dim}")
    return i


def check_square(mat, dim: int) -> None:
    """Raise ``InputError`` unless ``mat`` is a list or tuple of dim rows,
    each a list or tuple of dim entries."""
    if not isinstance(mat, (list, tuple)):
        raise InputError("matrix must be a list of rows or a mapping of rows, "
                         f"got {type(mat).__name__}")
    if len(mat) != dim:
        raise InputError(f"matrix has {len(mat)} rows, expected {dim}")
    for row in mat:
        if not isinstance(row, (list, tuple)):
            raise InputError(f"matrix row must be a list, got {type(row).__name__}")
        if len(row) != dim:
            raise InputError(f"matrix row has {len(row)} entries, expected {dim}")


def nonzero_rows(mat, dim: int) -> linalg.Matrix:
    """Check a dim x dim matrix of exact scalars and keep its nonzero
    entries, rows and columns in increasing order.

    The matrix comes either dense, as a list of dim rows of dim entries, or
    as rows ``{row: {column: entry}}``.  A wrong shape, an index out of
    range or an inexact scalar raises ``InputError``; zero entries are
    checked but not kept.
    """
    if isinstance(mat, Mapping):
        for row in mat.values():
            if not isinstance(row, Mapping):
                raise InputError(f"matrix row must be a mapping, got {type(row).__name__}")
        rows = sorted((_index(r, dim), sorted((_index(c, dim), x) for c, x in row.items()))
                      for r, row in mat.items())
    else:
        check_square(mat, dim)
        rows = enumerate(map(enumerate, mat))
    out = {}
    for r, row in rows:
        nz = {}
        for c, x in row:
            x = as_scalar(x)
            if x:
                nz[c] = x
        if nz:
            out[r] = nz
    return out


@dataclass(frozen=True)
class Violation:
    kind: str          # "parity" | "antisymmetry" | "jacobi" | module kinds
    witness: tuple     # basis indices involved
    detail: str

    def __str__(self):
        return f"{self.kind} at {self.witness}: {self.detail}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, witness: tuple, detail: str):
        self.violations.append(Violation(kind, witness, detail))


class LieSuperalgebra:
    """A Lie superalgebra presented by structure constants over Q.

    ``brackets`` maps ordered index pairs to the expansion of the bracket
    over the basis, as {target: scalar} or as a list or tuple of
    (target, scalar) pairs; pairs not present have zero bracket.  Basis
    names are strings.  Anything else raises ``InputError``.

    ``_parity_graded`` records whether every bracket term has parity
    p(i) + p(j), which the odd-count floor of the duality check of
    ``frobenius.dual_pair`` relies on; a table that breaks it is still
    accepted here and reported by :func:`validate_superalgebra`.
    """

    def __init__(self, name: str, even_names: Iterable[str],
                 odd_names: Iterable[str],
                 brackets: Mapping[tuple[int, int], Mapping[int, object] | Sequence[tuple[int, object]]]):
        even_names, odd_names = tuple(even_names), tuple(odd_names)
        names = even_names + odd_names
        for label in names:
            if not isinstance(label, str):
                raise InputError(f"basis name {label!r} is not a string")
        if len(set(names)) != len(names):
            raise InputError("duplicate basis names")
        if not isinstance(brackets, Mapping):
            raise InputError(f"brackets {brackets!r} is not a mapping from index pairs")
        dim = len(names)
        table: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]] = {}
        for key, vec in brackets.items():
            if not (isinstance(key, tuple) and len(key) == 2 and all(map(_is_int, key))):
                raise InputError(f"bracket key {key!r} is not a pair of int indices")
            i, j = key
            if not (0 <= i < dim and 0 <= j < dim):
                raise InputError(f"bracket index ({i}, {j}) out of range")
            items = vec.items() if isinstance(vec, Mapping) else _pairs(vec)
            if items is None:
                raise InputError(f"bracket value {vec!r} at ({i}, {j}) is not a mapping "
                                 "or a sequence of (index, scalar) pairs")
            pairs = []
            for k, c in items:
                if not _is_int(k):
                    raise InputError(f"bracket target index {k!r} is not an int")
                if not 0 <= k < dim:
                    raise InputError(f"bracket target index {k} out of range")
                pairs.append((k, as_scalar(c)))
            if entry := _merged(pairs):
                table[(i, j)] = entry
        self._derive(name, even_names, odd_names, table)

    @classmethod
    def _checked(cls, name: str, even_names: tuple[str, ...], odd_names: tuple[str, ...],
                 table: dict) -> LieSuperalgebra:
        """The algebra of distinct string basis names and a bracket table
        {(i, j): entry} whose indices are in range and whose every entry is
        nonempty and as ``_merged`` returns it, unchecked."""
        self = cls.__new__(cls)
        self._derive(name, even_names, odd_names, table)
        return self

    def _derive(self, name: str, even_names: tuple[str, ...], odd_names: tuple[str, ...],
                table: dict) -> None:
        """Set every field from the names and the checked, merged table,
        in one pass over the table after its scale."""
        self.name = name
        self.even_names = even_names
        self.odd_names = odd_names
        n0 = self.n_even = len(even_names)
        self.n_odd = len(odd_names)
        dim = self.dim = n0 + self.n_odd
        self._brackets = table
        # the table in exact ints, for the integer checks and the rewriting
        # kernel: _int_rows[a][b] is [a, b] * S as ((t, int), ...), and
        # _int_halves[a] is [a, a] / 2 * S for odd a, the odd square's
        # rewriting; S is the lcm of the denominators of both (1 when
        # there are none)
        halves = {a: tuple((t, c / 2) for t, c in table[(a, a)])
                  for a in range(n0, dim) if (a, a) in table}
        scale = math.lcm(*{c.denominator for entry in (*table.values(), *halves.values())
                           for _, c in entry})

        def ints(entry):
            return tuple([(t, c.numerator * (scale // c.denominator)) for t, c in entry])

        rows: list[dict[int, tuple[tuple[int, int], ...]]] = [{} for _ in range(dim)]
        # tr(ad'(X)) * S of each even generator X, the sum over odd j of the
        # coefficient of b_j in S [X, b_j], which the twist
        # ``enveloping.alpha`` reads; ``lambda_values`` reads it over Q
        traces = [0] * n0
        graded = True
        for (a, b), entry in table.items():
            row = rows[a][b] = ints(entry)
            odd = (a >= n0) != (b >= n0)
            graded = graded and all((t >= n0) == odd for t, _ in entry)
            if a < n0 <= b:
                traces[a] += sum([v for t, v in row if t == b])
        # whether every bracket term has parity p(a) + p(b)
        self._parity_graded = graded
        self._int_scale = scale
        self._int_rows = rows
        self._int_halves = tuple(ints(halves.get(a, ())) for a in range(dim))
        self._int_traces = tuple(traces)
        self._ad_traces = tuple(Fraction(v, scale) for v in traces)
        # the rewriting kernel's parity by letter, and the memo of the
        # quotient classes x_g * x^I (``enveloping._act``), which lives and
        # dies with the algebra
        self._letter_parity = (EVEN,) * n0 + (ODD,) * self.n_odd
        self._quotient_memo: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        self._cached_key = None

    # -- basic queries ------------------------------------------------------

    def parity(self, i: int) -> int:
        return EVEN if i < self.n_even else ODD

    def basis_name(self, i: int) -> str:
        if i < self.n_even:
            return self.even_names[i]
        return self.odd_names[i - self.n_even]

    def index_of(self, name: str) -> int:
        try:
            return (self.even_names + self.odd_names).index(name)
        except ValueError:
            raise InputError(f"unknown basis name {name!r}") from None

    def bracket(self, i: int, j: int) -> tuple[tuple[int, Fraction], ...]:
        return self._brackets.get((i, j), ())

    def nonzero_brackets(self):
        return sorted(self._brackets.items())

    def _key(self):
        if self._cached_key is None:
            self._cached_key = (self.name, self.even_names, self.odd_names,
                                tuple(sorted(self._brackets.items())))
        return self._cached_key

    def __eq__(self, other):
        return self is other or (isinstance(other, LieSuperalgebra)
                                 and self._key() == other._key())

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"LieSuperalgebra({self.name!r}, n_even={self.n_even}, "
                f"n_odd={self.n_odd})")

    # -- bracket on coefficient vectors --------------------------------------

    def bracket_vectors(self, u: dict[int, Fraction], v: dict[int, Fraction]) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for a, ca in u.items():
            if not ca:
                continue
            for b, cb in v.items():
                if not cb:
                    continue
                for k, c in self.bracket(a, b):
                    out[k] = out.get(k, Fraction(0)) + ca * cb * c
        return {k: c for k, c in out.items() if c}


def _relation_failures(alg: LieSuperalgebra, cols, lhs: int, rhs: int, *,
                       alternating: bool = False) -> list[tuple[int, int, int]]:
    """The (a, b, k), in lexicographic order, at which column k of
    lhs (P(a)P(b) - (-1)^{p(a)p(b)} P(b)P(a)) - rhs sum_t (S c_ab^t) P(t)
    is nonzero, computed in exact ints.

    ``cols[i]`` maps each nonzero column of the integer matrix P(i) to its
    nonzero (row, entry) pairs; S c_ab^t is read from ``alg._int_rows``.
    With P(i) = D rho(i), lhs = S and rhs = D, column k is S D^2 times the
    residue of rho([a,b]) = rho(a)rho(b) - (-1)^{p(a)p(b)} rho(b)rho(a) on
    basis vector k.  Only a column where P(a), P(b) or some P(t) with t in
    [a,b] has an entry can be nonzero, and only those are visited.

    Where P(a) has only diagonal entries delta and [a,b] is c b or 0 (c
    the table's int), entry (s, k) of the relation is P(b)[s][k] (lhs
    (delta_s - (-1)^{p(a)p(b)} delta_k) - rhs c), so one pass over P(b)'s
    nonzeros decides the pair; likewise P(a)'s where P(b) is diagonal and
    [a,b] = c a.  On a weight basis these are the pairs of a Cartan element
    with a basis vector.  A pair that fails this reading is computed column
    by column like every other, so the failing columns are the same.

    Each unordered pair a <= b is visited once.  Where the table is super
    antisymmetric at the pair, [b,a] = -(-1)^{p(a)p(b)} [a,b] as int
    tuples, the relation at (b, a) is -(-1)^{p(a)p(b)} times the relation
    at (a, b), so it fails at the same columns, which are copied; anywhere
    else (b, a) is computed on its own.  Nothing is assumed of the table.

    ``alternating`` is for the adjoint action (P(i) = S ad(i), lhs = rhs
    = 1), on a table already known to be parity-graded and super
    antisymmetric everywhere.  Column k of the relation at (a, b) is then
    S^2 times the Jacobiator J(a, b, k), and swapping two of its arguments
    only changes its sign, so J vanishes at all orderings of a triple or
    at none: only the sorted triples a <= b <= k are computed, and each
    failing one is reported with all of its orderings.
    """
    odd = alg._letter_parity
    int_rows = alg._int_rows
    # {s: P(i)[s][s]} for each P(i) with only diagonal entries, else None
    diagonals = []
    for col in cols:
        delta = {}
        for k, pairs in col.items():
            if len(pairs) > 1 or pairs[0][0] != k:
                delta = None
                break
            delta[k] = pairs[0][1]
        diagonals.append(delta)

    def holds(a: int, b: int, low: int) -> bool:
        """Whether the relation at (a, b) holds on every column k >= low, as
        read off one factor's nonzeros (see above); False when it fails or
        when no factor is diagonal with [a,b] a multiple of the other."""
        ab = int_rows[a].get(b, ())
        if len(ab) > 1:
            return False
        sign = -1 if odd[a] and odd[b] else 1
        if (not ab or ab[0][0] == b) and (delta := diagonals[a]) is not None:
            other, f = cols[b], lhs
        elif (not ab or ab[0][0] == a) and (delta := diagonals[b]) is not None:
            other, f = cols[a], -sign * lhs
        else:
            return False
        want = rhs * ab[0][1] if ab else 0
        for k, pairs in other.items():
            if k >= low:
                dk = sign * delta.get(k, 0)
                for s, _ in pairs:
                    if f * (delta.get(s, 0) - dk) != want:
                        return False
        return True

    def failing(a: int, b: int, low: int) -> list[int]:
        """The columns k >= low at which the relation at (a, b) fails."""
        if holds(a, b, low):
            return []
        pa, pb = cols[a], cols[b]
        flip = lhs if odd[a] and odd[b] else -lhs
        ab = [(cols[t], -rhs * c) for t, c in int_rows[a].get(b, ())]
        keys = pa.keys() | pb.keys()
        for pt, _ in ab:
            keys.update(pt)
        out = []
        for k in keys:
            if k < low:
                continue
            acc: dict[int, int] = {}
            for r, x in pb.get(k, ()):
                x *= lhs
                for s, y in pa.get(r, ()):
                    acc[s] = acc.get(s, 0) + x * y
            for r, x in pa.get(k, ()):
                x *= flip
                for s, y in pb.get(r, ()):
                    acc[s] = acc.get(s, 0) + x * y
            for pt, f in ab:
                for s, y in pt.get(k, ()):
                    acc[s] = acc.get(s, 0) + f * y
            if any(acc.values()):
                out.append(k)
        return out

    failures = []
    for a in range(len(cols)):
        for b in range(a, len(cols)):
            if alternating:
                for k in failing(a, b, b):
                    failures.extend(set(itertools.permutations((a, b, k))))
                continue
            ks = failing(a, b, 0)
            failures.extend((a, b, k) for k in ks)
            if b == a:
                continue
            mirror = 1 if odd[a] and odd[b] else -1
            if int_rows[b].get(a, ()) != tuple((t, mirror * c)
                                               for t, c in int_rows[a].get(b, ())):
                ks = failing(b, a, 0)
            failures.extend((b, a, k) for k in ks)
    failures.sort()
    return failures


def _jacobi_residual(alg: LieSuperalgebra, i: int, j: int, k: int,
                     sign: int) -> dict[int, Fraction]:
    """[i,[j,k]] - [[i,j],k] - sign [j,[i,k]] over Q, nonzero terms only."""
    lhs = alg.bracket_vectors({i: Fraction(1)}, dict(alg.bracket(j, k)))
    rhs = alg.bracket_vectors(dict(alg.bracket(i, j)), {k: Fraction(1)})
    for t, c in alg.bracket_vectors({j: Fraction(1)},
                                    dict(alg.bracket(i, k))).items():
        rhs[t] = rhs.get(t, Fraction(0)) + sign * c
    diff = {t: lhs.get(t, Fraction(0)) - rhs.get(t, Fraction(0))
            for t in set(lhs) | set(rhs)}
    return {t: c for t, c in diff.items() if c}


def validate_superalgebra(alg: LieSuperalgebra) -> ValidationReport:
    """Check parity consistency, super antisymmetry, and super Jacobi.

    Every violated identity is reported with the witnessing basis tuple;
    an empty report certifies all three families of identities.

    Super Jacobi says that ad is a representation, so it is checked as
    the bracket relation of ``ad`` by :func:`_relation_failures`, on the
    columns of S ad(i) that ``LieSuperalgebra._int_rows`` already holds (S
    the algebra's integer scale); only a failing triple is recomputed over
    Q for the report.  When the parity and antisymmetry checks find
    nothing, the Jacobiator is graded-alternating, so only the sorted
    triples i <= j <= k are computed and each failing one is reported at
    all of its orderings; otherwise each unordered pair is visited once,
    and the relation at (j, i) is copied from (i, j) only where the table
    is super antisymmetric at the pair.  In either mode a pair (h, x) with
    ad(h) diagonal and [h, x] a multiple of x is read off ad(x)'s nonzeros
    (see :func:`_relation_failures`).
    """
    report = ValidationReport()
    n = alg.dim
    p = alg.parity

    # the constructor already knows whether any term breaks the parity
    if not alg._parity_graded:
        for (i, j), vec in alg.nonzero_brackets():
            want = (p(i) + p(j)) % 2
            for k, c in vec:
                if p(k) != want:
                    report.add("parity", (i, j, k),
                               f"[{alg.basis_name(i)}, {alg.basis_name(j)}] has a "
                               f"component of wrong parity on {alg.basis_name(k)} "
                               f"(coefficient {c})")

    # compared in the int table; only a failing pair is summed over Q
    rows = alg._int_rows
    for i in range(n):
        for j in range(i, n):
            sign = -1 if p(i) and p(j) else 1
            if rows[j].get(i, ()) == tuple((k, -sign * c) for k, c in rows[i].get(j, ())):
                continue
            lhs = dict(alg.bracket(i, j))
            for k, c in alg.bracket(j, i):
                lhs[k] = lhs.get(k, Fraction(0)) + sign * c
            bad = {k: c for k, c in lhs.items() if c}
            if bad:
                report.add("antisymmetry", (i, j),
                           f"[{alg.basis_name(i)}, {alg.basis_name(j)}] + "
                           f"(-1)^([i][j]) [{alg.basis_name(j)}, {alg.basis_name(i)}] "
                           f"is nonzero: {bad}")

    for i, j, k in _relation_failures(alg, alg._int_rows, 1, 1,
                                      alternating=report.ok):
        diff = _jacobi_residual(alg, i, j, k, -1 if p(i) and p(j) else 1)
        report.add("jacobi", (i, j, k),
                   f"Jacobi fails on ({alg.basis_name(i)}, "
                   f"{alg.basis_name(j)}, {alg.basis_name(k)}): "
                   f"residual {diff}")
    return report


def lambda_values(alg: LieSuperalgebra) -> dict[int, Fraction]:
    return dict(enumerate(alg._ad_traces))


@dataclass
class EvenPartReport:
    """Reductivity decision for the even part, with its evidence."""
    center: list[linalg.Vector]           # coordinate vectors over the even basis
    derived: list[linalg.Vector]
    decomposition_direct: bool            # g0 = center (+) derived, exactly
    killing_nondegenerate: bool           # Killing form restricted to derived
    certified_reductive: bool


def _even_ad_matrix(alg: LieSuperalgebra, vec: linalg.Vector) -> linalg.Matrix:
    """Matrix of ad(v) restricted to the even part, v given in even coords."""
    n0 = alg.n_even
    return linalg.mat_comb((ci * c, {k: {j: ONE}})
                           for i, ci in vec.items() for j in range(n0)
                           for k, c in alg.bracket(i, j) if k < n0)


def even_part_structure(alg: LieSuperalgebra) -> EvenPartReport:
    """Center, derived subalgebra, and reductivity of the even part.

    The even part is reductive exactly when it is the direct sum of its
    center and its derived algebra and the Killing form is nondegenerate on
    the derived part: the derived part is an ideal, so by Cartan's
    criterion it is then semisimple, and a reductive algebra has both
    properties.  ``certified_reductive`` is that decision, exact either way.
    Each Killing form entry tr(ad a ad b) is summed from the traces alone,
    as the sum of a[r][c] b[c][r], without forming the product.
    """
    n0 = alg.n_even
    if n0 == 0:
        return EvenPartReport([], [], True, True, True)

    # center: v with [v, b_j] = 0 for all even j, one equation per (j, k)
    # holding the coefficients of b_k in [b_i, b_j]
    rows: dict[tuple[int, int], linalg.Vector] = {}
    derived_span = []
    for i in range(n0):
        for j in range(n0):
            vec = {k: c for k, c in alg.bracket(i, j) if k < n0}
            for k, c in vec.items():
                rows.setdefault((j, k), {})[i] = c
            if vec:
                derived_span.append(vec)
    center = linalg.nullspace(rows.values(), n0)
    derived = linalg.row_space_basis(derived_span)

    direct = (len(center) + len(derived) == n0
              and linalg.rank(center + derived) == n0)

    ads = [_even_ad_matrix(alg, v) for v in derived]
    gram = [{s: t for s, b in enumerate(ads)
             if (t := sum((x * b[c][r] for r, row in a.items() for c, x in row.items()
                           if r in b.get(c, ())), ZERO))} for a in ads]
    killing_nondeg = linalg.rank(gram) == len(derived)

    return EvenPartReport(center, derived, direct, killing_nondeg,
                          direct and killing_nondeg)

