"""Seeded random generators for the tests: elements, basis changes, small
valid algebras, and the element and matrix helpers they rest on.

The algebra families below are valid by construction for every choice of
the random data (central extensions by a symmetric form, diagonal weight
actions, and invertible base changes of those), which is what makes them
usable for randomized uniqueness sweeps without a search for consistent
structure constants.
"""

from __future__ import annotations

import random
from fractions import Fraction

from superhaar import linalg
from superhaar.algebra import LieSuperalgebra, nonzero_rows
from superhaar.enveloping import UEElement, multiply


def from_word(alg: LieSuperalgebra, word, coeff=1) -> UEElement:
    """``coeff`` times the product of the generators in ``word``, in order."""
    out = UEElement.scalar(alg, coeff)
    for g in word:
        out = multiply(out, UEElement.generator(alg, g))
    return out


def substitute(u: UEElement, dst: LieSuperalgebra, images) -> UEElement:
    """The image of ``u`` in U(dst) under the algebra map sending generator
    g to ``images[g]``: each PBW word becomes the ordered product of the
    images of its letters, by ``multiply``."""
    out = UEElement.zero(dst)
    for word, c in u.terms.items():
        acc = UEElement.scalar(dst, c)
        for g in word:
            acc = multiply(acc, images[g])
        out = out + acc
    return out


def pbw(alg: LieSuperalgebra, even, mask: int) -> tuple[int, ...]:
    """The PBW word with even exponent vector ``even`` (length n_even) and
    odd subset ``mask`` (bit t for odd generator t)."""
    word = [i for i, e in enumerate(even) for _ in range(e)]
    return tuple(word + [alg.n_even + t for t in range(alg.n_odd) if mask >> t & 1])


def word_parity(alg: LieSuperalgebra, word: tuple[int, ...]) -> int:
    """Parity of a PBW word: its number of odd letters mod 2."""
    return sum(g >= alg.n_even for g in word) & 1


def homogeneous_parity(u: UEElement) -> int | None:
    """Parity of ``u`` if all its words agree (0 or 1), else None;
    None for 0."""
    parities = {word_parity(u.alg, w) for w in u.terms}
    return parities.pop() if len(parities) == 1 else None


def random_scalar(rng: random.Random, span: int = 4) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.randint(1, 3)
    return Fraction(num, den)


def random_element(alg: LieSuperalgebra, rng: random.Random,
                   max_degree: int = 3, terms: int = 4) -> UEElement:
    out = UEElement.zero(alg)
    for _ in range(terms):
        length = rng.randint(0, max_degree)
        word = tuple(rng.randrange(alg.dim) for _ in range(length))
        out = out + from_word(alg, word, random_scalar(rng))
    return out


def random_even_element(alg: LieSuperalgebra, rng: random.Random,
                        max_degree: int = 2, terms: int = 3) -> UEElement:
    out = UEElement.zero(alg)
    if alg.n_even == 0:
        return UEElement.scalar(alg, random_scalar(rng))
    for _ in range(terms):
        length = rng.randint(0, max_degree)
        word = tuple(rng.randrange(alg.n_even) for _ in range(length))
        out = out + from_word(alg, word, random_scalar(rng))
    return out


def random_homogeneous_element(alg: LieSuperalgebra, rng: random.Random,
                               parity: int, max_degree: int = 3,
                               attempts: int = 40) -> UEElement:
    for _ in range(attempts):
        u = random_element(alg, rng, max_degree=max_degree, terms=5)
        filtered = UEElement(alg, {w: c for w, c in u.terms.items()
                                   if word_parity(alg, w) == parity})
        if filtered:
            return filtered
    raise RuntimeError(f"could not draw a homogeneous element of parity {parity}")


def mat_vec(a: linalg.Matrix, v: linalg.Vector) -> linalg.Vector:
    """The product of the matrix ``a`` and the vector ``v``, both as
    nonzeros only (``linalg``'s types)."""
    out = {}
    for r, row in a.items():
        s = sum((x * v[c] for c, x in row.items() if c in v), Fraction(0))
        if s:
            out[r] = s
    return out


def change_basis(alg: LieSuperalgebra, even_map, odd_map,
                 name: str | None = None) -> tuple[LieSuperalgebra, linalg.Matrix]:
    """Transport the structure constants along a parity-preserving change
    of basis.  ``even_map``/``odd_map`` give the new basis vectors in the
    old coordinates, column by column, in either form that
    ``superhaar.algebra.nonzero_rows`` checks.  Returns the new algebra
    together with the full block matrix used (new basis -> old
    coordinates) as rows."""
    n0 = alg.n_even
    full = nonzero_rows(even_map, n0)
    for a, row in nonzero_rows(odd_map, alg.n_odd).items():
        full[n0 + a] = {n0 + b: x for b, x in row.items()}
    inv = linalg.invert(full, alg.dim)  # raises ValueError when singular

    cols = linalg.transpose(full)
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(alg.dim):
        for j in range(alg.dim):
            new = mat_vec(inv, alg.bracket_vectors(cols[i], cols[j]))
            if new:
                brackets[(i, j)] = new
    out = LieSuperalgebra(name or alg.name + "'", alg.even_names,
                          alg.odd_names, brackets)
    return out, full


def random_invertible_matrix(rng: random.Random, n: int,
                             attempts: int = 50) -> list[list[Fraction]]:
    """A dense n x n invertible matrix of small random rationals."""
    for _ in range(attempts):
        mat = [[random_scalar(rng, span=2) for _ in range(n)] for _ in range(n)]
        if linalg.rank(nonzero_rows(mat, n).values()) == n:
            return mat
    raise RuntimeError("could not draw an invertible matrix")


def random_odd_basis_change(alg: LieSuperalgebra, rng: random.Random,
                            name: str | None = None):
    """New algebra with the odd basis replaced by a random invertible
    rational combination; even basis untouched.  Returns (algebra, map)."""
    from conftest import identity   # conftest imports this module
    p = random_invertible_matrix(rng, alg.n_odd)
    return change_basis(alg, identity(alg.n_even), p, name=name)


def map_element(u: UEElement, dst: LieSuperalgebra, full_map) -> UEElement:
    """Push ``u`` through the algebra isomorphism sending source basis
    element i to sum_a full_map[a][i] * (destination basis element a), the
    matrix given as rows of nonzeros, as ``change_basis`` returns it."""
    images = [UEElement.zero(dst) for _ in range(u.alg.dim)]
    for a, row in full_map.items():
        for i, c in row.items():
            images[i] = images[i] + UEElement.generator(dst, a) * c
    return substitute(u, dst, images)


def _heisenberg(rng: random.Random, m: int, name: str) -> LieSuperalgebra:
    # odd generators pairing into a single even central element via a
    # random symmetric form; Jacobi holds for any choice of the form
    brackets = {}
    for s in range(m):
        for t in range(s, m):
            c = random_scalar(rng)
            if not c:
                continue
            brackets[(1 + s, 1 + t)] = {0: c}
            if t != s:
                brackets[(1 + t, 1 + s)] = {0: c}
    return LieSuperalgebra(name, ["Z"], [f"th{t}" for t in range(m)], brackets)


def _weights(rng: random.Random, m: int, name: str, traceless: bool) -> LieSuperalgebra:
    # one even generator acting diagonally on the odd part
    weights = [random_scalar(rng) for _ in range(m)]
    if traceless and m > 0:
        weights[-1] = -sum(weights[:-1], Fraction(0))
    brackets = {}
    for t, w in enumerate(weights):
        if w:
            brackets[(0, 1 + t)] = {1 + t: w}
            brackets[(1 + t, 0)] = {1 + t: -w}
    return LieSuperalgebra(name, ["X"], [f"th{t}" for t in range(m)], brackets)


def random_small_superalgebra(rng: random.Random, max_dim: int = 5) -> LieSuperalgebra:
    """A random valid Lie superalgebra with n_even + n_odd <= max_dim.

    Mixes unimodular and non-unimodular families and optionally twists the
    odd basis so the structure constants are dense.
    """
    family = rng.choice(["heisenberg", "weights", "weights0", "abelian"])
    if family == "abelian":
        m = rng.randint(1, max_dim)
        alg = LieSuperalgebra(f"rand-abelian-{m}", [],
                              [f"th{t}" for t in range(m)], {})
    elif family == "heisenberg":
        m = rng.randint(1, max_dim - 1)
        alg = _heisenberg(rng, m, f"rand-heis-{m}")
    else:
        m = rng.randint(1, max_dim - 1)
        alg = _weights(rng, m, f"rand-weight-{m}", traceless=family == "weights0")
    if alg.n_odd and rng.random() < 0.5:
        alg, _ = random_odd_basis_change(alg, rng, name=alg.name + "-twisted")
    return alg
