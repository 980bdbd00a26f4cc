import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from superhaar import LieSuperalgebra, UEElement
from superhaar.fileio import builtin_fixture, load_algebra, load_module

from randgen import change_basis, substitute
from realizations import (gl_supermatrix_units,  # the tests import them from here
                          parabolic_supermatrix_units)

ALGEBRA_FILES = {
    "g2": "g2_grassmann.json",
    "g3": "g3_grassmann.json",
    "bad2": "bad2.json",
    "gl11": "gl11.json",
    "osp12": "osp12.json",
    "sl2": "sl2.json",
}

MODULE_FILES = {
    # algebra key -> module file
    "g2": ["exterior_module.json"],
    "g3": ["exterior3_module.json"],
    "bad2": ["trivial_module.json"],
    "gl11": ["defining_module.json", "jordan_module.json"],
    "osp12": ["osp12_defining_module.json", "osp12_tensor_module.json"],
    "sl2": ["sl2_defining_module.json"],
}

FIXTURE_MODULES = [(k, f) for k, fs in MODULE_FILES.items() for f in fs]

# fixtures satisfying the trace condition (bad2 is the non-unimodular one)
UNIMODULAR = ["g2", "g3", "gl11", "osp12", "sl2"]


def twisted_dual_algebra():
    """Even X, Y; odd u, v, w; [X,Y] = Y, [X,w] = w, [Y,u] = w, [u,v] = X,
    [v,w] = -Y.  X acts on the odd part with trace 1, and the inverse of the
    pairing matrix has entries X and Y, so the twist of the dual pair is
    seen by its duality check."""
    X, Y, u, v, w = range(5)
    brackets = {(X, Y): {Y: 1}, (Y, X): {Y: -1}, (X, w): {w: 1}, (w, X): {w: -1},
                (Y, u): {w: 1}, (u, Y): {w: -1}, (u, v): {X: 1}, (v, u): {X: 1},
                (v, w): {Y: -1}, (w, v): {Y: -1}}
    return LieSuperalgebra("twisted_dual", ["X", "Y"], ["u", "v", "w"], brackets)


def rescaled_algebra(alg):
    """``alg`` on the basis b_i/(i+2), so that its structure constants have
    denominators other than 1."""
    n0 = alg.n_even
    scaled, _ = change_basis(
        alg, {i: {i: Fraction(1, i + 2)} for i in range(n0)},
        {a: {a: Fraction(1, n0 + a + 2)} for a in range(alg.n_odd)})
    return scaled


def identity(n):
    """The n x n identity as a ``linalg.Matrix``."""
    return {i: {i: Fraction(1)} for i in range(n)}


def rows_of(dense):
    """A dense list-of-lists matrix as ``linalg.Matrix`` rows of nonzeros."""
    return {r: nz for r, row in enumerate(dense)
            if (nz := {c: Fraction(x) for c, x in enumerate(row) if x})}


def dense_of(mat, rows, cols=None):
    """A ``linalg.Matrix`` as a dense list of ``rows`` rows of ``cols``."""
    cols = rows if cols is None else cols
    return [[mat.get(r, {}).get(c, Fraction(0)) for c in range(cols)]
            for r in range(rows)]


def gen(alg, name):
    """The generator of ``alg`` named ``name`` as an element of U(alg)."""
    return UEElement.generator(alg, alg.index_of(name))


def ad_trace(alg, g):
    """tr(ad'(X)) of the even generator X = b_g from ``alg.bracket``: the sum
    over odd j of the coefficient of b_j in [b_g, b_j]."""
    return sum((c for j in range(alg.n_even, alg.dim) for k, c in alg.bracket(g, j)
                if k == j), Fraction(0))


def twist(u, sign):
    """The image of an even ``u`` under X -> X + sign * tr(ad'(X)) on each
    even generator X, as ordered products by ``multiply``: with sign +1 a
    reference for ``superhaar.enveloping.alpha``, which does not multiply."""
    alg = u.alg
    letters = {g for w in u.terms for g in w}
    return substitute(u, alg, {
        g: UEElement.generator(alg, g) + UEElement.scalar(alg, sign * ad_trace(alg, g))
        for g in letters})


def alpha_inv(u):
    """Inverse of ``superhaar.enveloping.alpha``: each even generator X goes to
    X - tr(ad'(X))."""
    return twist(u, -1)


def int_terms(u, e, den=1):
    """The terms c w of ``u`` in the rewriting kernel's integers, as
    c * den * S^(e - |w|), S the algebra's integer scale; each must be an
    int."""
    scale = u.alg._int_scale
    out = {w: c * den * scale ** (e - len(w)) for w, c in u.terms.items()}
    assert all(v.denominator == 1 for v in out.values()), out
    return {w: v.numerator for w, v in out.items()}


def int_scaled(u):
    """``(int_terms(u, e, den), den, e)`` with den the lcm of the
    denominators of ``u`` and e its degree."""
    den = math.lcm(*(c.denominator for c in u.terms.values()))
    e = max(map(len, u.terms), default=0)
    return int_terms(u, e, den), den, e


def rational(alg, terms, e, den=1):
    """The element whose word w carries den * S^(e - |w|) in ``terms``: the
    inverse of ``int_terms``."""
    scale = alg._int_scale
    return UEElement(alg, {w: Fraction(v, den * scale ** (e - len(w)))
                           for w, v in terms.items()})


def at_int_scale(f):
    """A map f of elements that raises no degree, as a map of terms in the
    kernel's integers, the form ``superhaar.enveloping.alpha`` takes."""
    def lifted(alg, terms):
        e = max(map(len, terms), default=0)
        return int_terms(f(rational(alg, terms, e)), e)
    return lifted


@lru_cache(maxsize=None)
def fixture_algebra(key):
    return load_algebra(builtin_fixture(ALGEBRA_FILES[key]))


@lru_cache(maxsize=None)
def fixture_module(algebra_key, filename):
    return load_module(builtin_fixture(filename), fixture_algebra(algebra_key))


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture
def g2():
    return fixture_algebra("g2")


@pytest.fixture
def g3():
    return fixture_algebra("g3")


@pytest.fixture
def bad2():
    return fixture_algebra("bad2")


@pytest.fixture
def gl11():
    return fixture_algebra("gl11")


@pytest.fixture
def osp12():
    return fixture_algebra("osp12")


@pytest.fixture
def sl2():
    return fixture_algebra("sl2")
