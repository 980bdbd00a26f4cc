import copy
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superhaar import (NotSemisimpleError, integral_matrix, invariant_projector,
                       invariant_z, linalg, module_action)

from conftest import (FIXTURE_MODULES, UNIMODULAR, dense_of, fixture_algebra,
                      fixture_module, identity, rows_of)
from randgen import random_element
from reference import (dense_nullspace, dense_rref, euclid_is_squarefree,
                       poly_derivative, poly_gcd, stacked_minimal_polynomial)

F = Fraction
m = rows_of


def test_rref_and_rank():
    red, pivots = linalg.rref(m([[1, 2, 3], [2, 4, 6], [0, 1, 1]]).values())
    assert pivots == [0, 1]
    assert red == [{0: F(1), 2: F(1)}, {1: F(1), 2: F(1)}]
    assert linalg.rank(m([[1, 2], [2, 4]]).values()) == 1
    assert linalg.rank(m([[1, 0], [0, 1]]).values()) == 2


def test_nullspace_vectors_annihilate():
    mat = m([[1, 2, 3], [0, 1, 1]])
    for v in linalg.nullspace(mat.values(), 3):
        assert linalg.mat_vec(mat, v) == {}
    assert len(linalg.nullspace(mat.values(), 3)) == 1
    assert linalg.nullspace([], 2) == [{0: F(1)}, {1: F(1)}]


def test_invert_round_trip():
    mat = m([[2, 1], [1, 1]])
    inv = linalg.invert(mat, 2)
    assert linalg.mat_mul(mat, inv) == identity(2)
    with pytest.raises(ValueError):
        linalg.invert(m([[1, 2], [2, 4]]), 2)
    with pytest.raises(ValueError):     # a zero row is left out, not lost
        linalg.invert(m([[1, 0], [0, 0]]), 2)


def test_row_space():
    rows = linalg.row_space_basis(m([[1, 1], [2, 2], [0, 0]]).values())
    assert rows == [{0: F(1), 1: F(1)}]


def test_same_span():
    a = [{0: F(1)}, {1: F(1)}]
    b = [{0: F(1), 1: F(1)}, {0: F(1), 1: F(-1)}]
    assert linalg.same_span(a, b)
    assert not linalg.same_span(a, [{0: F(1), 1: F(1)}])
    assert linalg.same_span([], [])
    assert not linalg.same_span([], [{0: F(1)}])


def test_minimal_polynomial():
    # diagonalizable: minpoly of diag(1, 1, 2) is (t-1)(t-2)
    p = linalg.minimal_polynomial(m([[1, 0, 0], [0, 1, 0], [0, 0, 2]]), 3)
    assert p == [F(2), F(-3), F(1)]
    assert linalg.is_squarefree(p)
    # Jordan block: minpoly t^2, not squarefree
    q = linalg.minimal_polynomial(m([[0, 1], [0, 0]]), 2)
    assert q == [F(0), F(0), F(1)]
    assert not linalg.is_squarefree(q)
    assert linalg.minimal_polynomial({}, 0) == [F(1)]


# -- squarefree against the Fraction Euclid ------------------------------------

def test_poly_gcd():
    # (t-1)^2 (t+2) against its derivative shares (t-1)
    p = [F(2), F(-3), F(0), F(1)]  # t^3 - 3t + 2 = (t-1)^2 (t+2)
    g = poly_gcd(p, poly_derivative(p))
    assert g == [F(-1), F(1)]
    cases = [(p, False), ([F(-1), F(0), F(1)], True),
             ([], True), ([0], True), ([0, 0], True), ([F(-2, 3)], True),
             ([5, 0, 0], True),                          # a constant, padded
             ([0, 1], True), ([0, 0, 1], False),         # t and t^2
             ([F(1, 4), -1, 1, 0], False),               # (t - 1/2)^2, padded
             ([F(-1, 4), 0, -1], True),                  # -(t^2 + 1/4)
             ([F(-3), F(-3), F(3)], True)]
    for q, expected in cases:
        assert linalg.is_squarefree(q) is expected is euclid_is_squarefree(q), q


ROOTS = st.fractions(min_value=-3, max_value=3, max_denominator=3)
NONZERO = st.sampled_from([F(-3), F(-1), F(-1, 2), F(1, 3), F(1), F(2), F(5, 2)])


@st.composite
def polynomials(draw):
    """c prod (t - r) over rational roots r, some repeated, then perhaps
    perturbed at a few coefficients and padded with trailing zeros; or
    the zero polynomial or a constant.  Coefficients integral throughout
    come as ints."""
    kind = draw(st.sampled_from(["zero", "constant", "roots"]))
    if kind == "zero":
        p = [F(0)] * draw(st.integers(0, 3))
    elif kind == "constant":
        p = [draw(NONZERO)]
    else:
        roots = draw(st.lists(ROOTS, min_size=1, max_size=4))
        roots += draw(st.lists(st.sampled_from(roots), max_size=3))
        p = [draw(NONZERO)]             # the leading coefficient c
        for r in roots:                 # p := p (t - r)
            p = [a - r * b for a, b in zip([F(0)] + p, p + [F(0)])]
        for _ in range(draw(st.integers(0, 2))):
            p[draw(st.integers(0, len(p) - 1))] += draw(
                st.fractions(min_value=-1, max_value=1, max_denominator=4))
        p += [F(0)] * draw(st.integers(0, 2))
    if all(c.denominator == 1 for c in p) and draw(st.booleans()):
        p = [int(c) for c in p]
    return p


@settings(max_examples=200, deadline=None)
@given(polynomials())
def test_is_squarefree_matches_euclid(p):
    assert linalg.is_squarefree(p) is euclid_is_squarefree(p)


# -- sparse elimination against dense references ------------------------------

SMALL = st.one_of(st.just(F(0)), st.just(F(0)),
                  st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def sparse_matrices(draw, square=False):
    """Small rational matrices with zero rows, zero columns and duplicated
    rows, in wide, tall and empty shapes."""
    rows = draw(st.integers(0, 7))
    cols = rows if square else draw(st.integers(0, 7))
    mat = [[draw(SMALL) for _ in range(cols)] for _ in range(rows)]
    if rows and not square:
        for _ in range(draw(st.integers(0, 2))):
            mat.insert(draw(st.integers(0, len(mat))), [F(0)] * cols)
        for _ in range(draw(st.integers(0, 2))):
            mat.append(list(mat[draw(st.integers(0, rows - 1))]))
        draw(st.randoms()).shuffle(mat)
    if cols:
        for c in draw(st.lists(st.integers(0, cols - 1), max_size=2)):
            for row in mat:
                row[c] = F(0)
    return mat


def cols_of(mat):
    return len(mat[0]) if mat else 0


@settings(max_examples=200, deadline=None)
@given(sparse_matrices(), st.booleans())
def test_rref_matches_dense_reference(mat, ints):
    rows, cols = m(mat), cols_of(mat)
    if ints:    # each row scaled to ints: the same row space
        rows = {r: {c: int(x * lcm) for c, x in row.items()}
                for r, row in rows.items()
                for lcm in [math.lcm(*(x.denominator for x in row.values()))]}
    red, pivots = linalg.rref(rows.values())
    ref, ref_pivots = dense_rref(mat)
    assert pivots == ref_pivots
    assert dense_of(dict(enumerate(red)), len(mat), cols) == ref
    assert all(isinstance(x, F) for row in red for x in row.values())
    assert linalg.rank(rows.values()) == len(pivots)
    kernel = linalg.nullspace(rows.values(), cols)
    assert [dense_of({0: v}, 1, cols)[0] for v in kernel] == \
        (dense_nullspace(mat) if mat else [])
    for v in kernel:
        assert linalg.mat_vec(rows, v) == {}
    assert len(kernel) + len(pivots) == cols


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(square=True))
def test_minimal_polynomial_matches_stacked_reference(mat):
    n = len(mat)
    p = linalg.minimal_polynomial(m(mat), n)
    assert p == stacked_minimal_polynomial(mat)
    assert p[-1] == 1
    powers = [identity(n)]
    for _ in p[1:]:
        powers.append(linalg.mat_mul(powers[-1], m(mat)))
    assert linalg.mat_comb(zip(p, powers)) == {}


def test_minimal_polynomial_of_repeated_eigenvalues():
    # diag(2, 2, 3, 3) + E_01: minimal polynomial (t-2)^2 (t-3)
    mat = m([[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]])
    assert linalg.minimal_polynomial(mat, 4) == [F(-12), F(16), F(-7), F(1)]
    assert linalg.minimal_polynomial({}, 3) == [F(0), F(1)]


def check_minimal_polynomial(mat, n):
    """``linalg.minimal_polynomial`` equals the stacked reference, and its
    squarefree verdict is that of the reference and of an int multiple of
    the matrix (the form ``check_semisimple_over_even`` passes)."""
    p = linalg.minimal_polynomial(mat, n)
    ref = stacked_minimal_polynomial(dense_of(mat, n))
    assert p == ref
    assert all(isinstance(x, F) for x in p)
    d, (ints,) = linalg.scaled([mat])
    multiple = linalg.minimal_polynomial(linalg.mat_comb([(3, ints)]), n)
    assert linalg.is_squarefree(p) == linalg.is_squarefree(ref) == \
        linalg.is_squarefree(multiple)
    assert len(multiple) == len(p)
    return p


FIFTHS = st.one_of(st.just(F(0)), st.just(F(0)),
                   st.fractions(min_value=-3, max_value=3, max_denominator=5))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_minimal_polynomial_matches_fraction_reference(data):
    n = data.draw(st.integers(0, 7))
    mat = [[data.draw(FIFTHS) for _ in range(n)] for _ in range(n)]
    check_minimal_polynomial(m(mat), n)


def test_minimal_polynomial_matches_fraction_reference_on_named_cases():
    jordan = [[F(int(c == r + 1)) for c in range(4)] for r in range(4)]
    cases = [
        ({}, 0, [F(1)]),
        ({}, 4, [F(0), F(1)]),                                   # zero matrix
        (m([[F(2, 3) if r == c else 0 for c in range(3)] for r in range(3)]), 3,
         [F(-2, 3), F(1)]),                                      # scalar matrix
        (m(jordan), 4, [F(0)] * 4 + [F(1)]),                     # nilpotent J_4
        (m([[0, F(1, 2), 0], [0, 0, 0], [0, 0, 0]]), 3,
         [F(0), F(0), F(1)]),                                    # J_2 + J_1
        (m([[F(1, 2), F(5, 3), 0], [0, F(1, 2), 0], [0, 0, F(-1, 5)]]), 3,
         [F(1, 20), F(1, 20), F(-4, 5), F(1)]),     # (t-1/2)^2 (t+1/5)
    ]
    for mat, n, expected in cases:
        assert check_minimal_polynomial(mat, n) == expected, (mat, n)
    assert not linalg.is_squarefree(cases[-1][2])
    assert linalg.is_squarefree(cases[2][2])


def test_scaled_is_the_common_denominator():
    assert linalg.scaled([]) == (1, [])
    assert linalg.scaled([{}, {0: {1: F(3)}}]) == (1, [{}, {0: {1: 3}}])
    d, mats = linalg.scaled([{0: {0: F(1, 4)}}, {1: {0: F(-5, 6), 2: F(2)}}])
    assert (d, mats) == (12, [{0: {0: 3}}, {1: {0: -10, 2: 24}}])
    assert all(type(x) is int for mat in mats for row in mat.values() for x in row.values())


# -- the contract of the matrix type ---------------------------------------------

def assert_nonzero_only(value):
    """``value``, a vector, a matrix or a list of (nonzero) vectors, holds
    no zero entry and no empty row."""
    if isinstance(value, list):
        for v in value:
            assert v, "empty vector in a list"
            assert_nonzero_only(v)
        return
    for x in value.values():
        if isinstance(x, dict):
            assert x, "empty matrix row"
            assert_nonzero_only(x)
        else:
            assert isinstance(x, F) and x, f"stored entry {x!r}"


def unchanged(fn, *args):
    """fn(*args), asserting that the call leaves its vector and matrix
    arguments as they were."""
    mats = [x for x in args if isinstance(x, (dict, list))]
    before = copy.deepcopy(mats)
    out = fn(*args)
    assert mats == before, f"{fn.__name__} changed its arguments"
    return out


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(), sparse_matrices(square=True))
def test_linalg_returns_nonzeros_only_and_keeps_its_arguments(mat, square):
    a, cols = m(mat), cols_of(mat)
    b = m(mat[:cols])
    assert_nonzero_only(unchanged(linalg.mat_mul, a, b))
    assert_nonzero_only(unchanged(linalg.mat_mul, a, linalg.transpose(a)))
    assert_nonzero_only(unchanged(linalg.transpose, a))
    rows = list(a.values())
    red, _ = unchanged(linalg.rref, rows)
    assert_nonzero_only(red)
    assert_nonzero_only(unchanged(linalg.nullspace, rows, cols))
    assert_nonzero_only(unchanged(linalg.row_space_basis, rows))
    n = len(square)
    try:
        inv = unchanged(linalg.invert, m(square), n)
    except ValueError:
        assert linalg.rank(m(square).values()) < n
    else:
        assert_nonzero_only(inv)
        assert linalg.mat_mul(m(square), inv) == identity(n)
    unchanged(linalg.minimal_polynomial, m(square), n)


def int_rows(dense):
    """Like ``rows_of``, but keeping the int entries as ints."""
    return {r: nz for r, row in enumerate(dense)
            if (nz := {c: x for c, x in enumerate(row) if x})}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_int_rows_stay_ints_and_match_fractions(data):
    # entries in -2..2 make cancellations, which must leave no stored zero
    n, k, p = (data.draw(st.integers(0, 5)) for _ in range(3))
    entries = st.integers(-2, 2)
    a = [[data.draw(entries) for _ in range(k)] for _ in range(n)]
    b = [[data.draw(entries) for _ in range(p)] for _ in range(k)]
    c = [[data.draw(entries) for _ in range(k)] for _ in range(n)]
    f, g = data.draw(entries), data.draw(entries)
    ia, ib, ic = int_rows(a), int_rows(b), int_rows(c)
    pairs = [(unchanged(linalg.mat_mul, ia, ib), linalg.mat_mul(m(a), m(b))),
             (unchanged(linalg.mat_comb, [(1, ia), (-1, ic), (f, ia), (g, ic)]),
              linalg.mat_comb([(F(1), m(a)), (F(-1), m(c)), (F(f), m(a)),
                               (F(g), m(c))]))]
    for ints, fracs in pairs:
        assert ints == fracs
        for row in ints.values():
            assert row, "empty matrix row"
            assert all(type(x) is int and x for x in row.values()), row


def test_int_products_that_cancel_store_nothing():
    assert linalg.mat_mul({0: {0: 1, 1: 1}}, {0: {0: 1}, 1: {0: -1}}) == {}
    assert linalg.mat_comb([(2, {0: {0: 3}}), (-3, {0: {0: 2}})]) == {}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIXTURE_MODULES), st.integers(0, 2 ** 32))
def test_module_layer_returns_nonzeros_only_and_keeps_its_arguments(case, seed):
    # the projector identities compare dicts, as mat_mul(Q, Q) != e Q does
    # on the int projector inside invariant_projector: exact only while
    # no result stores a zero
    key, filename = case
    alg, module = fixture_algebra(key), fixture_module(key, filename)
    stored = copy.deepcopy((module._rho, module._int_rho))
    u = random_element(alg, random.Random(seed), max_degree=2, terms=3)
    assert_nonzero_only(module_action(module, u))
    for i in range(alg.dim):    # rref copies the stored rows it is passed
        unchanged(linalg.rref, list(module.rho(i).values()))
    try:
        proj = invariant_projector(alg, module)
    except NotSemisimpleError:
        proj = None
    if proj is not None:
        assert_nonzero_only(proj)
        if key in UNIMODULAR:
            integral = unchanged(integral_matrix, alg, module, invariant_z(alg), proj)
            assert_nonzero_only(integral.entries)
    assert (module._rho, module._int_rho) == stored
