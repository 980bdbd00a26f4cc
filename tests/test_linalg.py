from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superhaar import linalg

F = Fraction


def m(rows):
    return [[F(x) for x in row] for row in rows]


def test_rref_and_rank():
    red, pivots = linalg.rref(m([[1, 2, 3], [2, 4, 6], [0, 1, 1]]))
    assert pivots == [0, 1]
    assert red[0] == [F(1), F(0), F(1)]
    assert red[1] == [F(0), F(1), F(1)]
    assert linalg.rank(m([[1, 2], [2, 4]])) == 1
    assert linalg.rank(m([[1, 0], [0, 1]])) == 2


def test_nullspace_vectors_annihilate():
    mat = m([[1, 2, 3], [0, 1, 1]])
    for v in linalg.nullspace(mat):
        assert all(x == 0 for x in linalg.mat_vec(mat, v))
    assert len(linalg.nullspace(mat)) == 1


def test_invert_round_trip():
    mat = m([[2, 1], [1, 1]])
    inv = linalg.invert(mat)
    assert linalg.mat_mul(mat, inv) == linalg.identity(2)
    with pytest.raises(ValueError):
        linalg.invert(m([[1, 2], [2, 4]]))


def test_row_space():
    rows = linalg.row_space_basis(m([[1, 1], [2, 2], [0, 0]]))
    assert rows == [[F(1), F(1)]]


def test_same_span():
    a = [m([[1, 0]])[0], m([[0, 1]])[0]]
    b = [m([[1, 1]])[0], m([[1, -1]])[0]]
    assert linalg.same_span(a, b)
    assert not linalg.same_span(a, [m([[1, 1]])[0]])
    assert linalg.same_span([], [])


def test_minimal_polynomial():
    # diagonalizable: minpoly of diag(1, 1, 2) is (t-1)(t-2)
    p = linalg.minimal_polynomial(m([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))
    assert p == [F(2), F(-3), F(1)]
    assert linalg.is_squarefree(p)
    # Jordan block: minpoly t^2, not squarefree
    q = linalg.minimal_polynomial(m([[0, 1], [0, 0]]))
    assert q == [F(0), F(0), F(1)]
    assert not linalg.is_squarefree(q)
    assert linalg.minimal_polynomial([]) == [F(1)]


def test_poly_gcd():
    # (t-1)^2 (t+2) against its derivative shares (t-1)
    p = [F(2), F(-3), F(0), F(1)]  # t^3 - 3t + 2 = (t-1)^2 (t+2)
    g = linalg.poly_gcd(p, linalg.poly_derivative(p))
    assert g == [F(-1), F(1)]
    assert not linalg.is_squarefree(p)
    assert linalg.is_squarefree([F(-1), F(0), F(1)])


# -- sparse elimination against dense references ------------------------------

def dense_rref(mat):
    """Column-by-column Gauss-Jordan on dense rows: the reference for
    ``linalg.rref``."""
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = F(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def dense_nullspace(mat):
    cols = len(mat[0])
    red, pivots = dense_rref(mat)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [F(0)] * cols
        v[f] = F(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def stacked_minimal_polynomial(mat):
    """First dependence among I, M, ..., M^k, from the kernel of the
    stacked flattened powers for every k: the reference for
    ``linalg.minimal_polynomial``."""
    n = len(mat)
    if n == 0:
        return [F(1)]
    powers = [linalg.identity(n)]
    for k in range(1, n + 2):
        powers.append(linalg.mat_mul(powers[-1], mat))
        stacked = [[powers[j][r][c] for j in range(k + 1)]
                   for r in range(n) for c in range(n)]
        for v in dense_nullspace(stacked):
            if v[k]:
                return [c / v[k] for c in v]
    raise AssertionError("no minimal polynomial found")


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


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_rref_matches_dense_reference(mat):
    red, pivots = linalg.rref(mat)
    assert (red, pivots) == dense_rref(mat)
    assert all(isinstance(x, F) for row in red for x in row)
    assert linalg.rank(mat) == len(pivots)
    for v in linalg.nullspace(mat):
        assert not any(linalg.mat_vec(mat, v))
    if mat:
        assert len(linalg.nullspace(mat)) + len(pivots) == len(mat[0])


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(square=True))
def test_minimal_polynomial_matches_stacked_reference(mat):
    p = linalg.minimal_polynomial(mat)
    assert p == stacked_minimal_polynomial(mat)
    assert p[-1] == 1
    n = len(mat)
    value = linalg.zeros(n, n)
    power = linalg.identity(n)
    for c in p:
        for r in range(n):
            for s in range(n):
                value[r][s] += c * power[r][s]
        power = linalg.mat_mul(power, mat)
    assert value == linalg.zeros(n, n)


def test_minimal_polynomial_of_repeated_eigenvalues():
    # diag(2, 2, 3, 3) + E_01: minimal polynomial (t-2)^2 (t-3)
    mat = m([[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]])
    assert linalg.minimal_polynomial(mat) == [F(-12), F(16), F(-7), F(1)]
    assert linalg.minimal_polynomial(linalg.zeros(3, 3)) == [F(0), F(1)]
