import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superhaar import (InputError, LieSuperalgebra, ad_prime_trace,
                       change_basis, even_part_structure, lambda_values,
                       linalg, validate_superalgebra)

from conftest import (ALGEBRA_FILES, fixture_algebra, gl_supermatrix_units,
                      identity, rescaled_algebra, rows_of)
from randgen import random_odd_basis_change, random_scalar
from reference import dense_validate_superalgebra

F = Fraction


def test_fixture_algebras_all_validate():
    for key in ALGEBRA_FILES:
        report = validate_superalgebra(fixture_algebra(key))
        assert report.ok, (key, report.violations)


def test_purely_odd_abelian_is_valid():
    alg = LieSuperalgebra("odd-abelian", [], ["a", "b"], {})
    assert validate_superalgebra(alg).ok


def test_antisymmetry_violation_is_witnessed():
    # flipped sign on the reverse bracket
    alg = LieSuperalgebra("broken", ["X"], ["th"],
                          {(0, 1): {1: 1}, (1, 0): {1: 1}})
    report = validate_superalgebra(alg)
    kinds = {(v.kind, v.witness) for v in report.violations}
    assert ("antisymmetry", (0, 1)) in kinds


def test_parity_violation_is_witnessed():
    # [X, th] with an even component
    alg = LieSuperalgebra("broken", ["X"], ["th"],
                          {(0, 1): {0: 1}, (1, 0): {0: -1}})
    report = validate_superalgebra(alg)
    assert any(v.kind == "parity" and v.witness == (0, 1, 0)
               for v in report.violations)


def test_jacobi_violation_is_witnessed():
    # [th, th] = 2X together with [X, th] = th cannot satisfy Jacobi
    alg = LieSuperalgebra("broken", ["X"], ["th"],
                          {(0, 1): {1: 1}, (1, 0): {1: -1}, (1, 1): {0: 2}})
    report = validate_superalgebra(alg)
    assert any(v.kind == "jacobi" for v in report.violations)


def test_malformed_input_raises():
    with pytest.raises(InputError):
        LieSuperalgebra("x", ["A"], [], {(0, 5): {0: 1}})
    with pytest.raises(InputError):
        LieSuperalgebra("x", ["A"], [], {(0, 0): {0: 0.5}})
    with pytest.raises(InputError):
        LieSuperalgebra("x", ["A"], ["A"], {})


def test_bracket_indices_must_be_ints():
    for brackets in ({(0.5, 1): {1: 1}}, {(0, 1): {0.0: 1}}, {("0", 1): {1: 1}},
                     {(0, 1): {"1": 1}}, {(True, 0): {1: 1}}, {(0, 1): {True: 1}},
                     {0: {1: 1}}, {(0, 1, 1): {1: 1}}):
        with pytest.raises(InputError):
            LieSuperalgebra("x", ["A"], ["B"], brackets)
    with pytest.raises(InputError, match=r"bracket index \(0, 2\) out of range"):
        LieSuperalgebra("x", ["A"], ["B"], {(0, 2): {1: 1}})
    with pytest.raises(InputError, match="bracket target index 2 out of range"):
        LieSuperalgebra("x", ["A"], ["B"], {(0, 1): {2: 1}})


def test_bracket_values_and_basis_names_are_checked():
    for brackets in ({(0, 1): [1]}, {(0, 1): 5}, {(0, 1): [(1, 1, 2)]},
                     {(0, 1): "11"}, {(0, 1): None}):
        with pytest.raises(InputError, match=r"bracket value .* at \(0, 1\)"):
            LieSuperalgebra("x", ["A"], ["B"], brackets)
    with pytest.raises(InputError, match="is not a mapping from index pairs"):
        LieSuperalgebra("x", ["A"], ["B"], [((0, 1), {1: 1})])
    for even in ([(1,)], [1], [None]):
        with pytest.raises(InputError, match="is not a string"):
            LieSuperalgebra("x", even, ["B"], {})
    with pytest.raises(InputError, match="is not a string"):
        LieSuperalgebra("x", ["A"], [None], {})
    # both forms of a bracket value give the same table
    as_pairs = LieSuperalgebra("x", ["A"], ["B"], {(0, 1): [(1, 1)], (1, 0): ((1, -1),)})
    as_dict = LieSuperalgebra("x", ["A"], ["B"], {(0, 1): {1: 1}, (1, 0): {1: -1}})
    assert as_pairs == as_dict


def test_ad_prime_trace_values(bad2, gl11, osp12):
    assert ad_prime_trace(bad2, 0) == 1
    assert ad_prime_trace(gl11, 0) == 0   # h1: +1 on e, -1 on f
    assert ad_prime_trace(gl11, 1) == 0
    assert all(ad_prime_trace(osp12, i) == 0 for i in range(3))
    with pytest.raises(ValueError):
        ad_prime_trace(bad2, 1)  # odd index


def test_trace_condition(g2, g3, bad2, gl11, osp12, sl2):
    # every even basis element acts tracelessly on the odd part, but in bad2
    for alg in (g2, g3, gl11, osp12, sl2):
        assert not any(lambda_values(alg).values())
    assert any(lambda_values(bad2).values())


def test_lambda_is_linear_on_random_even_combinations(rng):
    for key in ("gl11", "osp12", "bad2", "sl2"):
        alg = fixture_algebra(key)
        n0, m = alg.n_even, alg.n_odd
        lam = lambda_values(alg)
        for _ in range(10):
            coeffs = [random_scalar(rng) for _ in range(n0)]
            # trace of the combined action on the odd part, from scratch
            mat = [[F(0)] * m for _ in range(m)]
            for i, ci in enumerate(coeffs):
                if not ci:
                    continue
                for j in range(n0, alg.dim):
                    for k, c in alg.bracket(i, j):
                        mat[k - n0][j - n0] += ci * c
            assert linalg.trace(rows_of(mat)) == sum(
                (ci * lam[i] for i, ci in enumerate(coeffs)), F(0))


def test_even_part_structure_examples(g2, gl11, osp12):
    rep = even_part_structure(g2)
    assert rep.center_dim == 0 and rep.derived_dim == 0
    assert rep.certified_reductive

    rep = even_part_structure(gl11)
    assert rep.center_dim == 2 and rep.derived_dim == 0
    assert rep.certified_reductive

    rep = even_part_structure(osp12)
    assert rep.center_dim == 0 and rep.derived_dim == 3
    assert rep.killing_nondegenerate
    assert rep.certified_reductive


def test_even_part_not_reductive():
    # 2-dimensional nonabelian Lie algebra: [A, B] = B, not reductive
    alg = LieSuperalgebra("aff1", ["A", "B"], [],
                          {(0, 1): {1: 1}, (1, 0): {1: -1}})
    assert validate_superalgebra(alg).ok
    rep = even_part_structure(alg)
    assert not rep.certified_reductive


def test_change_basis_preserves_validity(rng, osp12):
    for _ in range(3):
        twisted, full = random_odd_basis_change(osp12, rng)
        assert validate_superalgebra(twisted).ok
        assert twisted.n_even == 3 and twisted.n_odd == 2
    with pytest.raises(ValueError):
        change_basis(osp12, identity(3),
                     [[F(1), F(1)], [F(1), F(1)]])  # singular odd map


def test_change_basis_rescaling_scales_brackets(bad2):
    # doubling the odd generator scales [th, th'] quadratically and keeps
    # the even action diagonal
    scaled, _ = change_basis(bad2, identity(1), [[F(2)]])
    assert scaled.bracket(0, 1) == ((1, F(1)),)   # [X, 2th] = 2th = 1 * (2th)
    assert validate_superalgebra(scaled).ok


# -- the integer table built with the algebra ------------------------------

def test_integer_table_is_the_rational_table_times_its_scale(rng):
    algs = [fixture_algebra(key) for key in ALGEBRA_FILES]
    algs += [rescaled_algebra(alg) for alg in algs]
    algs += [random_odd_basis_change(alg, rng)[0] for alg in algs if alg.n_odd]
    algs.append(LieSuperalgebra("odd-square", ["Z"], ["t"], {(1, 1): {0: F(3, 5)}}))
    for alg in algs:
        halves = {a: [(t, c / 2) for t, c in alg.bracket(a, a)]
                  for a in range(alg.n_even, alg.dim)}
        scale = math.lcm(*(c.denominator for _, vec in alg.nonzero_brackets()
                           for _, c in vec),
                         *(c.denominator for vec in halves.values() for _, c in vec))
        assert alg._int_scale == scale, alg.name
        table = {(a, b): vec for a, row in enumerate(alg._int_rows)
                 for b, vec in row.items()}
        assert table == {key: tuple((t, c * scale) for t, c in vec)
                         for key, vec in alg.nonzero_brackets()}, alg.name
        assert alg._int_halves == tuple(
            tuple((t, c * scale) for t, c in halves.get(a, ()))
            for a in range(alg.dim)), alg.name
        ints = [c for vec in (*table.values(), *alg._int_halves) for _, c in vec]
        assert all(type(c) is int for c in ints), alg.name
    assert algs[-1]._int_scale == 10 and algs[-1]._int_halves == ((), ((0, 3),))


# -- the Jacobi screen against the dense triple loop ------------------------

def assert_same_report(alg):
    got = validate_superalgebra(alg).violations
    assert got == dense_validate_superalgebra(alg).violations
    return got


# denominators 1, 2, 3 and 7, so the screen's common denominator varies
COEFFS = st.sampled_from([F(1), F(-1), F(2), F(1, 2), F(-3, 2), F(1, 3),
                          F(-2, 3), F(1, 7), F(-4, 7), F(5, 21)])


@st.composite
def random_tables(draw):
    n_even, n_odd = draw(st.integers(0, 2)), draw(st.integers(0, 3))
    dim = n_even + n_odd
    brackets = {}
    if dim:
        index = st.integers(0, dim - 1)
        brackets = draw(st.dictionaries(st.tuples(index, index),
                                        st.dictionaries(index, COEFFS, max_size=2),
                                        max_size=8))
    return LieSuperalgebra("random", [f"X{i}" for i in range(n_even)],
                           [f"t{i}" for i in range(n_odd)], brackets)


BASE_ALGEBRAS = ([fixture_algebra(key) for key in ALGEBRA_FILES]
                 + [gl_supermatrix_units(1, 1), gl_supermatrix_units(2, 1)])


@st.composite
def changed_tables(draw):
    """A fixture or gl(p|q) table with 1-3 entries set to a new value (0
    removes one), sometimes with the mirrored entry kept antisymmetric so
    that only Jacobi can fail."""
    alg = draw(st.sampled_from(BASE_ALGEBRAS))
    table = {key: dict(entry) for key, entry in alg._brackets.items()}
    index = st.integers(0, alg.dim - 1)
    for _ in range(draw(st.integers(1, 3))):
        a, b, t = draw(index), draw(index), draw(index)
        c = draw(COEFFS | st.just(F(0)))
        table.setdefault((a, b), {})[t] = c
        if draw(st.booleans()):
            sign = -1 if alg.parity(a) and alg.parity(b) else 1
            table.setdefault((b, a), {})[t] = -sign * c
    return LieSuperalgebra(alg.name + "*", alg.even_names, alg.odd_names, table)


@settings(max_examples=300, deadline=None)
@given(random_tables())
def test_jacobi_screen_matches_dense_loop_on_random_tables(alg):
    assert_same_report(alg)


@settings(max_examples=150, deadline=None)
@given(changed_tables())
def test_jacobi_screen_matches_dense_loop_on_changed_tables(alg):
    assert_same_report(alg)


def test_jacobi_screen_matches_dense_loop_on_edge_cases():
    empty = LieSuperalgebra("empty", [], [], {})
    no_brackets = LieSuperalgebra("abelian", ["X", "Y"], ["t"], {})
    # purely odd with [t0, t0] = t0/3: wrong parity, and [t0, [t0, t0]] != 0
    odd_only = LieSuperalgebra("odd-only", [], ["t0", "t1"], {(0, 0): {0: F(1, 3)}})
    for alg in (empty, no_brackets, fixture_algebra("sl2"), fixture_algebra("g3")):
        assert assert_same_report(alg) == []
    kinds = {v.kind for v in assert_same_report(odd_only)}
    assert kinds == {"parity", "jacobi"}
