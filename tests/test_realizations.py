"""Lie superalgebras built from supermatrix realizations (Kac, Adv. Math. 26,
1977), family by family: the trace condition, the invariant and the
oracle's dimension, which is the uniqueness claim."""

import pytest

from superhaar import (NoInvariantError, brute_force_quotient_invariants,
                       invariant_z, lambda_values, linalg)

from realizations import realization
from reference import full_oracle, subset_monomial


def unit(i, j):
    """The matrix unit E_ij, 1-based, as rows of nonzeros."""
    return {i - 1: {j - 1: 1}}


def test_realization_refuses_dependent_matrices_open_brackets_and_invalid_results():
    with pytest.raises(ValueError, match=r"\['X', 'Y'\] are linearly dependent"):
        realization("dep", [("X", {0: {0: 1}}), ("Y", {0: {0: 2}})], [], [0])
    with pytest.raises(ValueError, match=r"\[E, F\] leaves the span"):
        realization("open", [("E", unit(1, 2)), ("F", unit(2, 1))], [], [0, 0])
    # an "odd" element that keeps the parity of the space it acts on
    with pytest.raises(ValueError, match="^even_odd: "):
        realization("even_odd", [], [("x", unit(1, 1))], [0])


def test_sl21_is_unimodular_with_the_top_monomial_as_its_unique_invariant():
    sl21, _ = realization(
        "sl(2|1)",
        [("H1", {0: {0: 1}, 1: {1: -1}}), ("H2", {1: {1: 1}, 2: {2: 1}}),
         ("E12", unit(1, 2)), ("E21", unit(2, 1))],
        [(f"E{i}{j}", unit(i, j)) for i, j in ((1, 3), (2, 3), (3, 1), (3, 2))],
        [0, 0, 1])
    assert not any(lambda_values(sl21).values())
    top = (1 << sl21.n_odd) - 1
    inv = invariant_z(sl21)
    assert inv.z == subset_monomial(sl21, top)
    oracle = brute_force_quotient_invariants(sl21)
    assert len(oracle) == 1 and oracle == full_oracle(sl21)
    assert linalg.same_span(oracle, [inv.quotient_class])


def test_periplectic_p2_fails_the_trace_condition():
    # [[A, B], [C, -A^T]] with B symmetric and C antisymmetric; the identity
    # acts on the odd part S^2 V + Lambda^2 V* with trace 2n = 4
    units = [(i, j) for i in (1, 2) for j in (1, 2)]
    p2, _ = realization(
        "p(2)",
        [(f"A{i}{j}", {i - 1: {j - 1: 1}, j + 1: {i + 1: -1}}) for i, j in units],
        [("B11", unit(1, 3)), ("B22", unit(2, 4)), ("B12", {0: {3: 1}, 1: {2: 1}}),
         ("C12", {2: {1: 1}, 3: {0: -1}})],
        [0, 0, 1, 1])
    lam = lambda_values(p2)
    assert lam[p2.index_of("A11")] + lam[p2.index_of("A22")] == 4
    with pytest.raises(NoInvariantError) as err:
        invariant_z(p2)
    assert p2.basis_name(err.value.violator) == "A11"
    assert err.value.value == 2
    assert brute_force_quotient_invariants(p2) == [] == full_oracle(p2)


def strange_q(n):
    """q(n) on an (n|n) space: the even basis diag(E_ij, E_ij), named Aij,
    and the odd basis offdiag(E_ij, E_ij), named Bij, for 1 <= i, j <= n."""
    units = [(i, j) for i in range(n) for j in range(n)]
    even = [(f"A{i + 1}{j + 1}", {i: {j: 1}, n + i: {n + j: 1}}) for i, j in units]
    odd = [(f"B{i + 1}{j + 1}", {i: {n + j: 1}, n + i: {j: 1}}) for i, j in units]
    return realization(f"q({n})", even, odd, [0] * n + [1] * n)[0]


@pytest.mark.parametrize("n", [2, 3])
def test_strange_q_is_unimodular_with_a_canonical_unique_invariant(n):
    # g1 is the adjoint module of g0 = gl(n), so every lambda is 0; the odd
    # elements do not anticommute ([B11, B11] = 2 A11), so z has terms
    # below x^top
    q = strange_q(n)
    assert q.n_odd == n * n
    assert not any(lambda_values(q).values())
    top = (1 << q.n_odd) - 1
    inv = invariant_z(q)
    assert not any(inv.certificate.values())
    assert inv.quotient_class[top] == 1 and len(inv.quotient_class) > 1
    oracle = brute_force_quotient_invariants(q)
    assert oracle == [inv.quotient_class]
    if n == 2:
        # B11 B12 B21 B22 - B11 B22
        assert inv.quotient_class == {top: 1, 0b1001: -1}
        assert inv.z == subset_monomial(q, top) - subset_monomial(q, 0b1001)
        assert oracle == full_oracle(q)
