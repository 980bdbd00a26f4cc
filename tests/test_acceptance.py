"""Acceptance suite: one test per criterion, one pass/fail line each.

All checks are exact (rational arithmetic, equality); each criterion also
carries a generous wall-clock bound.  Run with ``pytest -s`` to see the
per-criterion lines as they pass.
"""

import time

from superhaar import (LieSuperalgebra, UEElement,
                       brute_force_quotient_invariants, check_right_integral,
                       check_semisimple_over_even, dual_pair,
                       frobenius_matrix, integral_matrix,
                       invariant_z, lambda_values, linalg, module_action,
                       multiply, quotient_module, quotient_project,
                       validate_superalgebra)

from conftest import (ALGEBRA_FILES, MODULE_FILES, UNIMODULAR, alpha_inv,
                      fixture_algebra, fixture_module)
from randgen import (homogeneous_parity, map_element, random_element,
                     random_even_element, random_homogeneous_element,
                     random_odd_basis_change, random_small_superalgebra)
from reference import pi


class Criterion:
    def __init__(self, number, name, bound_seconds):
        self.number = number
        self.name = name
        self.bound = bound_seconds
        self.start = time.monotonic()

    def finish(self, ok=True):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if ok and elapsed < self.bound else "FAIL"
        print(f"criterion {self.number} [{self.name}]: {verdict} "
              f"({elapsed:.2f}s, bound {self.bound:g}s)")
        assert ok, f"criterion {self.number} failed"
        assert elapsed < self.bound, \
            f"criterion {self.number} exceeded {self.bound}s ({elapsed:.2f}s)"


def purely_odd(m):
    return LieSuperalgebra(f"grassmann-{m}", [], [f"x{t}" for t in range(1, m + 1)], {})


def test_criterion_1_berezin_recovery():
    crit = Criterion(1, "Berezin recovery, m in {1,2,3}", 1.0)
    for m in (1, 2, 3):
        alg = purely_odd(m)
        inv = invariant_z(alg)
        top = UEElement.one(alg)
        for i in range(m):
            top = multiply(top, UEElement.generator(alg, i))
        assert inv.z == top, f"z is not x1...x{m} with coefficient 1"
        ext = quotient_module(alg)
        integral = integral_matrix(ext, inv)
        assert integral.entries == module_action(ext, top)
    crit.finish()


def test_criterion_2_trace_condition_iff_oracle_dimension():
    crit = Criterion(2, "invariants exist iff the trace condition holds", 60.0)
    expected_dim = {"g2": 1, "g3": 1, "bad2": 0, "gl11": 1, "osp12": 1, "sl2": 1}
    for key in ALGEBRA_FILES:
        alg = fixture_algebra(key)
        per = time.monotonic()
        dim = len(brute_force_quotient_invariants(alg))
        assert dim == expected_dim[key]
        assert dim == (0 if any(lambda_values(alg).values()) else 1)
        assert time.monotonic() - per < 10.0, f"{key} exceeded 10s"
    crit.finish()


def test_criterion_3_frobenius_structure(rng):
    crit = Criterion(3, "pairing matrix, dual pair, projection identities", 60.0)
    extra = LieSuperalgebra(
        "heisenberg-4", ["Z"], ["t1", "t2", "t3", "t4"],
        {(i, j): {0: 1} for i in (1, 2, 3, 4) for j in (1, 2, 3, 4)})
    assert validate_superalgebra(extra).ok
    algebras = [fixture_algebra(k) for k in ALGEBRA_FILES] + [extra]
    for alg in algebras:
        fm = frobenius_matrix(alg)   # triangularity, +-1 diagonal, A A^-1 = 1
        n, one = len(fm.order), UEElement.one(alg)
        for i in range(n):
            assert fm.entries[i][i] in (one, -one)
            for j in range(i + 1, n):
                assert not fm.entries[i][j]
        dual_pair(fm)                # exhaustive <x^I, y^J> = delta (m <= 4)
        for _ in range(100):
            s = random_even_element(alg, rng, max_degree=2, terms=2)
            u = random_element(alg, rng, max_degree=2, terms=2)
            assert pi(multiply(s, u)) == multiply(s, pi(u))
            assert pi(multiply(u, s)) == \
                multiply(pi(u), alpha_inv(s))
    crit.finish()


def test_criterion_4_integral_invariance():
    crit = Criterion(4, "left (and right) invariance of integral matrices", 30.0)
    cases = [("g2", "exterior_module.json", False),
             ("gl11", "defining_module.json", False),
             ("osp12", "osp12_defining_module.json", True),
             ("osp12", "osp12_tensor_module.json", True)]
    for key, filename, check_right in cases:
        alg = fixture_algebra(key)
        module = fixture_module(key, filename)
        integral = integral_matrix(module, invariant_z(alg))
        for i in range(alg.dim):
            assert not linalg.mat_mul(module.rho(i), integral.entries), \
                f"left invariance fails for {key}/{filename}"
        if check_right:
            assert check_right_integral(module, integral), \
                f"right invariance fails for {key}/{filename}"
    crit.finish()


def test_criterion_5_oracle_agreement():
    crit = Criterion(5, "invariant class spans the oracle space", 10.0)
    for key in UNIMODULAR:
        alg = fixture_algebra(key)
        z_class = invariant_z(alg).quotient_class
        oracle = brute_force_quotient_invariants(alg)
        assert linalg.same_span(oracle, [z_class]), key
    crit.finish()


def test_criterion_6_odd_basis_covariance(rng):
    crit = Criterion(6, "invariant class covariant under odd basis change", 30.0)
    for key in ("g2", "osp12"):
        alg = fixture_algebra(key)
        base = invariant_z(alg).quotient_class
        assert base, key
        for _ in range(5):
            twisted, full = random_odd_basis_change(alg, rng)
            assert validate_superalgebra(twisted).ok
            pulled = map_element(invariant_z(twisted).z, alg, full)
            assert linalg.same_span([quotient_project(pulled)], [base]), key
    crit.finish()


def test_criterion_7_uniqueness_bound(rng):
    crit = Criterion(7, "oracle dimension at most one, randomized algebras", 120.0)
    checked = 0
    while checked < 20:
        alg = random_small_superalgebra(rng, max_dim=5)
        assert validate_superalgebra(alg).ok, alg.name
        assert len(brute_force_quotient_invariants(alg)) <= 1, alg.name
        checked += 1
    for key in ALGEBRA_FILES:
        assert len(brute_force_quotient_invariants(fixture_algebra(key))) <= 1
    crit.finish()


def test_criterion_8_parity_bookkeeping(rng):
    crit = Criterion(8, "parity shift of the projection and of integrals", 10.0)
    for key in ALGEBRA_FILES:
        alg = fixture_algebra(key)
        shift = alg.n_odd % 2
        parities = (0, 1) if alg.n_odd else (0,)
        for parity in parities:
            for _ in range(10):
                u = random_homogeneous_element(alg, rng, parity)
                image = pi(u)
                if image:
                    assert homogeneous_parity(image) == (parity + shift) % 2
    # integral-matrix support respects the parity of the invariant
    for key in UNIMODULAR:
        alg = fixture_algebra(key)
        inv = invariant_z(alg)
        for filename in MODULE_FILES[key]:
            module = fixture_module(key, filename)
            if not check_semisimple_over_even(module).ok:
                continue
            integral = integral_matrix(module, inv)
            for i, row in integral.entries.items():
                for j in row:
                    assert (module.parities[i] + module.parities[j]) % 2 \
                        == integral.parity
    crit.finish()
