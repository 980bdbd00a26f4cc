import importlib.util
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superhaar import (GradedModule, InputError, InternalInvariantError,
                       LieSuperalgebra, NotSemisimpleError, SemisimplicityReport,
                       brute_force_quotient_invariants, check_right_integral,
                       check_semisimple_over_even, counit, integral_matrix,
                       invariant_projector, invariant_z, linalg,
                       module_action, modules, multiply, quotient_module,
                       validate_module)
from superhaar.algebra import change_basis, even_part_structure
from superhaar.fileio import builtin_fixture

from conftest import (ALGEBRA_FILES, FIXTURE_MODULES, MODULE_FILES, UNIMODULAR,
                      dense_of, fixture_algebra, fixture_module, identity,
                      rescaled_algebra, rows_of)
from randgen import random_element
from reference import (dense_mul, dense_validate_module, fraction_integral,
                       fraction_module_action, fraction_projector,
                       fraction_right_integral, fraction_split)

F = Fraction


def trivial_module(alg):
    return GradedModule(alg, [0], {}, name="trivial")


# -- validation -------------------------------------------------------------

def test_fixture_modules_all_validate():
    for key, files in MODULE_FILES.items():
        alg = fixture_algebra(key)
        for filename in files:
            module = fixture_module(key, filename)
            report = validate_module(alg, module)
            assert report.ok, (filename, report.violations)


def test_trivial_module_is_valid(gl11):
    assert validate_module(gl11, trivial_module(gl11)).ok


def test_module_parity_violation_is_witnessed(gl11):
    # odd generator acting diagonally breaks the parity pattern
    broken = GradedModule(gl11, [0, 1], {2: [[1, 0], [0, 0]]})
    report = validate_module(gl11, broken)
    assert any(v.kind == "module-parity" for v in report.violations)


def test_module_bracket_violation_is_witnessed(gl11):
    # keep rho(e) = 0 but rho(f) and the h's as in the defining module:
    # then rho([e,f]) = rho(h1) + rho(h2) = 1 but the supercommutator is 0
    broken = GradedModule(gl11, [0, 1], {
        0: [[1, 0], [0, 0]],
        1: [[0, 0], [0, 1]],
        3: [[0, 0], [1, 0]],
    })
    report = validate_module(gl11, broken)
    assert any(v.kind == "module-bracket" and v.witness[:2] in ((2, 3), (3, 2))
               for v in report.violations)


def test_validate_module_matches_dense_reference_on_fixtures():
    for key, filename in FIXTURE_MODULES:
        alg = fixture_algebra(key)
        for module in (fixture_module(key, filename), quotient_module(alg)):
            assert validate_module(alg, module).violations == \
                dense_validate_module(alg, module).violations == []


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIXTURE_MODULES), st.data())
def test_validate_module_matches_dense_reference_on_one_changed_entry(case, data):
    key, filename = case
    alg = fixture_algebra(key)
    module = fixture_module(key, filename)
    d = module.dim
    action = {i: dense_of(module.rho(i), d) for i in range(alg.dim)}
    i = data.draw(st.integers(0, alg.dim - 1))
    r, c = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
    action[i][r][c] = data.draw(st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(3)]))
    changed = GradedModule(alg, module.parities, action)
    assert validate_module(alg, changed).violations == \
        dense_validate_module(alg, changed).violations


def rescaled(key, filename):
    """A fixture algebra on the basis b_i/(i+2) and its module on the basis
    (k+1) v_k, so that the structure constants and the action entries both
    have denominators other than 1."""
    alg, module = fixture_algebra(key), fixture_module(key, filename)
    scaled = rescaled_algebra(alg)
    action = {i: {r: {c: x * F(c + 1, (i + 2) * (r + 1)) for c, x in row.items()}
                  for r, row in module.rho(i).items()}
              for i in range(alg.dim)}
    return scaled, GradedModule(scaled, module.parities, action)


def denominators(alg, module):
    """L and D of ``validate_module``: the lcm of the denominators of the
    structure constants and of the action entries."""
    return (math.lcm(*(c.denominator for _, vec in alg.nonzero_brackets()
                       for _, c in vec)),
            math.lcm(*(x.denominator for i in range(alg.dim)
                       for row in module.rho(i).values() for x in row.values())))


def test_validate_module_matches_dense_reference_on_rescaled_fixtures():
    both = 0
    for key, filename in FIXTURE_MODULES:
        alg, module = rescaled(key, filename)
        lcms = denominators(alg, module)
        both += min(lcms) > 1
        for mod in (module, quotient_module(alg)):
            assert validate_module(alg, mod).violations == \
                dense_validate_module(alg, mod).violations == [], (filename, lcms)
    assert both == 5     # g2 and g3 are abelian, bad2's module acts by zero


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIXTURE_MODULES), st.data())
def test_validate_module_matches_dense_reference_on_a_rational_change(case, data):
    alg, module = rescaled(*case)
    d = module.dim
    action = {i: dense_of(module.rho(i), d) for i in range(alg.dim)}
    i = data.draw(st.integers(0, alg.dim - 1))
    r, c = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
    action[i][r][c] += F(1, data.draw(st.sampled_from([2, 3, 7, 11])))
    changed = GradedModule(alg, module.parities, action)
    assert validate_module(alg, changed).violations == \
        dense_validate_module(alg, changed).violations


def test_validate_module_on_the_zero_module_and_an_abelian_algebra():
    # the zero module: D is the lcm over no entries
    for alg in (fixture_algebra("gl11"), rescaled("gl11", "defining_module.json")[0]):
        zero = GradedModule(alg, [0, 1, 1], {})
        assert validate_module(alg, zero).violations == \
            dense_validate_module(alg, zero).violations == []
    # an abelian algebra: L is the lcm over no structure constants, and the
    # relations say that the actions supercommute
    ab = LieSuperalgebra("ab", ["X"], ["u", "v"], {})
    diag = {0: {0: F(1, 2)}, 1: {1: F(1, 3)}}
    for action, failing in [
            ({0: diag, 1: {0: {1: F(2, 7)}}}, [(0, 1), (1, 0)]),
            ({0: {0: {0: F(5, 4)}, 1: {1: F(5, 4)}}, 1: {0: {1: F(2, 7)}},
              2: {1: {0: F(3, 2)}}},
             [(1, 2), (2, 1)]),
            ({1: {0: {1: F(2, 7)}}, 2: {0: {1: F(1, 3)}}}, [])]:
        module = GradedModule(ab, [0, 1], action)
        report = validate_module(ab, module)
        assert report.violations == dense_validate_module(ab, module).violations
        assert [v.witness for v in report.violations] == failing


def test_stored_rows_of_actions(osp12):
    module = fixture_module("osp12", "osp12_defining_module.json")
    assert module.rho(3) == {0: {2: 1}, 1: {0: -1}}
    assert all(isinstance(x, F) for row in module.rho(3).values() for x in row.values())
    assert trivial_module(osp12).rho(0) == {}
    # rows of nonzeros are accepted too, checked the same way, and stored
    # in increasing order without their zeros
    rows = GradedModule(osp12, [0, 1, 1], {3: {1: {0: -1}, 0: {2: 1, 1: 0}}})
    assert rows.rho(3) == module.rho(3)
    assert list(rows.rho(3)) == [0, 1]


def test_module_shape_errors(gl11):
    with pytest.raises(InputError):
        GradedModule(gl11, [0, 1], {0: [[1, 0]]})
    with pytest.raises(InputError):
        GradedModule(gl11, [0, 2], {})
    with pytest.raises(InputError):   # zeros are checked although not stored
        GradedModule(gl11, [0, 1], {0: [[1, 0], [0.0, 0]]})
    with pytest.raises(InputError):
        GradedModule(gl11, [0, 1], {0: [[1, 0], [0, 0, 0]]})
    with pytest.raises(InputError):
        GradedModule(gl11, [0, 1], {0: {2: {0: 1}}})
    with pytest.raises(InputError):
        GradedModule(gl11, [0, 1], {0: {0: {-1: 1}}})
    with pytest.raises(InputError):
        GradedModule(gl11, [0, 1], {0: {0: {0: 0.5}}})
    # malformed containers: the action, the parities, a matrix, a dense row
    # and a row of a mapping matrix
    for parities, action in [([0, 1], [[[1, 0], [0, 0]]]), (5, {}), ([0, 1], {0: 5}),
                             ([0, 1], {0: [5, [0, 0]]}), ([0, 1], {0: {0: 5}})]:
        with pytest.raises(InputError):
            GradedModule(gl11, parities, action)
    with pytest.raises(InputError):
        change_basis(gl11, 5, 5)


def test_module_parities_and_action_indices_are_ints(gl11):
    # parities are the ints 0 and 1 only: nothing is coerced, bools included
    for parities in ([0.5, 1.7], [0, 1.0], ["0", "1"], [False, True], [0, None]):
        with pytest.raises(InputError):
            GradedModule(gl11, parities, {})
    # an action index is an int basis index: a float or a bool one would be
    # stored where rho never reads it
    for index in (0.5, 1.0, True):
        with pytest.raises(InputError):
            GradedModule(gl11, [0, 1], {index: [[1, 0], [0, 0]]})
    assert GradedModule(gl11, (0, 1), {}).parities == (0, 1)


# -- action of enveloping elements -------------------------------------------

def test_module_action_is_multiplicative(rng):
    for key, files in MODULE_FILES.items():
        alg = fixture_algebra(key)
        module = fixture_module(key, files[0])
        for _ in range(4):
            a = random_element(alg, rng, max_degree=2, terms=2)
            b = random_element(alg, rng, max_degree=2, terms=2)
            assert module_action(module, multiply(a, b)) == \
                linalg.mat_mul(module_action(module, a),
                               module_action(module, b))


# -- semisimplicity over the even part ---------------------------------------

def test_semisimplicity_examples(g2, gl11):
    report = check_semisimple_over_even(g2, fixture_module("g2", "exterior_module.json"))
    assert report.ok and report.invariants_dim == 4  # no even part at all

    report = check_semisimple_over_even(gl11, trivial_module(gl11))
    assert report.ok and report.invariants_dim == 1

    report = check_semisimple_over_even(gl11, fixture_module("gl11", "defining_module.json"))
    assert report.ok and report.invariants_dim == 0

    jordan = check_semisimple_over_even(gl11, fixture_module("gl11", "jordan_module.json"))
    assert not jordan.ok
    assert not all(jordan.central_squarefree)   # minimal polynomial t^2
    assert not jordan.decomposition_direct


def test_invariant_projector_examples(g2, gl11, osp12):
    assert invariant_projector(gl11, trivial_module(gl11)) == {0: {0: F(1)}}

    ext = fixture_module("g2", "exterior_module.json")
    assert invariant_projector(g2, ext) == identity(4)

    defining = fixture_module("gl11", "defining_module.json")
    assert invariant_projector(gl11, defining) == {}
    with pytest.raises(ValueError):     # a report whose bases do not span
        invariant_projector(gl11, defining, SemisimplicityReport([], [], [], True))

    osp_def = fixture_module("osp12", "osp12_defining_module.json")
    p0 = invariant_projector(osp12, osp_def)
    assert p0 == {0: {0: F(1)}}

    with pytest.raises(NotSemisimpleError):
        invariant_projector(gl11, fixture_module("gl11", "jordan_module.json"))


# -- integral matrices ---------------------------------------------------------

def test_integral_on_exterior_module_is_berezin(g2):
    ext = fixture_module("g2", "exterior_module.json")
    inv = invariant_z(g2)
    m = integral_matrix(g2, ext, inv)
    top = module_action(ext, inv.z)
    assert m.entries == top
    # the column over the basis vector 1 is exactly top-coefficient extraction
    col = [row[0] for row in dense_of(m.entries, 4)]
    assert col == [F(0), F(0), F(0), F(1)]
    assert m.parity == 0


def test_integral_on_trivial_module_is_counit_of_z(gl11, osp12):
    m = integral_matrix(gl11, trivial_module(gl11), invariant_z(gl11))
    assert dense_of(m.entries, 1) == [[counit(invariant_z(gl11).z)]] == [[F(0)]]
    m = integral_matrix(osp12, trivial_module(osp12), invariant_z(osp12))
    assert m.entries == {0: {0: F(1)}}


def test_integral_vanishes_without_module_invariants(gl11, osp12):
    defining = fixture_module("gl11", "defining_module.json")
    m = integral_matrix(gl11, defining, invariant_z(gl11))
    assert m.entries == {}
    assert check_right_integral(gl11, defining, m)

    osp_def = fixture_module("osp12", "osp12_defining_module.json")
    m = integral_matrix(osp12, osp_def, invariant_z(osp12))
    assert m.entries == {}


def test_integral_on_osp12_tensor_square(osp12):
    # hand-derived: columns are multiples of the invariant vector
    # v0(x)v0 - v1(x)v2 + v2(x)v1 (indices 0, 5, 7); the projector halves
    # the symplectic pair and the invariant pairs with weight -1, 1, -1.
    tensor = fixture_module("osp12", "osp12_tensor_module.json")
    m = integral_matrix(osp12, tensor, invariant_z(osp12))
    expected = [[F(0)] * 9 for _ in range(9)]
    for col, scale in ((0, F(1)), (5, F(1)), (7, F(-1))):
        expected[0][col] = -scale
        expected[5][col] = scale
        expected[7][col] = -scale
    assert m.entries == rows_of(expected)
    assert check_right_integral(osp12, tensor, m)
    assert linalg.rank(m.entries.values()) == 1


def test_right_integral_checks(g2):
    ext = fixture_module("g2", "exterior_module.json")
    m = integral_matrix(g2, ext, invariant_z(g2))
    assert check_right_integral(g2, ext, m)


def test_integral_parity_support():
    for key in UNIMODULAR:
        alg = fixture_algebra(key)
        inv = invariant_z(alg)
        for filename in MODULE_FILES[key]:
            module = fixture_module(key, filename)
            report = check_semisimple_over_even(alg, module)
            if not report.ok:
                continue
            m = integral_matrix(alg, module, inv)
            for i, row in m.entries.items():
                for j in row:
                    assert (module.parities[i] + module.parities[j]) % 2 \
                        == m.parity


def test_projector_identities():
    for key in UNIMODULAR:
        alg = fixture_algebra(key)
        for filename in MODULE_FILES[key]:
            module = fixture_module(key, filename)
            report = check_semisimple_over_even(alg, module)
            if not report.ok:
                continue
            p0 = invariant_projector(alg, module, report)
            dense_p0 = dense_of(p0, module.dim)
            assert dense_mul(dense_p0, dense_p0) == dense_p0
            for i in range(alg.n_even):
                rho = dense_of(module.rho(i), module.dim)
                assert not any(any(row) for row in dense_mul(rho, dense_p0))
                assert not any(any(row) for row in dense_mul(dense_p0, rho))
            # identity on the invariants
            for v in report.invariants_basis:
                assert linalg.mat_vec(p0, v) == v


# -- the checks catch faults in the code they guard ----------------------------

SEMISIMPLE_UNIMODULAR = [(k, f) for k in UNIMODULAR for f in MODULE_FILES[k]
                         if check_semisimple_over_even(
                             fixture_algebra(k), fixture_module(k, f)).ok]


def plus_one_at(fn, r, c):
    """fn with its matrix result changed by one at entry (r, c)."""
    def changed(*args):
        return linalg.mat_comb([(F(1), fn(*args)), (F(1), {r: {c: F(1)}})])
    return changed


def plus_one_in_row(rref, i, c):
    """``rref`` with entry c of its reduced row i changed by one."""
    def changed(rows):
        red, pivots = rref(rows)
        x = red[i].get(c, 0) + 1
        red[i] = {**red[i], c: x} if x else {t: y for t, y in red[i].items() if t != c}
        return red, pivots
    return changed


@pytest.mark.parametrize("case", SEMISIMPLE_UNIMODULAR)
def test_projector_checks_catch_a_changed_inverse(case, monkeypatch):
    # P is C cut to its invariant columns times R, the first k rows of C^-1,
    # read as R^T off the unit columns d + r of the reduced rows [I | R^T];
    # a change there moves P off a projector that the even actions kill,
    # and the identity part is not read
    key, filename = case
    alg, module = fixture_algebra(key), fixture_module(key, filename)
    report = check_semisimple_over_even(alg, module)
    proj = invariant_projector(alg, module, report)
    d, rref = module.dim, linalg.rref
    for i in range(d):
        for c in range(d + report.invariants_dim):
            monkeypatch.setattr(linalg, "rref", plus_one_in_row(rref, i, c))
            if c >= d:
                with pytest.raises(InternalInvariantError):
                    invariant_projector(alg, module, report)
            else:
                assert invariant_projector(alg, module, report) == proj


@pytest.mark.parametrize("case", SEMISIMPLE_UNIMODULAR)
def test_left_invariance_check_catches_a_changed_action(case, monkeypatch):
    # the change adds row c of P to row r of the integral matrix: that breaks
    # left invariance unless the row is zero or e_r is killed by every action
    key, filename = case
    alg, module = fixture_algebra(key), fixture_module(key, filename)
    inv = invariant_z(alg)
    proj = invariant_projector(alg, module)
    moved = {r for i in range(alg.dim) for row in module.rho(i).values() for r in row}
    action = module_action
    for r in range(module.dim):
        for c in range(module.dim):
            monkeypatch.setattr(modules, "module_action", plus_one_at(action, r, c))
            if c in proj and r in moved:
                with pytest.raises(InternalInvariantError):
                    integral_matrix(alg, module, inv, proj)
            else:
                integral_matrix(alg, module, inv, proj)


@pytest.mark.parametrize("case", SEMISIMPLE_UNIMODULAR)
def test_right_invariance_check_catches_a_changed_entry(case):
    # M rho(i) = 0, so changing M by x E_rc changes M rho(i) by x times row
    # c of rho(i) put in row r: the check fails exactly when some action
    # has a nonzero row c
    key, filename = case
    alg = fixture_algebra(key)
    inv = invariant_z(alg)
    for module in (fixture_module(key, filename),
                   rational_change(fixture_module(key, filename), random.Random(0))):
        integral = integral_matrix(alg, module, inv)
        assert check_right_integral(alg, module, integral)
        for r in range(module.dim):
            for c in range(module.dim):
                shown = any(c in module.rho(i) for i in range(alg.dim))
                for x in (F(1), F(-2, 3)):
                    changed = modules.IntegralMatrix(
                        linalg.mat_comb([(F(1), integral.entries), (x, {r: {c: F(1)}})]),
                        integral.parity)
                    assert check_right_integral(alg, module, changed) == (not shown)


# -- integer scales against Fraction references -----------------------------------

def rational_change(module, rng):
    """``module`` on a random rational basis that mixes only basis vectors
    of equal parity: rho'(i) = T^-1 rho(i) T, with T upper triangular."""
    d, parities = module.dim, module.parities
    t = {}
    for r in range(d):
        t[r] = {r: F(rng.choice([1, -1]) * rng.randint(1, 5), rng.randint(1, 5))}
        for c in range(r + 1, d):
            if parities[r] == parities[c] and (x := F(rng.randint(-3, 3), rng.randint(1, 5))):
                t[r][c] = x
    t_inv = linalg.invert(t, d)
    action = {i: linalg.mat_mul(linalg.mat_mul(t_inv, module.rho(i)), t)
              for i in range(module.alg.dim)}
    return GradedModule(module.alg, parities, action)


def check_against_fraction_references(key, module, rng):
    """The module layer on ``module``, a module over fixture algebra
    ``key``, equals the Fraction references; the projector, or None when
    the module is not semisimple."""
    alg = fixture_algebra(key)
    assert validate_module(alg, module).ok
    u = random_element(alg, rng, max_degree=3, terms=3)
    assert module_action(module, u) == fraction_module_action(module, u)
    report = check_semisimple_over_even(alg, module)
    invariants, image, direct = fraction_split(alg, module)
    assert report.invariants_basis == invariants
    assert len(report.image_basis) == len(image)
    assert linalg.same_span(report.image_basis, image)
    assert report.decomposition_direct is direct
    assert all(isinstance(x, F) for v in report.invariants_basis + report.image_basis
               for x in v.values())
    central = [linalg.mat_comb((ci, module.rho(i)) for i, ci in vec.items())
               for vec in even_part_structure(alg).center]
    assert report.central_squarefree == [
        linalg.is_squarefree(linalg.minimal_polynomial(mat, module.dim)) for mat in central]
    if not report.ok:
        with pytest.raises(NotSemisimpleError):
            invariant_projector(alg, module, report)
        return None
    proj = invariant_projector(alg, module, report)
    assert proj == fraction_projector(alg, module, report)
    if key in UNIMODULAR:
        inv = invariant_z(alg)
        integral = integral_matrix(alg, module, inv, proj)
        assert integral.entries == fraction_integral(alg, module, inv, proj)
        assert check_right_integral(alg, module, integral) is \
            fraction_right_integral(alg, module, integral.entries) is True
    return proj


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIXTURE_MODULES), st.integers(0, 2 ** 32))
def test_module_layer_matches_fraction_references_on_a_rational_change(case, seed):
    key, filename = case
    rng = random.Random(seed)
    check_against_fraction_references(key, rational_change(fixture_module(key, filename), rng),
                                      rng)


def test_rational_changes_reach_scales_above_one():
    # the shipped modules have integer entries (D = 1) and integer
    # projectors; their rational changes reach D > 1 and a projector with
    # denominators
    big_d = big_e = 0
    for key, filename in FIXTURE_MODULES:
        for seed in range(3):
            rng = random.Random(seed)
            module = rational_change(fixture_module(key, filename), rng)
            big_d += module._int_scale > 1
            proj = check_against_fraction_references(key, module, rng)
            big_e += proj is not None and any(x.denominator > 1 for row in proj.values()
                                              for x in row.values())
    assert big_d >= 10 and big_e >= 3, (big_d, big_e)


def test_quotient_modules_match_fraction_references():
    for key in ALGEBRA_FILES:
        rng = random.Random(key)
        module = quotient_module(fixture_algebra(key))
        check_against_fraction_references(key, module, rng)
        check_against_fraction_references(key, rational_change(module, rng), rng)


def test_module_layer_refuses_a_module_over_another_algebra(gl11, osp12):
    module = fixture_module("osp12", "osp12_defining_module.json")
    proj = invariant_projector(osp12, module)
    integral = integral_matrix(osp12, module, invariant_z(osp12), proj)
    assert check_right_integral(osp12, module, integral)
    inv = invariant_z(gl11)
    for call in (lambda: validate_module(gl11, module),
                 lambda: check_semisimple_over_even(gl11, module),
                 lambda: invariant_projector(gl11, module),
                 lambda: integral_matrix(gl11, module, inv),
                 lambda: integral_matrix(gl11, module, inv, proj),
                 lambda: check_right_integral(gl11, module, integral)):
        with pytest.raises(InputError, match="different algebra"):
            call()


# -- brute-force oracle ---------------------------------------------------------

def test_oracle_examples(g2, g3, bad2, gl11, osp12, sl2):
    assert brute_force_quotient_invariants(g2) == [{0b11: F(1)}]
    assert brute_force_quotient_invariants(g3) == [{0b111: F(1)}]
    assert brute_force_quotient_invariants(bad2) == []
    assert brute_force_quotient_invariants(gl11) == [{0b11: F(1)}]
    assert brute_force_quotient_invariants(osp12) == [{0b00: F(1), 0b11: F(1)}]
    assert brute_force_quotient_invariants(sl2) == [{0: F(1)}]


def test_oracle_dimension_bound():
    for key in ALGEBRA_FILES:
        assert len(brute_force_quotient_invariants(fixture_algebra(key))) <= 1


# -- the quotient as a module ----------------------------------------------------

def test_quotient_module_of_grassmann_is_the_exterior_fixture(g2):
    built = quotient_module(g2)
    shipped = fixture_module("g2", "exterior_module.json")
    assert built.parities == shipped.parities
    for i in range(g2.dim):
        assert built.rho(i) == shipped.rho(i)
    assert validate_module(g2, built).ok


def test_quotient_module_validates_everywhere():
    for key in ALGEBRA_FILES:
        alg = fixture_algebra(key)
        module = quotient_module(alg)
        assert validate_module(alg, module).ok
        assert module.dim == 1 << alg.n_odd


def test_fixture_generator_reproduces_the_shipped_fixtures(tmp_path, monkeypatch):
    # the exterior modules are built by quotient_module, so this also pins
    # the quotient rewriting byte for byte
    path = Path(__file__).resolve().parents[1] / "tools" / "gen_fixtures.py"
    monkeypatch.setattr(sys, "path", list(sys.path))   # the tool prepends src/
    spec = importlib.util.spec_from_file_location("gen_fixtures", path)
    gen_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_fixtures)
    monkeypatch.setattr(gen_fixtures, "OUT", str(tmp_path))
    gen_fixtures.main()
    written = sorted(p.name for p in tmp_path.iterdir())
    shipped = sorted(p.name for p in Path(builtin_fixture("")).iterdir()
                     if p.suffix == ".json")
    assert written == shipped
    for name in written:
        assert (tmp_path / name).read_bytes() == \
            Path(builtin_fixture(name)).read_bytes(), name
