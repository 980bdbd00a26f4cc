import dataclasses
import importlib.util
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superhaar import (GradedModule, InputError, InternalInvariantError,
                       LieSuperalgebra, NotSemisimpleError, SemisimplicityReport,
                       brute_force_quotient_invariants, check_right_integral,
                       check_semisimple_over_even, counit, integral_matrix,
                       invariant_projector, invariant_z, lambda_values, linalg,
                       module_action, modules, multiply, odd_subset_order, quotient_module,
                       validate_module, validate_superalgebra)
from superhaar.algebra import even_part_structure
from superhaar.cli import main
from superhaar.fileio import builtin_fixture, dumps_canonical, module_to_json

from conftest import (ALGEBRA_FILES, FIXTURE_MODULES, MODULE_FILES, UNIMODULAR,
                      dense_of, fixture_algebra, fixture_module, gl_supermatrix_units,
                      identity, rescaled_algebra, rows_of)
from randgen import (change_basis, mat_vec, random_element, random_odd_basis_change,
                     random_small_superalgebra)
from reference import (dense_mul, dense_nullspace, dense_rref, dense_validate_module,
                       fraction_act_on_quotient, fraction_integral, fraction_module_action,
                       fraction_projector, fraction_right_integral, fraction_split,
                       full_oracle)
from realizations import dual_module, gl_realization, realization, tensor_module

F = Fraction


def trivial_module(alg):
    return GradedModule(alg, [0], {}, name="trivial")


# -- validation -------------------------------------------------------------

def test_fixture_modules_all_validate():
    for key, files in MODULE_FILES.items():
        for filename in files:
            report = validate_module(fixture_module(key, filename))
            assert report.ok, (filename, report.violations)


def test_trivial_module_is_valid(gl11):
    assert validate_module(trivial_module(gl11)).ok


def test_module_parity_violation_is_witnessed(gl11):
    # odd generator acting diagonally breaks the parity pattern
    broken = GradedModule(gl11, [0, 1], {2: [[1, 0], [0, 0]]})
    report = validate_module(broken)
    assert any(v.kind == "module-parity" for v in report.violations)


def test_module_bracket_violation_is_witnessed(gl11):
    # keep rho(e) = 0 but rho(f) and the h's as in the defining module:
    # then rho([e,f]) = rho(h1) + rho(h2) = 1 but the supercommutator is 0
    broken = GradedModule(gl11, [0, 1], {
        0: [[1, 0], [0, 0]],
        1: [[0, 0], [0, 1]],
        3: [[0, 0], [1, 0]],
    })
    report = validate_module(broken)
    assert any(v.kind == "module-bracket" and v.witness[:2] in ((2, 3), (3, 2))
               for v in report.violations)


def test_validate_module_matches_dense_reference_on_fixtures():
    for key, filename in FIXTURE_MODULES:
        alg = fixture_algebra(key)
        for module in (fixture_module(key, filename), quotient_module(alg)):
            assert validate_module(module).violations == \
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
    assert validate_module(changed).violations == \
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
            assert validate_module(mod).violations == \
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
    assert validate_module(changed).violations == \
        dense_validate_module(alg, changed).violations


def test_validate_module_does_not_mirror_a_pair_that_is_not_antisymmetric(gl11):
    # [f, e] = h1 instead of h1 + h2: antisymmetry fails at (e, f) only,
    # so the relation at (f, e) is not the mirror of the one at (e, f)
    h1, h2, e, f = range(4)
    table = dict(gl11._brackets)
    table[(f, e)] = {h1: 1}
    alg = LieSuperalgebra("gl11-f-e", gl11.even_names, gl11.odd_names, table)
    assert [(v.kind, v.witness) for v in validate_superalgebra(alg).violations
            if v.kind != "jacobi"] == [("antisymmetry", (e, f))]
    defining = fixture_module("gl11", "defining_module.json")
    action = {i: defining.rho(i) for i in range(alg.dim)}
    # the defining module: rho(e)rho(f) + rho(f)rho(e) = 1 = rho(h1 + h2);
    # with the one entry rho(h1)[1][1] = 1, (f, e) holds and (e, f) fails
    changed = {**action, h1: {0: {0: F(1)}, 1: {1: F(1)}}}
    for rho, bad, good in [(action, (f, e), (e, f)), (changed, (e, f), (f, e))]:
        module = GradedModule(alg, defining.parities, rho)
        report = validate_module(module)
        assert report.violations == dense_validate_module(alg, module).violations
        witnesses = [v.witness for v in report.violations]
        assert bad in witnesses and good not in witnesses


def test_validate_module_on_the_zero_module_and_an_abelian_algebra():
    # the zero module: D is the lcm over no entries
    for alg in (fixture_algebra("gl11"), rescaled("gl11", "defining_module.json")[0]):
        zero = GradedModule(alg, [0, 1, 1], {})
        assert validate_module(zero).violations == \
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
        report = validate_module(module)
        assert report.violations == dense_validate_module(ab, module).violations
        assert [v.witness for v in report.violations] == failing


def test_diagonal_reading_of_the_relations_matches_the_dense_reference():
    # gl(2|1) on V and V (x) V*, where the Cartan units act diagonally, so a
    # relation at (h, x) with [h, x] = c x is read off rho(x)'s nonzeros,
    # and one at (x, h) with [x, h] = c x too (E12 comes before E22): a
    # changed diagonal entry, an odd unit with a diagonal entry and E12
    # acting as E21 fail that reading; [h, y] with a second target takes
    # the general path
    alg, v = gl_realization(2, 1)
    h, y, y2, e, f = (alg.index_of(b) for b in ("E11", "E13", "E23", "E12", "E21"))
    table = {key: dict(entry) for key, entry in alg._brackets.items()}
    table[(h, y)] = {y: F(1), y2: F(1)}
    two_targets = LieSuperalgebra("gl(2|1)*", alg.even_names, alg.odd_names, table)
    for module in (v, tensor_module(v, dual_module(v))):
        action = {i: module.rho(i) for i in range(alg.dim)}
        r = next(iter(action[h]))
        cartan = {**action, h: {**action[h], r: {r: action[h][r][r] + 1}}}
        odd = {**action, y: {**action[y], r: {**action[y].get(r, {}), r: F(1)}}}
        for a, act, kinds in [(alg, cartan, {"module-bracket"}),
                              (alg, odd, {"module-parity", "module-bracket"}),
                              (alg, {**action, e: action[f]}, {"module-bracket"}),
                              (two_targets, action, {"module-bracket"}),
                              (alg, {}, set()), (two_targets, {}, set())]:
            changed = GradedModule(a, module.parities, act)
            report = validate_module(changed)
            assert report.violations == dense_validate_module(a, changed).violations
            assert {v.kind for v in report.violations} == kinds
        witnesses = [v.witness for v in validate_module(
            GradedModule(two_targets, module.parities, action)).violations]
        assert (h, y) in witnesses and (y, h) not in witnesses


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIXTURE_MODULES), st.data())
def test_validate_module_matches_dense_reference_on_a_changed_diagonal_action(case, data):
    # the changed action keeps only diagonal entries, so every relation
    # read off its diagonal sees the change
    key, filename = case
    alg = fixture_algebra(key)
    module = fixture_module(key, filename)
    d = module.dim
    diagonal = [i for i in range(alg.dim)
                if all(r == c for r, row in module.rho(i).items() for c in row)]
    assume(diagonal)
    action = {i: dense_of(module.rho(i), d) for i in range(alg.dim)}
    i = data.draw(st.sampled_from(diagonal))
    r = data.draw(st.integers(0, d - 1))
    action[i][r][r] += data.draw(st.sampled_from([F(1), F(-1), F(1, 2), F(3)]))
    changed = GradedModule(alg, module.parities, action)
    assert validate_module(changed).violations == \
        dense_validate_module(alg, changed).violations


def test_validate_module_matches_dense_reference_on_dense_bases():
    # in the basis of ``dense_change``, a module with two basis vectors of
    # one parity has no nonzero action with only diagonal entries, so its
    # relations take the general path
    rng = random.Random(5)
    for key, filename in FIXTURE_MODULES:
        alg = fixture_algebra(key)
        module = dense_change(fixture_module(key, filename), rng)
        if len(set(module.parities)) < module.dim:
            assert not any(rho and modules._diagonal(rho) for rho in module._int_rho)
        assert validate_module(module).violations == \
            dense_validate_module(alg, module).violations == []
        d = module.dim
        for _ in range(4):
            action = {i: dense_of(module.rho(i), d) for i in range(alg.dim)}
            i, r, c = rng.randrange(alg.dim), rng.randrange(d), rng.randrange(d)
            action[i][r][c] += rng.choice([F(1), F(-1), F(1, 2)])
            changed = GradedModule(alg, module.parities, action)
            assert validate_module(changed).violations == \
                dense_validate_module(alg, changed).violations


def int_matrices(n):
    """n x n int matrices: zero, with only diagonal entries, or any."""
    entry = st.integers(-2, 2).filter(bool)
    index = st.integers(0, n - 1)

    def rows(cells):
        out = {}
        for (r, c), x in cells.items():
            out.setdefault(r, {})[c] = x
        return out

    return st.one_of(st.just({}),
                     st.dictionaries(index, entry).map(
                         lambda diag: {r: {r: x} for r, x in diag.items()}),
                     st.dictionaries(st.tuples(index, index), entry).map(rows))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(int_matrices(n), int_matrices(n))))
def test_zero_product_matches_the_product(pair):
    a, b = pair
    assert modules._zero_product(a, b) == (not linalg.mat_mul(a, b))
    assert modules._zero_product(b, a) == (not linalg.mat_mul(b, a))


def test_rho_returns_the_nonzero_rows_it_was_given(osp12):
    module = fixture_module("osp12", "osp12_defining_module.json")
    assert module.rho(3) == {0: {2: 1}, 1: {0: -1}}
    assert all(isinstance(x, F) for row in module.rho(3).values() for x in row.values())
    assert trivial_module(osp12).rho(0) == {}
    # dense input and rows of nonzeros are checked the same way, and give
    # rows in increasing order without their zeros
    dense = GradedModule(osp12, [0, 1, 1], {3: [[0, 0, 1], [-1, 0, 0], [0, 0, 0]]})
    rows = GradedModule(osp12, [0, 1, 1], {3: {1: {0: -1}, 0: {2: 1, 1: 0}}})
    for built in (dense, rows):
        assert built.rho(3) == module.rho(3)
        assert list(built.rho(3)) == [0, 1]
    # over a common denominator D > 1, each entry comes back as given
    given = {3: {0: {2: F(1, 3)}, 1: {0: F(-1, 2)}}, 4: {0: {1: F(5, 4)}}}
    rational = GradedModule(osp12, [0, 1, 1], given)
    assert rational._int_scale == 12
    assert [rational.rho(i) for i in range(osp12.dim)] == \
        [given.get(i, {}) for i in range(osp12.dim)]
    # each call builds a fresh matrix: changing it leaves the module as it was
    shown = rational.rho(3)
    shown[0][2] = F(7)
    shown[2] = {0: F(1)}
    del shown[1]
    rational.rho(4).clear()
    assert [rational.rho(i) for i in range(osp12.dim)] == \
        [given.get(i, {}) for i in range(osp12.dim)]


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

def test_semisimplicity_examples(gl11):
    report = check_semisimple_over_even(fixture_module("g2", "exterior_module.json"))
    assert report.ok and report.invariants_dim == 4  # no even part at all

    report = check_semisimple_over_even(trivial_module(gl11))
    assert report.ok and report.invariants_dim == 1

    report = check_semisimple_over_even(fixture_module("gl11", "defining_module.json"))
    assert report.ok and report.invariants_dim == 0

    jordan = check_semisimple_over_even(fixture_module("gl11", "jordan_module.json"))
    assert not jordan.ok
    assert not all(jordan.central_squarefree)   # minimal polynomial t^2
    assert not jordan.decomposition_direct


def gl_defining_module(p, q):
    """``gl_supermatrix_units(p, q)`` on its defining module, E_ij acting
    by the unit matrix."""
    alg = gl_supermatrix_units(p, q)
    names = alg.even_names + alg.odd_names
    return GradedModule(alg, [0] * p + [1] * q,
                        {k: {int(b[1]) - 1: {int(b[2]) - 1: 1}} for k, b in enumerate(names)})


def dense_change(module, rng):
    """``module`` on a basis that mixes every two basis vectors of equal
    parity: rho'(i) = T^-1 rho(i) T for T = L U, with L and U
    unitriangular and entries +-1 between basis vectors of equal parity."""
    d, parities = module.dim, module.parities

    def unitriangular(upper):
        return {r: {r: F(1), **{c: F(x) for c in range(d)
                                if (c > r if upper else c < r) and parities[c] == parities[r]
                                and (x := rng.choice([-1, 1, 1]))}}
                for r in range(d)}

    t = linalg.mat_mul(unitriangular(False), unitriangular(True))
    t_inv = linalg.invert(t, d)
    action = {i: linalg.mat_mul(linalg.mat_mul(t_inv, module.rho(i)), t)
              for i in range(module.alg.dim)}
    return GradedModule(module.alg, parities, action)


def central_actions(module):
    """The action of each central element of the even part."""
    return [linalg.mat_comb((ci, module.rho(i)) for i, ci in vec.items())
            for vec in even_part_structure(module.alg).center]


def central_reference(module):
    """The squarefree verdict of ``linalg.minimal_polynomial`` on each
    central action: the reference for ``central_squarefree``."""
    return [linalg.is_squarefree(linalg.minimal_polynomial(mat, module.dim))
            for mat in central_actions(module)]


def test_central_squarefree_on_dense_bases(tmp_path, capsys):
    rng = random.Random(11)
    v = gl_defining_module(2, 1)
    vv = tensor_module(v, v)
    for module in (vv, tensor_module(vv, v)):
        dense = dense_change(module, rng)
        assert validate_module(dense).ok
        # neither is diagonal, so their rows' Krylov spaces are built
        center = central_actions(dense)
        assert len(center) == 2 and all(any(row.keys() - {r} for r, row in mat.items())
                                        for mat in center)
        report = check_semisimple_over_even(dense)
        assert report.central_squarefree == central_reference(dense) == [True, True]
        assert report.ok
    # the Jordan module on a dense basis: t^2 at every central element, exit 4
    jordan = dense_change(fixture_module("gl11", "jordan_module.json"), rng)
    assert all(len(jordan.rho(i).get(r, {})) == 2 for i in range(2) for r in range(2))
    report = check_semisimple_over_even(jordan)
    assert report.central_squarefree == central_reference(jordan) == [False, False]
    path = tmp_path / "dense_jordan.json"
    path.write_text(dumps_canonical(module_to_json(jordan)))
    assert main(["integrate", builtin_fixture("gl11.json"), str(path)]) == 4
    assert json.loads(capsys.readouterr().out)["semisimple"]["ok"] is False


def test_invariant_projector_examples(gl11):
    assert invariant_projector(trivial_module(gl11)) == {0: {0: F(1)}}

    ext = fixture_module("g2", "exterior_module.json")
    assert invariant_projector(ext) == identity(4)

    # g0 V = V: no invariants, no coinvariants
    defining = fixture_module("gl11", "defining_module.json")
    assert check_semisimple_over_even(defining) == SemisimplicityReport(
        [True, True], [], [], True)
    assert invariant_projector(defining) == {}

    osp_def = fixture_module("osp12", "osp12_defining_module.json")
    report = check_semisimple_over_even(osp_def)
    assert (report.invariants_basis, report.coinvariants_basis) == ([{0: F(1)}], [{0: F(1)}])
    p0 = invariant_projector(osp_def)
    assert p0 == {0: {0: F(1)}}
    # reports whose coinvariants do not pair with the invariants: one that
    # vanishes on them, none, and one too many
    for coinvariants in ([{1: F(1)}], [], [{0: F(1)}, {1: F(1)}]):
        with pytest.raises(ValueError):
            invariant_projector(osp_def, SemisimplicityReport(
                [True], report.invariants_basis, coinvariants, True))

    with pytest.raises(NotSemisimpleError):
        invariant_projector(fixture_module("gl11", "jordan_module.json"))


# -- integral matrices ---------------------------------------------------------

def test_integral_on_exterior_module_is_berezin(g2):
    ext = fixture_module("g2", "exterior_module.json")
    inv = invariant_z(g2)
    m = integral_matrix(ext, inv)
    top = module_action(ext, inv.z)
    assert m.entries == top
    # the column over the basis vector 1 is exactly top-coefficient extraction
    col = [row[0] for row in dense_of(m.entries, 4)]
    assert col == [F(0), F(0), F(0), F(1)]
    assert m.parity == 0


def test_integral_on_trivial_module_is_counit_of_z(gl11, osp12):
    m = integral_matrix(trivial_module(gl11), invariant_z(gl11))
    assert dense_of(m.entries, 1) == [[counit(invariant_z(gl11).z)]] == [[F(0)]]
    m = integral_matrix(trivial_module(osp12), invariant_z(osp12))
    assert m.entries == {0: {0: F(1)}}


def test_integral_vanishes_without_module_invariants(gl11, osp12):
    defining = fixture_module("gl11", "defining_module.json")
    m = integral_matrix(defining, invariant_z(gl11))
    assert m.entries == {}
    assert check_right_integral(defining, m)

    osp_def = fixture_module("osp12", "osp12_defining_module.json")
    m = integral_matrix(osp_def, invariant_z(osp12))
    assert m.entries == {}


def test_integral_on_osp12_tensor_square(osp12):
    # hand-derived: columns are multiples of the invariant vector
    # v0(x)v0 - v1(x)v2 + v2(x)v1 (indices 0, 5, 7); the projector halves
    # the symplectic pair and the invariant pairs with weight -1, 1, -1.
    tensor = fixture_module("osp12", "osp12_tensor_module.json")
    m = integral_matrix(tensor, invariant_z(osp12))
    expected = [[F(0)] * 9 for _ in range(9)]
    for col, scale in ((0, F(1)), (5, F(1)), (7, F(-1))):
        expected[0][col] = -scale
        expected[5][col] = scale
        expected[7][col] = -scale
    assert m.entries == rows_of(expected)
    assert check_right_integral(tensor, m)
    assert linalg.rank(m.entries.values()) == 1


def test_right_integral_checks(g2):
    ext = fixture_module("g2", "exterior_module.json")
    m = integral_matrix(ext, invariant_z(g2))
    assert check_right_integral(ext, m)


def test_integral_parity_support():
    for key in UNIMODULAR:
        alg = fixture_algebra(key)
        inv = invariant_z(alg)
        for filename in MODULE_FILES[key]:
            module = fixture_module(key, filename)
            report = check_semisimple_over_even(module)
            if not report.ok:
                continue
            m = integral_matrix(module, inv)
            for i, row in m.entries.items():
                for j in row:
                    assert (module.parities[i] + module.parities[j]) % 2 \
                        == m.parity


def test_projector_identities():
    for key in UNIMODULAR:
        alg = fixture_algebra(key)
        for filename in MODULE_FILES[key]:
            module = fixture_module(key, filename)
            report = check_semisimple_over_even(module)
            if not report.ok:
                continue
            p0 = invariant_projector(module, report)
            dense_p0 = dense_of(p0, module.dim)
            assert dense_mul(dense_p0, dense_p0) == dense_p0
            for i in range(alg.n_even):
                rho = dense_of(module.rho(i), module.dim)
                assert not any(any(row) for row in dense_mul(rho, dense_p0))
                assert not any(any(row) for row in dense_mul(dense_p0, rho))
            # identity on the invariants
            for v in report.invariants_basis:
                assert mat_vec(p0, v) == v


# -- the checks catch faults in the code they guard ----------------------------

SEMISIMPLE_UNIMODULAR = [(k, f) for k in UNIMODULAR for f in MODULE_FILES[k]
                         if check_semisimple_over_even(fixture_module(k, f)).ok]


def plus_one_at(fn, r, c):
    """fn with its matrix result changed by one at entry (r, c)."""
    def changed(*args):
        return linalg.mat_comb([(F(1), fn(*args)), (F(1), {r: {c: F(1)}})])
    return changed


@pytest.mark.parametrize("case", SEMISIMPLE_UNIMODULAR)
def test_projector_checks_catch_a_changed_inverse(case, monkeypatch):
    # P = K (C K)^-1 C: a change to one entry of (C K)^-1 moves P K off K,
    # and a change to one entry of a coinvariant phi, read from the report,
    # is caught by P rho(X) = 0 unless that entry's row of every even action
    # is zero.  Then phi stays a coinvariant, and P is unchanged while the
    # changed pairing stays invertible, as it does on these modules
    module = fixture_module(*case)
    alg, d = module.alg, module.dim
    report = check_semisimple_over_even(module)
    proj = invariant_projector(module, report)
    k, invert = report.invariants_dim, linalg.invert
    for r in range(k):
        for c in range(k):
            monkeypatch.setattr(linalg, "invert", plus_one_at(invert, r, c))
            with pytest.raises(InternalInvariantError):
                invariant_projector(module, report)
    monkeypatch.setattr(linalg, "invert", invert)
    moved = {c for i in range(alg.n_even) for c in module.rho(i)}
    for r in range(k):
        for c in range(d):
            coinvariants = list(report.coinvariants_basis)
            coinvariants[r] = linalg.mat_comb([(F(1), {0: coinvariants[r]}),
                                               (F(1), {0: {c: F(1)}})]).get(0, {})
            changed = dataclasses.replace(report, coinvariants_basis=coinvariants)
            if c in moved:
                with pytest.raises(InternalInvariantError,
                                   match="projector does not kill the even image"):
                    invariant_projector(module, changed)
            else:
                assert invariant_projector(module, changed) == proj


def test_projector_check_catches_a_dropped_invariant(monkeypatch):
    # without the last row of (C K)^-1, P = K (C K)^-1 C keeps P^2 = P and
    # the two even-action identities but has rank k - 1: only P K = K
    # sees it
    module = fixture_module("osp12", "osp12_tensor_module.json")
    report = check_semisimple_over_even(module)
    k, invert = report.invariants_dim, linalg.invert
    assert k == 2

    def dropped(mat, n):
        return {r: row for r, row in invert(mat, n).items() if r != n - 1}

    monkeypatch.setattr(linalg, "invert", dropped)
    with pytest.raises(InternalInvariantError, match="projector does not fix the invariants"):
        invariant_projector(module, report)


@pytest.mark.parametrize("case", SEMISIMPLE_UNIMODULAR)
def test_left_invariance_check_catches_a_changed_action(case, monkeypatch):
    # the change adds row c of P to row r of the integral matrix, as a
    # change of rho(z) by one at (r, c) would: that breaks left invariance
    # unless the row is zero or e_r is killed by every action.  The product
    # rho(z) P is formed by modules._act_on on the int rows of t P, as
    # q rho(z) t P, so the change adds q times row c there
    key, filename = case
    alg, module = fixture_algebra(key), fixture_module(key, filename)
    inv = invariant_z(alg)
    proj = invariant_projector(module)
    moved = {r for i in range(alg.dim) for row in module.rho(i).values() for r in row}
    act_on = modules._act_on

    def plus_row(r, c):
        def changed(module, u, mat):
            q, m = act_on(module, u, mat)
            return q, linalg.mat_comb([(1, m), (q, {r: mat.get(c, {})})])
        return changed

    for r in range(module.dim):
        for c in range(module.dim):
            monkeypatch.setattr(modules, "_act_on", plus_row(r, c))
            if c in proj and r in moved:
                with pytest.raises(InternalInvariantError):
                    integral_matrix(module, inv, proj)
            else:
                integral_matrix(module, inv, proj)


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
        integral = integral_matrix(module, inv)
        assert check_right_integral(module, integral)
        for r in range(module.dim):
            for c in range(module.dim):
                shown = any(c in module.rho(i) for i in range(alg.dim))
                for x in (F(1), F(-2, 3)):
                    changed = modules.IntegralMatrix(
                        linalg.mat_comb([(F(1), integral.entries), (x, {r: {c: F(1)}})]),
                        integral.parity)
                    assert check_right_integral(module, changed) == (not shown)


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


def check_against_fraction_references(module, rng):
    """The module layer on ``module`` equals the Fraction references, the
    integral included when the algebra passes the trace condition; the
    projector, or None when the module is not semisimple."""
    alg = module.alg
    assert validate_module(module).ok
    u = random_element(alg, rng, max_degree=3, terms=3)
    assert module_action(module, u) == fraction_module_action(module, u)
    report = check_semisimple_over_even(module)
    invariants, image, direct = fraction_split(alg, module)
    assert report.invariants_basis == invariants
    assert report.coinvariants_basis == linalg.nullspace(image, module.dim)
    assert report.decomposition_direct is direct
    assert all(isinstance(x, F) for v in report.invariants_basis + report.coinvariants_basis
               for x in v.values())
    assert report.central_squarefree == central_reference(module)
    if not report.ok:
        with pytest.raises(NotSemisimpleError):
            invariant_projector(module, report)
        return None
    proj = invariant_projector(module, report)
    assert proj == fraction_projector(alg, module)
    if not any(lambda_values(alg).values()):
        inv = invariant_z(alg)
        integral = integral_matrix(module, inv, proj)
        assert integral.entries == fraction_integral(alg, module, inv, proj)
        assert check_right_integral(module, integral) is \
            fraction_right_integral(alg, module, integral.entries) is True
    return proj


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIXTURE_MODULES), st.integers(0, 2 ** 32))
def test_module_layer_matches_fraction_references_on_a_rational_change(case, seed):
    key, filename = case
    rng = random.Random(seed)
    check_against_fraction_references(rational_change(fixture_module(key, filename), rng), rng)


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
            proj = check_against_fraction_references(module, rng)
            big_e += proj is not None and any(x.denominator > 1 for row in proj.values()
                                              for x in row.values())
    assert big_d >= 10 and big_e >= 3, (big_d, big_e)


def test_quotient_modules_match_fraction_references():
    for key in ALGEBRA_FILES:
        rng = random.Random(key)
        module = quotient_module(fixture_algebra(key))
        check_against_fraction_references(module, rng)
        check_against_fraction_references(rational_change(module, rng), rng)


def permuted(module, rng):
    """``module`` on its basis relabelled by a seeded permutation."""
    perm = list(range(module.dim))
    rng.shuffle(perm)           # old index t becomes perm[t]
    parities = [0] * module.dim
    for t, p in enumerate(module.parities):
        parities[perm[t]] = p
    action = {i: {perm[r]: {perm[c]: x for c, x in row.items()}
                  for r, row in module.rho(i).items()} for i in range(module.alg.dim)}
    return GradedModule(module.alg, parities, action)


def gl21_with_identity():
    """gl(2|1) with E33 replaced by the identity I on its defining module V:
    on V (x) V*, I acts as the zero matrix, E11 and E22 diagonally, and E12
    and E21 not."""
    deg = [0, 0, 1]
    units = {f"E{i + 1}{j + 1}": {i: {j: 1}} for i in range(3) for j in range(3)}
    even = [(b, units[b]) for b in ("E11", "E22")] + [("I", identity(3))] + \
        [(b, units[b]) for b in ("E12", "E21")]
    odd = [(b, units[b]) for b in ("E13", "E23", "E31", "E32")]
    _, v = realization("gl(2|1)-I", even, odd, deg)
    return tensor_module(v, dual_module(v))


def test_the_split_is_taken_on_the_weight_zero_coordinates(monkeypatch):
    # both kernels are taken on Z, the coordinates where every diagonal
    # even action is zero, from the other even actions alone: one
    # linalg.nullspace call each, on |Z| columns.  On every module, the
    # report, projector and integral equal the Fraction references, which
    # eliminate all d coordinates
    rng = random.Random(5)
    v = gl_defining_module(2, 1)
    vv = tensor_module(v, dual_module(v))
    vvv = tensor_module(vv, v)
    with_identity = gl21_with_identity()
    assert not with_identity.rho(2) and with_identity.rho(3)
    cases = [
        (vvv, 0),                           # the Cartan moves every coordinate
        (dense_change(vv, rng), 9),         # no even action is diagonal
        (dense_change(vvv, rng), 27),
        (with_identity, 3),                 # a zero action, Z = {e_a (x) f_a}
        (GradedModule(v.alg, [], {}), 0),   # d = 0
        (permuted(tensor_module(vv, vv), rng), 15),
        # one-entry rows off the diagonal: not diagonal, so Z is every
        # coordinate, and the split is not direct
        (fixture_module("gl11", "jordan_module.json"), 2),
    ]
    nullspace = linalg.nullspace
    for module, size in cases:
        even_report, cols = even_part_structure(module.alg), []

        def counted(rows, n):
            cols.append(n)
            return nullspace(rows, n)

        monkeypatch.setattr(linalg, "nullspace", counted)
        check_semisimple_over_even(module, even_report)
        monkeypatch.setattr(linalg, "nullspace", nullspace)
        assert cols == [size, size]
        check_against_fraction_references(module, rng)


def test_the_integral_on_the_quotient_module_is_not_zero():
    # left invariance holds for M = 0 too, so pin rank M = dim W^g = 1, with
    # W^g the joint kernel of every rho(w), counted by the dense reference
    # on the stacked nonzero rows
    algebras = [gl_supermatrix_units(p, q) for p, q in ((1, 1), (2, 1), (1, 2), (2, 2))]
    for alg in algebras + [fixture_algebra("osp12")]:
        module = quotient_module(alg)
        d = module.dim
        invariants = dense_nullspace([[row.get(c, F(0)) for c in range(d)]
                                      for i in range(alg.dim) for row in module.rho(i).values()])
        m = integral_matrix(module, invariant_z(alg))
        assert len(dense_rref(dense_of(m.entries, d))[1]) == len(invariants) == 1, alg.name


def test_the_integral_reaches_every_invariant_of_a_projective_module():
    # P (x) W is projective for the quotient module P, so the integral's
    # image is all of W^g: rank M = dim W^g, W^g counted as the joint kernel
    # of every rho(w) by the dense reference.  V (x) V* on gl(2|1) is not
    # projective, and there M = 0 on a nonzero W^g
    for (p, q), where, want in (((1, 1), "P V V*", (16, 2, 2)), ((1, 1), "V V* P", (16, 2, 2)),
                                ((2, 1), "P V V*", (144, 2, 2)), ((2, 1), "V V*", (9, 0, 1))):
        alg, v = gl_realization(p, q)
        vv, proj = tensor_module(v, dual_module(v)), quotient_module(alg)
        w = {"P V V*": tensor_module(proj, vv), "V V* P": tensor_module(vv, proj),
             "V V*": vv}[where]
        d, inv = w.dim, invariant_z(alg)
        m = integral_matrix(w, inv)
        invariants = dense_nullspace([[row.get(c, F(0)) for c in range(d)]
                                      for i in range(alg.dim) for row in w.rho(i).values()])
        assert (d, len(dense_rref(dense_of(m.entries, d))[1]), len(invariants)) == want, where
        if want[1]:
            # the antipode: M_{W*} = M_W^T, for the even z here
            assert m.parity == 0
            assert integral_matrix(dual_module(w), inv).entries == linalg.transpose(m.entries)
    w = fixture_module("osp12", "osp12_tensor_module.json")
    inv = invariant_z(w.alg)
    m = integral_matrix(w, inv)
    assert m.entries and m.parity == 0
    assert integral_matrix(dual_module(w), inv).entries == linalg.transpose(m.entries)


def joint_kernel_dim(w):
    """dim W^g, the joint kernel of every rho(w), by the dense reference on
    the stacked nonzero rows."""
    d = w.dim
    rows = [[row.get(c, F(0)) for c in range(d)]
            for i in range(w.alg.dim) for row in w.rho(i).values()]
    return len(dense_nullspace(rows)) if rows else d


@pytest.mark.parametrize("case, want", [
    (("osp12", "osp12_defining_module.json"), (12, 1, 1)),
    (("osp12", "osp12_tensor_module.json"), (36, 2, 2)),
    (("g2", "exterior_module.json"), (16, 4, 4)),
    (("g3", "exterior3_module.json"), (64, 8, 8)),
    (("gl11", "defining_module.json"), (8, 0, 0)),
    (("sl2", "sl2_defining_module.json"), (2, 0, 0))])
def test_the_integral_reaches_every_invariant_of_a_projective_fixture_module(case, want):
    # P (x) F and F (x) P are projective for the quotient module P and any
    # fixture module F, so rank M = dim W^g on both
    f = fixture_module(*case)
    proj, inv = quotient_module(f.alg), invariant_z(f.alg)
    for w in (tensor_module(proj, f), tensor_module(f, proj)):
        m = integral_matrix(w, inv)
        rank = len(dense_rref(dense_of(m.entries, w.dim))[1])
        assert (w.dim, rank, joint_kernel_dim(w)) == want


def reaches_identity(w):
    """Does the integral on End(W) = W (x) W* reach iota(id_W), the vector
    sum_a (-1)^|a| e_a (x) e_a* at index a d + a?"""
    d = w.dim
    end = tensor_module(w, dual_module(w))
    m = integral_matrix(end, invariant_z(w.alg))
    cols = [[col.get(r, F(0)) for r in range(d * d)]
            for col in linalg.transpose(m.entries).values()]
    iota = [F(0)] * (d * d)
    for a, parity in enumerate(w.parities):
        iota[a * d + a] = F(-1 if parity else 1)
    return len(dense_rref(cols + [iota])[1]) == len(dense_rref(cols)[1])


def test_the_integral_on_end_w_reaches_the_identity_exactly_when_w_is_projective(osp12, gl11):
    # W is projective relative to g0 exactly when id_W is a relative trace,
    # that is when the integral on End(W) reaches iota(id_W)
    gl21, gl21_v = gl_realization(2, 1)
    gl12, gl12_v = gl_realization(1, 2)
    projective = [fixture_module("osp12", "osp12_defining_module.json"),
                  fixture_module("osp12", "osp12_tensor_module.json"),
                  trivial_module(osp12), quotient_module(osp12),
                  fixture_module("gl11", "defining_module.json"), quotient_module(gl11),
                  fixture_module("g2", "exterior_module.json"),
                  fixture_module("sl2", "sl2_defining_module.json"),
                  quotient_module(gl21), quotient_module(gl12)]
    assert [w.dim ** 2 for w in projective[-2:]] == [256, 256]
    for w in projective:
        assert reaches_identity(w), w
    for w in (trivial_module(gl11), gl21_v, gl12_v):
        assert not reaches_identity(w), w


def test_integral_matrix_refuses_an_invariant_over_another_algebra(gl11, osp12):
    # the module carries its algebra, so only the invariant can come from
    # another one, and module_action refuses it
    module = fixture_module("osp12", "osp12_defining_module.json")
    proj = invariant_projector(module)
    assert check_right_integral(module, integral_matrix(module, invariant_z(osp12), proj))
    inv = invariant_z(gl11)
    for call in (lambda: integral_matrix(module, inv),
                 lambda: integral_matrix(module, inv, proj)):
        with pytest.raises(ValueError, match="different algebras"):
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


def test_oracle_equals_the_nullspace_of_every_row(rng):
    # the oracle eliminates the m odd rows and tests one candidate against
    # the even generators; the reference eliminates all dim * 2^m rows
    algs = [fixture_algebra(key) for key in ALGEBRA_FILES]
    # the Grassmann algebras are abelian, so rescaling leaves their scale 1
    scaled = [rescaled_algebra(fixture_algebra(key)) for key in ("bad2", "gl11", "osp12", "sl2")]
    for p, q in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]:
        alg = gl_supermatrix_units(p, q)
        algs += [alg, random_odd_basis_change(alg, rng)[0]]
        scaled.append(rescaled_algebra(alg))
    # the odd rows are read in ints scaled by S^(m - |mask|); S > 1 pins it
    assert all(alg._int_scale > 1 for alg in scaled)
    draws = [random_small_superalgebra(rng) for _ in range(40)]
    for alg in algs + scaled + draws:
        assert brute_force_quotient_invariants(alg) == full_oracle(alg), alg.name
    # the draws include algebras that fail the trace condition
    assert {len(full_oracle(alg)) for alg in draws} == {0, 1}


def test_a_zeroed_odd_action_grows_the_odd_kernel_and_exits_70(monkeypatch, capsys):
    # with x_0 acting as zero the odd rows no longer force the top part, so
    # the odd kernel of gl(1|1) is two-dimensional
    alg = fixture_algebra("gl11")
    honest = modules._int_action_rows

    def zero_first_odd(alg, t):
        return {} if t == alg.n_even else honest(alg, t)

    monkeypatch.setattr(modules, "_int_action_rows", zero_first_odd)
    with pytest.raises(InternalInvariantError, match="kill 2 independent classes"):
        brute_force_quotient_invariants(alg)
    assert main(["invariant", builtin_fixture(ALGEBRA_FILES["gl11"]), "--oracle"]) == 70
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("superhaar: internal invariant violation:")


def test_an_even_generator_that_moves_the_candidate_empties_the_oracle(monkeypatch,
                                                                       capsys):
    # the odd rows alone keep the top class of gl(1|1); an even generator
    # that moves it leaves no invariant, and the CLI reports the disagreement
    alg = fixture_algebra("gl11")
    honest = modules.act_on_quotient

    def move_by_first_even(alg, i, cls):
        return {0: F(1)} if i == 0 and cls else honest(alg, i, cls)

    monkeypatch.setattr(modules, "act_on_quotient", move_by_first_even)
    assert brute_force_quotient_invariants(alg) == []
    assert main(["invariant", builtin_fixture(ALGEBRA_FILES["gl11"]), "--oracle"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["oracle_dimension"] == 0 and payload["oracle_agrees"] is False


# -- the quotient as a module ----------------------------------------------------

def test_quotient_module_of_grassmann_is_the_exterior_fixture(g2):
    built = quotient_module(g2)
    shipped = fixture_module("g2", "exterior_module.json")
    assert built.parities == shipped.parities
    for i in range(g2.dim):
        assert built.rho(i) == shipped.rho(i)
    assert validate_module(built).ok


def test_quotient_module_validates_everywhere():
    for key in ALGEBRA_FILES:
        alg = fixture_algebra(key)
        module = quotient_module(alg)
        assert validate_module(module).ok
        assert module.dim == 1 << alg.n_odd


def test_quotient_module_matches_the_fraction_action_at_scale_above_one():
    # the quotient rows come from the enveloping layer's ints, row J times
    # S^(m + 1 - |J|); every fixture has S = 1, so only these pin the division
    alg = gl_supermatrix_units(2, 1)
    for alg in (rescaled_algebra(alg), random_odd_basis_change(alg, random.Random(5))[0]):
        assert alg._int_scale > 1, alg.name
        order = odd_subset_order(alg.n_odd)
        module = quotient_module(alg)
        for i in range(alg.dim):
            rho = module.rho(i)
            for col, mask in enumerate(order):
                image = fraction_act_on_quotient(alg, i, {mask: F(1)})
                assert {r: row[col] for r, row in rho.items() if col in row} == \
                    {order.index(j): c for j, c in image.items()}, (alg.name, i, mask)


def assert_is_the_checked_module(module):
    """``module``, built without the constructor's checks, holds the int
    copy, rows and columns in increasing order, that the constructor builds
    from its own Fraction actions."""
    alg = module.alg
    built = GradedModule(alg, list(module.parities),
                         {i: module.rho(i) for i in range(alg.dim)}, module.name)
    assert type(module.parities) is tuple and module.dim == len(module.parities)
    assert (module._int_scale, module._int_rho) == (built._int_scale, built._int_rho)
    for mat in module._int_rho:
        assert list(mat) == sorted(mat) and all(list(row) == sorted(row)
                                                for row in mat.values())


def test_quotient_and_loaded_modules_hold_the_checked_int_copy():
    alg = gl_supermatrix_units(2, 1)
    for alg in [*map(fixture_algebra, ALGEBRA_FILES), rescaled_algebra(alg),
                random_odd_basis_change(alg, random.Random(5))[0]]:
        assert_is_the_checked_module(quotient_module(alg))
    for key, filename in FIXTURE_MODULES:
        assert_is_the_checked_module(fixture_module(key, filename))


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
