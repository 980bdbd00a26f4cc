import copy
import json
import random
import re
from fractions import Fraction

import pytest

import superhaar.enveloping as enveloping
import superhaar.frobenius as frobenius
from superhaar import (InternalInvariantError, LieSuperalgebra,
                       NoInvariantError, UEElement,
                       brute_force_quotient_invariants, counit, dual_pair,
                       frobenius_matrix, invariant_z,
                       lambda_values, linalg, multiply,
                       odd_subset_order, quotient_project,
                       validate_superalgebra)
from superhaar.cli import main
from superhaar.fileio import algebra_to_json, builtin_fixture, dumps_canonical

from conftest import (ALGEBRA_FILES, UNIMODULAR, alpha_inv, at_int_scale, bench_algebra,
                      bench_gen, fixture_algebra, gen, gl_supermatrix_units, int_scaled, int_terms,
                      parabolic_supermatrix_units, rescaled_algebra, twist,
                      twisted_dual_algebra)
from randgen import (from_word, map_element, random_element, random_even_element,
                     random_odd_basis_change, random_small_superalgebra)
from reference import (dense_forward_substitution, form, fraction_dual_pair,
                       fraction_pairing, left_coefficients, left_counits, pi,
                       subset_monomial, tuple_subset_order)

F = Fraction


def test_odd_subset_order_refines_cardinality():
    for m in range(6):
        order = odd_subset_order(m)
        assert len(order) == 1 << m
        assert order[0] == 0
        assert order[-1] == (1 << m) - 1
        sizes = [mask.bit_count() for mask in order]
        assert sizes == sorted(sizes)


def test_odd_subset_order_is_the_tuple_order():
    for m in range(11):
        assert odd_subset_order(m) == tuple_subset_order(m), m


def test_pi_examples(g2, bad2):
    x1, x2 = gen(g2, "x1"), gen(g2, "x2")
    assert pi(multiply(x1, x2)) == UEElement.one(g2)
    assert not pi(UEElement.one(g2))
    X, th = gen(bad2, "X"), gen(bad2, "th")
    assert pi(multiply(X, th)) == X


def test_pi_is_identity_when_no_odd_part(sl2):
    u = gen(sl2, "H") + 2 * multiply(gen(sl2, "E"), gen(sl2, "F"))
    assert pi(u) == u


def test_pi_is_the_top_left_coefficient(rng):
    for key in ALGEBRA_FILES:   # sl2 has m = 0
        alg = fixture_algebra(key)
        top = (1 << alg.n_odd) - 1
        for _ in range(6):
            u = random_element(alg, rng, max_degree=4, terms=6)
            # the reader splits the ints of u as they are; its coefficient
            # of x^top is over u's denominator divided by S^m
            top_part = frobenius._even_ints(u).get(top, UEElement.zero(alg))
            assert pi(u) == top_part, alg.name
            assert not top_part or \
                top_part._den == u._den // alg._int_scale ** alg.n_odd, alg.name


def test_form_examples(g2):
    x1, x2 = gen(g2, "x1"), gen(g2, "x2")
    one = UEElement.one(g2)
    assert form(x1, x2) == one
    assert form(x2, x1) == -one
    assert not form(one, one)


def test_frobenius_matrix_diagonal_examples(g2, bad2, sl2):
    fm = frobenius_matrix(g2)
    assert fm.order == (0b00, 0b01, 0b10, 0b11)
    assert fm.diagonal == (1, 1, -1, 1)
    for i in range(4):
        for j in range(4):
            want = UEElement.scalar(g2, fm.diagonal[i]) if i == j \
                else UEElement.zero(g2)
            assert fm.entries[i][j] == want
            assert fm.inverse[i][j] == want

    assert frobenius_matrix(bad2).diagonal == (1, 1)

    fm0 = frobenius_matrix(sl2)  # no odd part: 1 x 1 identity
    assert fm0.entries == ((UEElement.one(sl2),),)
    assert fm0.inverse == ((UEElement.one(sl2),),)


def test_frobenius_matrix_structure_all_fixtures():
    for key in ALGEBRA_FILES:
        alg = fixture_algebra(key)
        fm = frobenius_matrix(alg)  # triangularity and A*A^-1 = 1 verified inside
        n = len(fm.order)
        one, zero = UEElement.one(alg), UEElement.zero(alg)
        for i in range(n):
            assert fm.diagonal[i] in (1, -1)
            for j in range(n):
                # entries (and inverse entries) lie in the even subalgebra
                for e in (fm.entries[i][j], fm.inverse[i][j]):
                    assert all(g < alg.n_even for w in e.terms for g in w)
                if j > i:
                    assert not fm.entries[i][j]
        # external re-check of the right inverse
        for i in range(n):
            for j in range(n):
                acc = UEElement.zero(alg)
                for k in range(n):
                    acc = acc + multiply(fm.entries[i][k], fm.inverse[k][j])
                assert acc == (one if i == j else zero)


def test_osp12_pairing_has_noncommutative_entry(osp12):
    fm = frobenius_matrix(osp12)
    h = gen(osp12, "H")
    one = UEElement.one(osp12)
    # <uv, uv> collects a bracket correction: H - 1
    assert fm.entries[3][0] == h - one


def test_dual_pair_examples(g2, sl2):
    ys = dual_pair(g2)
    x1, x2 = gen(g2, "x1"), gen(g2, "x2")
    assert ys[0] == multiply(x1, x2)   # dual of the empty subset
    assert ys[1] == x2
    assert ys[2] == -x1
    assert ys[3] == UEElement.one(g2)
    assert dual_pair(sl2) == [UEElement.one(sl2)]


def test_dual_pair_exhaustive_delta():
    for key in ALGEBRA_FILES:
        alg = fixture_algebra(key)
        fm = frobenius_matrix(alg)
        ys = dual_pair(alg, fm)  # verifies <x^I, y^J> = delta internally
        assert len(ys) == 1 << alg.n_odd


def test_frobenius_homomorphism_identities(rng):
    for key in ALGEBRA_FILES:
        alg = fixture_algebra(key)
        for _ in range(10):
            s = random_even_element(alg, rng)
            u = random_element(alg, rng)
            assert pi(multiply(s, u)) == multiply(s, pi(u))
            assert pi(multiply(u, s)) == \
                multiply(pi(u), alpha_inv(s))


def test_form_associativity(rng):
    for key in ("g2", "bad2", "osp12"):
        alg = fixture_algebra(key)
        for _ in range(6):
            x = random_element(alg, rng, max_degree=2, terms=2)
            y = random_element(alg, rng, max_degree=2, terms=2)
            r = random_element(alg, rng, max_degree=2, terms=2)
            assert form(multiply(x, r), y) == form(x, multiply(r, y))


def test_invariant_z_examples(g2, sl2, gl11, osp12):
    inv = invariant_z(g2)
    assert inv.z == multiply(gen(g2, "x1"), gen(g2, "x2"))
    assert all(not res for res in inv.certificate.values())

    assert invariant_z(sl2).z == UEElement.one(sl2)

    # hand-checked by forward substitution; the quotient classes are
    # independently confirmed against the brute-force oracle below
    assert invariant_z(gl11).z == multiply(gen(gl11, "e"), gen(gl11, "f"))
    z_osp = invariant_z(osp12).z
    assert z_osp == UEElement.one(osp12) + multiply(gen(osp12, "u"),
                                                    gen(osp12, "v"))
    assert counit(z_osp) == 1


def test_invariant_z_requires_trace_condition(bad2):
    with pytest.raises(NoInvariantError) as err:
        invariant_z(bad2)
    assert err.value.violator == 0
    assert err.value.value == 1


def test_oracle_agreement_on_unimodular_fixtures():
    for key in UNIMODULAR:
        alg = fixture_algebra(key)
        oracle = brute_force_quotient_invariants(alg)
        assert len(oracle) == 1
        inv = invariant_z(alg)
        assert inv.quotient_class == quotient_project(inv.z)
        assert linalg.same_span([oracle[0]], [inv.quotient_class])


def test_invariant_class_covariant_under_odd_basis_change(rng):
    for key in ("g2", "osp12"):
        alg = fixture_algebra(key)
        base = invariant_z(alg).quotient_class
        assert base
        for _ in range(3):
            twisted, full = random_odd_basis_change(alg, rng)
            assert validate_superalgebra(twisted).ok
            z_new = invariant_z(twisted).z
            pulled = map_element(z_new, alg, full)
            assert linalg.same_span([quotient_project(pulled)], [base])


def test_subset_monomial(g3):
    x = subset_monomial(g3, 0b101)
    assert repr(x) == "x1*x3"


def test_full_pipeline_on_random_small_algebras(rng):
    # existence iff trace condition, and class agreement, on algebras with
    # dense structure constants (not just the curated fixtures)
    for _ in range(15):
        alg = random_small_superalgebra(rng, max_dim=5)
        assert validate_superalgebra(alg).ok
        fm = frobenius_matrix(alg)
        dual_pair(alg, fm)
        oracle = brute_force_quotient_invariants(alg)
        if not any(lambda_values(alg).values()):
            inv = invariant_z(alg, fm)
            assert len(oracle) == 1
            assert linalg.same_span([oracle[0]], [inv.quotient_class]), alg.name
        else:
            assert oracle == [], alg.name


# -- column zero of the inverse, its counit solved from the scalar pairing ----

def assert_column_zero_matches_full(alg):
    fm = frobenius_matrix(alg)
    # entry i carries S^|I_i|, as the empty word of an entry at degree |I_i|
    scalar = frobenius._counit_column_zero(alg, fm.order)
    assert scalar == [row[0]._ints.get((), 0) for row in fm.inverse], alg.name
    try:
        inv = invariant_z(alg)
    except NoInvariantError:
        with pytest.raises(NoInvariantError):
            invariant_z(alg, fm)
        return
    assert inv.z == invariant_z(alg, fm).z, alg.name


def test_column_zero_matches_full_inverse_on_fixtures():
    for key in ALGEBRA_FILES:
        assert_column_zero_matches_full(fixture_algebra(key))


def test_column_zero_matches_full_inverse_on_random_algebras(rng):
    for _ in range(15):
        assert_column_zero_matches_full(random_small_superalgebra(rng, max_dim=5))


def test_column_zero_matches_full_inverse_under_odd_basis_change(rng):
    for key in ("g2", "g3", "gl11", "osp12"):
        alg = fixture_algebra(key)
        for _ in range(2):
            twisted, _ = random_odd_basis_change(alg, rng)
            assert_column_zero_matches_full(twisted)


def test_column_zero_of_osp12_has_a_scalar_term(osp12):
    # z = 1 + u*v: the empty subset's row of the column is nonzero too
    assert_column_zero_matches_full(osp12)
    order = odd_subset_order(osp12.n_odd)
    assert frobenius._counit_column_zero(osp12, order) == [1, 0, 0, 1]
    z = UEElement.one(osp12) + multiply(gen(osp12, "u"), gen(osp12, "v"))
    assert invariant_z(osp12).z == invariant_z(osp12, frobenius_matrix(osp12)).z == z


def test_column_zero_matches_full_inverse_on_shuffled_gl():
    rng = random.Random(38)
    for p, q in ((3, 1), (2, 2)):
        assert_column_zero_matches_full(bench_algebra(bench_gen.gl(p, q, rng)))


# -- the weight blocks of counit(A) -------------------------------------------

def test_odd_weights_of_fixtures(gl11, osp12):
    # E11 and E22 act on E12 by 1 and -1, on E21 by -1 and 1; h acts on u, v
    # by 1 and -1; the Grassmann algebras have no even part
    assert frobenius._odd_weights(gl11) == [(0, 0), (1, -1), (-1, 1), (0, 0)]
    assert frobenius._odd_weights(osp12) == [(0,), (1,), (-1,), (0,)]
    for key in ("g2", "g3"):
        assert set(frobenius._odd_weights(fixture_algebra(key))) == {()}


def test_without_a_diagonal_even_element_the_block_is_everything():
    # a unitriangular change of the odd basis mixes every odd weight space
    alg = bench_algebra(bench_gen.change_odd_basis(
        bench_gen.gl(2, 1, None), bench_gen.unitriangular(4, random.Random(5))))
    assert frobenius._odd_weights(alg) == [()] * 16
    order = odd_subset_order(alg.n_odd)
    assert frobenius._pairing(alg, order, frobenius._counit_ints, 1, [()] * 16) == \
        frobenius._pairing(alg, order, frobenius._counit_ints, 1)
    assert_column_zero_matches_full(alg)


def test_full_counit_pairing_has_no_entry_across_weights(rng):
    # counit(A)[I][K] = 0 unless wt(I) = wt(K), on every algebra, and the
    # block of the empty set is the full matrix's block, cell for cell
    algs = [bench_algebra(bench_gen.gl(p, q, rng)) for p, q in ((2, 1), (3, 1), (2, 2), (4, 1))]
    algs.append(fixture_algebra("osp12"))
    algs += [random_small_superalgebra(rng, max_dim=5) for _ in range(15)]
    graded = 0
    for alg in algs:
        order = odd_subset_order(alg.n_odd)
        wt = frobenius._odd_weights(alg)
        full = frobenius._pairing(alg, order, frobenius._counit_ints, 1)
        assert all(wt[order[i]] == wt[order[k]] for i, row in full.items() for k in row), \
            alg.name
        block = {i: row for i, row in full.items() if wt[order[i]] == wt[0]}
        assert frobenius._pairing(alg, order, frobenius._counit_ints, 1, wt) == block, alg.name
        graded += len(set(wt)) > 1
    assert graded >= 6


def test_the_counit_chain_multiplies_only_what_the_block_reads(monkeypatch):
    alg = gl_supermatrix_units(3, 1)
    order = odd_subset_order(alg.n_odd)
    honest, calls = frobenius.multiply, []

    def count(*args):
        calls.append(args)
        return honest(*args)

    monkeypatch.setattr(frobenius, "multiply", count)
    column = frobenius._counit_column_zero(alg, order)
    assert len(calls) <= 122
    del calls[:]
    frobenius._pairing(alg, order, frobenius._counit_ints, 1)
    assert len(calls) == 6 * 63
    assert [c for c in column if c] == [1]


def corrupt_pairing(monkeypatch, cell):
    """Make ``frobenius._pairing`` add one to the cell (i, k) it returns."""
    i, k = cell
    honest = frobenius._pairing

    def corrupt(alg, order, read, one, weights=None):
        rows = honest(alg, order, read, one, weights)
        row = dict(rows.get(i, {}))
        row[k] = row[k] + one if k in row else one
        rows[i] = {c: x for c, x in row.items() if x}
        return rows

    monkeypatch.setattr(frobenius, "_pairing", corrupt)


@pytest.mark.parametrize("key,cell,caught_by", [
    ("g2", (0, 1), "not lower triangular"), ("g2", (1, 1), r"expected \+-1"),
    ("g2", (3, 0), "not invariant"),
    ("osp12", (0, 3), "not lower triangular"), ("osp12", (3, 3), r"expected \+-1"),
    ("osp12", (3, 0), "not invariant"),
], ids=["g2-above", "g2-on", "g2-below",
        "osp12-above", "osp12-on", "osp12-below"])
def test_corrupted_pairing_entry_is_caught_on_both_paths(monkeypatch, key, cell,
                                                         caught_by):
    # one +1 injected into the shared construction reaches A over the even
    # subalgebra and its counit alike; osp(1|2)'s counit path builds only
    # the block of positions 0 and 3, so its cells are taken there
    alg = fixture_algebra(key)
    corrupt_pairing(monkeypatch, cell)
    with pytest.raises(InternalInvariantError, match=caught_by):
        invariant_z(alg)
    with pytest.raises(InternalInvariantError, match=caught_by):
        invariant_z(alg, frobenius_matrix(alg))


@pytest.mark.parametrize("cell", [(1, 3), (2, 2), (3, 1), (1, 0)])
def test_a_corrupted_entry_outside_the_block_leaves_z_unchanged(monkeypatch, osp12, cell):
    # the counit path reads only the cells of the block of the empty set
    z = invariant_z(osp12).z
    corrupt_pairing(monkeypatch, cell)
    assert invariant_z(osp12).z == z


def negate_pairing(monkeypatch, cell):
    """Make ``frobenius._pairing`` negate the cell (i, k) it returns."""
    i, k = cell
    honest = frobenius._pairing

    def negate(alg, order, read, one, weights=None):
        rows = honest(alg, order, read, one, weights)
        rows[i] = {**rows[i], k: -rows[i][k]}
        return rows

    monkeypatch.setattr(frobenius, "_pairing", negate)


@pytest.mark.parametrize("key,module", [
    ("g2", None), ("gl11", None), ("osp12", "osp12_tensor_module.json"),
], ids=["g2", "gl11", "osp12"])
def test_flipped_diagonal_sign_exits_70(monkeypatch, capsys, key, module):
    # -A[empty][empty] is still unitriangular and its inverse is solved
    # exactly, so z comes out as -z on both paths; only the class of z at
    # x^top, 1 / A[empty][empty], tells, and the CLI reports it as an
    # internal invariant violation
    negate_pairing(monkeypatch, (0, 0))
    alg = fixture_algebra(key)
    top = r"the class of z is -1 at x\^top, expected 1$"
    with pytest.raises(InternalInvariantError, match=top):
        invariant_z(alg)
    with pytest.raises(InternalInvariantError, match=top):
        invariant_z(alg, frobenius_matrix(alg))
    runs = [["invariant", builtin_fixture(ALGEBRA_FILES[key])] + flags
            for flags in ([], ["--emit-matrix"])]
    if module:
        runs.append(["integrate", builtin_fixture(ALGEBRA_FILES[key]), builtin_fixture(module)])
    for argv in runs:
        assert main(argv) == 70, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("superhaar: internal invariant violation:")


def test_cli_invariant_without_emit_flags_skips_full_matrix(monkeypatch, capsys,
                                                            tmp_path):
    def refuse(what):
        def call(*args):
            raise AssertionError(f"{what} was called")
        return call

    monkeypatch.setattr("superhaar.cli.frobenius_matrix", refuse("frobenius_matrix"))
    assert main(["invariant", builtin_fixture("bad2.json")]) == 3
    assert capsys.readouterr().out == (
        '{\n  "algebra": "bad2",\n  "trace_condition": false,\n'
        '  "lambda_values": {\n    "X": "1"\n  },\n'
        '  "violator": "X",\n  "lambda": "1"\n}\n')

    # z comes from the scalar pairing: no pairing entry in the even subalgebra
    monkeypatch.setattr(frobenius, "_even_ints", refuse("_even_ints"))
    assert main(["invariant", builtin_fixture("g2_grassmann.json")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["z"] == [{"monomial": ["x1", "x2"], "coeff": "1"}]
    gl21 = tmp_path / "gl21.json"
    gl21.write_text(dumps_canonical(algebra_to_json(gl_supermatrix_units(2, 1))))
    assert main(["invariant", str(gl21)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["z"] == [{"monomial": ["E13", "E23", "E31", "E32"], "coeff": "1"}]


# -- gl(p|q) in the supermatrix-unit basis ------------------------------------

@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (3, 1), (2, 2)])
def test_gl_invariant_is_top_odd_monomial(p, q):
    alg = gl_supermatrix_units(p, q)
    assert alg.n_odd == 2 * p * q
    assert validate_superalgebra(alg).ok
    top = subset_monomial(alg, (1 << alg.n_odd) - 1)
    z = invariant_z(alg).z
    assert z in (top, -top)


# -- form on any table; dual_pair's prefix pass ------------------------------

def top_terms(u):
    n0, m = u.alg.n_even, u.alg.n_odd
    return UEElement(u.alg, {w: c for w, c in u.terms.items()
                             if sum(g >= n0 for g in w) == m})


@pytest.mark.parametrize("even,odd,brackets,x,y,want", [
    # an odd square that collapses to an odd letter: t1 t1 = [t1, t1]/2 = t1/2
    ([], ["t1", "t2"], {(0, 0): {0: 1}}, ["t1"], ["t1", "t2"], F(1, 2)),
    # an even bracket with an odd value: Y X = X Y - t
    (["X", "Y"], ["t"], {(0, 1): {2: 1}, (1, 0): {2: -1}}, ["Y"], ["X"], F(-1)),
], ids=["odd-square-to-odd", "even-bracket-to-odd"])
def test_form_on_a_table_that_breaks_parity(even, odd, brackets, x, y, want):
    # form reads the full product, so it holds on any table; the odd-count
    # floor of dual_pair's check does not hold on this one, so dual_pair
    # refuses it
    alg = LieSuperalgebra("ungraded", even, odd, brackets)
    assert any(v.kind == "parity" for v in validate_superalgebra(alg).violations)
    x = from_word(alg, [alg.index_of(g) for g in x])
    y = from_word(alg, [alg.index_of(g) for g in y])
    top = subset_monomial(alg, (1 << alg.n_odd) - 1)
    assert top_terms(multiply(x, y)) == top * want
    assert form(x, y) == UEElement.scalar(alg, want)
    with pytest.raises(ValueError, match="does not respect parity"):
        dual_pair(alg)


def prefix_pairings(alg, y, memo):
    """pi(x^I y) for every mask I, converted from the integer top parts of
    ``_prefix_pairings`` on y scaled to ints with D the lcm of its
    denominators: a word of degree L in x^I y carries D * S^(deg y + |I| - L),
    and its even prefix is a word of the pairing."""
    ints, den, deg = int_scaled(y)
    tops = frobenius._prefix_pairings(alg, ints, memo)
    m, scale = alg.n_odd, alg._int_scale
    top_word = tuple(range(alg.n_even, alg.dim))
    assert len(tops) == 1 << m
    pairings = []
    for mask, top in enumerate(tops):
        assert all(w[len(w) - m:] == top_word and type(v) is int and v
                   for w, v in top.items()), (alg.name, mask)
        e = deg + mask.bit_count()
        pairings.append(UEElement(alg, {w[:len(w) - m]: F(v, den * scale ** (e - len(w)))
                                        for w, v in top.items()}))
    return pairings


def assert_prefix_pass_matches_form(alg, ys):
    # one memo for all the elements, as in dual_pair
    memo = {}
    for y in ys:
        for mask, p in enumerate(prefix_pairings(alg, y, memo)):
            assert p == form(subset_monomial(alg, mask), y), (alg.name, mask)


def test_prefix_pass_matches_form_on_fixtures(rng):
    for key in ALGEBRA_FILES:
        alg = fixture_algebra(key)
        ys = [random_element(alg, rng, max_degree=4, terms=5) for _ in range(3)]
        assert_prefix_pass_matches_form(alg, ys + dual_pair(alg))
    alg = gl_supermatrix_units(2, 1)
    assert_prefix_pass_matches_form(alg, dual_pair(alg))


def test_prefix_pass_matches_form_on_random_algebras(rng):
    # dense mixed-parity elements, and the dual elements, whose products
    # reach the top odd part, on random algebras and on their rational odd
    # basis changes
    for _ in range(6):
        alg = random_small_superalgebra(rng, max_dim=5)
        twisted, _ = random_odd_basis_change(alg, rng)
        for a in (alg, twisted):
            assert a._parity_graded
            ys = [random_element(a, rng, max_degree=4, terms=5) for _ in range(2)]
            assert_prefix_pass_matches_form(a, ys + dual_pair(a))
    dense, _ = random_odd_basis_change(gl_supermatrix_units(2, 1), rng)
    assert_prefix_pass_matches_form(dense, dual_pair(dense)[::3])


def test_prefix_pass_in_a_scaled_algebra_matches_form(monkeypatch, rng):
    # on the basis b_i/(i+2) the structure constants have denominators, so
    # the chain's integer weights carry powers of S > 1; the elements have
    # denominators of their own and terms of several degrees
    cases = []
    for alg in (rescaled_algebra(fixture_algebra("osp12")),
                rescaled_algebra(gl_supermatrix_units(2, 1))):
        assert alg._int_scale > 1
        odd = alg.n_even + alg.n_odd - 1
        ys = [random_element(alg, rng, max_degree=4, terms=5)
              + from_word(alg, (), F(1, 3)) + from_word(alg, (odd, 0, odd - 1), F(-5, 2))
              for _ in range(3)]
        assert all(len({len(w) for w in y.terms}) > 1 for y in ys)
        ys += [y * F(3, 7) for y in dual_pair(alg)]
        assert all(any(c.denominator > 1 for c in y.terms.values()) for y in ys)
        want = [[form(subset_monomial(alg, mask), y) for mask in range(1 << alg.n_odd)]
                for y in ys]
        assert any(c.denominator > 1 for row in want for p in row for c in p.terms.values())
        cases.append((alg, ys, want))

    def refuse(*args):
        raise AssertionError("multiply was called")

    monkeypatch.setattr(enveloping, "multiply", refuse)
    monkeypatch.setattr(frobenius, "multiply", refuse)
    for alg, ys, want in cases:
        memo = {}
        assert [prefix_pairings(alg, y, memo) for y in ys] == want, alg.name


def test_a_shared_memo_gives_the_fresh_memo_result(rng):
    # the heads are rewritten with weight 1, so a memo filled by other
    # elements, of other degrees and denominators, gives the same top parts
    # as a fresh one
    dense, _ = random_odd_basis_change(gl_supermatrix_units(2, 1), rng)
    for alg in [fixture_algebra(key) for key in ALGEBRA_FILES] + [dense]:
        ys = dual_pair(alg)
        ys += [random_element(alg, rng, max_degree=4, terms=5) * F(2, 3) for _ in range(2)]
        memo, ints = {}, [int_scaled(y)[0] for y in ys]
        shared = [frobenius._prefix_pairings(alg, y, memo) for y in ints]
        assert shared == [frobenius._prefix_pairings(alg, y, {}) for y in ints], alg.name
        assert memo or alg.n_odd == 0


def test_a_changed_memo_entry_is_caught(monkeypatch):
    # change one kept pair that reaches the full odd monomial, in the first
    # head that a dual element reuses after an earlier one stored it: the
    # top part moves by the head's nonzero weight, so a cell fails
    alg = gl_supermatrix_units(2, 1)
    m, n0 = alg.n_odd, alg.n_even
    honest, calls, changed = frobenius._prefix_pairings, [], []

    def full(word):
        return len(word) - sum(g < n0 for g in word) == m

    def tamper(alg, y, memo):
        calls.append(None)
        fresh = {}
        honest(alg, y, fresh)
        heads = [h for h in fresh if h in memo and any(full(u) for u, _ in memo[h])]
        if heads and not changed:
            changed.append(heads[0])
            kept = list(memo[heads[0]])
            t = next(t for t, (u, _) in enumerate(kept) if full(u))
            kept[t] = (kept[t][0], kept[t][1] + 1)
            memo[heads[0]] = tuple(kept)
        return honest(alg, y, memo)

    fm = frobenius_matrix(alg)
    dual_pair(alg, fm)
    monkeypatch.setattr(frobenius, "_prefix_pairings", tamper)
    with pytest.raises(InternalInvariantError, match=r"dual pair fails at \(\d+, \d+\)$"):
        dual_pair(alg, fm)
    assert changed and len(calls) == 1 << m


def tamper_tops(monkeypatch, j, change):
    """Make ``_prefix_pairings`` hand ``change(tops)`` to ``dual_pair`` for
    the dual element y^j, which it pairs j-th."""
    honest, calls = frobenius._prefix_pairings, []

    def tamper(alg, y, memo):
        tops = honest(alg, y, memo)
        calls.append(None)
        return change(list(tops)) if len(calls) == j + 1 else tops

    monkeypatch.setattr(frobenius, "_prefix_pairings", tamper)


def test_a_top_word_at_an_empty_product_is_caught(monkeypatch):
    # a top word where x^I y^j is zero fails the off-diagonal cell (i, j)
    for alg in (fixture_algebra("g3"), gl_supermatrix_units(2, 1)):
        fm = frobenius_matrix(alg)
        ys = dual_pair(alg, fm)
        top_word = tuple(range(alg.n_even, alg.dim))
        empty = [(i, j) for i, mask in enumerate(fm.order) for j, y in enumerate(ys)
                 if i != j and not multiply(subset_monomial(alg, mask), y)]
        assert len(empty) > 2, alg.name
        for i, j in (empty[0], empty[len(empty) // 2], empty[-1]):
            def add(tops, mask=fm.order[i]):
                tops[mask] = {top_word: 1}
                return tops

            with monkeypatch.context() as patch:
                tamper_tops(patch, j, add)
                with pytest.raises(InternalInvariantError,
                                   match=rf"dual pair fails at \({i}, {j}\)$"):
                    dual_pair(alg, fm)


def test_a_dropped_diagonal_top_is_caught(monkeypatch):
    alg = gl_supermatrix_units(2, 1)
    fm = frobenius_matrix(alg)
    for j in (0, 5, len(fm.order) - 1):
        def drop(tops, mask=fm.order[j]):
            tops[mask] = {}
            return tops

        with monkeypatch.context() as patch:
            tamper_tops(patch, j, drop)
            with pytest.raises(InternalInvariantError,
                               match=rf"dual pair fails at \({j}, {j}\)$"):
                dual_pair(alg, fm)


def test_every_rewritten_prefix_head_can_reach_its_floor(monkeypatch):
    # no rewriting step raises the odd count, so a head x_s w with fewer
    # than floor = m - s odd letters keeps no word, and is never rewritten
    honest, heads = frobenius._rewrite, []

    def count(alg, words):
        heads.extend(w for w, _ in words)
        return honest(alg, words)

    dense21 = random_odd_basis_change(gl_supermatrix_units(2, 1), random.Random(1))[0]
    dense31 = random_odd_basis_change(gl_supermatrix_units(3, 1), random.Random(1))[0]
    ys = dual_pair(dense21)
    # the dual elements of dense gl(3|1) take minutes; its odd generators,
    # 1 and a mixed sum start chains of every length
    xs = [subset_monomial(dense31, 1 << t) for t in range(dense31.n_odd)]
    mixed = xs[0] * 2 - xs[-1] + UEElement.generator(dense31, 0)
    monkeypatch.setattr(frobenius, "_rewrite", count)
    for alg, elements in [(dense21, ys), (dense31, [UEElement.one(dense31), *xs, mixed])]:
        heads.clear()
        memo = {}
        for y in elements:
            frobenius._prefix_pairings(alg, int_scaled(y)[0], memo)
        n0, m = alg.n_even, alg.n_odd
        assert heads, alg.name
        for head in heads:
            floor = m - (head[0] - n0)
            assert sum(g >= n0 for g in head) >= floor, (alg.name, head)


def test_dual_pair_leaves_the_algebra_as_it_was():
    # the memo of prefix heads lives for one call and is stored nowhere
    for alg in (gl_supermatrix_units(2, 1), fixture_algebra("osp12")):
        before = copy.deepcopy(vars(alg))
        dual_pair(alg)
        assert vars(alg) == before, alg.name


@pytest.mark.parametrize("corrupt", ["double", "add"])
def test_a_corrupted_dual_element_is_caught_in_a_scaled_algebra(monkeypatch, corrupt):
    # y^j * 2 keeps every off-diagonal cell of column j and doubles the
    # diagonal value D * S^(deg y + |I| - m); y^j + y^k pairs with x^{I_k}
    # to 1, so only the cell (k, j) fails
    alg = rescaled_algebra(gl_supermatrix_units(2, 1))
    assert alg._int_scale > 1
    fm = frobenius_matrix(alg)
    ys = dual_pair(alg, fm)
    n, m, scale, honest = len(ys), alg.n_odd, alg._int_scale, frobenius._rewrite
    # y^j in the kernel's ints: a word w carries S^(m - |I_j| - |w|)
    exps = [m - mask.bit_count() for mask in fm.order]
    for j, k in [(0, 1), (3, 12), (9, 2), (n - 1, 0)]:
        bad = ys[j] * 2 if corrupt == "double" else ys[j] + ys[k]
        # y^k may not be ints in the scale of y^j: those terms stay exact
        # Fractions, which the check's arithmetic carries as they are
        bad = {w: c * scale ** (exps[j] - len(w)) for w, c in bad.terms.items()}
        built = []

        def build(alg, heads, j=j, bad=bad):
            # dual_pair builds y^0, ..., y^(n-1) with one call each, in
            # order, before any other kernel call
            built.append(honest(alg, heads))
            return bad if len(built) == j + 1 else built[-1]

        monkeypatch.setattr(frobenius, "_rewrite", build)
        i = j if corrupt == "double" else k
        with pytest.raises(InternalInvariantError,
                           match=rf"dual pair fails at \({i}, {j}\)$"):
            dual_pair(alg, fm)
        assert [{w: v for w, v in y.items() if v} for y in built[:n]] == \
            [int_terms(y, e) for y, e in zip(ys, exps)]


def column(inverse, j, zero):
    """Column j of the rows of nonzeros of the inverse that ``frobenius._solve``
    returns."""
    return [row.get(j, zero) for row in inverse]


class Skewed(Fraction):
    """A rational whose products are one too large.  As A[i][i] it spoils
    only the check of row i: the solve multiplies by A[i][i] nowhere else."""

    def __mul__(self, other):
        return Fraction(self) * other + 1


def test_solve_verifies_the_columns_it_solves():
    # each row is checked when the solve reaches it: no entry above the
    # diagonal, a diagonal entry +-1, then A * b = e_j on every stored entry
    rows = {0: {0: F(1)}, 1: {0: F(2, 3), 1: F(-1)}, 2: {0: F(1, 2), 1: F(5), 2: F(1)}}
    zero, one = linalg.ZERO, linalg.ONE
    diagonal, inverse = frobenius._solve(rows, range(3), range(3), zero, one, "A")
    assert diagonal == (1, -1, 1)
    for j in range(3):
        single_diagonal, single = frobenius._solve(rows, range(3), (j,), zero, one, "A")
        assert single_diagonal == diagonal
        col = column(single, j, zero)
        assert col == column(inverse, j, zero)
        assert [sum(a * col[k] for k, a in rows[i].items()) for i in range(3)] == \
            [int(i == j) for i in range(3)]

    def above(bad, r):
        bad[r][r + 1] = F(1)
        return rf"A not lower triangular at \({r}, {r + 1}\)$"

    def on(bad, r):
        bad[r][r] = F(2)
        return rf"A: diagonal entry at {r} is 2, expected \+-1$"

    def product(bad, r):
        bad[r][r] = Skewed(bad[r][r])
        return rf"A times its inverse is not the identity at \({r}, 0\)$"

    for fault in (above, on, product):
        for r in range(3):
            bad = copy.deepcopy(rows)
            with pytest.raises(InternalInvariantError, match=fault(bad, r)):
                frobenius._solve(bad, range(3), range(3), zero, one, "A")
        # one column at a time, a wrong product fails at its own cell
        for r in range(3):
            for j in range(r + 1):
                bad = copy.deepcopy(rows)
                product(bad, r)
                cell = rf"A times its inverse is not the identity at \({r}, {j}\)$"
                with pytest.raises(InternalInvariantError, match=cell):
                    frobenius._solve(bad, range(3), (j,), zero, one, "A")
    # of two faults, the one in the earlier row is reported, whatever the kinds
    for first in (above, on, product):
        for second in (above, on, product):
            for r, later in ((0, 1), (0, 2), (1, 2)):
                bad = copy.deepcopy(rows)
                second(bad, later)
                with pytest.raises(InternalInvariantError, match=first(bad, r)):
                    frobenius._solve(bad, range(3), range(3), zero, one, "A")


def sparse_unitriangular(rng, n, density):
    """Rows of nonzeros of a random n x n lower triangular matrix over Q with
    diagonal entries +-1 and each entry below it nonzero with ``density``."""
    return {i: {**{k: F(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 5)))
                   for k in range(i) if rng.random() < density},
                i: F(rng.choice((1, -1)))} for i in range(n)}


def dense(rows, n, zero):
    return [[rows.get(i, {}).get(k, zero) for k in range(n)] for i in range(n)]


def test_solve_matches_dense_forward_substitution_over_q(rng):
    # the solve stores only the nonzero entries of the columns asked for;
    # the reference computes every entry of one column
    chain = {i: {i - 1: F(-2), i: F(1)} if i else {0: F(-1)} for i in range(9)}
    # column 0 solves b[1] = -1, then row 2's sum 1 - 1 cancels: row 3, whose
    # only entry below the diagonal is in column 2, gets nothing from column 0
    cancel = {0: {0: F(1)}, 1: {0: F(1), 1: F(1)}, 2: {0: F(1), 1: F(1), 2: F(1)},
              3: {2: F(7), 3: F(-1)}, 4: {0: F(1), 4: F(1)}}
    cases = [chain, cancel, {0: {0: F(1)}}, {i: {i: F(-1)} for i in range(5)}]
    cases += [sparse_unitriangular(rng, n, density) for n in (2, 6, 12, 20)
              for density in (0.05, 0.15, 0.4, 0.9) for _ in range(2)]
    # random rows with an empty band occur; in the chain, column 0 reaches
    # row i only through the i - 1 rows between them
    assert any(len(row) == 1 for rows in cases[4:] for i, row in rows.items() if i)
    assert all(dense_forward_substitution(dense(chain, 9, F(0)), 0, F(0), F(1)))
    zero, one = linalg.ZERO, linalg.ONE
    for rows in cases:
        n = len(rows)
        _, inverse = frobenius._solve(rows, range(n), range(n), zero, one, "A")
        assert all(all(inverse_row.values()) for inverse_row in inverse)
        for j in range(n):
            expected = dense_forward_substitution(dense(rows, n, zero), j, zero, one)
            assert column(inverse, j, zero) == expected
            _, single = frobenius._solve(rows, range(n), (j,), zero, one, "A")
            assert all(set(inverse_row) <= {j} for inverse_row in single)
            assert column(single, j, zero) == expected
        # on the rows and columns of every other position, the entries of
        # rows in the other columns are not read
        positions = range(0, n, 2)
        sub = {a: {b: rows[i][k] for b, k in enumerate(positions) if k in rows[i]}
               for a, i in enumerate(positions)}
        assert column(frobenius._solve(rows, positions, (0,), zero, one, "A")[1], 0, zero) == \
            dense_forward_substitution(dense(sub, len(positions), zero), 0, zero, one)


def test_solve_column_matches_dense_forward_substitution_over_the_even_part():
    algs = [fixture_algebra(key) for key in ALGEBRA_FILES]
    algs += [gl_supermatrix_units(2, 1), random_odd_basis_change(fixture_algebra("osp12"),
                                                                 random.Random(2))[0]]
    for alg in algs:
        fm = frobenius_matrix(alg)
        zero, one = UEElement.zero(alg), UEElement.one(alg)
        for j in range(len(fm.order)):
            assert [row[j] for row in fm.inverse] == \
                dense_forward_substitution(fm.entries, j, zero, one), (alg.name, j)


@pytest.mark.parametrize("key,cell,reported", [
    ("osp12", (3, 1), (3, 1)),
    ("gl21", (1, 0), (1, 0)), ("gl21", (5, 2), (5, 2)), ("gl21", (7, 6), (7, 0)),
    ("gl21", (12, 11), (12, 1)), ("gl21", (14, 13), (14, 3)), ("gl21", (15, 0), (15, 0)),
    ("gl21", (15, 14), (15, 3)),
])
def test_a_corrupted_entry_below_the_diagonal_fails_the_dual_pair(monkeypatch, key, cell,
                                                                  reported):
    # the solve inverts the corrupted matrix exactly, so A * b = e_j holds;
    # the dual elements built from that inverse fail the duality check, at
    # the cells that a solve visiting every row of the band reported
    alg = gl_supermatrix_units(2, 1) if key == "gl21" else fixture_algebra(key)
    corrupt_pairing(monkeypatch, cell)
    fm = frobenius_matrix(alg)
    with pytest.raises(InternalInvariantError,
                       match=r"dual pair fails at \({}, {}\)$".format(*reported)):
        dual_pair(alg, fm)


def test_flipped_diagonal_sign_anywhere_is_caught(monkeypatch):
    # A with one diagonal sign flipped is still unitriangular, and the solve
    # inverts it exactly; the dual elements built from that inverse fail the
    # duality check in the row of the flip, at or before the diagonal
    alg = gl_supermatrix_units(2, 1)
    diagonal = frobenius_matrix(alg).diagonal
    for flip in range(1 << alg.n_odd):
        monkeypatch.undo()
        negate_pairing(monkeypatch, (flip, flip))
        fm = frobenius_matrix(alg)
        assert fm.diagonal == tuple(-d if i == flip else d for i, d in enumerate(diagonal))
        with pytest.raises(InternalInvariantError,
                           match=rf"dual pair fails at \({flip}, \d+\)$") as err:
            dual_pair(alg, fm)
        assert int(re.search(r"(\d+)\)$", str(err.value)).group(1)) <= flip


# -- A from the right-action pass equals the pairing computed by form ---------

def assert_pairing_matches_form(alg):
    fm = frobenius_matrix(alg)
    top = (1 << alg.n_odd) - 1
    xs = [subset_monomial(alg, mask) for mask in fm.order]
    comp = [subset_monomial(alg, top ^ mask) for mask in fm.order]
    assert fm.entries == tuple(tuple(form(x, y) for y in comp) for x in xs), alg.name


def test_pairing_matches_form_on_fixtures():
    for key in ALGEBRA_FILES:
        assert_pairing_matches_form(fixture_algebra(key))
    assert_pairing_matches_form(gl_supermatrix_units(2, 1))


def test_pairing_matches_form_on_random_algebras(rng):
    for _ in range(15):
        alg = random_small_superalgebra(rng, max_dim=5)
        twisted, _ = random_odd_basis_change(alg, rng)
        assert_pairing_matches_form(alg)
        assert_pairing_matches_form(twisted)


def assert_pairing_matches_raw_products(alg):
    # the pass builds x^I x_t along prefixes and keeps its ints, cell (i, k)
    # over S^(|I_i| - |I_k|); the reference rewrites each raw word x^I x_t
    # in Fraction arithmetic
    order = odd_subset_order(alg.n_odd)
    size = {i: mask.bit_count() for i, mask in enumerate(order)}
    even = frobenius._pairing(alg, order, frobenius._even_ints, UEElement.one(alg))
    assert all(x._den == alg._int_scale ** (size[i] - size[k])
               for i, row in even.items() for k, x in row.items()), alg.name
    assert even == fraction_pairing(alg, order, left_coefficients, UEElement.one(alg)), alg.name
    counits = frobenius._pairing(alg, order, frobenius._counit_ints, 1)
    assert {i: {k: F(x, alg._int_scale ** (size[i] - size[k])) for k, x in row.items()}
            for i, row in counits.items()} == \
        fraction_pairing(alg, order, left_counits, F(1)), alg.name


def test_pairing_matches_raw_products(rng):
    algs = [fixture_algebra(key) for key in ALGEBRA_FILES]
    algs += [gl_supermatrix_units(2, 1), gl_supermatrix_units(3, 1)]
    algs.append(rescaled_algebra(gl_supermatrix_units(2, 1)))
    assert algs[-1]._int_scale > 1
    for _ in range(5):
        alg = random_small_superalgebra(rng, max_dim=5)
        algs += [alg, random_odd_basis_change(alg, rng)[0]]
    for alg in algs:
        assert validate_superalgebra(alg).ok, alg.name
        assert_pairing_matches_raw_products(alg)


def algebra_file(tmp_path, alg):
    path = tmp_path / f"{alg.name}.json"
    path.write_text(dumps_canonical(algebra_to_json(alg)))
    return str(path)


# -- a dual pair that depends on the twist alpha ------------------------------

def test_dual_pair_depends_on_the_twist(monkeypatch, capsys, tmp_path):
    alg = twisted_dual_algebra()
    assert validate_superalgebra(alg).ok
    assert lambda_values(alg) == {0: 1, 1: 0}
    fm = frobenius_matrix(alg)
    X, Y = gen(alg, "X"), gen(alg, "Y")
    inverse = {e for row in fm.inverse for e in row}
    assert {X, -X} & inverse and {Y, -Y} & inverse
    assert len(dual_pair(alg, fm)) == 8
    path = algebra_file(tmp_path, alg)
    assert main(["invariant", path, "--emit-dual-pair"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["violator"] == "X" and len(payload["dual_pair"]) == 8

    # the opposite twist breaks duality, and the CLI reports a library fault
    monkeypatch.setattr(frobenius, "alpha", at_int_scale(alpha_inv))
    with pytest.raises(InternalInvariantError, match=r"dual pair fails at \(4, 0\)"):
        dual_pair(alg, fm)
    assert main(["invariant", path, "--emit-dual-pair"]) == 70
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("superhaar: internal invariant violation:")


def test_dual_pair_with_a_nonzero_trace_equals_its_reference():
    # dual_pair twists the inverse entries when some tr(ad') is nonzero
    par22 = parabolic_supermatrix_units(2, 2)
    twisted = twisted_dual_algebra()
    scaled = [rescaled_algebra(par22), rescaled_algebra(twisted)]
    assert par22.n_odd == 4 and all(alg._int_scale > 1 for alg in scaled)
    for alg in (twisted, fixture_algebra("bad2"), par22, *scaled):
        assert any(lambda_values(alg).values()), alg.name
        fm = frobenius_matrix(alg)
        assert dual_pair(alg, fm) == fraction_dual_pair(alg, fm), alg.name
        # the odd parts of bad2 and par(2|2) are abelian, so their pairing
        # and its inverse are scalars, which the twist fixes; the twisted
        # dual algebra has entries that the twist moves
        moved = any(twist(e, 1) != e for row in fm.inverse for e in row if e)
        assert moved == alg.name.startswith("twisted_dual"), alg.name


# -- the graded int scale at S > 1, with and without the twist ----------------

@pytest.mark.parametrize("case", ["gl21-rescaled", "par22-rescaled", "gl21-dense",
                                  "twisted-rescaled"])
def test_the_int_scale_gives_the_fraction_results(case):
    # S > 1 on all four; par(2|2) and the twisted dual algebra fail the
    # trace condition, so their dual pairs are twisted, and the twist moves
    # inverse entries of the second (par(2|2) has scalar ones)
    alg = {"gl21-rescaled": lambda: rescaled_algebra(gl_supermatrix_units(2, 1)),
           "par22-rescaled": lambda: rescaled_algebra(parabolic_supermatrix_units(2, 2)),
           "gl21-dense": lambda: random_odd_basis_change(gl_supermatrix_units(2, 1),
                                                         random.Random(1))[0],
           "twisted-rescaled": lambda: rescaled_algebra(twisted_dual_algebra())}[case]()
    assert alg._int_scale > 1
    assert any(lambda_values(alg).values()) == case.startswith(("par", "twisted"))
    fm = frobenius_matrix(alg)
    top = (1 << alg.n_odd) - 1
    xs = [subset_monomial(alg, mask) for mask in fm.order]
    comp = [subset_monomial(alg, top ^ mask) for mask in fm.order]
    assert fm.entries == tuple(tuple(form(x, y) for y in comp) for x in xs)
    zero, one = UEElement.zero(alg), UEElement.one(alg)
    for j in range(len(fm.order)):
        assert [row[j] for row in fm.inverse] == \
            dense_forward_substitution(fm.entries, j, zero, one), j
    assert dual_pair(alg, fm) == fraction_dual_pair(alg, fm)
    if case.startswith(("par", "twisted")):
        for given in (None, fm):
            with pytest.raises(NoInvariantError):
                invariant_z(alg, given)
        return
    z = sum((comp[i] * counit(row[0]) for i, row in enumerate(fm.inverse)), zero)
    assert z and invariant_z(alg).z == invariant_z(alg, fm).z == z
