import json
from fractions import Fraction

import pytest

import superhaar.enveloping as enveloping
import superhaar.frobenius as frobenius
from superhaar import (InternalInvariantError, LieSuperalgebra,
                       NoInvariantError, UEElement,
                       brute_force_quotient_invariants, counit, dual_pair,
                       frobenius_matrix, frobenius_pi, invariant_z,
                       lambda_values, linalg, multiply,
                       odd_subset_order, quotient_project, subset_monomial,
                       validate_superalgebra)
from superhaar.cli import main
from superhaar.fileio import algebra_to_json, builtin_fixture, dumps_canonical

from conftest import (ALGEBRA_FILES, UNIMODULAR, alpha_inv, fixture_algebra, gen,
                      gl_supermatrix_units, rescaled_algebra, twisted_dual_algebra)
from randgen import (from_word, map_element, random_element, random_even_element,
                     random_odd_basis_change, random_small_superalgebra)
from reference import form

F = Fraction


def test_odd_subset_order_refines_cardinality():
    for m in range(6):
        order = odd_subset_order(m)
        assert len(order) == 1 << m
        assert order[0] == 0
        assert order[-1] == (1 << m) - 1
        sizes = [mask.bit_count() for mask in order]
        assert sizes == sorted(sizes)


def test_pi_examples(g2, bad2):
    x1, x2 = gen(g2, "x1"), gen(g2, "x2")
    assert frobenius_pi(multiply(x1, x2)) == UEElement.one(g2)
    assert not frobenius_pi(UEElement.one(g2))
    X, th = gen(bad2, "X"), gen(bad2, "th")
    assert frobenius_pi(multiply(X, th)) == X


def test_pi_is_identity_when_no_odd_part(sl2):
    u = gen(sl2, "H") + 2 * multiply(gen(sl2, "E"), gen(sl2, "F"))
    assert frobenius_pi(u) == u


def test_pi_is_the_top_left_coefficient(rng):
    for key in ALGEBRA_FILES:   # sl2 has m = 0
        alg = fixture_algebra(key)
        top = (1 << alg.n_odd) - 1
        for _ in range(6):
            u = random_element(alg, rng, max_degree=4, terms=6)
            want = frobenius._left_coefficients(u).get(top, UEElement.zero(alg))
            assert frobenius_pi(u) == want, alg.name


def test_subset_monomial_checks_the_mask(g2):
    assert subset_monomial(g2, 0b11) == multiply(gen(g2, "x1"), gen(g2, "x2"))
    for mask in (-1, 0b100):
        with pytest.raises(ValueError):
            subset_monomial(g2, mask)


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
            assert frobenius_pi(multiply(s, u)) == multiply(s, frobenius_pi(u))
            assert frobenius_pi(multiply(u, s)) == \
                multiply(frobenius_pi(u), alpha_inv(s))


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
    scalar = frobenius._counit_column_zero(alg, fm.order)
    assert scalar == [counit(row[0]) for row in fm.inverse], alg.name
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


@pytest.mark.parametrize("key,cell,caught_by", [
    ("g2", (0, 1), "not lower triangular"), ("g2", (1, 1), r"expected \+-1"),
    ("g2", (3, 0), "not invariant"),
    ("osp12", (1, 3), "not lower triangular"), ("osp12", (2, 2), r"expected \+-1"),
    ("osp12", (3, 0), "not invariant"),
], ids=["g2-above", "g2-on", "g2-below",
        "osp12-above", "osp12-on", "osp12-below"])
def test_corrupted_pairing_entry_is_caught_on_both_paths(monkeypatch, key, cell,
                                                         caught_by):
    # one +1 injected into the shared construction reaches A over the even
    # subalgebra and its counit alike
    alg = fixture_algebra(key)
    i, k = cell
    honest = frobenius._pairing

    def corrupt(alg, order, read, one):
        rows = honest(alg, order, read, one)
        row = dict(rows.get(i, {}))
        row[k] = row[k] + one if k in row else one
        rows[i] = {c: x for c, x in row.items() if x}
        return rows

    monkeypatch.setattr(frobenius, "_pairing", corrupt)
    with pytest.raises(InternalInvariantError, match=caught_by):
        invariant_z(alg)
    with pytest.raises(InternalInvariantError, match=caught_by):
        invariant_z(alg, frobenius_matrix(alg))


@pytest.mark.parametrize("key", ["g2", "gl11", "osp12"])
def test_flipped_diagonal_sign_exits_70(monkeypatch, capsys, key):
    # a fault in the shared unitriangular check reaches A * b = e_j on both
    # paths, and the CLI reports it as an internal invariant violation
    honest = frobenius._check_unitriangular

    def flip_first(*args):
        diagonal = honest(*args)
        return (-diagonal[0],) + diagonal[1:]

    monkeypatch.setattr(frobenius, "_check_unitriangular", flip_first)
    alg = fixture_algebra(key)
    identity = r"is not the identity at \(0, 0\)"
    with pytest.raises(InternalInvariantError, match=identity):
        frobenius_matrix(alg)
    with pytest.raises(InternalInvariantError, match=identity):
        invariant_z(alg)
    for flags in ([], ["--emit-matrix"]):
        assert main(["invariant", builtin_fixture(ALGEBRA_FILES[key])] + flags) == 70
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
    monkeypatch.setattr(frobenius, "_left_coefficients", refuse("_left_coefficients"))
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


def prefix_pairings(alg, y):
    """pi(x^I y) for every mask I, converted from the integer top parts of
    ``_prefix_pairings``: a word of degree L in x^I y carries
    D * S^(deg y + |I| - L), and its even prefix is a word of the pairing."""
    tops, den, deg = frobenius._prefix_pairings(alg, y)
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
    for y in ys:
        for mask, p in enumerate(prefix_pairings(alg, y)):
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
        assert [prefix_pairings(alg, y) for y in ys] == want, alg.name


@pytest.mark.parametrize("corrupt", ["double", "add"])
def test_a_corrupted_dual_element_is_caught_in_a_scaled_algebra(monkeypatch, corrupt):
    # y^j * 2 keeps every off-diagonal cell of column j and doubles the
    # diagonal value D * S^(deg y + |I| - m); y^j + y^k pairs with x^{I_k}
    # to 1, so only the cell (k, j) fails
    alg = rescaled_algebra(gl_supermatrix_units(2, 1))
    assert alg._int_scale > 1
    fm = frobenius_matrix(alg)
    ys = dual_pair(alg, fm)
    n, honest = len(ys), frobenius._normal_form
    for j, k in [(0, 1), (3, 12), (9, 2), (n - 1, 0)]:
        bad = ys[j] * 2 if corrupt == "double" else ys[j] + ys[k]
        calls = []

        def build(alg, heads, j=j, bad=bad):
            # dual_pair builds y^0, ..., y^(n-1) with one call each, in order
            calls.append(None)
            return dict(bad.terms) if len(calls) == j + 1 else honest(alg, heads)

        monkeypatch.setattr(frobenius, "_normal_form", build)
        i = j if corrupt == "double" else k
        with pytest.raises(InternalInvariantError,
                           match=rf"dual pair fails at \({i}, {j}\)$"):
            dual_pair(alg, fm)
        assert len(calls) == n


def test_solve_column_verifies_the_column_it_solves():
    # a flipped diagonal sign solves a wrong column; A * b = e_j, recomputed
    # from A, catches it in the row of the flip
    rows = {0: {0: F(1)}, 1: {0: F(2, 3), 1: F(-1)}, 2: {0: F(1, 2), 1: F(5), 2: F(1)}}
    zero, one = linalg.ZERO, linalg.ONE
    diagonal = frobenius._check_unitriangular(rows, 3, zero, one, "A")
    assert diagonal == (1, -1, 1)
    for j in range(3):
        col = frobenius._solve_column(rows, diagonal, j, zero, one, "A")
        assert [sum(a * col[k] for k, a in rows[i].items()) for i in range(3)] == \
            [int(i == j) for i in range(3)]
    for flip in range(3):
        bad = tuple(-d if i == flip else d for i, d in enumerate(diagonal))
        for j in range(flip + 1):
            with pytest.raises(InternalInvariantError,
                               match=rf"A times its inverse is not the identity at \({flip}, {j}\)"):
                frobenius._solve_column(rows, bad, j, zero, one, "A")


def test_flipped_diagonal_sign_anywhere_is_caught(monkeypatch):
    alg = gl_supermatrix_units(2, 1)
    honest = frobenius._check_unitriangular
    for flip in range(1 << alg.n_odd):
        def flip_one(*args, flip=flip):
            diagonal = honest(*args)
            return tuple(-d if i == flip else d for i, d in enumerate(diagonal))

        monkeypatch.setattr(frobenius, "_check_unitriangular", flip_one)
        with pytest.raises(InternalInvariantError,
                           match=rf"is not the identity at \({flip}, \d+\)"):
            frobenius_matrix(alg)


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
    monkeypatch.setattr(frobenius, "alpha", alpha_inv)
    with pytest.raises(InternalInvariantError, match=r"dual pair fails at \(4, 0\)"):
        dual_pair(alg, fm)
    assert main(["invariant", path, "--emit-dual-pair"]) == 70
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("superhaar: internal invariant violation:")
