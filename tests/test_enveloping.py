import gc
import math
import random
import sys
import threading
import weakref
from collections import Counter
from fractions import Fraction

import pytest

import superhaar.enveloping as enveloping
from superhaar import (InputError, LieSuperalgebra, UEElement,
                       act_on_quotient, brute_force_quotient_invariants,
                       counit, dual_pair, frobenius_matrix, lambda_values, multiply,
                       quotient_project, validate_superalgebra)

from conftest import (ALGEBRA_FILES, alpha_inv, fixture_algebra, gen,
                      gl_supermatrix_units, int_scaled, rational, rescaled_algebra,
                      twist, twisted_dual_algebra)
from randgen import (_weights, homogeneous_parity, pbw, random_element,
                     random_even_element, random_odd_basis_change,
                     random_small_superalgebra)
from reference import (fraction_act_on_quotient, fraction_heads, fraction_multiply,
                       fraction_quotient_project)

F = Fraction


# -- multiplication ------------------------------------------------------------

def test_multiply_examples(g2, bad2):
    x1, x2 = gen(g2, "x1"), gen(g2, "x2")
    assert multiply(x2, x1) == -multiply(x1, x2)
    assert multiply(x2, x1) == UEElement(g2, {pbw(g2, (), 0b11): F(-1)})

    X, th = gen(bad2, "X"), gen(bad2, "th")
    assert multiply(th, X) == multiply(X, th) - th
    assert not multiply(th, th)


def test_an_element_is_true_exactly_when_nonzero(bad2):
    X, th = gen(bad2, "X"), gen(bad2, "th")
    assert not multiply(th, th) and not UEElement.zero(bad2)
    assert multiply(X, th) and UEElement.one(bad2)


def test_multiply_rejects_mixed_algebras(g2, g3):
    with pytest.raises(ValueError):
        multiply(gen(g2, "x1"), gen(g3, "x1"))


def test_pbw_normal_form_is_idempotent(rng):
    for key in ALGEBRA_FILES:
        alg = fixture_algebra(key)
        one = UEElement.one(alg)
        for _ in range(5):
            u = random_element(alg, rng)
            assert multiply(one, u) == u
            assert multiply(u, one) == u
            # multiply takes a scalar factor without the kernel
            assert enveloping._normal_form(alg, list(u.terms.items())) == u.terms


def test_a_scalar_factor_matches_the_fraction_product(rng, monkeypatch):
    # on fixtures and on the basis b_i/(i+2), whose integer scale is above 1;
    # multiply scales the other factor's terms, and the fraction reference
    # rewrites the full product
    algs = [fixture_algebra("osp12"), gl_supermatrix_units(2, 1)]
    algs += [rescaled_algebra(alg) for alg in algs]
    assert [alg._int_scale > 1 for alg in algs] == [False, False, True, True]
    cases = []
    for alg in algs:
        scalars = [UEElement.scalar(alg, c) for c in (F(1), F(-1), F(3, 2), F(-2, 7))]
        elements = [mixed_element(alg, rng) for _ in range(3)] + [UEElement.zero(alg)]
        for s in scalars:
            for u in elements + scalars:
                cases += [(s, u, fraction_multiply(s, u)), (u, s, fraction_multiply(u, s))]
    assert any(len(want.terms) > 1 for _, _, want in cases)

    def refuse(*args):
        raise AssertionError("the kernel was called")

    monkeypatch.setattr(enveloping, "_normal_form", refuse)
    for a, b, want in cases:
        got = multiply(a, b)
        assert got == want, (a, b)
        assert_checked(got)


def test_associativity_on_random_triples(rng):
    for key in ALGEBRA_FILES:
        alg = fixture_algebra(key)
        for _ in range(5):
            a = random_element(alg, rng, max_degree=2, terms=3)
            b = random_element(alg, rng, max_degree=2, terms=3)
            c = random_element(alg, rng, max_degree=2, terms=3)
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_supercommutator_matches_bracket():
    for key in ALGEBRA_FILES:
        alg = fixture_algebra(key)
        for i in range(alg.dim):
            gi = UEElement.generator(alg, i)
            for j in range(alg.dim):
                gj = UEElement.generator(alg, j)
                sign = -1 if alg.parity(i) and alg.parity(j) else 1
                lhs = multiply(gi, gj) - sign * multiply(gj, gi)
                rhs = UEElement.zero(alg)
                for k, c in alg.bracket(i, j):
                    rhs = rhs + UEElement.generator(alg, k) * c
                assert lhs == rhs, (key, i, j)


def test_odd_square_rewrites_to_half_bracket(osp12):
    u = gen(osp12, "u")
    e = gen(osp12, "E")
    assert multiply(u, u) == -e  # [u, u] = -2E, so u*u = -E


# -- counit ---------------------------------------------------------------------

def test_counit_examples(bad2):
    X, th = gen(bad2, "X"), gen(bad2, "th")
    assert counit(UEElement.one(bad2)) == 1
    assert counit(X) == 0
    combo = multiply(X, th) - th + UEElement.scalar(bad2, 3)
    assert counit(combo) == 3


def test_counit_is_an_algebra_map(rng):
    for key in ("gl11", "osp12", "bad2"):
        alg = fixture_algebra(key)
        for _ in range(8):
            a = random_element(alg, rng, max_degree=2, terms=3)
            b = random_element(alg, rng, max_degree=2, terms=3)
            assert counit(multiply(a, b)) == counit(a) * counit(b)


# -- twist automorphism ----------------------------------------------------------

def alpha(u):
    """``enveloping.alpha`` on an even element, through the kernel's int
    scale: u scaled to ints at its degree, twisted, and scaled back."""
    terms, den, e = int_scaled(u)
    return rational(u.alg, enveloping.alpha(u.alg, terms), e, den)


def test_alpha_examples(bad2, gl11):
    X = gen(bad2, "X")
    one = UEElement.one(bad2)
    assert alpha(X) == X + one
    assert alpha(multiply(X, X)) == multiply(X, X) + 2 * X + one
    h1 = gen(gl11, "h1")
    assert alpha(h1) == h1  # traceless action, twist is the identity


def test_alpha_rejects_odd_generators(bad2):
    with pytest.raises(ValueError):
        alpha(gen(bad2, "th"))


def test_alpha_is_an_algebra_automorphism(rng):
    for key in ("bad2", "gl11", "sl2", "osp12"):
        alg = fixture_algebra(key)
        for _ in range(6):
            s = random_even_element(alg, rng)
            t = random_even_element(alg, rng)
            assert alpha(multiply(s, t)) == multiply(alpha(s), alpha(t))
            assert alpha_inv(alpha(s)) == s
            assert alpha(alpha_inv(t)) == t


def twist_inputs(rng):
    """Every nonzero entry of A and A^-1 of twisted_dual_algebra and bad2;
    random even elements up to degree 4 of twisted_dual_algebra and of
    ``weights`` draws whose even generator has a nonzero trace."""
    out = []
    for alg in (twisted_dual_algebra(), fixture_algebra("bad2")):
        fm = frobenius_matrix(alg)
        out += [e for rows in (fm.entries, fm.inverse) for row in rows for e in row if e]
        out += [random_even_element(alg, rng, max_degree=4, terms=4) for _ in range(6)]
    traces = []
    while len(traces) < 8:
        alg = _weights(rng, rng.randint(1, 4), "weights", traceless=False)
        if t := lambda_values(alg)[0]:
            traces.append(t)
            out += [random_even_element(alg, rng, max_degree=4, terms=4) for _ in range(3)]
    assert any(t.denominator > 1 for t in traces)
    return out


def test_alpha_matches_the_product_of_twisted_letters(rng, monkeypatch):
    inputs = twist_inputs(rng)
    want = [twist(e, +1) for e in inputs]
    assert any(w != e for w, e in zip(want, inputs))

    def forbidden(*_):
        raise AssertionError("alpha rewrote a product")

    monkeypatch.setattr(enveloping, "multiply", forbidden)
    monkeypatch.setattr(enveloping, "_normal_form", forbidden)
    assert [alpha(e) for e in inputs] == want


# -- the quotient by U(g)*g0 ---------------------------------------------------

def test_quotient_projection_examples(g2, bad2):
    X, th = gen(bad2, "X"), gen(bad2, "th")
    assert not quotient_project(X)
    assert quotient_project(multiply(X, th)) == {0b1: F(1)}

    x1x2 = multiply(gen(g2, "x1"), gen(g2, "x2"))
    assert quotient_project(x1x2) == {0b11: F(1)}  # no even part: ideal is zero


def test_ideal_is_left_ideal(rng):
    for key in ("bad2", "gl11", "osp12"):
        alg = fixture_algebra(key)
        for _ in range(6):
            u = random_element(alg, rng, max_degree=2, terms=3)
            w = random_element(alg, rng, max_degree=2, terms=3)
            x = UEElement.generator(alg, rng.randrange(alg.n_even))
            v = multiply(w, x)
            assert not quotient_project(v)
            assert not quotient_project(multiply(u, v))


def test_act_on_quotient_examples(g2, bad2):
    assert act_on_quotient(bad2, 0, {0b1: F(1)}) == {0b1: F(1)}
    assert act_on_quotient(bad2, 1, {0: F(1)}) == {0b1: F(1)}
    # x1 kills the class of x1
    assert act_on_quotient(g2, 0, {0b1: F(1)}) == {}
    with pytest.raises(ValueError):
        act_on_quotient(g2, 2, {0: F(1)})
    # masks are ints in range(2^m), bools excluded; values exact rationals
    for mask in (-1, 0b100, "1", 1.0, True):
        with pytest.raises(ValueError):
            act_on_quotient(g2, 0, {mask: F(1)})
    with pytest.raises(InputError):
        act_on_quotient(g2, 0, {0b1: 0.5})
    assert act_on_quotient(g2, 1, {0b1: 2}) == {0b11: F(-2)}


# two tables that break parity: an odd square that is odd, and an even
# bracket that is odd
UNGRADED = [
    LieSuperalgebra("odd-square-to-odd", [], ["t1", "t2"], {(0, 0): {0: 1}}),
    LieSuperalgebra("even-bracket-to-odd", ["X", "Y"], ["t"],
                    {(0, 1): {2: 1}, (1, 0): {2: -1}}),
]


def _quotient_cases(rng):
    """Fixtures, random small algebras with random odd basis changes,
    gl(2|1) from supermatrix units and after a rational odd basis change,
    and the two tables that break parity."""
    algs = [fixture_algebra(key) for key in ALGEBRA_FILES]
    for _ in range(8):
        alg = random_small_superalgebra(rng, max_dim=4)
        algs.append(alg)
        if alg.n_odd:
            algs.append(random_odd_basis_change(alg, rng)[0])
    algs.append(gl_supermatrix_units(2, 1))
    algs.append(random_odd_basis_change(gl_supermatrix_units(2, 1), rng)[0])
    for alg in algs:
        assert validate_superalgebra(alg).ok, alg.name
    for alg in UNGRADED:
        assert any(v.kind == "parity" for v in validate_superalgebra(alg).violations)
    return algs + UNGRADED


def test_quotient_matches_odd_first_reference(rng):
    for alg in _quotient_cases(rng):
        for _ in range(4):
            u = random_element(alg, rng, max_degree=3, terms=4)
            assert quotient_project(u) == fraction_quotient_project(u), alg.name
        classes = [{mask: F(1)} for mask in range(1 << alg.n_odd)]
        classes.append({mask: F(mask - 2, 3) for mask in range(1 << alg.n_odd)})
        for cls in classes:
            cls = {mask: c for mask, c in cls.items() if c}
            for i in range(alg.dim):
                assert act_on_quotient(alg, i, cls) == \
                    fraction_act_on_quotient(alg, i, cls), (alg.name, i, cls)


def test_elements_ending_in_an_even_letter_have_zero_class(rng):
    for alg in _quotient_cases(rng):
        if not alg.n_even:
            continue
        for _ in range(4):
            w = random_element(alg, rng, max_degree=3, terms=3)
            x = random_even_element(alg, rng, max_degree=1, terms=2)
            x = x - UEElement.scalar(alg, counit(x))   # x in g0
            v = multiply(w, x)
            assert quotient_project(v) == {} == fraction_quotient_project(v), alg.name


def test_every_generator_kills_the_top_class_of_gl42():
    # m = 16, on the default recursion limit: a chain of nested calls of
    # the recursion is at most (m + 1)^2 = 289 calls long
    assert sys.getrecursionlimit() <= 1000
    alg = gl_supermatrix_units(4, 2)
    top = (1 << alg.n_odd) - 1
    for i in range(alg.dim):
        assert act_on_quotient(alg, i, {top: F(1)}) == {}, alg.basis_name(i)


def test_dense_gl31_has_one_invariant_class():
    alg = random_odd_basis_change(gl_supermatrix_units(3, 1), random.Random(1))[0]
    [inv] = brute_force_quotient_invariants(alg)
    for i in range(alg.dim):
        assert act_on_quotient(alg, i, inv) == {}, alg.basis_name(i)


# -- the memo of the quotient recursion ----------------------------------------

def test_a_rejected_call_leaves_the_memo_unchanged():
    alg = gl_supermatrix_units(2, 1)
    act_on_quotient(alg, 0, {0b11: F(1)})
    before = dict(alg._quotient_memo)
    assert before
    # the bad entry comes after a good one, so every entry is checked first
    for cls, error in (({0b1: F(1), -1: F(1)}, ValueError),
                       ({0b1: F(1), 0b10: 0.5}, InputError)):
        with pytest.raises(error):
            act_on_quotient(alg, 2, cls)
        assert alg._quotient_memo == before


def test_mutating_a_returned_class_changes_no_later_result():
    alg = gl_supermatrix_units(2, 1)
    u = multiply(UEElement.generator(alg, 0),
                 UEElement(alg, {pbw(alg, (0,) * alg.n_even, 0b11): F(1)}))
    want = quotient_project(u)
    got = quotient_project(u)
    got.clear()
    assert quotient_project(u) == want
    for i in range(alg.dim):
        want = act_on_quotient(alg, i, {0b1: F(1)})
        got = act_on_quotient(alg, i, {0b1: F(1)})
        got[0b1111] = F(7)
        for mask in list(got):
            got[mask] = F(3)
        assert act_on_quotient(alg, i, {0b1: F(1)}) == want


def test_the_memo_lives_and_dies_with_its_algebra():
    alg = gl_supermatrix_units(2, 1)
    act_on_quotient(alg, 0, {0b1111: F(1)})
    ref = weakref.ref(alg)
    del alg
    gc.collect()
    assert ref() is None
    # two equal algebras built separately share no entries
    a, b = gl_supermatrix_units(2, 1), gl_supermatrix_units(2, 1)
    assert a == b and a._quotient_memo is not b._quotient_memo
    for i in range(a.dim):
        for mask in range(1 << a.n_odd):
            act_on_quotient(a, i, {mask: F(1)})
    assert len(a._quotient_memo) == a.dim << a.n_odd and not b._quotient_memo


def test_threads_sharing_one_memo_get_the_single_thread_classes():
    alg, ref = gl_supermatrix_units(2, 1), gl_supermatrix_units(2, 1)
    cases = [(i, mask) for i in range(alg.dim) for mask in range(1 << alg.n_odd)]
    want = [act_on_quotient(ref, i, {mask: F(1)}) for i, mask in cases]
    got = [[] for _ in range(4)]

    def work(out, order):
        for t in order:
            i, mask = cases[t]
            out.append((t, act_on_quotient(alg, i, {mask: F(1)})))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = []
        for k, out in enumerate(got):
            order = list(range(len(cases)))
            random.Random(k).shuffle(order)
            threads.append(threading.Thread(target=work, args=(out, order)))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for out in got:
        assert len(out) == len(cases)
        assert all(cls == want[t] for t, cls in out)


# -- the integer kernel against the Fraction rewriting loop -------------------

# odd Heisenberg: the odd squares [t0, t0] = Z and [t1, t1] = 3/5 Z have odd
# numerators
HEIS = LieSuperalgebra("heis", ["Z"], ["t0", "t1"], {
    (1, 1): {0: F(1)}, (2, 2): {0: F(3, 5)},
    (1, 2): {0: F(1, 2)}, (2, 1): {0: F(1, 2)}})


def mixed_element(alg, rng, terms=4, max_den=6):
    """Random terms of degree 0 to 3 with denominators 1 to ``max_den``,
    built with the public constructor, not by multiplying."""
    out = {}
    for _ in range(terms):
        even = [0] * alg.n_even
        for _ in range(rng.randint(0, 2) if alg.n_even else 0):
            even[rng.randrange(alg.n_even)] += 1
        mask = rng.randrange(1 << alg.n_odd)
        if sum(even) + mask.bit_count() <= 3:
            out[pbw(alg, even, mask)] = F(rng.randint(-5, 5), rng.randint(1, max_den))
    return UEElement(alg, out)


def _kernel_cases(rng):
    """Fixtures, the fixtures on the basis b_i/(i+2), an odd Heisenberg
    algebra whose odd squares have odd numerators, and random small
    algebras and gl(2|1) with a rational odd basis change."""
    algs = [fixture_algebra(key) for key in ALGEBRA_FILES]
    algs += [rescaled_algebra(alg) for alg in algs]
    algs += [HEIS, rescaled_algebra(HEIS)]
    while len(algs) < 20:
        alg = random_small_superalgebra(rng, max_dim=4)
        if alg.n_odd:
            algs.append(random_odd_basis_change(alg, rng)[0])
    algs.append(random_odd_basis_change(gl_supermatrix_units(2, 1), rng)[0])
    return algs


def _odd_square_folds(alg):
    """Whether some [a, a] / 2 has a larger denominator than [a, a]: an odd
    numerator, so the 1/2 of the odd square raises the integer scale."""
    return any((c / 2).denominator > c.denominator
               for a in range(alg.n_even, alg.dim) for _, c in alg.bracket(a, a))


def _kernel_path(alg, a, b):
    """Which scaling ``_normal_form`` applies to the heads of a*b: none when
    their common denominator D and the integer scale S are both 1."""
    den = math.lcm(*(c.denominator for _, c in fraction_heads(a, b)))
    return "S > 1" if alg._int_scale > 1 else "D > 1" if den > 1 else "D = S = 1"


def test_integer_kernel_matches_the_fraction_loop(rng):
    algs = _kernel_cases(rng)
    paths, cancelled = Counter(), Counter()
    for alg in algs:
        assert validate_superalgebra(alg).ok, alg.name
        for max_den in (6, 6, 1, 1):
            a, b = (mixed_element(alg, rng, max_den=max_den) for _ in range(2))
            got = multiply(a, b)
            assert got == fraction_multiply(a, b), alg.name
            assert_checked(got)
            paths[_kernel_path(alg, a, b)] += 1
            u = a + b
            assert quotient_project(u) == fraction_quotient_project(u), alg.name
        if alg.n_odd >= 2:
            # (x + y)^2 = x x + y y + [x, y]: the two heads x y and y x
            # cancel on the word x y, in the rewriting kernel
            x, y = alg.n_even, alg.n_even + 1
            u = UEElement.generator(alg, x) + UEElement.generator(alg, y)
            got = multiply(u, u)
            assert got == fraction_multiply(u, u) and (x, y) not in got.terms, alg.name
            assert_checked(got)
            cancelled[_kernel_path(alg, u, u)] += 1
            cancelled["to 0"] += not got
        cls = {mask: F(rng.randint(-3, 3), rng.randint(1, 4))
               for mask in range(1 << alg.n_odd)}
        cls = {mask: c for mask, c in cls.items() if c}
        for i in range(alg.dim):
            assert act_on_quotient(alg, i, cls) == \
                fraction_act_on_quotient(alg, i, cls), (alg.name, i)
    # the cases reach each scaling of the heads, an integer scale above 1
    # and an odd square whose 1/2 is folded into it; the heads of (x + y)^2
    # cancel with D = S = 1 and with S > 1, and on the Grassmann fixtures
    # the whole product is 0
    assert min(paths[p] for p in ("D = S = 1", "D > 1", "S > 1")) >= 10, paths
    assert cancelled["D = S = 1"] >= 4 and cancelled["S > 1"] >= 4, cancelled
    assert cancelled["to 0"] >= 2, cancelled
    assert sum(alg._int_scale > 1 for alg in algs) >= 10
    assert sum(_odd_square_folds(alg) for alg in algs) >= 4


def test_integer_kernel_on_heads_of_mixed_degree_and_denominator():
    alg = rescaled_algebra(HEIS)
    assert alg._int_scale > 1 and _odd_square_folds(alg)
    z, u, v = (UEElement.generator(alg, i) for i in range(3))
    a = u * F(1, 3) + multiply(z, multiply(u, v)) * F(-2, 5) + z * F(7, 2)
    b = multiply(v, u) * F(5, 6) + v * F(3, 4) + UEElement.scalar(alg, F(1, 7))
    degrees = {len(w) for w, _ in fraction_heads(a, b)}
    dens = {c.denominator for _, c in fraction_heads(a, b)}
    assert len(degrees) >= 3 and len(dens) >= 3
    assert multiply(a, b) == fraction_multiply(a, b)
    assert quotient_project(multiply(a, b)) == \
        fraction_quotient_project(fraction_multiply(a, b))


# -- the trusted constructor of library results ------------------------------

def assert_checked(u):
    """Every term of ``u`` passes the public constructor unchanged: nonzero
    Fraction values on monomials that fit the algebra."""
    assert all(type(c) is Fraction and c for c in u.terms.values())
    assert UEElement(u.alg, u.terms) == u


def test_public_constructor_still_checks(g2, bad2):
    for alg, word in [(g2, (2,)),       # out-of-range letter
                      (bad2, (-1,)),    # negative letter
                      (bad2, (1, 0)),   # decreasing word: th before X
                      (g2, (0, 0))]:    # repeated odd letter
        with pytest.raises(ValueError):
            UEElement(alg, {word: F(1)})
    with pytest.raises(InputError):
        UEElement(g2, {(0,): 0.5})


def test_library_results_store_only_checked_terms(rng):
    for alg in _kernel_cases(rng):
        for _ in range(3):
            x, y = mixed_element(alg, rng), mixed_element(alg, rng)
            assert not (x + (-x)).terms and not (x - x).terms
            assert not (x * 0).terms and not (0 * x).terms
            results = [multiply(x, y), x + y, x - y, -x,
                       x * F(-3, 2)]
            for u in results:
                assert_checked(u)
        # the pairing matrix, its inverse and the dual pair are built from
        # ints and converted once
        fm = frobenius_matrix(alg)
        results = [e for rows in (fm.entries, fm.inverse) for row in rows for e in row if e]
        results += dual_pair(alg, fm)
        for u in results:
            assert_checked(u)


# -- element basics ----------------------------------------------------------------

def test_homogeneous_parity(g2):
    x1, x2 = gen(g2, "x1"), gen(g2, "x2")
    assert homogeneous_parity(x1) == 1
    assert homogeneous_parity(multiply(x1, x2)) == 0
    assert homogeneous_parity(x1 + multiply(x1, x2)) is None
    assert homogeneous_parity(UEElement.zero(g2)) is None


def test_scalars_must_be_exact(g2):
    with pytest.raises(InputError):
        UEElement.scalar(g2, 0.5)
    with pytest.raises(InputError):
        gen(g2, "x1") * 0.25


def test_repr_is_readable(bad2):
    X, th = gen(bad2, "X"), gen(bad2, "th")
    u = multiply(X, th) - 2 * th + UEElement.scalar(bad2, 1)
    text = repr(u)
    assert "X*th" in text and "th" in text
