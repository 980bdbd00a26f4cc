from collections import defaultdict
from fractions import Fraction

import pytest

from superhaar import (InputError, PBWMonomial, UEElement, act_on_quotient,
                       counit, multiply, quotient_project,
                       validate_superalgebra)
from superhaar.enveloping import alpha

from conftest import (ALGEBRA_FILES, alpha_inv, fixture_algebra,
                      gl_supermatrix_units)
from randgen import (homogeneous_parity, random_element, random_even_element,
                     random_odd_basis_change, random_small_superalgebra)

F = Fraction


def gen(alg, name):
    return UEElement.generator(alg, alg.index_of(name))


# -- multiplication ------------------------------------------------------------

def test_multiply_examples(g2, bad2):
    x1, x2 = gen(g2, "x1"), gen(g2, "x2")
    assert multiply(x2, x1) == -multiply(x1, x2)
    assert multiply(x2, x1) == UEElement(g2, {PBWMonomial((), 0b11): F(-1)})

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


# -- the quotient by U(g)*g0 against an odd-first reference --------------------
#
# Reference: the full right-coefficient decomposition u = sum_I x^I u_I from
# its own rewriting loop (odd generators first, nothing dropped); the class
# of u in U(g)/U(g)*g0 is I -> counit(u_I).  It shares no code with the
# library's quotient rewriting.

def _odd_first_normal_form(alg, heads):
    n0 = alg.n_even

    def key(g):
        return (0, g) if g >= n0 else (1, g)

    out = defaultdict(Fraction)
    stack = [(tuple(w), c) for w, c in heads]
    while stack:
        w, c = stack.pop()
        red = -1
        for p in range(len(w) - 1):
            a, b = w[p], w[p + 1]
            if key(a) > key(b) or (a == b and alg.parity(a)):
                red = p
                break
        if red < 0:
            out[w] += c
            continue
        a, b = w[red], w[red + 1]
        head, tail = w[:red], w[red + 2:]
        if a == b:
            for k, ck in alg.bracket(a, a):
                stack.append((head + (k,) + tail, c * ck / 2))
        else:
            sign = -1 if alg.parity(a) and alg.parity(b) else 1
            stack.append((head + (b, a) + tail, sign * c))
            for k, ck in alg.bracket(a, b):
                stack.append((head + (k,) + tail, c * ck))
    return {w: c for w, c in out.items() if c}


def odd_first_form(u):
    """Right-coefficient decomposition {I: u_I}, zero u_I left out."""
    alg = u.alg
    n0 = alg.n_even
    nf = _odd_first_normal_form(alg, [(m.word(n0), c) for m, c in u.terms.items()])
    buckets = defaultdict(dict)
    for w, c in nf.items():
        even = [0] * n0
        mask = 0
        for g in w:
            if g < n0:
                even[g] += 1
            else:
                mask |= 1 << (g - n0)
        mono = PBWMonomial(tuple(even), 0)
        buckets[mask][mono] = buckets[mask].get(mono, F(0)) + c
    form = {mask: UEElement(alg, terms) for mask, terms in buckets.items()}
    return {mask: v for mask, v in form.items() if v}


def reassemble_odd_first(alg, form):
    out = UEElement.zero(alg)
    for mask, v in form.items():
        xi = UEElement(alg, {PBWMonomial((0,) * alg.n_even, mask): F(1)})
        out = out + multiply(xi, v)
    return out


def reference_class(u):
    return {mask: counit(v) for mask, v in odd_first_form(u).items() if counit(v)}


def lift(alg, cls):
    return UEElement(alg, {PBWMonomial((0,) * alg.n_even, mask): c
                           for mask, c in cls.items()})


def test_odd_first_form_examples(g2, bad2):
    X, th = gen(bad2, "X"), gen(bad2, "th")
    form = odd_first_form(multiply(X, th))
    assert set(form) == {0b1}
    assert form[0b1] == X + UEElement.one(bad2)  # X th = th (X + 1)

    x1x2 = multiply(gen(g2, "x1"), gen(g2, "x2"))
    assert odd_first_form(x1x2) == {0b11: UEElement.one(g2)}

    u = multiply(X, X) + 2 * X
    assert odd_first_form(u) == {0: u}


def test_odd_first_round_trip(rng):
    for key in ALGEBRA_FILES:
        alg = fixture_algebra(key)
        for _ in range(6):
            u = random_element(alg, rng)
            assert reassemble_odd_first(alg, odd_first_form(u)) == u


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


def _quotient_cases(rng):
    """Fixtures, random small algebras with random odd basis changes, and
    gl(2|1) from supermatrix units."""
    algs = [fixture_algebra(key) for key in ALGEBRA_FILES]
    for _ in range(8):
        alg = random_small_superalgebra(rng, max_dim=4)
        algs.append(alg)
        if alg.n_odd:
            algs.append(random_odd_basis_change(alg, rng)[0])
    algs.append(gl_supermatrix_units(2, 1))
    for alg in algs:
        assert validate_superalgebra(alg).ok, alg.name
    return algs


def test_quotient_matches_odd_first_reference(rng):
    for alg in _quotient_cases(rng):
        for _ in range(4):
            u = random_element(alg, rng, max_degree=3, terms=4)
            assert quotient_project(u) == reference_class(u), alg.name
        classes = [{mask: F(1)} for mask in range(1 << alg.n_odd)]
        classes.append({mask: F(mask - 2, 3) for mask in range(1 << alg.n_odd)})
        for cls in classes:
            cls = {mask: c for mask, c in cls.items() if c}
            for i in range(alg.dim):
                want = reference_class(multiply(UEElement.generator(alg, i),
                                                lift(alg, cls)))
                assert act_on_quotient(alg, i, cls) == want, (alg.name, i, cls)


def test_elements_ending_in_an_even_letter_have_zero_class(rng):
    for alg in _quotient_cases(rng):
        if not alg.n_even:
            continue
        for _ in range(4):
            w = random_element(alg, rng, max_degree=3, terms=3)
            x = random_even_element(alg, rng, max_degree=1, terms=2)
            x = x - UEElement.scalar(alg, counit(x))   # x in g0
            v = multiply(w, x)
            assert quotient_project(v) == {} == reference_class(v), alg.name


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
