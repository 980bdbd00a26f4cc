"""Fraction references for the tests: one plain rational computation per
quantity that the library computes in integers or by a shortcut.

Each reference works from the definition, in Fraction arithmetic, and
reads the library only through public names: the rational bracket table
``alg.bracket``, the stored actions ``module.rho``, and the public
``linalg`` functions where a quantity is defined by them.  A test that
compares the library with a reference therefore shares no private code
with what it checks.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from superhaar import UEElement, act_on_quotient, linalg, multiply
from superhaar.algebra import ValidationReport

from conftest import dense_of, identity, twist

F = Fraction


# -- the superalgebra axioms ------------------------------------------------

def dense_validate_superalgebra(alg):
    """Fraction brackets on every ordered triple: the reference for the
    integer Jacobi screen of ``validate_superalgebra``."""
    report = ValidationReport()
    n = alg.dim
    p = alg.parity

    for (i, j), vec in alg.nonzero_brackets():
        want = (p(i) + p(j)) % 2
        for k, c in vec:
            if p(k) != want:
                report.add("parity", (i, j, k),
                           f"[{alg.basis_name(i)}, {alg.basis_name(j)}] has a "
                           f"component of wrong parity on {alg.basis_name(k)} "
                           f"(coefficient {c})")

    for i in range(n):
        for j in range(i, n):
            sign = -1 if p(i) and p(j) else 1
            lhs = dict(alg.bracket(i, j))
            for k, c in alg.bracket(j, i):
                lhs[k] = lhs.get(k, F(0)) + sign * c
            bad = {k: c for k, c in lhs.items() if c}
            if bad:
                report.add("antisymmetry", (i, j),
                           f"[{alg.basis_name(i)}, {alg.basis_name(j)}] + "
                           f"(-1)^([i][j]) [{alg.basis_name(j)}, {alg.basis_name(i)}] "
                           f"is nonzero: {bad}")

    for i in range(n):
        for j in range(n):
            sign = -1 if p(i) and p(j) else 1
            for k in range(n):
                lhs = alg.bracket_vectors({i: F(1)}, dict(alg.bracket(j, k)))
                rhs = alg.bracket_vectors(dict(alg.bracket(i, j)), {k: F(1)})
                for t, c in alg.bracket_vectors({j: F(1)},
                                                dict(alg.bracket(i, k))).items():
                    rhs[t] = rhs.get(t, F(0)) + sign * c
                diff = {t: lhs.get(t, F(0)) - rhs.get(t, F(0))
                        for t in set(lhs) | set(rhs)}
                diff = {t: c for t, c in diff.items() if c}
                if diff:
                    report.add("jacobi", (i, j, k),
                               f"Jacobi fails on ({alg.basis_name(i)}, "
                               f"{alg.basis_name(j)}, {alg.basis_name(k)}): "
                               f"residual {diff}")
    return report


# -- products and quotient classes in U(g) ----------------------------------
#
# One rewriting loop in Fraction arithmetic on the rational bracket table,
# with every odd square halved as it is rewritten.  In PBW order it gives
# products; in odd-first order it gives the class in U(g)/U(g)*g0, since a
# word ending in an even letter lies in U(g)*g0 on any table and is dropped.

def fraction_normal_form(alg, heads, odd_first=False):
    n0 = alg.n_even
    if odd_first:
        rank = tuple(g + alg.n_odd if g < n0 else g - n0 for g in range(alg.dim))
    else:
        rank = tuple(range(alg.dim))
    out = defaultdict(Fraction)
    stack = [(tuple(w), c) for w, c in heads]
    while stack:
        w, c = stack.pop()
        if odd_first and w and w[-1] < n0:
            continue
        red = -1
        for p in range(len(w) - 1):
            a, b = w[p], w[p + 1]
            if rank[a] > rank[b] or (a == b and alg.parity(a)):
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
            odd_pair = alg.parity(a) and alg.parity(b)
            stack.append((head + (b, a) + tail, -c if odd_pair else c))
            for k, ck in alg.bracket(a, b):
                stack.append((head + (k,) + tail, c * ck))
    return {w: c for w, c in out.items() if c}


def fraction_heads(a, b):
    return [(w1 + w2, c1 * c2)
            for w1, c1 in a.terms.items() for w2, c2 in b.terms.items()]


def fraction_multiply(a, b):
    # the canonical words are PBW words; the public constructor checks them
    return UEElement(a.alg, fraction_normal_form(a.alg, fraction_heads(a, b)))


def fraction_class(alg, heads):
    n0 = alg.n_even
    return {sum(1 << (g - n0) for g in w): c
            for w, c in fraction_normal_form(alg, heads, odd_first=True).items()}


def fraction_quotient_project(u):
    return fraction_class(u.alg, list(u.terms.items()))


def fraction_act_on_quotient(alg, i, cls):
    n0 = alg.n_even
    words = {mask: tuple(n0 + t for t in range(alg.n_odd) if mask >> t & 1)
             for mask in cls}
    return fraction_class(alg, [((i,) + words[mask], c) for mask, c in cls.items()])


def full_oracle(alg):
    """The invariant classes of the quotient as the canonical kernel basis of
    the quotient action of every basis element, all dim * 2^m rows, each
    column read off the public ``act_on_quotient``: the reference for the
    oracle, which eliminates only the odd rows."""
    n = 1 << alg.n_odd
    rows = []
    for i in range(alg.dim):
        cols = [act_on_quotient(alg, i, {mask: F(1)}) for mask in range(n)]
        rows += [{c: col[r] for c, col in enumerate(cols) if r in col} for r in range(n)]
    return linalg.nullspace(rows, n)


def subset_monomial(alg, mask):
    """The ordered product x^I of the odd generators in the bitmask ``mask``
    (bit t for odd generator t), by the public constructor."""
    return UEElement(alg, {tuple(alg.n_even + t for t in range(alg.n_odd)
                                 if mask >> t & 1): 1})


def pi(u):
    """The paper's projection pi: the left coefficient in U(g0) of the full
    odd monomial, that is the words of u with all m odd letters, cut off
    before them.  For m = 0 this is the identity map."""
    alg = u.alg
    return UEElement(alg, {w[:len(w) - alg.n_odd]: c for w, c in u.terms.items()
                           if sum(g >= alg.n_even for g in w) == alg.n_odd})


def left_coefficients(u):
    """The nonzero left coefficients u_J of u = sum_J u_J x^J, by mask J:
    each PBW word split before its first odd letter."""
    n0, parts = u.alg.n_even, defaultdict(dict)
    for w, c in u.terms.items():
        k = next((p for p, g in enumerate(w) if g >= n0), len(w))
        parts[sum(1 << (g - n0) for g in w[k:])][w[:k]] = c
    return {j: UEElement(u.alg, t) for j, t in parts.items()}


def left_counits(u):
    """The nonzero counits of the left coefficients of u, by mask J."""
    return {j: c for j, x in left_coefficients(u).items() if (c := x.terms.get((), 0))}


def fraction_pairing(alg, order, read, one):
    """The rows of nonzeros of the pairing matrix A[i][k] =
    <x^{I_i}, x^{complement(I_k)}> in ``order``, or of its image under the
    ring map that ``read`` applies to the left coefficients: R_t[I][J] is
    read(x^I x_t)[J], with x^I x_t rewritten from its raw word, and the
    columns c_M = R_{min M} c_{M - min M} start from c_empty = e_top."""
    top = (1 << alg.n_odd) - 1
    right = [[read(fraction_multiply(subset_monomial(alg, mask),
                                     UEElement.generator(alg, alg.n_even + t)))
              for mask in range(top + 1)] for t in range(alg.n_odd)]
    zero = one - one
    cols = [{top: one}]
    for mask in range(1, top + 1):
        low = mask & -mask
        prev, rt = cols[mask ^ low], right[low.bit_length() - 1]
        col = {}
        for i in range(top + 1):
            x = zero
            for j, r in rt[i].items():
                if j in prev:
                    x = x + r * prev[j]
            if x:
                col[i] = x
        cols.append(col)
    rows = {}
    for k, mask in enumerate(order):
        for i, x in cols[top ^ mask].items():
            rows.setdefault(order.index(i), {})[k] = x
    return rows


def dense_forward_substitution(mat, j, zero, one):
    """Column j of the inverse of the lower triangular matrix ``mat``
    (dense rows) with diagonal entries +-1, by forward substitution over
    every row: b[i] = A[i][i] * (e_j[i] - sum over k < i of A[i][k] * b[k]),
    since A[i][i] is its own inverse.  The reference for the sparse solve of
    the pairing matrix, over Q or over the even subalgebra."""
    b = []
    for i, row in enumerate(mat):
        s = zero
        for k in range(i):
            s = s + row[k] * b[k]
        b.append(row[i] * ((one if i == j else zero) - s))
    return b


def fraction_dual_pair(alg, fm):
    """y^J = sum_K x^{complement(K)} alpha(B[K][J]) from the dense inverse B
    of ``fm``, in Fraction arithmetic: alpha as the ordered product of
    X + tr(ad'(X)) over the letters (conftest ``twist``), and the raw heads
    of each y^J rewritten at once."""
    top = (1 << alg.n_odd) - 1
    comp = [subset_monomial(alg, top ^ mask) for mask in fm.order]
    n = len(fm.order)
    ys = []
    for j in range(n):
        heads = []
        for k in range(n):
            if fm.inverse[k][j]:
                heads += fraction_heads(comp[k], twist(fm.inverse[k][j], 1))
        ys.append(UEElement(alg, fraction_normal_form(alg, heads)))
    return ys


def form(x, y):
    """The pairing <x, y> = pi(x y) from the whole product, on any bracket
    table: the reference for the pass and for the prefix pairings of
    ``dual_pair``."""
    return pi(multiply(x, y))


# -- polynomials and dense elimination ---------------------------------------

def poly_normalize(p):
    while p and not p[-1]:
        p = p[:-1]
    return p


def poly_derivative(p):
    return [c * i for i, c in enumerate(p)][1:]


def poly_mod(a, b):
    a, b = poly_normalize(a[:]), poly_normalize(b)
    while len(a) >= len(b) > 0:
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a = poly_normalize(a)
    return a


def poly_gcd(a, b):
    """Monic gcd of two Fraction polynomials (ascending powers), by Euclid."""
    a, b = poly_normalize(a), poly_normalize(b)
    while b:
        a, b = b, poly_mod(a, b)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def euclid_is_squarefree(p):
    """gcd(p, p') is a constant: the reference for the Sylvester rank test
    of ``linalg.is_squarefree``."""
    p = poly_normalize([F(c) for c in p])
    return len(p) <= 1 or len(poly_gcd(p, poly_derivative(p))) == 1


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


def dense_mul(a, b):
    """The product of two dense matrices, skipping zero factors."""
    out = []
    for row in a:
        acc = [F(0)] * len(b[0])
        for t, x in enumerate(row):
            if x:
                for c, y in enumerate(b[t]):
                    if y:
                        acc[c] += x * y
        out.append(acc)
    return out


def stacked_minimal_polynomial(mat):
    """The first dependence among I, M, ..., M^n, from one RREF of the
    matrix whose column j is M^j flattened: the first free column k gives
    the monic t^k - sum of red[p][k] t^p over the pivots p < k.  The
    reference for ``linalg.minimal_polynomial``."""
    n = len(mat)
    powers = [[[F(int(r == c)) for c in range(n)] for r in range(n)]]
    for _ in range(n):
        powers.append(dense_mul(powers[-1], mat))
    red, pivots = dense_rref([[power[r][c] for power in powers]
                              for r in range(n) for c in range(n)])
    k = next(j for j in range(n + 1) if j not in pivots)
    return [-red[p][k] for p in range(k)] + [F(1)]


# -- modules ------------------------------------------------------------------

def dense_validate_module(alg, module):
    """Dense d x d products on every basis pair: the reference for
    ``validate_module``."""
    report = ValidationReport()
    d = module.dim
    rho = [dense_of(module.rho(i), d) for i in range(alg.dim)]
    for i, m in enumerate(rho):
        pi = alg.parity(i)
        for r in range(d):
            for c in range(d):
                if m[r][c] and (module.parities[r] - module.parities[c] - pi) % 2:
                    report.add("module-parity", (i, r, c),
                               f"rho({alg.basis_name(i)})[{r}][{c}] = {m[r][c]} "
                               f"violates the parity pattern")
    for i, mi in enumerate(rho):
        for j, mj in enumerate(rho):
            sign = -1 if alg.parity(i) and alg.parity(j) else 1
            rhs, back = dense_mul(mi, mj), dense_mul(mj, mi)
            lhs = [[F(0)] * d for _ in range(d)]
            for k, c in alg.bracket(i, j):
                for r in range(d):
                    for s in range(d):
                        lhs[r][s] += c * rho[k][r][s]
            if any(lhs[r][s] != rhs[r][s] - sign * back[r][s]
                   for r in range(d) for s in range(d)):
                report.add("module-bracket", (i, j),
                           f"rho([{alg.basis_name(i)}, {alg.basis_name(j)}]) does "
                           f"not match the supercommutator of the actions")
    return report


def fraction_module_action(module, u):
    """rho extended along each PBW word by Fraction products: the reference
    for ``module_action``."""
    terms = []
    for word, c in u.terms.items():
        acc = identity(module.dim)
        for g in word:
            acc = linalg.mat_mul(acc, module.rho(g))
        terms.append((c, acc))
    return linalg.mat_comb(terms)


def fraction_split(alg, module):
    """Kernel, image and directness of the even actions by Fraction
    elimination: the reference for the split of
    ``check_semisimple_over_even``."""
    d = module.dim
    evens = [module.rho(i) for i in range(alg.n_even)]
    invariants = linalg.nullspace((row for mat in evens for row in mat.values()), d)
    image = linalg.row_space_basis(col for mat in evens
                                   for col in linalg.transpose(mat).values())
    direct = len(invariants) + len(image) == d and linalg.rank(invariants + image) == d
    return invariants, image, direct


def fraction_projector(alg, module, report):
    """The projector and its identities in Fractions: the reference for
    ``invariant_projector``."""
    basis = report.invariants_basis + report.image_basis
    cols = linalg.transpose(dict(enumerate(basis)))
    invariant_cols = linalg.transpose(dict(enumerate(report.invariants_basis)))
    proj = linalg.mat_mul(invariant_cols, linalg.invert(cols, module.dim))
    assert linalg.mat_mul(proj, proj) == proj
    for i in range(alg.n_even):
        assert not linalg.mat_mul(module.rho(i), proj)
        assert not linalg.mat_mul(proj, module.rho(i))
    return proj


def fraction_integral(alg, module, inv, proj):
    """Z P and its left invariance in Fractions: the reference for
    ``integral_matrix``."""
    m = linalg.mat_mul(fraction_module_action(module, inv.z), proj)
    assert not any(linalg.mat_mul(module.rho(i), m) for i in range(alg.dim))
    return m


def fraction_right_integral(alg, module, m):
    return not any(linalg.mat_mul(m, module.rho(i)) for i in range(alg.dim))
