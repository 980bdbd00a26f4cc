"""Arithmetic in the universal enveloping algebra.

An element is a finite Fraction-weighted sum of PBW words.  A PBW word is
a tuple of generator indices (even generators first, then odd, each part
by index) that is non-decreasing and repeats no odd letter, since an odd
square rewrites to half its self-bracket.  These are the canonical words
of the rewriting kernel ``_normal_form`` in its even-first order, and
``multiply`` stores the kernel's result as it is.  Each word is an even
prefix followed by an odd suffix x^I, so an element is literally the
left-coefficient decomposition ``u = sum_I u_I x^I`` with ``u_I`` in the
even enveloping subalgebra, which is what the top-coefficient projection
of the Frobenius machinery reads off directly.

Classes in the quotient U(g)/U(g)*g0 by the left ideal generated by the
even part come from the same rewriting loop, run in the other term order
(odd generators first): a word ending in an even letter lies in the ideal
and is dropped as soon as it is seen, and the words left are the odd
monomials x^I that form a basis of the quotient.  A class is kept as
{bitmask of I: coefficient}, bit t standing for the odd generator with
global index n_even + t.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from itertools import groupby

from .algebra import LieSuperalgebra, ad_prime_trace, as_scalar


def _odd_mask(n0: int, word) -> int:
    """Bitmask of the odd letters of ``word``: bit t for generator n0 + t."""
    mask = 0
    for g in word:
        if g >= n0:
            mask |= 1 << (g - n0)
    return mask


def _odd_word(alg: LieSuperalgebra, mask) -> tuple[int, ...]:
    """The PBW word of the odd subset with bitmask ``mask``; ``ValueError``
    unless ``mask`` is an int (not a bool) in range(2^m)."""
    if type(mask) is not int or not 0 <= mask < 1 << alg.n_odd:
        raise ValueError(f"odd subset mask {mask!r} is not an int in range(2^{alg.n_odd})")
    return tuple(alg.n_even + t for t in range(alg.n_odd) if mask >> t & 1)


def _term_key(n0: int, word: tuple[int, ...]):
    # graded order for deterministic display and serialization: degree,
    # even exponent vector, odd mask
    even = [0] * n0
    for g in word:
        if g < n0:
            even[g] += 1
    return (len(word), even, _odd_mask(n0, word))


class UEElement:
    """An enveloping-algebra element: a finite Fraction-weighted sum of
    PBW words over a fixed algebra, ``terms`` = {PBW word: Fraction}.
    Values are immutable; all arithmetic allocates fresh results.

    The public constructor checks every word and scalar.  Results of the
    library's own arithmetic are built by ``_trusted``, which stores its
    terms as given."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: LieSuperalgebra, terms=()):
        n0, dim = alg.n_even, alg.dim
        acc: dict[tuple[int, ...], Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for word, c in items:
            c = as_scalar(c)
            if not c:
                continue
            if not (isinstance(word, tuple)
                    and all(type(g) is int and 0 <= g < dim for g in word)
                    and all(a < b or a == b < n0 for a, b in zip(word, word[1:]))):
                raise ValueError(f"{word!r} is not a PBW word of algebra {alg.name}")
            acc[word] = acc.get(word, Fraction(0)) + c
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "terms", {w: c for w, c in acc.items() if c})

    @classmethod
    def _trusted(cls, alg: LieSuperalgebra, terms: dict) -> UEElement:
        """The element with ``terms`` stored as given, unchecked: the caller
        guarantees PBW words of ``alg`` and nonzero Fraction values."""
        self = object.__new__(cls)
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, *_):
        raise AttributeError("UEElement is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, alg):
        return cls(alg)

    @classmethod
    def scalar(cls, alg, c):
        return cls(alg, {(): as_scalar(c)})

    @classmethod
    def one(cls, alg):
        return cls.scalar(alg, 1)

    @classmethod
    def generator(cls, alg, i: int):
        if not 0 <= i < alg.dim:
            raise ValueError(f"generator index {i} out of range")
        return cls(alg, {(i,): Fraction(1)})

    # -- queries -------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def sorted_terms(self):
        n0 = self.alg.n_even
        return sorted(self.terms.items(), key=lambda t: _term_key(n0, t[0]))
    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                c += out[m]
                if not c:
                    del out[m]
                    continue
            out[m] = c
        return UEElement._trusted(self.alg, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return UEElement._trusted(self.alg, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, UEElement):
            return multiply(self, other)
        c = as_scalar(other)
        if not c:
            return UEElement.zero(self.alg)
        return UEElement._trusted(self.alg, {m: c * v for m, v in self.terms.items()})

    def __rmul__(self, other):
        return self * other

    def __eq__(self, other):
        return (isinstance(other, UEElement) and self.alg == other.alg
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.alg, frozenset(self.terms.items())))

    def _check(self, other):
        if not isinstance(other, UEElement) or other.alg != self.alg:
            raise ValueError("elements live over different algebras")

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for word, c in self.sorted_terms():
            factors = []
            for g, run in groupby(word):
                e = len(list(run))
                name = self.alg.basis_name(g)
                factors.append(name if e == 1 else f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                bits.append(str(c))
            elif c == 1:
                bits.append(body)
            elif c == -1:
                bits.append(f"-{body}")
            else:
                bits.append(f"{c}*{body}")
        out = " + ".join(bits).replace("+ -", "- ")
        return out


# -- normal-form rewriting ---------------------------------------------------

def _normal_form(alg: LieSuperalgebra, heads,
                 odd_first: bool = False) -> dict[tuple[int, ...], Fraction]:
    """Expand scaled generator words into canonical words.

    `heads` is a collection of (word, Fraction coefficient), each word a
    tuple of generator indices.

    A word is canonical when its letters are non-decreasing in the term
    order and no odd letter repeats.  The order is the index order (even
    generators first), or with `odd_first` the odd generators first, each
    part by index.  One step either transposes an adjacent out-of-order
    pair (Koszul sign plus a bracket term) or collapses an adjacent odd
    square via x*x = [x,x]/2.  Every step lowers (total degree, inversion
    count), so the worklist terminates.  The letters before the first
    out-of-order pair stay in order in every word a step makes, so the
    scan for the next one starts one letter before it.

    The loop runs in exact ints.  The algebra's integer table holds
    [a, b] * S and, for odd a, [a, a] / 2 * S, with S the lcm of their
    denominators (``LieSuperalgebra._int_rows``).  The heads are scaled to
    one common denominator D and to the largest head degree `top`: a head
    of degree d carries c * D * S^(top - d).  A transposition keeps the
    degree and the scale; a bracket or square step lowers the degree by
    exactly 1 and multiplies by an entry of the table, which is the
    rational constant times S.  So every word of degree d on the worklist,
    canonical words included, carries exactly D * S^(top - d) times its
    rational coefficient, and each output coefficient is one
    Fraction(v, D * S^(top - d)) at the end.

    With `odd_first` the result is the class of the input in the quotient
    U(g)/U(g)*g0 rather than the input itself.  A word whose last letter is
    even is w'*e with e in g0, so it lies in the left ideal U(g)*g0 and is
    dropped when it is popped; every other step keeps the element, so the
    class is unchanged.  A canonical odd-first word that does not end in an
    even letter has no even letters at all: each word left is a pure odd
    monomial x^I.  U(g) is free as a right U(g0)-module on the x^I (PBW),
    so the ideal is the sum of the x^I * U(g0)*g0 and the x^I are a basis
    of the quotient; the canonical words are the class in that basis.
    """
    if not heads:
        return {}
    n0 = alg.n_even
    scale, rows, halves = alg._int_scale, alg._int_rows, alg._int_halves
    parity, rank = alg._letter_parity, alg._ranks[odd_first]
    den = math.lcm(*(c.denominator for _, c in heads))
    top = max(len(w) for w, _ in heads)
    stack = [(w, c.numerator * (den // c.denominator) * scale ** (top - len(w)), 0)
             for w, c in heads]
    out: dict[tuple[int, ...], int] = defaultdict(int)
    while stack:
        w, v, start = stack.pop()
        if odd_first and w and w[-1] < n0:
            continue
        red = -1
        for p in range(start, len(w) - 1):
            a, b = w[p], w[p + 1]
            if rank[a] > rank[b] or (a == b and parity[a]):
                red = p
                break
        if red < 0:
            out[w] += v
            continue
        a, b = w[red], w[red + 1]
        head, tail = w[:red], w[red + 2:]
        start = red - 1 if red else 0
        if a == b:
            for k, ck in halves[a]:
                stack.append((head + (k,) + tail, v * ck, start))
        else:
            stack.append((head + (b, a) + tail, -v if parity[a] and parity[b] else v, start))
            for k, ck in rows[a].get(b, ()):
                stack.append((head + (k,) + tail, v * ck, start))
    dens = [den * scale ** e for e in range(top + 1)]
    return {w: Fraction(v, dens[top - len(w)]) for w, v in out.items() if v}


def _heads(a: UEElement, b: UEElement):
    """Generator words of the term pairs of ``a*b``, each scaled by its
    coefficient product."""
    right = b.terms.items()
    return [(w1 + w2, c1 * c2) for w1, c1 in a.terms.items() for w2, c2 in right]


def multiply(a: UEElement, b: UEElement) -> UEElement:
    """Product in the enveloping algebra, in even-first normal form: the
    kernel's canonical words are the PBW words of the result."""
    a._check(b)
    alg = a.alg
    return UEElement._trusted(alg, _normal_form(alg, _heads(a, b)))


def counit(a: UEElement) -> Fraction:
    """Coefficient of the empty word."""
    return a.terms.get((), Fraction(0))


def _substitute(u: UEElement, dst: LieSuperalgebra, images) -> UEElement:
    """The image of ``u`` in U(dst) under the algebra map sending source
    generator g to ``images[g]`` (indexed by every letter of ``u``): each
    PBW word becomes the ordered product of the images of its letters."""
    out = UEElement.zero(dst)
    for word, c in u.terms.items():
        acc = UEElement.scalar(dst, c)
        for g in word:
            acc = multiply(acc, images[g])
        out = out + acc
    return out


def _twist(u: UEElement, sign: int) -> UEElement:
    alg = u.alg
    if any(w and w[-1] >= alg.n_even for w in u.terms):
        raise ValueError("twist automorphism is defined on the even subalgebra only")
    letters = {g for w in u.terms for g in w}
    return _substitute(u, alg, {
        i: UEElement.generator(alg, i) + UEElement.scalar(alg, sign * ad_prime_trace(alg, i))
        for i in letters})


def alpha(u: UEElement) -> UEElement:
    """The automorphism of the even enveloping subalgebra sending each even
    generator X to X + tr(ad'(X)); extended multiplicatively."""
    return _twist(u, +1)


def _class(alg: LieSuperalgebra, heads) -> dict[int, Fraction]:
    """Class of the sum of scaled words ``heads`` in U(g)/U(g)*g0, over the
    basis x^I: I -> coefficient (see ``_normal_form``)."""
    n0 = alg.n_even
    return {_odd_mask(n0, w): c for w, c in _normal_form(alg, heads, odd_first=True).items()}


def quotient_project(a: UEElement) -> dict[int, Fraction]:
    """Class of ``a`` in the quotient by the left ideal generated by the
    even part, expressed over the exterior basis x^I: I -> coefficient."""
    return _class(a.alg, a.terms.items())


def act_on_quotient(alg: LieSuperalgebra, i: int, cls: dict[int, Fraction]) -> dict[int, Fraction]:
    """Left action of basis element ``i`` on a quotient class.  Masks must
    be ints in range(2^m) (``ValueError``) and coefficients exact rationals
    (``InputError``)."""
    if type(i) is not int or not 0 <= i < alg.dim:
        raise ValueError(f"generator index {i} out of range")
    return _class(alg, [((i,) + _odd_word(alg, mask), as_scalar(c))
                        for mask, c in cls.items()])


def map_element(u: UEElement, dst: LieSuperalgebra, full_map) -> UEElement:
    """Push ``u`` through the algebra isomorphism sending source basis
    element i to sum_a full_map[a][i] * (destination basis element a).
    The matrix, rows of nonzeros as ``change_basis`` returns it, must be
    parity-preserving and invertible."""
    src = u.alg
    if src.dim != dst.dim or src.n_even != dst.n_even:
        raise ValueError("basis map must preserve the parity split")
    images = [UEElement.zero(dst) for _ in range(src.dim)]
    for a, row in full_map.items():
        for i, c in row.items():
            if dst.parity(a) != src.parity(i):
                raise ValueError("basis map is not parity-preserving")
            images[i] = images[i] + UEElement.generator(dst, a) * c
    return _substitute(u, dst, images)
