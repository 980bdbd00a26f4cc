"""Arithmetic in the universal enveloping algebra.

Elements are kept in the even-first PBW normal form: each monomial is a
vector of exponents for the even generators (ascending) followed by a
subset of the odd generators (ascending, exponents at most one since an
odd square rewrites to half its self-bracket).  Stored this way, an
element is literally the left-coefficient decomposition
``u = sum_I u_I x^I`` with ``u_I`` in the even enveloping subalgebra,
which is what the top-coefficient projection of the Frobenius machinery
reads off directly.

Classes in the quotient U(g)/U(g)*g0 by the left ideal generated by the
even part come from the same rewriting loop, run in the other term order
(odd generators first): a word ending in an even letter lies in the ideal
and is dropped as soon as it is seen, and the words left are the odd
monomials x^I that form a basis of the quotient.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from typing import NamedTuple

from .algebra import LieSuperalgebra, ad_prime_trace, as_scalar


class PBWMonomial(NamedTuple):
    """Normal-form monomial: even exponent vector plus odd-subset bitmask.

    Bit ``t`` of ``odd`` stands for the odd generator with global index
    ``n_even + t``.
    """
    even: tuple[int, ...]
    odd: int

    @property
    def degree(self) -> int:
        return sum(self.even) + self.odd.bit_count()

    def word(self, n_even: int) -> tuple[int, ...]:
        w = []
        for i, e in enumerate(self.even):
            w.extend([i] * e)
        mask, t = self.odd, 0
        while mask:
            if mask & 1:
                w.append(n_even + t)
            mask >>= 1
            t += 1
        return tuple(w)


def _term_key(mono: PBWMonomial):
    # graded order for deterministic display and serialization
    return (mono.degree, mono.even, mono.odd)


class UEElement:
    """An enveloping-algebra element: a finite Fraction-weighted sum of
    PBW monomials over a fixed algebra.  Values are immutable; all
    arithmetic allocates fresh results.

    The public constructor checks every monomial and scalar.  Results of
    the library's own arithmetic are built by ``_trusted``, which stores
    its terms as given.  ``_word_terms`` is filled on first use by
    ``_words``."""

    __slots__ = ("alg", "terms", "_word_terms")

    def __init__(self, alg: LieSuperalgebra, terms=()):
        acc: dict[PBWMonomial, Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for mono, c in items:
            c = as_scalar(c)
            if not c:
                continue
            if (len(mono.even) != alg.n_even or mono.odd >> alg.n_odd
                    or mono.odd < 0 or any(e < 0 for e in mono.even)):
                raise ValueError(f"monomial {mono} does not fit algebra {alg.name}")
            acc[mono] = acc.get(mono, Fraction(0)) + c
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "terms", {m: c for m, c in acc.items() if c})
        object.__setattr__(self, "_word_terms", None)

    @classmethod
    def _trusted(cls, alg: LieSuperalgebra, terms: dict) -> UEElement:
        """The element with ``terms`` stored as given, unchecked: the caller
        guarantees monomials that fit ``alg`` and nonzero Fraction values."""
        self = object.__new__(cls)
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_word_terms", None)
        return self

    def __setattr__(self, *_):
        raise AttributeError("UEElement is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, alg):
        return cls(alg)

    @classmethod
    def scalar(cls, alg, c):
        return cls(alg, {PBWMonomial((0,) * alg.n_even, 0): as_scalar(c)})

    @classmethod
    def one(cls, alg):
        return cls.scalar(alg, 1)

    @classmethod
    def generator(cls, alg, i: int):
        if not 0 <= i < alg.dim:
            raise ValueError(f"generator index {i} out of range")
        if i < alg.n_even:
            even = tuple(1 if t == i else 0 for t in range(alg.n_even))
            return cls(alg, {PBWMonomial(even, 0): Fraction(1)})
        return cls(alg, {PBWMonomial((0,) * alg.n_even, 1 << (i - alg.n_even)): Fraction(1)})

    # -- queries -------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, mono: PBWMonomial) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _term_key(t[0]))

    def _words(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """(generator word, coefficient) per term, built on the first call
        and kept."""
        words = self._word_terms
        if words is None:
            n0 = self.alg.n_even
            words = [(m.word(n0), c) for m, c in self.terms.items()]
            object.__setattr__(self, "_word_terms", words)
        return words

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
        for mono, c in self.sorted_terms():
            factors = []
            for i, e in enumerate(mono.even):
                if e == 1:
                    factors.append(self.alg.even_names[i])
                elif e > 1:
                    factors.append(f"{self.alg.even_names[i]}^{e}")
            for t in range(self.alg.n_odd):
                if mono.odd >> t & 1:
                    factors.append(self.alg.odd_names[t])
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

def _word_to_monomial(alg: LieSuperalgebra, word: tuple[int, ...]) -> PBWMonomial:
    even = [0] * alg.n_even
    mask = 0
    for g in word:
        if g < alg.n_even:
            even[g] += 1
        else:
            mask |= 1 << (g - alg.n_even)
    return PBWMonomial(tuple(even), mask)


def _normal_form(alg: LieSuperalgebra, heads,
                 odd_first: bool = False) -> dict[tuple[int, ...], Fraction]:
    """Expand scaled generator words into canonical words.

    `heads` is a list of (word, Fraction coefficient), each word a tuple
    of generator indices.

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
    right = b._words()
    return [(w1 + w2, c1 * c2) for w1, c1 in a._words() for w2, c2 in right]


def _to_element(alg: LieSuperalgebra, nf) -> UEElement:
    """The element with canonical even-first words ``nf``: distinct
    canonical words are distinct monomials."""
    return UEElement._trusted(alg, {_word_to_monomial(alg, w): c for w, c in nf.items()})


def multiply(a: UEElement, b: UEElement) -> UEElement:
    """Product in the enveloping algebra, in even-first normal form."""
    a._check(b)
    alg = a.alg
    return _to_element(alg, _normal_form(alg, _heads(a, b)))


def counit(a: UEElement) -> Fraction:
    """Coefficient of the empty monomial."""
    return a.coefficient(PBWMonomial((0,) * a.alg.n_even, 0))


def _substitute(u: UEElement, dst: LieSuperalgebra, images) -> UEElement:
    """The image of ``u`` in U(dst) under the algebra map sending source
    generator g to ``images[g]`` (indexed by every letter of ``u``): each
    PBW word becomes the ordered product of the images of its letters."""
    n0 = u.alg.n_even
    out = UEElement.zero(dst)
    for mono, c in u.terms.items():
        acc = UEElement.scalar(dst, c)
        for g in mono.word(n0):
            acc = multiply(acc, images[g])
        out = out + acc
    return out


def _twist(u: UEElement, sign: int) -> UEElement:
    alg = u.alg
    if any(m.odd for m in u.terms):
        raise ValueError("twist automorphism is defined on the even subalgebra only")
    letters = {i for m in u.terms for i, e in enumerate(m.even) if e}
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
    return {_word_to_monomial(alg, w).odd: c
            for w, c in _normal_form(alg, heads, odd_first=True).items()}


def quotient_project(a: UEElement) -> dict[int, Fraction]:
    """Class of ``a`` in the quotient by the left ideal generated by the
    even part, expressed over the exterior basis x^I: I -> coefficient."""
    return _class(a.alg, a._words())


def act_on_quotient(alg: LieSuperalgebra, i: int, cls: dict[int, Fraction]) -> dict[int, Fraction]:
    """Left action of basis element ``i`` on a quotient class."""
    if not 0 <= i < alg.dim:
        raise ValueError(f"generator index {i} out of range")
    n0, empty = alg.n_even, (0,) * alg.n_even
    return _class(alg, [((i,) + PBWMonomial(empty, mask).word(n0), c)
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
