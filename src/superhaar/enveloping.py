"""Arithmetic in the universal enveloping algebra.

An element is a finite Fraction-weighted sum of PBW words.  A PBW word is
a tuple of generator indices (even generators first, then odd, each part
by index) that is non-decreasing and repeats no odd letter, since an odd
square rewrites to half its self-bracket.  These are the canonical words
of the rewriting kernel ``_rewrite``, which has this one term order and
runs in exact ints; ``_normal_form`` scales Fractions into it and out of
it, and ``multiply`` stores that result as it is.  Each word is an even
prefix followed by an odd suffix x^I, so an element is literally the
left-coefficient decomposition ``u = sum_I u_I x^I`` with ``u_I`` in the
even enveloping subalgebra, which is what the top-coefficient projection
of the Frobenius machinery reads off directly.

Classes in the quotient U(g)/U(g)*g0 by the left ideal generated by the
even part do not go through the kernel.  The quotient is the module
induced from the trivial g0-module, with basis the odd monomials x^I, and
the action of each generator on x^I follows from the bracket table by a
short recursion on the first letter of x^I (``_act``; Kac, Adv. Math. 26,
1977; Bell and Farnsteiner, Trans. AMS 335, 1993), memoised per algebra.
A class is kept as {bitmask of I: coefficient}, bit t standing for the
odd generator with global index n_even + t.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from itertools import groupby

from .algebra import LieSuperalgebra, as_scalar


def _odd_mask(n0: int, word) -> int:
    """Bitmask of the odd letters of ``word``: bit t for generator n0 + t."""
    mask = 0
    for g in word:
        if g >= n0:
            mask |= 1 << (g - n0)
    return mask


def _check_mask(alg: LieSuperalgebra, mask) -> int:
    """``mask``, after checking that it is an int (not a bool) in
    range(2^m); ``ValueError`` otherwise."""
    if type(mask) is not int or not 0 <= mask < 1 << alg.n_odd:
        raise ValueError(f"odd subset mask {mask!r} is not an int in range(2^{alg.n_odd})")
    return mask


def _odd_word(alg: LieSuperalgebra, mask) -> tuple[int, ...]:
    """The PBW word of the odd subset with bitmask ``mask``; ``ValueError``
    unless ``mask`` is an int (not a bool) in range(2^m)."""
    _check_mask(alg, mask)
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
        return (isinstance(other, UEElement)
                and (self.alg is other.alg or self.alg == other.alg)
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.alg, frozenset(self.terms.items())))

    def _check(self, other):
        if not isinstance(other, UEElement) or (other.alg is not self.alg
                                                 and other.alg != self.alg):
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

def _normal_form(alg: LieSuperalgebra, heads) -> dict[tuple[int, ...], Fraction]:
    """Expand scaled generator words into PBW words.

    `heads` is a collection of (word, Fraction coefficient), each word a
    tuple of generator indices.  They are rewritten in exact ints by
    ``_rewrite``: the heads are scaled to one common denominator D and to
    the largest head degree `top`, so that a head of degree d carries
    c * D * S^(top - d).  Every output word of degree d then carries
    D * S^(top - d) times its rational coefficient, and each output
    coefficient is one Fraction(v, D * S^(top - d)) at the end.  When D
    and S are both 1 every scale is 1: the numerators go in as they are,
    and each output is Fraction(v).
    """
    if not heads:
        return {}
    scale = alg._int_scale
    den = math.lcm(*(c.denominator for _, c in heads))
    if den == scale == 1:
        out = _rewrite(alg, [(w, c.numerator) for w, c in heads])
        return {w: Fraction(v) for w, v in out.items() if v}
    top = max(len(w) for w, _ in heads)
    out = _rewrite(alg, [(w, c.numerator * (den // c.denominator) * scale ** (top - len(w)))
                         for w, c in heads])
    dens = [den * scale ** e for e in range(top + 1)]
    return {w: Fraction(v, dens[top - len(w)]) for w, v in out.items() if v}


def _rewrite(alg: LieSuperalgebra, heads) -> dict[tuple[int, ...], int]:
    """The PBW words of integer-weighted generator words, as
    {word: int}; words whose weights cancel are kept with value 0.

    A word is canonical when its letters are non-decreasing by index (even
    generators first, then odd) and no odd letter repeats.  One step either
    transposes an adjacent out-of-order pair (Koszul sign plus a bracket
    term) or collapses an adjacent odd square via x*x = [x,x]/2.  Every
    step lowers (total degree, inversion count), so the worklist
    terminates.  The letters before the first out-of-order pair stay in
    order in every word a step makes, so the scan for the next one starts
    one letter before it.

    The algebra's integer table holds [a, b] * S and, for odd a,
    [a, a] / 2 * S, with S the lcm of their denominators
    (``LieSuperalgebra._int_rows``).  A transposition keeps the degree and
    the weight's scale; a bracket or square step lowers the degree by
    exactly 1 and multiplies by an entry of the table, which is the
    rational constant times S.  So if every head of degree d carries
    K * S^(e - d) times a rational coefficient, for some K and e, every
    output word of degree d carries the same K * S^(e - d) times its
    rational coefficient.
    """
    rows, halves, parity = alg._int_rows, alg._int_halves, alg._letter_parity
    stack = [(w, v, 0) for w, v in heads]
    out: dict[tuple[int, ...], int] = defaultdict(int)
    while stack:
        w, v, start = stack.pop()
        red = -1
        for p in range(start, len(w) - 1):
            a, b = w[p], w[p + 1]
            if a > b or (a == b and parity[a]):
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
    return out


def _heads(a: UEElement, b: UEElement):
    """Generator words of the term pairs of ``a*b``, each scaled by its
    coefficient product; a coefficient 1 passes the other one through."""
    right = b.terms.items()
    heads = []
    for w1, c1 in a.terms.items():
        if c1 == 1:
            heads += [(w1 + w2, c2) for w2, c2 in right]
        else:
            heads += [(w1 + w2, c1 if c2 == 1 else c1 * c2) for w2, c2 in right]
    return heads


def multiply(a: UEElement, b: UEElement) -> UEElement:
    """Product in the enveloping algebra, in even-first normal form: the
    kernel's canonical words are the PBW words of the result.  A pure
    scalar factor (its one word is the empty word) scales the other
    factor's terms, which are PBW words already, with no kernel call."""
    a._check(b)
    alg = a.alg
    for s, u in ((a, b), (b, a)):
        if len(s.terms) == 1 and () in s.terms:
            c = s.terms[()]
            return UEElement._trusted(alg, {w: c * v for w, v in u.terms.items()})
    return UEElement._trusted(alg, _normal_form(alg, _heads(a, b)))


def counit(a: UEElement) -> Fraction:
    """Coefficient of the empty word."""
    return a.terms.get((), Fraction(0))


def alpha(alg: LieSuperalgebra, terms: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    """The automorphism of the even enveloping subalgebra sending each even
    generator X to X + tr(ad'(X)), extended multiplicatively, on
    {PBW word: int} in the kernel's integers (a word w carrying S^(e - |w|)
    times its coefficient, for some e).  The traces are the algebra's own.
    When every letter has trace zero, ``terms`` is returned as it is.

    No rewriting is needed.  A PBW word of the element is a non-decreasing
    run of even letters, so the ordered product of its X_g + tr(ad'(X_g))
    is the sum over the word's subsequences, each itself a PBW word,
    weighted by the traces of the letters left out, each tr(ad'(X_g)) * S:
    an int, since S clears the table's denominators."""
    if any(w and w[-1] >= alg.n_even for w in terms):
        raise ValueError("twist automorphism is defined on the even subalgebra only")
    lam = alg._ad_traces
    if not any(lam[g] for w in terms for g in w):
        return terms
    lam = [t.numerator * alg._int_scale // t.denominator for t in lam]
    out: dict[tuple[int, ...], int] = defaultdict(int)
    for word, c in terms.items():
        parts = {(): c}
        for g in word:
            t = lam[g]
            grown: dict[tuple[int, ...], int] = defaultdict(int)
            for w, v in parts.items():
                grown[w + (g,)] += v
                if t:
                    grown[w] += v * t
            parts = grown
        for w, v in parts.items():
            out[w] += v
    return {w: v for w, v in out.items() if v}


# -- the quotient U(g)/U(g)*g0 --------------------------------------------------

def _act(alg: LieSuperalgebra, g: int, mask: int) -> tuple[tuple[int, int], ...]:
    """The class of x_g * x^mask in U(g)/U(g)*g0, as pairs (J, v): v stands
    for v / S^(|mask| + 1 - |J|) times x^J, S the algebra's integer scale.

    With s = min mask, x^mask = x_s * x^rest, and:
    - an odd x_t with t < s, or any odd x_t on mask 0, gives x^(mask + t);
    - x_s gives x_s * x_s * x^rest = [x_s, x_s]/2 * x^rest;
    - any other x_g moves past x_s:
      x_g * x_s * x^rest = (-1)^|g| x_s * (x_g * x^rest) + [x_g, x_s] * x^rest;
    - an even x_g on mask 0 gives 0, since x_g lies in U(g)*g0.
    A bracket or square step lowers the degree by 1 and multiplies by a
    table entry, the rational constant times S, so the scale stays exact.

    Termination: no step adds a letter, so no mask in the class of
    x_g * x^rest is longer than ``mask``.  Each call here recurses to a
    shorter mask, or to a mask of the same length under x_s, which is odd
    and precedes g when the odd letters come by index and every even
    letter after them.  So a chain of nested calls has at most m + 1 calls
    per mask length, (m + 1)^2 in all.

    Results are memoised in ``alg._quotient_memo`` for the lifetime of the
    algebra."""
    memo = alg._quotient_memo
    key = (g, mask)
    if key in memo:
        return memo[key]
    n0 = alg.n_even
    low = mask & -mask
    s = n0 + low.bit_length() - 1
    if g >= n0 and (not mask or g < s):
        out = ((mask | 1 << (g - n0), 1),)
    elif not mask:
        out = ()
    else:
        rest = mask ^ low
        if g == s:
            terms = [(ck, _act(alg, k, rest)) for k, ck in alg._int_halves[s]]
        else:
            terms = [(-1 if g >= n0 else 1, _apply(alg, s, _act(alg, g, rest)))]
            terms += [(ck, _act(alg, k, rest)) for k, ck in alg._int_rows[g].get(s, ())]
        acc: dict[int, int] = defaultdict(int)
        for c, cls in terms:
            for j, v in cls:
                acc[j] += c * v
        out = tuple((j, v) for j, v in acc.items() if v)
    memo[key] = out
    return out


def _apply(alg: LieSuperalgebra, g: int, cls) -> tuple[tuple[int, int], ...]:
    """x_g times an integer class: one degree more in the scale of ``_act``."""
    acc: dict[int, int] = defaultdict(int)
    for mask, v in cls:
        for j, w in _act(alg, g, mask):
            acc[j] += v * w
    return tuple((j, v) for j, v in acc.items() if v)


def _rational_class(alg: LieSuperalgebra, parts) -> dict[int, Fraction]:
    """The sum of c * cls over ``parts`` (c, d, cls), each cls an integer
    class of degree d: v at J stands for v / S^(d - |J|)."""
    if not parts:
        return {}
    scale = alg._int_scale
    den = math.lcm(*(c.denominator for c, _, _ in parts))
    top = max(d for _, d, _ in parts)
    acc: dict[int, int] = defaultdict(int)
    for c, d, cls in parts:
        f = c.numerator * (den // c.denominator) * scale ** (top - d)
        for j, v in cls:
            acc[j] += f * v
    return {j: Fraction(v, den * scale ** (top - j.bit_count()))
            for j, v in acc.items() if v}


def _int_action_rows(alg: LieSuperalgebra, g: int) -> dict[int, dict[int, int]]:
    """The nonzero rows of x_g on the 2^m classes x^mask, in ints, by row
    J.  The pair (J, v) of ``_act(alg, g, mask)`` stands for the entry
    v / S^(|mask| + 1 - |J|) at row J and column mask, so row J times
    S^(m + 1 - |J|) holds the int v * S^(m - |mask|) at each mask.
    Scaling a row keeps the row space, and so the kernel."""
    m = alg.n_odd
    factor = [alg._int_scale ** (m - k) for k in range(m + 1)]
    rows: dict[int, dict[int, int]] = defaultdict(dict)
    for mask in range(1 << m):
        f = factor[mask.bit_count()]
        for j, v in _act(alg, g, mask):
            rows[j][mask] = v * f
    return rows


def quotient_project(a: UEElement) -> dict[int, Fraction]:
    """Class of ``a`` in the quotient by the left ideal generated by the
    even part, expressed over the exterior basis x^I: I -> coefficient.
    Each word acts letter by letter, last letter first, on the class of 1."""
    alg = a.alg
    parts = []
    for word, c in a.terms.items():
        cls = ((0, 1),)
        for g in reversed(word):
            cls = _apply(alg, g, cls)
        parts.append((c, len(word), cls))
    return _rational_class(alg, parts)


def act_on_quotient(alg: LieSuperalgebra, i: int, cls: dict[int, Fraction]) -> dict[int, Fraction]:
    """Left action of basis element ``i`` on a quotient class.  Masks must
    be ints in range(2^m) (``ValueError``) and coefficients exact rationals
    (``InputError``)."""
    if type(i) is not int or not 0 <= i < alg.dim:
        raise ValueError(f"generator index {i} out of range")
    checked = [(_check_mask(alg, mask), as_scalar(c)) for mask, c in cls.items()]
    return _rational_class(alg, [(c, mask.bit_count() + 1, _act(alg, i, mask))
                                 for mask, c in checked])
