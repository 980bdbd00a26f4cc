"""Arithmetic in the universal enveloping algebra.

An element is a finite rational-weighted sum of PBW words.  A PBW word is
a tuple of generator indices (even generators first, then odd, each part
by index) that is non-decreasing and repeats no odd letter, since an odd
square rewrites to half its self-bracket.  These are the canonical words
of the rewriting kernel ``_rewrite``, which has this one term order and
runs in exact ints.  Each word is an even prefix followed by an odd
suffix x^I, so an element is literally the left-coefficient decomposition
``u = sum_I u_I x^I`` with ``u_I`` in the even enveloping subalgebra,
which is what the top-coefficient projection of the Frobenius machinery
reads off directly.

Every int of this package that stands for an element or a quotient class
follows one rule: it is a coefficient in the integral basis x'_g = S x_g,
over one denominator, S the algebra's integer scale (the lcm of the
denominators of its structure constants).  In that basis the structure
constants are S times the rational ones, exactly the ints of the
algebra's table (``LieSuperalgebra._int_rows`` and ``_int_halves``), so
rewriting a product of words x'_w by them gives ints again.  A PBW word w
has x'_w = S^|w| x_w, so v at w over the denominator D stands for
v S^|w| / D times x_w.  ``UEElement`` keeps its value so, ``multiply``
hands the kernel the products of the ints and stores its result as it is
over the product of the denominators, and Fractions are built only when
``terms`` is read.

Classes in the quotient U(g)/U(g)*g0 by the left ideal generated by the
even part do not go through the kernel.  The quotient is the module
induced from the trivial g0-module, with basis the odd monomials x^I, and
the action of each generator on x^I follows from the bracket table by a
short recursion on the first letter of x^I (``_act``; Kac, Adv. Math. 26,
1977; Bell and Farnsteiner, Trans. AMS 335, 1993), memoised per algebra.
A class is kept as {bitmask of I: coefficient}, bit t standing for the
odd generator with global index n_even + t, and in ints by the same rule,
on x'^J = S^|J| x^J.
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


class _Slots:
    """The storage of a ``UEElement``, writable while ``_trusted`` fills it."""

    __slots__ = ("alg", "_ints", "_den")


_new = object.__new__
# the Fractions of small ints, shared by the decodes at denominator and S 1
_SMALL = {v: Fraction(v) for v in range(-64, 65)}


class UEElement(_Slots):
    """An enveloping-algebra element: a finite rational-weighted sum of
    PBW words over a fixed algebra.  Values are immutable; all arithmetic
    allocates fresh results.

    The value is ``_ints`` = {PBW word: nonzero int} over the positive
    denominator ``_den``, by the rule of the module docstring.  ``terms``
    = {PBW word: Fraction} is decoded from the ints afresh on each read
    and is not stored.

    The public constructor checks every word and scalar.  Results of the
    library's own arithmetic are built by ``_trusted``, which stores its
    ints as given."""

    __slots__ = ()

    def __new__(cls, alg: LieSuperalgebra, terms=()):
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
        acc = {w: c for w, c in acc.items() if c}
        scale = alg._int_scale
        den = math.lcm(*(c.denominator for c in acc.values()))
        deg = max(map(len, acc), default=0)
        return cls._trusted(alg, {w: c.numerator * (den // c.denominator) * scale ** (deg - len(w))
                                  for w, c in acc.items()}, den * scale ** deg)

    @classmethod
    def _trusted(cls, alg: LieSuperalgebra, ints: dict, den: int = 1) -> UEElement:
        """The element with ``ints`` stored as given, unchecked: the caller
        guarantees PBW words of ``alg``, nonzero int values and a positive
        int ``den``."""
        # a _Slots is filled by plain assignment, then becomes a UEElement,
        # whose layout is the same: twice as fast as setting each slot
        # through object.__setattr__
        self = _new(_Slots)
        self.alg, self._ints, self._den = alg, ints, den
        self.__class__ = UEElement
        return self

    def __setattr__(self, *_):
        raise AttributeError("UEElement is immutable")

    __delattr__ = __setattr__

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        den, scale = self._den, self.alg._int_scale
        if den == scale == 1:
            return {w: _SMALL[v] if v in _SMALL else Fraction(v) for w, v in self._ints.items()}
        return {w: Fraction(v * scale ** len(w), den) for w, v in self._ints.items()}

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, alg):
        return cls._trusted(alg, {})

    @classmethod
    def scalar(cls, alg, c):
        return cls(alg, {(): as_scalar(c)})

    @classmethod
    def one(cls, alg):
        return cls._trusted(alg, {(): 1})

    @classmethod
    def generator(cls, alg, i: int):
        if not 0 <= i < alg.dim:
            raise ValueError(f"generator index {i} out of range")
        return cls._trusted(alg, {(i,): 1}, alg._int_scale)

    # -- queries -------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._ints)

    def sorted_terms(self):
        n0 = self.alg.n_even
        return sorted(self.terms.items(), key=lambda t: _term_key(n0, t[0]))

    # -- arithmetic ----------------------------------------------------------

    def _combine(self, other, sign: int) -> UEElement:
        """self + sign * other: the ints merge as they are at one
        denominator; otherwise each side is first scaled to the lcm."""
        self._check(other)
        a, den = self._ints, self._den
        if den != other._den:
            den = math.lcm(den, other._den)
            fa = den // self._den
            a = {w: v * fa for w, v in a.items()}
            sign *= den // other._den
        out = dict(a)
        for w, v in other._ints.items():
            v = out.get(w, 0) + sign * v
            if v:
                out[w] = v
            else:
                del out[w]
        return UEElement._trusted(self.alg, out, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return UEElement._trusted(self.alg, {w: -v for w, v in self._ints.items()}, self._den)

    def __mul__(self, other):
        if isinstance(other, UEElement):
            return multiply(self, other)
        c = as_scalar(other)
        if not c:
            return UEElement.zero(self.alg)
        n = c.numerator
        return UEElement._trusted(self.alg, {w: n * v for w, v in self._ints.items()},
                                  self._den * c.denominator)

    def __rmul__(self, other):
        return self * other

    def __eq__(self, other):
        if not (isinstance(other, UEElement)
                and (self.alg is other.alg or self.alg == other.alg)):
            return False
        a, b = self._ints, other._ints
        da, db = self._den, other._den
        if da == db:
            return a == b
        # v / d = v' / d' exactly when v * d' = v' * d
        return a.keys() == b.keys() and all(v * db == b[w] * da for w, v in a.items())

    def __hash__(self):
        return hash((self.alg, frozenset(self.terms.items())))

    def _check(self, other):
        if not isinstance(other, UEElement) or (other.alg is not self.alg
                                                 and other.alg != self.alg):
            raise ValueError("elements live over different algebras")

    def __repr__(self):
        if not self:
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

    A bracket or square step multiplies by an int of the algebra's table,
    [a, b] or [a, a] / 2 in the integral basis of the module docstring, so
    the output ints are the coefficients of the heads in that basis, over
    the heads' denominator.
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


def multiply(a: UEElement, b: UEElement) -> UEElement:
    """Product in the enveloping algebra, in even-first normal form: the
    kernel's canonical words are the PBW words of the result.  The ints of
    the term pairs multiply, as do the denominators.
    A pure scalar factor (its one word is the empty word) scales the other
    factor's ints, which are on PBW words already, with no kernel call."""
    a._check(b)
    alg, x, y = a.alg, a._ints, b._ints
    den = a._den * b._den
    for s, u in ((x, y), (y, x)):
        if len(s) == 1 and () in s:
            c = s[()]
            return UEElement._trusted(alg, {w: c * v for w, v in u.items()}, den)
    out = _rewrite(alg, [(w1 + w2, v1 * v2) for w1, v1 in x.items() for w2, v2 in y.items()])
    return UEElement._trusted(alg, {w: v for w, v in out.items() if v}, den)


def counit(a: UEElement) -> Fraction:
    """Coefficient of the empty word."""
    return Fraction(a._ints.get((), 0), a._den)


def alpha(alg: LieSuperalgebra, terms: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    """The automorphism of the even enveloping subalgebra sending each even
    generator X to X + tr(ad'(X)), extended multiplicatively, on
    {PBW word: int} in the integral basis of the module docstring, where it
    sends x'_X to x'_X + S tr(ad'(X)).  The traces are the algebra's own.
    When every letter has trace zero, ``terms`` is returned as it is.

    No rewriting is needed.  A PBW word of the element is a non-decreasing
    run of even letters, so the ordered product of its X_g + tr(ad'(X_g))
    is the sum over the word's subsequences, each itself a PBW word,
    weighted by the traces of the letters left out, each tr(ad'(X_g)) * S:
    an int of the table."""
    if any(w and w[-1] >= alg.n_even for w in terms):
        raise ValueError("twist automorphism is defined on the even subalgebra only")
    lam = alg._int_traces
    if not any(lam[g] for w in terms for g in w):
        return terms
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
    """The class of x'_g * x'^mask in U(g)/U(g)*g0, as pairs (J, v) of
    exact ints: v times x'^J, in the integral basis of the module docstring.

    With s = min mask, x^mask = x_s * x^rest, and:
    - an odd x_t with t < s, or any odd x_t on mask 0, gives x^(mask + t);
    - x_s gives x_s * x_s * x^rest = [x_s, x_s]/2 * x^rest;
    - any other x_g moves past x_s:
      x_g * x_s * x^rest = (-1)^|g| x_s * (x_g * x^rest) + [x_g, x_s] * x^rest;
    - an even x_g on mask 0 gives 0, since x_g lies in U(g)*g0.
    The brackets and squares are the ints of the table.

    Termination: no step adds a letter, so no mask in the class of
    x_g * x^rest is longer than ``mask``.  Each call here recurses to a
    shorter mask, or to a mask of the same length under x_s, which is odd
    and precedes g when the odd letters come by index and every even
    letter after them.  So on any table a chain of nested calls has at
    most m + 1 calls per mask length, (m + 1)^2 in all.  On a table that
    respects parity no bracket adds an odd letter, so the only mask of
    length |mask| in the class of x_g * x^rest is rest + g, for an odd g
    not in rest, and x_s on it, with s below all its letters, is a leaf:
    every call that recurses is on a shorter mask than its caller, and a
    chain has at most |mask| + 1 <= m + 1 calls.  That is the depth
    measured on gl(4|2), m = 16, with an empty memo.

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
    """x'_g times an integer class, in the basis of ``_act``."""
    acc: dict[int, int] = defaultdict(int)
    for mask, v in cls:
        for j, w in _act(alg, g, mask):
            acc[j] += v * w
    return tuple((j, v) for j, v in acc.items() if v)


def _class(alg: LieSuperalgebra, ints, den: int) -> dict[int, Fraction]:
    """The class of the nonzero pairs (J, v) of ``ints`` over ``den``, on
    the basis x^J."""
    scale = alg._int_scale
    return {j: Fraction(v * scale ** j.bit_count(), den) for j, v in ints if v}


def _int_action_rows(alg: LieSuperalgebra, g: int) -> dict[int, dict[int, int]]:
    """The nonzero rows of x_g on the 2^m classes x^mask, in ints, by row
    J: v * S^(m - |mask|) at each mask for the pair (J, v) of
    ``_act(alg, g, mask)``, which by the rule of the module docstring is
    S^(m + 1 - |J|) times the rational entry.  Scaling a row keeps the row
    space, and so the kernel."""
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
    Each word acts letter by letter, last letter first, on the class of 1,
    in the ints of ``a`` over its denominator."""
    alg = a.alg
    acc: dict[int, int] = defaultdict(int)
    for word, v in a._ints.items():
        cls = ((0, 1),)
        for g in reversed(word):
            cls = _apply(alg, g, cls)
        for j, x in cls:
            acc[j] += v * x
    return _class(alg, acc.items(), a._den)


def act_on_quotient(alg: LieSuperalgebra, i: int, cls: dict[int, Fraction]) -> dict[int, Fraction]:
    """Left action of basis element ``i`` on a quotient class.  Masks must
    be ints in range(2^m) (``ValueError``) and coefficients exact rationals
    (``InputError``)."""
    if type(i) is not int or not 0 <= i < alg.dim:
        raise ValueError(f"generator index {i} out of range")
    checked = [(_check_mask(alg, mask), as_scalar(c)) for mask, c in cls.items()]
    # c x^mask is c / S^|mask| times x'^mask, over one denominator
    scale = alg._int_scale
    dens = [c.denominator * scale ** mask.bit_count() for mask, c in checked]
    den = math.lcm(*dens)
    ints = [(mask, c.numerator * (den // d)) for (mask, c), d in zip(checked, dens)]
    # x_i = x'_i / S
    return _class(alg, _apply(alg, i, ints), den * scale)
