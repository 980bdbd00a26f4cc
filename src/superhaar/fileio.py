"""JSON formats for algebras, modules, and expressions.

Rationals travel as strings "p" or "p/q" in lowest terms with positive
denominator; floats are never accepted or produced.  Serialization is
canonical (fixed key order, brackets sorted by index pair), so
parse -> serialize is byte-identical on canonically written files.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from importlib import resources

from . import linalg
from .algebra import InputError, LieSuperalgebra, check_square
from .enveloping import UEElement
from .modules import GradedModule

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[+-]?[0-9]+)?")
_encode_str = json.encoder.encode_basestring_ascii


def parse_rational(text: str) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise InputError(f"not an exact rational: {text!r}")
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError as exc:  # more digits than int() converts
        raise InputError(f"rational of {len(text)} characters rejected: {exc}") from None
    if den == 0:
        raise InputError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


# -- algebra files -----------------------------------------------------------

def algebra_from_json(obj) -> LieSuperalgebra:
    try:
        name = obj["name"]
        even = obj["even_basis"]
        odd = obj["odd_basis"]
        records = obj.get("brackets", [])
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed algebra file: {exc}") from exc
    if not isinstance(even, list) or not isinstance(odd, list):
        raise InputError("even_basis and odd_basis must be lists of names")
    if not isinstance(name, str) or not all(isinstance(s, str) for s in even + odd):
        raise InputError("basis names must be strings")
    if not isinstance(records, list):
        raise InputError("brackets must be a list of records")
    lookup = {n: i for i, n in enumerate(even + odd)}
    if len(lookup) != len(even) + len(odd):
        raise InputError("duplicate basis names")
    brackets: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for rec in records:
        try:
            left, right = rec["left"], rec["right"]
            result = rec["result"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed bracket record: {exc}") from exc
        for n in (left, right):
            if not isinstance(n, str) or n not in lookup:
                raise InputError(f"unknown basis name {n!r}")
        key = (lookup[left], lookup[right])
        if key in brackets:
            raise InputError(f"duplicate bracket record for ({left}, {right})")
        if not isinstance(result, list):
            raise InputError(f"bracket result for ({left}, {right}) must be a list")
        vec = []
        for item in result:
            if not isinstance(item, dict):
                raise InputError(f"bracket result item {item!r} must be an object")
            basis = item.get("basis")
            if not isinstance(basis, str) or basis not in lookup:
                raise InputError(f"unknown basis name {basis!r}")
            vec.append((lookup[basis], parse_rational(item.get("coeff"))))
        brackets[key] = vec   # repeated targets are summed by LieSuperalgebra
    return LieSuperalgebra(name, even, odd, brackets)


def algebra_to_json(alg: LieSuperalgebra) -> dict:
    records = []
    for (i, j), vec in alg.nonzero_brackets():
        records.append({
            "left": alg.basis_name(i),
            "right": alg.basis_name(j),
            "result": [{"basis": alg.basis_name(k), "coeff": format_rational(c)}
                       for k, c in vec],
        })
    return {
        "name": alg.name,
        "even_basis": list(alg.even_names),
        "odd_basis": list(alg.odd_names),
        "brackets": records,
    }


# -- module files ------------------------------------------------------------

def module_from_json(obj, alg: LieSuperalgebra) -> GradedModule:
    try:
        algebra_name = obj["algebra"]
        dim = obj["dim"]
        parities = obj["parities"]
        action = obj.get("action", {})
        name = obj.get("name", "")
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed module file: {exc}") from exc
    if algebra_name != alg.name:
        raise InputError(f"module is for algebra {algebra_name!r}, "
                         f"loaded algebra is {alg.name!r}")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise InputError("dim must be a non-negative integer")
    if not isinstance(parities, list):
        raise InputError("parities must be a list")
    if len(parities) != dim:
        raise InputError("parities length does not match dim")
    bad = [p for p in parities if p not in ("even", "odd")]
    if bad:
        raise InputError(f"parity must be 'even' or 'odd', got {bad[0]!r}")
    pvec = [int(p == "odd") for p in parities]
    if not isinstance(action, dict):
        raise InputError("action must map basis names to matrices")
    if not isinstance(name, str):
        raise InputError("module name must be a string")
    # every cell of every action is parsed before any shape is checked, so a
    # bad cell is reported ahead of a shape error; only nonzeros are kept
    parsed = []
    for basis, rows in action.items():
        idx = alg.index_of(basis)
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise InputError(f"action of {basis!r} must be a list of rows")
        nonzeros = {}
        for r, row in enumerate(rows):
            entries = {}
            for c, text in enumerate(row):
                # "0" is most cells of a tensor module: valid, and not kept
                if text != "0" and (x := parse_rational(text)):
                    entries[c] = x
            if entries:
                nonzeros[r] = entries
        parsed.append((idx, rows, nonzeros))
    rho = {}
    for idx, rows, nonzeros in parsed:
        check_square(rows, dim)
        rho[idx] = nonzeros
    return GradedModule(alg, pvec, rho, name=name)


def module_to_json(module: GradedModule) -> dict:
    alg = module.alg
    action = {}
    for i in range(alg.dim):
        if module.rho(i):
            action[alg.basis_name(i)] = matrix_to_json(module.rho(i), module.dim)
    return {
        "algebra": alg.name,
        "dim": module.dim,
        "parities": ["odd" if p else "even" for p in module.parities],
        "action": action,
    }


# -- expressions and matrices ------------------------------------------------

def element_to_json(u: UEElement) -> list[dict]:
    """Expression form: list of {monomial: [generator names], coeff}."""
    if not u.terms:
        return []
    alg = u.alg
    out = []
    for word, c in u.sorted_terms():
        names = [alg.basis_name(g) for g in word]
        out.append({"monomial": names, "coeff": format_rational(c)})
    return out


def quotient_class_to_json(alg: LieSuperalgebra, cls: dict[int, Fraction]) -> list[dict]:
    out = []
    for mask in sorted(cls, key=lambda m: (m.bit_count(), m)):
        names = [alg.odd_names[t] for t in range(alg.n_odd) if mask >> t & 1]
        out.append({"monomial": names, "coeff": format_rational(cls[mask])})
    return out


def matrix_to_json(mat: linalg.Matrix, dim: int) -> list[list[str]]:
    """The dim x dim matrix ``mat`` as dense rows of rational strings."""
    out = []
    for r in range(dim):
        row = mat.get(r, {})
        out.append([format_rational(row[c]) if c in row else "0" for c in range(dim)])
    return out


# -- files -------------------------------------------------------------------

def dumps_canonical(obj) -> str:
    """``json.dumps(obj, indent=2) + "\\n"``, written directly, for a value
    built of dicts with str keys, lists, str, int, bool and None; any other
    type raises ``TypeError``.  The standard library indents in pure
    Python, one call per value."""
    return _dumps(obj, "\n") + "\n"


def _dumps(obj, nl: str) -> str:
    """``obj`` as indented JSON; ``nl`` is a newline and the indentation of
    the line ``obj`` starts on."""
    t = type(obj)
    if t is str:
        return _encode_str(obj)
    if t is list:
        if not obj:
            return "[]"
        inner = nl + "  "
        sep = "," + inner
        if type(obj[0]) is str:
            # a list of strings, such as a matrix row, is one join
            try:
                return "[" + inner + sep.join(map(_encode_str, obj)) + nl + "]"
            except TypeError:
                pass
        return "[" + inner + sep.join([_dumps(x, inner) for x in obj]) + nl + "]"
    if t is dict:
        if not obj:
            return "{}"
        inner = nl + "  "
        items = []
        for k, v in obj.items():
            if type(k) is not str:
                raise TypeError(f"JSON object key {k!r} is not a str")
            items.append(_encode_str(k) + ": " + _dumps(v, inner))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if obj is None:
        return "null"
    if t is bool:
        return "true" if obj else "false"
    if t is int:
        return int.__repr__(obj)
    raise TypeError(f"a {t.__name__} is not written as canonical JSON")


def _read_json(path: str):
    """The JSON value in the UTF-8 file at ``path``; any content that does
    not parse, or an object that repeats a key, raises ``InputError``."""
    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            key = next(k for k, _ in pairs if k in seen or seen.add(k))
            raise InputError(f"duplicate key {key!r} in {path}")
        return obj

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=unique_keys)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON in {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
        except RecursionError as exc:
            raise InputError(f"JSON in {path} is nested too deeply to parse") from exc
        except ValueError as exc:
            if "integer string conversion" not in str(exc):
                raise
            raise InputError(f"an integer in {path} has more than "
                             f"{sys.get_int_max_str_digits()} digits") from exc


def load_algebra(path: str) -> LieSuperalgebra:
    return algebra_from_json(_read_json(path))


def load_module(path: str, alg: LieSuperalgebra) -> GradedModule:
    return module_from_json(_read_json(path), alg)


def builtin_fixture(name: str) -> str:
    """Filesystem path of a fixture shipped with the package."""
    return str(resources.files("superhaar").joinpath("fixtures", name))
