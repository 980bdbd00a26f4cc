import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import superhaar.cli as cli
import superhaar.frobenius as frobenius
from superhaar import (InputError, UEElement, check_semisimple_over_even,
                       invariant_z)
from superhaar.cli import main
from superhaar.fileio import (algebra_from_json, algebra_to_json,
                              builtin_fixture, dumps_canonical,
                              element_to_json, format_rational, load_module,
                              module_from_json, module_to_json,
                              parse_rational)

from conftest import ALGEBRA_FILES, MODULE_FILES, fixture_algebra

F = Fraction

ALL_FIXTURE_FILES = sorted(set(ALGEBRA_FILES.values())
                           | {f for fs in MODULE_FILES.values() for f in fs})


# -- rationals ----------------------------------------------------------------

def test_parse_rational_values():
    assert parse_rational("3") == 3
    assert parse_rational("-3/6") == F(-1, 2)
    assert parse_rational("0/5") == 0
    assert parse_rational("+2/4") == F(1, 2)


@pytest.mark.parametrize("bad", ["1.5", "1/0", "x", "", "1e3", "1 / 2", None,
                                 "1\n", "\u0663", "1/\u0662"])
def test_parse_rational_rejects(bad):
    with pytest.raises(InputError):
        parse_rational(bad)


@given(st.integers(min_value=-10**9, max_value=10**9),
       st.integers(min_value=1, max_value=10**6))
def test_rational_round_trip(num, den):
    q = F(num, den)
    assert parse_rational(format_rational(q)) == q
    # an int is written as the Fraction it equals
    assert format_rational(num) == format_rational(F(num)) == str(num)


# -- canonical file round trips --------------------------------------------------

@pytest.mark.parametrize("filename", sorted(ALGEBRA_FILES.values()))
def test_algebra_files_round_trip_byte_identical(filename):
    path = builtin_fixture(filename)
    text = Path(path).read_text(encoding="utf-8")
    alg = algebra_from_json(json.loads(text))
    assert dumps_canonical(algebra_to_json(alg)) == text


@pytest.mark.parametrize("key,filename",
                         [(k, f) for k, fs in MODULE_FILES.items() for f in fs])
def test_module_files_round_trip_byte_identical(key, filename):
    path = builtin_fixture(filename)
    text = Path(path).read_text(encoding="utf-8")
    module = module_from_json(json.loads(text), fixture_algebra(key))
    assert dumps_canonical(module_to_json(module)) == text


# any code point, lone surrogates included, with quotes, backslashes and
# control characters drawn often
JSON_TEXT = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\ud800\udfff')
                    | st.characters(exclude_categories=()))
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(JSON_TREES)
@example({"": [], "\"\\\ud800\u00e9": {}, "a": [[], {}, [""], {"": None}],
          "b": [True, False, 0, -10**30, "\x00\udfff"]})
def test_dumps_canonical_matches_the_standard_encoder(obj):
    assert dumps_canonical(obj) == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("obj", [{1: "a"}, {"a": {None: 1}}, [1.5], {"a": [0.0]},
                                 ["a", 2.0], ("a",), {"a"}])
def test_dumps_canonical_refuses_other_types(obj):
    with pytest.raises(TypeError):
        dumps_canonical(obj)


# -- parse errors ------------------------------------------------------------------

def test_algebra_parse_errors(g2):
    good = algebra_to_json(fixture_algebra("bad2"))
    bad = json.loads(json.dumps(good))
    bad["brackets"][0]["left"] = "nope"
    with pytest.raises(InputError):
        algebra_from_json(bad)

    dup = json.loads(json.dumps(good))
    dup["brackets"].append(dup["brackets"][0])
    with pytest.raises(InputError):
        algebra_from_json(dup)

    with pytest.raises(InputError):
        algebra_from_json({"name": "x", "even_basis": ["a", "a"],
                           "odd_basis": [], "brackets": []})


def test_module_parse_errors(g2):
    good = module_to_json(
        load_module(builtin_fixture("exterior_module.json"), g2))
    wrong_alg = json.loads(json.dumps(good))
    wrong_alg["algebra"] = "other"
    with pytest.raises(InputError):
        module_from_json(wrong_alg, g2)

    short = json.loads(json.dumps(good))
    short["parities"] = short["parities"][:-1]
    with pytest.raises(InputError):
        module_from_json(short, g2)

    odd = json.loads(json.dumps(good))
    odd["parities"] = ["even", "weird", "odd", "even"]
    with pytest.raises(InputError):
        module_from_json(odd, g2)


def test_element_serialization(g2, gl11):
    z = invariant_z(g2).z
    assert element_to_json(z) == [{"monomial": ["x1", "x2"], "coeff": "1"}]
    combo = UEElement.scalar(g2, F(-1, 2)) + z * 3
    assert element_to_json(combo) == [
        {"monomial": [], "coeff": "-1/2"},
        {"monomial": ["x1", "x2"], "coeff": "3"},
    ]
    # terms are listed by degree, then even exponent vector: h2 has (0, 1),
    # which sorts before h1's (1, 0); an order by raw word would list h1 first
    h1, h2 = (UEElement.generator(gl11, gl11.index_of(n)) for n in ("h1", "h2"))
    assert element_to_json(h1 + h2) == [
        {"monomial": ["h2"], "coeff": "1"},
        {"monomial": ["h1"], "coeff": "1"},
    ]


# -- CLI ---------------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    payload = json.loads(out.out) if out.out.strip() else None
    return code, payload, out.err


def test_cli_validate_ok(capsys):
    code, payload, _ = run_cli(capsys, "validate", builtin_fixture("g2_grassmann.json"))
    assert code == 0
    assert payload == {"algebra": "g2_grassmann", "valid": True, "violations": []}


def test_cli_validate_bad2_is_valid(capsys):
    # the trace condition is a separate check; bad2 is a legitimate algebra
    code, payload, _ = run_cli(capsys, "validate", builtin_fixture("bad2.json"))
    assert code == 0 and payload["valid"]


def test_cli_validate_mathematical_violation(tmp_path, capsys):
    obj = json.loads(Path(builtin_fixture("bad2.json")).read_text())
    # flip the sign of [th, X] so antisymmetry fails
    for rec in obj["brackets"]:
        if rec["left"] == "th" and rec["right"] == "X":
            rec["result"][0]["coeff"] = "1"
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(obj))
    code, payload, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert payload["valid"] is False
    assert any(v["kind"] == "antisymmetry" for v in payload["violations"])


def test_cli_validate_rejects_a_coefficient_with_a_trailing_newline(tmp_path, capsys):
    obj = json.loads(Path(builtin_fixture("bad2.json")).read_text())
    obj["brackets"][0]["result"][0]["coeff"] += "\n"
    path = tmp_path / "newline.json"
    path.write_text(json.dumps(obj))
    code, payload, err = run_cli(capsys, "validate", str(path))
    assert code == 1 and payload is None and "not an exact rational" in err


def test_cli_parse_error_exit_1(tmp_path, capsys):
    path = tmp_path / "truncated.json"
    path.write_text('{"name": "x", "even_basis": [')
    code, payload, err = run_cli(capsys, "validate", str(path))
    assert code == 1 and payload is None and "cannot load" in err

    code, payload, err = run_cli(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 1


def test_cli_invariant_g2(capsys):
    code, payload, _ = run_cli(capsys, "invariant",
                               builtin_fixture("g2_grassmann.json"), "--oracle")
    assert code == 0
    assert payload["trace_condition"] is True
    assert payload["z"] == [{"monomial": ["x1", "x2"], "coeff": "1"}]
    assert payload["parity"] == "even"
    assert all(res == [] for res in payload["certificate"].values())
    assert payload["oracle_dimension"] == 1
    assert payload["oracle_agrees"] is True


def test_cli_invariant_sl2(capsys):
    code, payload, _ = run_cli(capsys, "invariant", builtin_fixture("sl2.json"))
    assert code == 0
    assert payload["z"] == [{"monomial": [], "coeff": "1"}]


def test_cli_invariant_oracle_basis(capsys):
    code, payload, _ = run_cli(capsys, "invariant", builtin_fixture("osp12.json"),
                               "--oracle")
    assert code == 0
    assert payload["oracle_basis"] == [[
        {"monomial": [], "coeff": "1"},
        {"monomial": ["u", "v"], "coeff": "1"},
    ]]


def test_cli_integrate_invalid_module_exit_2(tmp_path, capsys):
    obj = json.loads(Path(builtin_fixture("defining_module.json")).read_text())
    obj["action"]["e"] = [["0", "0"], ["0", "0"]]  # breaks [e, f] = h1 + h2
    path = tmp_path / "broken_module.json"
    path.write_text(json.dumps(obj))
    code, payload, err = run_cli(capsys, "integrate", builtin_fixture("gl11.json"),
                                 str(path))
    assert code == 2
    assert payload["valid"] is False
    assert any(v["kind"] == "module-bracket" for v in payload["violations"])


def test_cli_invariant_bad2_exit_3(capsys):
    code, payload, err = run_cli(capsys, "invariant", builtin_fixture("bad2.json"),
                                 "--oracle")
    assert code == 3
    assert payload["trace_condition"] is False
    assert payload["violator"] == "X"
    assert payload["lambda"] == "1"
    assert payload["lambda_values"] == {"X": "1"}
    assert payload["oracle_dimension"] == 0


def test_cli_invariant_emit_flags(capsys):
    code, payload, _ = run_cli(capsys, "invariant",
                               builtin_fixture("g2_grassmann.json"),
                               "--emit-matrix", "--emit-dual-pair")
    assert code == 0
    assert payload["odd_subset_order"] == [[], ["x1"], ["x2"], ["x1", "x2"]]
    a = payload["frobenius_matrix"]
    assert a[2][2] == [{"monomial": [], "coeff": "-1"}]
    assert a[0][1] == []
    assert payload["frobenius_inverse"][2][2] == [{"monomial": [], "coeff": "-1"}]
    assert payload["dual_pair"][0] == [{"monomial": ["x1", "x2"], "coeff": "1"}]


def test_cli_integrate_g2_exterior(capsys):
    code, payload, _ = run_cli(capsys, "integrate",
                               builtin_fixture("g2_grassmann.json"),
                               builtin_fixture("exterior_module.json"))
    assert code == 0
    assert payload["left_invariant"] and payload["right_invariant"]
    assert payload["parity"] == "even"
    assert payload["integral_matrix"][3][0] == "1"
    assert payload["projector"] == [["1" if i == j else "0" for j in range(4)]
                                    for i in range(4)]
    assert payload["semisimple"]["ok"] is True
    assert payload["warnings"] == []


def test_cli_integrate_gl11_defining_zero_matrix(capsys):
    code, payload, _ = run_cli(capsys, "integrate", builtin_fixture("gl11.json"),
                               builtin_fixture("defining_module.json"))
    assert code == 0
    assert all(c == "0" for row in payload["integral_matrix"] for c in row)
    assert payload["left_invariant"] and payload["right_invariant"]


def test_cli_integrate_jordan_exit_4(capsys):
    code, payload, err = run_cli(capsys, "integrate", builtin_fixture("gl11.json"),
                                 builtin_fixture("jordan_module.json"))
    assert code == 4
    assert payload["semisimple"]["ok"] is False
    assert "not semisimple" in err


def test_cli_integrate_exit_4_makes_no_pairing_pass(monkeypatch, capsys):
    # semisimplicity is checked before z is computed
    def refuse(*args):
        raise AssertionError("the pairing pass ran")

    monkeypatch.setattr(frobenius, "_pairing", refuse)
    code, payload, err = run_cli(capsys, "integrate", builtin_fixture("gl11.json"),
                                 builtin_fixture("jordan_module.json"))
    assert code == 4
    assert payload["semisimple"]["ok"] is False
    assert "not semisimple" in err


def test_cli_integrate_exit_3_comes_before_exit_4(tmp_path, capsys):
    # X acts on this bad2 module by a nonzero nilpotent, so the module is not
    # semisimple over the even part, and the trace condition fails as well
    alg = fixture_algebra("bad2")
    doc = {"algebra": "bad2", "dim": 2, "parities": ["even", "even"],
           "action": {"X": [["0", "1"], ["0", "0"]]}}
    assert not check_semisimple_over_even(module_from_json(doc, alg)).ok
    path = tmp_path / "bad2_jordan.json"
    path.write_text(dumps_canonical(doc))
    code, payload, _ = run_cli(capsys, "integrate", builtin_fixture("bad2.json"), str(path))
    assert code == 3
    assert payload == {"algebra": "bad2", "violator": "X", "lambda": "1"}


def test_cli_integrate_bad2_exit_3(capsys):
    code, payload, err = run_cli(capsys, "integrate", builtin_fixture("bad2.json"),
                                 builtin_fixture("trivial_module.json"))
    assert code == 3
    assert payload["violator"] == "X"


def test_cli_integrate_osp12_tensor(capsys):
    code, payload, _ = run_cli(capsys, "integrate", builtin_fixture("osp12.json"),
                               builtin_fixture("osp12_tensor_module.json"))
    assert code == 0
    assert payload["right_invariant"] is True
    assert payload["integral_matrix"][0][0] == "-1"


def test_cli_max_odd_bound(monkeypatch, capsys):
    monkeypatch.setenv("SUPERHAAR_MAX_ODD", "1")
    code, payload, err = run_cli(capsys, "validate",
                                 builtin_fixture("g2_grassmann.json"))
    assert code == 1
    assert "SUPERHAAR_MAX_ODD" in err
    # only ASCII digits: int() would take every one of these
    for raw in ["not-a-number", "٣", "1_0", " 7 ", "+6", "-1"]:
        monkeypatch.setenv("SUPERHAAR_MAX_ODD", raw)
        code, payload, err = run_cli(capsys, "validate",
                                     builtin_fixture("gl11.json"))
        assert (code, payload) == (1, None), raw
        assert f"SUPERHAAR_MAX_ODD is not an integer: {raw!r}" in err
    monkeypatch.setenv("SUPERHAAR_MAX_ODD", "02")
    code, _, _ = run_cli(capsys, "validate", builtin_fixture("gl11.json"))
    assert code == 0
    # past int()'s 4300-digit limit: leading zeros are zeros, and a longer
    # value is above every m
    for raw in ["0" * 5000 + "6", "9" * 5000]:
        monkeypatch.setenv("SUPERHAAR_MAX_ODD", raw)
        code, _, _ = run_cli(capsys, "validate", builtin_fixture("gl11.json"))
        assert code == 0
    monkeypatch.setenv("SUPERHAAR_MAX_ODD", "0" * 5000 + "1")
    code, payload, err = run_cli(capsys, "validate", builtin_fixture("gl11.json"))
    assert (code, payload) == (1, None)
    assert "above the bound SUPERHAAR_MAX_ODD=1" in err


def test_cli_reductivity_warnings(tmp_path, capsys):
    # solvable nonabelian even part: not reductive, integration still
    # proceeds and the output carries a warning
    alg_path = tmp_path / "aff1.json"
    alg_path.write_text(json.dumps({
        "name": "aff1", "even_basis": ["A", "B"], "odd_basis": [],
        "brackets": [
            {"left": "A", "right": "B", "result": [{"basis": "B", "coeff": "1"}]},
            {"left": "B", "right": "A", "result": [{"basis": "B", "coeff": "-1"}]},
        ]}))
    mod_path = tmp_path / "trivial.json"
    mod_path.write_text(json.dumps({
        "algebra": "aff1", "dim": 1, "parities": ["even"], "action": {}}))

    code, payload, _ = run_cli(capsys, "integrate", str(alg_path), str(mod_path))
    assert code == 0
    assert payload["warnings"] == [
        "even part is not reductive: it is not the direct sum of its center "
        "and a derived algebra with nondegenerate Killing form"]
    assert payload["integral_matrix"] == [["1"]]


def test_cli_module_algebra_mismatch_exit_1(capsys):
    code, payload, err = run_cli(capsys, "integrate",
                                 builtin_fixture("g2_grassmann.json"),
                                 builtin_fixture("defining_module.json"))
    assert code == 1
    assert "cannot load module" in err


# -- input boundary: malformed values exit 1 with a diagnostic -------------------

def _bad2_with(**changes):
    obj = json.loads(Path(builtin_fixture("bad2.json")).read_text())
    obj.update(changes)
    return obj


def _bad2_bracket_result(result):
    obj = _bad2_with()
    obj["brackets"][0]["result"] = result
    return obj


def _bad2_module(**changes):
    obj = {"algebra": "bad2", "dim": 1, "parities": ["even"], "action": {}}
    obj.update(changes)
    return obj


@pytest.mark.parametrize("algebra,module", [
    (_bad2_bracket_result([{"basis": "th", "coeff": "1" * 5000}]), None),
    (_bad2_bracket_result(["th"]), None),
    (_bad2_with(even_basis="X", brackets=[]), None),
    (None, _bad2_module(action={"X": 5})),
    (None, _bad2_module(action=5)),
    (None, _bad2_module(action={"X": ["0"]})),
    (None, _bad2_module(dim=True)),
], ids=["long-coefficient", "string-result-item", "string-basis",
        "integer-action", "integer-action-map", "string-row", "boolean-dim"])
def test_cli_malformed_input_exit_1(tmp_path, capsys, algebra, module):
    alg_path = tmp_path / "alg.json"
    alg_path.write_text(json.dumps(algebra or _bad2_with()))
    argv = ["validate", str(alg_path)]
    if module is not None:
        mod_path = tmp_path / "mod.json"
        mod_path.write_text(json.dumps(module))
        argv = ["integrate", str(alg_path), str(mod_path)]
    code, payload, err = run_cli(capsys, *argv)
    assert code == 1 and payload is None
    assert err.startswith("superhaar: cannot load")


@pytest.mark.parametrize("content,reason", [
    (b"\xff\xfe{}", "{path} is not UTF-8 text: 'utf-8' codec can't decode "
                     "byte 0xff in position 0: invalid start byte"),
    (b"[" * 200_000, "JSON in {path} is nested too deeply to parse"),
    (b'{"name": "bad2", "dim": 1' + b"0" * 4300 + b"}",
     "an integer in {path} has more than 4300 digits"),
], ids=["not-utf8", "deep-nesting", "long-integer-literal"])
@pytest.mark.parametrize("which", ["algebra", "module"])
def test_cli_unparsable_file_exit_1(tmp_path, capsys, content, reason, which):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    alg_path = tmp_path / "alg.json"
    alg_path.write_text(json.dumps(_bad2_with()))
    mod_path = tmp_path / "mod.json"
    mod_path.write_text(json.dumps(_bad2_module()))
    if which == "algebra":
        alg_path = path
    else:
        mod_path = path
    code = main(["integrate", str(alg_path), str(mod_path)])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err == f"superhaar: cannot load {which}: {reason.format(path=path)}\n"


@pytest.mark.parametrize("which,text,key", [
    ("algebra", '{"name": "bad2", ' + json.dumps(_bad2_with())[1:], "name"),
    ("algebra", json.dumps(_bad2_with()).replace('"coeff": "1"', '"coeff": "1", "coeff": "2"'),
     "coeff"),
    ("module", json.dumps(_bad2_module()).replace(
        '"action": {}', '"action": {"X": [["1"]], "X": [["0"]]}'), "X"),
], ids=["algebra-name", "bracket-coeff", "module-action"])
def test_cli_duplicate_json_key_exit_1(tmp_path, capsys, which, text, key):
    # json.load would keep the last value of a repeated key without a word
    paths = {"algebra": tmp_path / "alg.json", "module": tmp_path / "mod.json"}
    paths["algebra"].write_text(json.dumps(_bad2_with()))
    paths["module"].write_text(json.dumps(_bad2_module()))
    paths[which].write_text(text)
    code = main(["integrate", str(paths["algebra"]), str(paths["module"])])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err == f"superhaar: cannot load {which}: duplicate key {key!r} in {paths[which]}\n"


# -- results past the digit limit of int -> str exit 1 -----------------------------

def _big_algebra(name, odd, brackets):
    return {"name": name, "even_basis": ["X"], "odd_basis": odd, "brackets": [
        {"left": left, "right": right, "result": [{"basis": b, "coeff": c}]}
        for left, right, b, c in brackets]}


# each coefficient is admissible, but the Jacobi residual holds N^2 and the
# weight of X on the odd part is 2N, both over 4300 digits
N3000, N4300 = "9" * 3000, "9" * 4300
JACOBI_PAST_LIMIT = _big_algebra("big-jacobi", ["t"], [
    ("t", "t", "X", N3000), ("X", "t", "t", N3000), ("t", "X", "t", "-" + N3000)])
LAMBDA_PAST_LIMIT = _big_algebra("big-lambda", ["s", "t"], [
    ("X", "s", "s", N4300), ("s", "X", "s", "-" + N4300),
    ("X", "t", "t", N4300), ("t", "X", "t", "-" + N4300)])


@pytest.mark.parametrize("command,algebra", [
    ("validate", JACOBI_PAST_LIMIT),
    ("invariant", JACOBI_PAST_LIMIT),
    ("invariant", LAMBDA_PAST_LIMIT),
], ids=["validate-jacobi", "invariant-jacobi", "invariant-lambda"])
def test_cli_rational_past_digit_limit_exit_1(tmp_path, capsys, command, algebra):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(algebra))
    code = main([command, str(path)])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err == ("superhaar: cannot write the result: a rational in it has "
                       "more than 4300 digits, Python's limit for integer string "
                       "conversion\n")


@pytest.mark.parametrize("argv", [
    ["invariant", "osp12.json"],
    ["integrate", "osp12.json", "osp12_defining_module.json"],
], ids=["invariant", "integrate"])
def test_cli_out_of_memory_exit_71(monkeypatch, capsys, argv):
    # nothing on stdout, and one stderr line naming the command and m
    def exhaust(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "invariant_z", exhaust)
    code = main([argv[0], *map(builtin_fixture, argv[1:])])
    out = capsys.readouterr()
    assert code == 71
    assert out.out == ""
    assert out.err == f"superhaar: out of memory in {argv[0]} (m = 2)\n"


def test_cli_out_of_memory_exit_71_in_a_child_with_an_address_space_limit(tmp_path):
    # the 2^22 odd subsets of a purely odd abelian algebra outgrow a 300 MB
    # address space; the limit is set in the child only.
    # RLIMIT_AS is POSIX and not enforced everywhere: skipped without it
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("the resource module has no RLIMIT_AS on this platform")
    limit = 300 * 2 ** 20
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY and hard < limit:
        pytest.skip("the address-space hard limit is below 300 MB already")
    path = tmp_path / "odd22.json"
    path.write_text(json.dumps({"name": "odd22", "even_basis": [],
                                "odd_basis": [f"t{i}" for i in range(22)], "brackets": []}))
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "SUPERHAAR_MAX_ODD": "22", "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "superhaar.cli", "invariant", str(path)],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, hard)))
    assert proc.returncode == 71, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "superhaar: out of memory in invariant (m = 22)\n"


# -- exit 2 payload of validate with fractional constants, pinned ------------------

def _jacobi_violation(witness, residual):
    a, b, c = witness
    return {"kind": "jacobi", "witness": [a, b, c],
            "detail": f"Jacobi fails on ({a}, {b}, {c}): residual {residual}"}


@pytest.mark.parametrize("term,violations", [
    # [u, u] = -2/3 E instead of -2 E: super antisymmetry still holds
    (("E", "-2/3"), [_jacobi_violation(w, r) for w, r in [
        ("Euv", "{1: Fraction(-4, 3)}"), ("Evu", "{1: Fraction(-4, 3)}"),
        ("Fuu", "{0: Fraction(-4, 3)}"), ("uEv", "{1: Fraction(4, 3)}"),
        ("uFu", "{0: Fraction(4, 3)}"), ("uuF", "{0: Fraction(-4, 3)}"),
        ("uuv", "{3: Fraction(-4, 3)}"), ("uvE", "{1: Fraction(-4, 3)}"),
        ("uvu", "{3: Fraction(-4, 3)}"), ("vEu", "{1: Fraction(4, 3)}"),
        ("vuE", "{1: Fraction(-4, 3)}"), ("vuu", "{3: Fraction(-4, 3)}")]]),
    # [u, u] gains an odd term u/3: a parity violation, and a residual with
    # two terms and denominator 9
    (("u", "1/3"), [
        {"kind": "parity", "witness": ["u", "u", "u"],
         "detail": "[u, u] has a component of wrong parity on u (coefficient 1/3)"},
    ] + [_jacobi_violation(w, r) for w, r in [
        ("Huu", "{3: Fraction(-1, 3)}"), ("Euv", "{3: Fraction(-1, 3)}"),
        ("Evu", "{3: Fraction(-1, 3)}"), ("Fuu", "{4: Fraction(1, 3)}"),
        ("uHu", "{3: Fraction(1, 3)}"), ("uEv", "{3: Fraction(1, 3)}"),
        ("uFu", "{4: Fraction(-1, 3)}"), ("uuH", "{3: Fraction(-1, 3)}"),
        ("uuF", "{4: Fraction(1, 3)}"),
        ("uuu", "{1: Fraction(-2, 3), 3: Fraction(1, 9)}"),
        ("uuv", "{0: Fraction(-1, 3)}"), ("uvE", "{3: Fraction(-1, 3)}"),
        ("uvu", "{0: Fraction(1, 3)}"), ("vEu", "{3: Fraction(1, 3)}"),
        ("vuE", "{3: Fraction(-1, 3)}"), ("vuu", "{0: Fraction(1, 3)}")]]),
], ids=["jacobi-only", "parity-and-jacobi"])
def test_cli_validate_exit_2_payload(tmp_path, capsys, term, violations):
    obj = json.loads(Path(builtin_fixture("osp12.json")).read_text())
    basis, coeff = term
    (record,) = [r for r in obj["brackets"] if r["left"] == r["right"] == "u"]
    result = {item["basis"]: item for item in record["result"]}
    result.setdefault(basis, {"basis": basis})["coeff"] = coeff
    record["result"] = list(result.values())
    path = tmp_path / "osp12.json"
    path.write_text(json.dumps(obj))
    code = main(["validate", str(path)])
    out = capsys.readouterr()
    assert code == 2
    assert out.err == ""
    assert out.out == json.dumps({
        "algebra": "osp12",
        "valid": False,
        "violations": violations,
    }, indent=2) + "\n"


# -- exit 2 payloads of integrate, pinned ------------------------------------------

def _bracket_violation(a, b):
    return {"kind": "module-bracket", "witness": [a, b],
            "detail": f"rho([{a}, {b}]) does not match the supercommutator "
                      f"of the actions"}


@pytest.mark.parametrize("algebra,module,cells,violations", [
    # the even h1 given entries between the even and the odd basis vector:
    # two parity violations, in row order, then every bracket pair it breaks
    ("gl11.json", "defining_module.json", {"h1": [(1, 0, "-1/2"), (0, 1, "1")]}, [
        {"kind": "module-parity", "witness": ["h1", "0", "1"],
         "detail": "rho(h1)[0][1] = 1 violates the parity pattern"},
        {"kind": "module-parity", "witness": ["h1", "1", "0"],
         "detail": "rho(h1)[1][0] = -1/2 violates the parity pattern"},
        _bracket_violation("h1", "h2"), _bracket_violation("h1", "e"),
        _bracket_violation("h1", "f"), _bracket_violation("h2", "h1"),
        _bracket_violation("e", "h1"), _bracket_violation("e", "f"),
        _bracket_violation("f", "h1"), _bracket_violation("f", "e"),
    ]),
    # H scaled on one line: parity intact, every pair with H or [E, F] = H
    ("sl2.json", "sl2_defining_module.json", {"H": [(0, 0, "2")]}, [
        _bracket_violation("H", "E"), _bracket_violation("H", "F"),
        _bracket_violation("E", "H"), _bracket_violation("E", "F"),
        _bracket_violation("F", "H"), _bracket_violation("F", "E"),
    ]),
], ids=["parity", "bracket"])
def test_cli_integrate_exit_2_payload(tmp_path, capsys, algebra, module, cells,
                                      violations):
    obj = json.loads(Path(builtin_fixture(module)).read_text())
    for name, changes in cells.items():
        for r, c, value in changes:
            obj["action"][name][r][c] = value
    path = tmp_path / "broken_module.json"
    path.write_text(json.dumps(obj))
    code = main(["integrate", builtin_fixture(algebra), str(path)])
    out = capsys.readouterr()
    assert code == 2
    assert out.err == "superhaar: module violates the representation axioms\n"
    assert out.out == json.dumps({
        "algebra": algebra[:-len(".json")],
        "module": "broken_module",
        "valid": False,
        "violations": violations,
    }, indent=2) + "\n"


# -- input boundary: fuzzed module files ---------------------------------------------

DOCUMENTED_EXIT_CODES = {0, 1, 2, 3, 4}

JSON_SCALARS = (st.none() | st.booleans() | st.integers(-3, 3)
                | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4))
ANY_JSON = st.recursive(JSON_SCALARS,
                        lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                        max_leaves=8)
GOOD_CELLS = st.sampled_from(["0", "0", "0", "-0", "0/1", "+0/3", "1", "-1", "1/2"])
BAD_CELLS = st.sampled_from([0, 0.0, -0.0, False, None, "0/0", "00.0", ""]) | JSON_SCALARS
GL11_NAMES = st.sampled_from(["h1", "h2", "e", "f", "g"])


def mostly(good, bad):
    """Mostly ``good``, sometimes ``bad``."""
    return st.integers(0, 9).flatmap(lambda k: bad if k == 5 else good)


@st.composite
def module_files(draw):
    """Module objects for gl11 with wrong types in dim, parities and action,
    and zero-like or non-string cells."""
    dim = draw(st.integers(0, 3))
    row = mostly(st.lists(mostly(GOOD_CELLS, BAD_CELLS), min_size=dim, max_size=dim),
                 ANY_JSON)
    matrix = mostly(st.lists(row, min_size=dim, max_size=dim), ANY_JSON)
    obj = {
        "algebra": draw(mostly(st.just("gl11"), ANY_JSON)),
        "dim": draw(mostly(st.just(dim), ANY_JSON)),
        "parities": draw(mostly(st.lists(st.sampled_from(["even", "odd"]),
                                         min_size=dim, max_size=dim), ANY_JSON)),
        "action": draw(mostly(st.dictionaries(GL11_NAMES, matrix, max_size=4), ANY_JSON)),
    }
    if draw(st.integers(0, 9)) == 5:
        del obj[draw(st.sampled_from(sorted(obj)))]
    return draw(mostly(st.just(obj), ANY_JSON))


@settings(max_examples=300, deadline=None)
@given(module_files())
def test_fuzzed_module_file_gives_a_documented_exit_code(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(obj))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["integrate", builtin_fixture("gl11.json"), str(path)])
    event(f"exit {code}")
    assert code in DOCUMENTED_EXIT_CODES, (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("superhaar: cannot load module")
        assert out.getvalue() == ""
    else:
        json.loads(out.getvalue())


# -- input boundary: fuzzed algebra files ---------------------------------------------

GOOD_COEFFS = st.sampled_from(["1", "-1", "2", "1/2", "-2/3", "3/7", "0"])
BAD_COEFFS = (st.sampled_from(["1/0", "1.5", "", "x", "9" * 4301, "1/" + "9" * 4301,
                               "9" * 4300, "-" + "9" * 4300, "1/" + "9" * 4300])
              | JSON_SCALARS)
# valid tables of dimension at most 4: non-unimodular, unimodular, abelian
BASE_ALGEBRA_FILES = ["bad2.json", "gl11.json", "g2_grassmann.json"]


@st.composite
def algebra_files(draw):
    """A small fixture with up to three records added, dropped or given a
    new coefficient (fractional, malformed or very long), and with wrong
    types or unknown names anywhere."""
    obj = json.loads(Path(builtin_fixture(draw(st.sampled_from(BASE_ALGEBRA_FILES))))
                     .read_text())
    names = st.sampled_from(obj["even_basis"] + obj["odd_basis"])
    name = mostly(names, st.just("w") | ANY_JSON)   # w is never a basis name
    item = st.fixed_dictionaries({"basis": name,
                                  "coeff": mostly(GOOD_COEFFS, BAD_COEFFS)})
    record = st.fixed_dictionaries({
        "left": name, "right": name,
        "result": mostly(st.lists(mostly(item, ANY_JSON), max_size=2), ANY_JSON)})
    records = obj["brackets"]
    items = [item for rec in records for item in rec["result"]]
    for _ in range(draw(st.integers(0, 3))):
        change = draw(st.sampled_from(["add", "drop", "coeff"]))
        if change == "drop" and records:
            records.pop(draw(st.integers(0, len(records) - 1)))
        elif change == "coeff" and items:
            draw(st.sampled_from(items))["coeff"] = draw(mostly(GOOD_COEFFS, BAD_COEFFS))
        else:
            records.append(draw(mostly(record, ANY_JSON)))
    for key in ("name", "even_basis", "odd_basis", "brackets"):
        obj[key] = draw(mostly(st.just(obj[key]), ANY_JSON))
    if draw(st.integers(0, 9)) == 5:
        del obj[draw(st.sampled_from(sorted(obj)))]
    return draw(mostly(st.just(obj), ANY_JSON))


@settings(max_examples=150, deadline=None)
@given(algebra_files(), st.sampled_from(["validate", "invariant", "integrate"]))
def test_fuzzed_algebra_file_gives_a_documented_exit_code(obj, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(obj))
        argv = [command, str(path)]
        if command == "integrate":
            # the trivial module over the algebra the file names
            name = obj.get("name") if isinstance(obj, dict) else None
            module = Path(tmp) / "trivial.json"
            module.write_text(json.dumps({"algebra": name, "dim": 1,
                                          "parities": ["even"], "action": {}}))
            argv.append(str(module))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    event(f"{command} exit {code}")
    assert code in DOCUMENTED_EXIT_CODES, (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("superhaar: ")
        assert out.getvalue() == ""
    else:
        json.loads(out.getvalue())
