"""Batch command-line interface.

Machine-readable JSON goes to stdout, human diagnostics to stderr.  Exit
codes are a total function of the outcome class:

    0  success
    1  I/O or parse error (also: odd dimension above SUPERHAAR_MAX_ODD, or a
       result rational with more digits than Python converts to a string)
    2  invalid algebra or module (mathematical violations, with witnesses)
    3  no invariant (trace condition fails)
    4  module not semisimple over the even part
    70 internal invariant violation (library bug; please report)
    71 out of memory (nothing on stdout; stderr names the command and m)
    130 interrupted by Ctrl-C (console script and ``python -m`` only)
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import fileio
from .algebra import InputError, even_part_structure, lambda_values, validate_superalgebra
from .frobenius import (InternalInvariantError, NoInvariantError,
                        _check_trace_condition, dual_pair, frobenius_matrix,
                        invariant_z)
from .modules import (brute_force_quotient_invariants, check_right_integral,
                      check_semisimple_over_even, integral_matrix,
                      invariant_projector, validate_module)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVALID = 2
EXIT_NO_INVARIANT = 3
EXIT_NOT_SEMISIMPLE = 4
EXIT_INTERNAL = 70
EXIT_MEMORY = 71
EXIT_INTERRUPTED = 130


class _CliExit(Exception):
    def __init__(self, code: int, payload=None, message: str = ""):
        self.code = code
        self.payload = payload
        self.message = message


def _emit(payload):
    sys.stdout.write(fileio.dumps_canonical(payload))


def _max_odd() -> int:
    """The bound, written as ASCII digits only: no sign, space, underscore
    or other script's digits, all of which ``int`` would take.  Leading
    zeros are dropped, and a value with more digits than ``sys.maxsize``
    is above any count of odd generators, so it is read as ``sys.maxsize``
    rather than converted (``int`` refuses more than 4300 digits)."""
    raw = os.environ.get("SUPERHAAR_MAX_ODD", "6")
    if not re.fullmatch("[0-9]+", raw):
        raise _CliExit(EXIT_INPUT, message=f"SUPERHAAR_MAX_ODD is not an integer: {raw!r}")
    digits = raw.lstrip("0")
    if len(digits) > len(str(sys.maxsize)):
        return sys.maxsize
    return int(digits or "0")


def _load_algebra(args):
    try:
        alg = fileio.load_algebra(args.algebra)
    except (OSError, InputError) as exc:
        raise _CliExit(EXIT_INPUT, message=f"cannot load algebra: {exc}")
    args.n_odd = alg.n_odd    # for the out-of-memory line of ``main``
    bound = _max_odd()
    if alg.n_odd > bound:
        raise _CliExit(EXIT_INPUT, message=(
            f"algebra has {alg.n_odd} odd generators, above the bound "
            f"SUPERHAAR_MAX_ODD={bound}"))
    return alg


def _validated_algebra(args):
    alg = _load_algebra(args)
    report = validate_superalgebra(alg)
    if not report.ok:
        raise _CliExit(EXIT_INVALID, payload={
            "algebra": alg.name,
            "valid": False,
            "violations": _violations_json(alg, report),
        }, message=f"algebra {alg.name} violates the superalgebra axioms")
    return alg


def _violations_json(alg, report):
    out = []
    for v in report.violations:
        if v.kind == "module-parity":  # witness is (basis, row, col)
            names = [alg.basis_name(v.witness[0])] + [str(w) for w in v.witness[1:]]
        else:
            names = [alg.basis_name(i) for i in v.witness]
        out.append({"kind": v.kind, "witness": names, "detail": v.detail})
    return out


def cmd_validate(args) -> int:
    alg = _load_algebra(args)
    report = validate_superalgebra(alg)
    _emit({
        "algebra": alg.name,
        "valid": report.ok,
        "violations": _violations_json(alg, report),
    })
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_invariant(args) -> int:
    alg = _validated_algebra(args)
    lam = lambda_values(alg)
    lam_json = {alg.basis_name(i): fileio.format_rational(v)
                for i, v in sorted(lam.items())}
    payload = {
        "algebra": alg.name,
        "trace_condition": all(not v for v in lam.values()),
        "lambda_values": lam_json,
    }

    # only the emitted matrix and the dual pair need the whole inverse;
    # otherwise invariant_z tests the trace condition before any pairing work
    # and computes z from the scalar counits of the pairing entries
    fm = frobenius_matrix(alg) if args.emit_matrix or args.emit_dual_pair else None
    if args.emit_matrix:
        payload["odd_subset_order"] = [
            [alg.odd_names[t] for t in range(alg.n_odd) if mask >> t & 1]
            for mask in fm.order]
        payload["frobenius_matrix"] = [fileio._Elements(row) for row in fm.entries]
        payload["frobenius_inverse"] = [fileio._Elements(row) for row in fm.inverse]
    if args.emit_dual_pair:
        payload["dual_pair"] = fileio._Elements(dual_pair(alg, fm))

    try:
        inv = invariant_z(alg, fm)
    except NoInvariantError as exc:
        payload["violator"] = alg.basis_name(exc.violator)
        payload["lambda"] = fileio.format_rational(exc.value)
        if args.oracle:
            payload["oracle_dimension"] = len(brute_force_quotient_invariants(alg))
        raise _CliExit(EXIT_NO_INVARIANT, payload=payload, message=str(exc))

    payload["parity"] = "odd" if alg.n_odd % 2 else "even"
    payload["z"] = fileio.element_to_json(inv.z)
    payload["certificate"] = {
        alg.basis_name(i): fileio.quotient_class_to_json(alg, residue)
        for i, residue in sorted(inv.certificate.items())}
    if args.oracle:
        oracle = brute_force_quotient_invariants(alg)
        payload["oracle_dimension"] = len(oracle)
        payload["oracle_basis"] = [fileio.quotient_class_to_json(alg, cls)
                                   for cls in oracle]
        # z's class is 1 at x^top, as A[0][0] = pi(x^top) = 1: it must equal
        # the oracle's one vector scaled to 1 there
        top, v = (1 << alg.n_odd) - 1, oracle[0] if len(oracle) == 1 else {}
        payload["oracle_agrees"] = bool(v.get(top)) and inv.quotient_class == {
            k: x / v[top] for k, x in v.items()}
    _emit(payload)
    return EXIT_OK


def cmd_integrate(args) -> int:
    alg = _validated_algebra(args)
    try:
        module = fileio.load_module(args.module, alg)
    except (OSError, InputError) as exc:
        raise _CliExit(EXIT_INPUT, message=f"cannot load module: {exc}")
    if not module.name:
        module.name = os.path.splitext(os.path.basename(args.module))[0]
    mreport = validate_module(module)
    if not mreport.ok:
        raise _CliExit(EXIT_INVALID, payload={
            "algebra": alg.name,
            "module": module.name,
            "valid": False,
            "violations": _violations_json(alg, mreport),
        }, message="module violates the representation axioms")

    # trace test, then semisimplicity, then z: exit 3 comes before exit 4,
    # and neither pays for the pairing pass
    try:
        _check_trace_condition(alg)
    except NoInvariantError as exc:
        raise _CliExit(EXIT_NO_INVARIANT, payload={
            "algebra": alg.name,
            "violator": alg.basis_name(exc.violator),
            "lambda": fileio.format_rational(exc.value),
        }, message=str(exc))

    even_report = even_part_structure(alg)
    ssreport = check_semisimple_over_even(module, even_report)
    ss_json = {
        "central_squarefree": ssreport.central_squarefree,
        "decomposition_direct": ssreport.decomposition_direct,
        "invariants_dim": ssreport.invariants_dim,
        "ok": ssreport.ok,
    }
    if not ssreport.ok:
        raise _CliExit(EXIT_NOT_SEMISIMPLE, payload={
            "algebra": alg.name,
            "module": module.name,
            "semisimple": ss_json,
        }, message="module is not semisimple over the even part")

    warnings = []
    if not even_report.certified_reductive:
        warnings.append("even part is not reductive: it is not the direct sum "
                        "of its center and a derived algebra with "
                        "nondegenerate Killing form")

    inv = invariant_z(alg)
    projector = invariant_projector(module, ssreport)
    integral = integral_matrix(module, inv, projector)
    payload = {
        "algebra": alg.name,
        "module": module.name,
        "semisimple": ss_json,
        "projector": fileio.matrix_to_json(projector, module.dim),
        "integral_matrix": fileio.matrix_to_json(integral.entries, module.dim),
        "left_invariant": True,  # verified inside integral_matrix
        "right_invariant": check_right_integral(module, integral),
        "parity": "odd" if integral.parity else "even",
        "warnings": warnings,
    }
    _emit(payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superhaar",
        description="Exact invariant integration on Lie supergroups given "
                    "by rational structure constants.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check the superalgebra axioms")
    p_val.add_argument("algebra", help="algebra JSON file")
    p_val.set_defaults(func=cmd_validate)

    p_inv = sub.add_parser("invariant",
                           help="compute the canonical invariant and its certificate")
    p_inv.add_argument("algebra", help="algebra JSON file")
    p_inv.add_argument("--emit-matrix", action="store_true",
                       help="include the pairing matrix and its inverse")
    p_inv.add_argument("--emit-dual-pair", action="store_true",
                       help="include the dual basis elements")
    p_inv.add_argument("--oracle", action="store_true",
                       help="run the brute-force invariant search and report agreement")
    p_inv.set_defaults(func=cmd_invariant)

    p_int = sub.add_parser("integrate",
                           help="evaluate the integral on matrix elements of a module")
    p_int.add_argument("algebra", help="algebra JSON file")
    p_int.add_argument("module", help="module JSON file")
    p_int.set_defaults(func=cmd_integrate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            return args.func(args)
        except _CliExit as exc:
            # the payload is written here, so the handlers below cover it
            if exc.message:
                print(f"superhaar: {exc.message}", file=sys.stderr)
            if exc.payload is not None:
                _emit(exc.payload)
            return exc.code
    except InternalInvariantError as exc:
        print(f"superhaar: internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError:
        # every payload is written whole at the end, so stdout is still empty
        m = getattr(args, "n_odd", "?")
        print(f"superhaar: out of memory in {args.command} (m = {m})", file=sys.stderr)
        return EXIT_MEMORY
    except ValueError as exc:
        # sums and products of admissible inputs can outgrow the digit limit
        # of int -> str; nothing has been written to stdout at that point
        if "integer string conversion" not in str(exc):
            raise
        print(f"superhaar: cannot write the result: a rational in it has more "
              f"than {sys.get_int_max_str_digits()} digits, Python's limit for "
              f"integer string conversion", file=sys.stderr)
        return EXIT_INPUT


def entry(argv=None) -> int:
    """``main`` as a process runs it: Ctrl-C exits 130, without a traceback."""
    try:
        return main(argv)
    except KeyboardInterrupt:
        print("superhaar: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    raise SystemExit(entry())
