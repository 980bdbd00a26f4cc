"""superhaar: exact invariant integration on Lie supergroups.

Given a finite-dimensional Lie superalgebra by rational structure
constants, this package computes the canonical invariant of the quotient
by the left ideal generated by the even part, and evaluates the induced
left integral on matrix elements of finite-dimensional graded
representations -- all in exact rational arithmetic, with an independent
brute-force oracle for cross-checking.
"""

from .algebra import (EVEN, ODD, EvenPartReport, InputError, LieSuperalgebra,
                      ValidationReport, Violation, even_part_structure,
                      lambda_values, validate_superalgebra)
from .enveloping import (UEElement, act_on_quotient, counit, multiply,
                         quotient_project)
from .frobenius import (FrobeniusMatrix, InternalInvariantError, InvariantZ,
                        NoInvariantError, dual_pair, frobenius_matrix,
                        invariant_z, odd_subset_order)
from .modules import (GradedModule, IntegralMatrix, NotSemisimpleError,
                      SemisimplicityReport, brute_force_quotient_invariants,
                      check_right_integral, check_semisimple_over_even,
                      integral_matrix, invariant_projector, module_action,
                      quotient_module, validate_module)

__version__ = "0.1.0"

__all__ = [
    "EVEN", "ODD", "EvenPartReport", "InputError", "LieSuperalgebra",
    "ValidationReport", "Violation", "even_part_structure", "lambda_values",
    "validate_superalgebra",
    "UEElement", "act_on_quotient", "counit", "multiply", "quotient_project",
    "FrobeniusMatrix", "InternalInvariantError", "InvariantZ",
    "NoInvariantError", "dual_pair", "frobenius_matrix",
    "invariant_z", "odd_subset_order",
    "GradedModule", "IntegralMatrix", "NotSemisimpleError",
    "SemisimplicityReport", "brute_force_quotient_invariants",
    "check_right_integral", "check_semisimple_over_even", "integral_matrix",
    "invariant_projector", "module_action", "quotient_module",
    "validate_module",
]
