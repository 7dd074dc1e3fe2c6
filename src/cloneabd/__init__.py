"""Clone-aware propositional abduction: lattice identification, complexity
classification, structure-specific solvers and hardness-preserving instance
generators."""

from .abduction import (AbductionInstance, Explanation, SolveOutcome,
                        eliminate_false, eliminate_true,
                        entails_manifestation, is_explanation,
                        oracle_count_full, oracle_enumerate, oracle_solve,
                        parse_instance, serialize_instance,
                        validate_instance)
from .errors import (AbdError, CloneMismatchError, InputError,
                     NoRepresentationError, ResourceBudgetError,
                     UnsupportedError)
from .formula import (App, Const, Formula, Literal, Var, eval_formula,
                      free_vars, parse_formula, render_formula)
from .lattice import (CloneId, classify_clone_counting,
                      classify_clone_decision, classify_counting,
                      classify_decision, clone_leq, function_in_clone,
                      identify_clone, parse_clone_name, set_in_clone,
                      signature_of, synthesize_representation)
from .solvers import count_full, enumerate_full, route_of, solve
from .truthtable import (FunctionSet, TruthTable, parse_function_line,
                         parse_function_set, separating_degree)

__version__ = "0.1.0"

__all__ = [
    "AbdError", "AbductionInstance", "App", "CloneId", "CloneMismatchError",
    "Const", "Explanation", "Formula", "FunctionSet", "InputError",
    "Literal", "NoRepresentationError", "ResourceBudgetError",
    "SolveOutcome", "TruthTable", "UnsupportedError", "Var",
    "classify_clone_counting", "classify_clone_decision",
    "classify_counting", "classify_decision", "clone_leq", "count_full",
    "eliminate_false", "eliminate_true",
    "entails_manifestation", "enumerate_full", "eval_formula", "free_vars",
    "function_in_clone", "identify_clone", "is_explanation",
    "oracle_count_full", "oracle_enumerate", "oracle_solve",
    "parse_clone_name", "parse_formula", "parse_function_line",
    "parse_function_set", "parse_instance", "render_formula", "route_of",
    "separating_degree", "serialize_instance", "set_in_clone",
    "signature_of", "solve", "synthesize_representation",
    "validate_instance",
]
