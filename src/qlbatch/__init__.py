"""Batch evaluation of the real analytic Z(t, chi_q) across conductor windows.

The fast path amortizes one window [Q, Q+Delta) of odd fundamental
conductors through shared Taylor coefficient tables and gridded
exponential-sum multi-evaluation; an independent per-conductor oracle
provides certified reference values for validation.
"""

from .arith import (
    CharacterSieve,
    DivisorTerm,
    FactoredWindow,
    Window,
    divisor_terms,
    jacobi,
    quad_character,
    sieve_factor_window,
)
from .counters import OpCounter
from .errors import AccuracyError, BudgetError, ConsistencyError, DomainError
from .gauss import character_from_gauss, gauss_sum_direct, gauss_sum_fast
from .multieval import EvalGrid, NodeSum, build_node_problem, direct_eval, fast_eval
from .oracle import OracleResult, direct_F, direct_Z, oracle_sweep
from .pipeline import (
    BatchRequest,
    BatchResult,
    EvalRecord,
    compare_with_oracle,
    run_batch,
)
from .special import (
    c_prefactor,
    g_derivative_row,
    g_kernel,
    g_prefactor,
    incomplete_gamma_upper,
    log_gamma,
    theta_phase,
    weight_v,
)
from .taylor import (
    CoefficientTable,
    ErrorBudget,
    build_coefficient_table,
    plan_budget,
    tail_bound,
    taylor_remainder_bound,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "BatchRequest",
    "BatchResult",
    "BudgetError",
    "CharacterSieve",
    "CoefficientTable",
    "ConsistencyError",
    "DivisorTerm",
    "DomainError",
    "ErrorBudget",
    "EvalGrid",
    "EvalRecord",
    "FactoredWindow",
    "NodeSum",
    "OpCounter",
    "OracleResult",
    "Window",
    "build_coefficient_table",
    "build_node_problem",
    "c_prefactor",
    "character_from_gauss",
    "compare_with_oracle",
    "direct_F",
    "direct_Z",
    "direct_eval",
    "divisor_terms",
    "fast_eval",
    "g_derivative_row",
    "g_kernel",
    "g_prefactor",
    "gauss_sum_direct",
    "gauss_sum_fast",
    "incomplete_gamma_upper",
    "jacobi",
    "log_gamma",
    "oracle_sweep",
    "plan_budget",
    "quad_character",
    "run_batch",
    "sieve_factor_window",
    "tail_bound",
    "taylor_remainder_bound",
    "theta_phase",
    "weight_v",
    "__version__",
]
