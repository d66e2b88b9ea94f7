"""Batch evaluation of the real analytic Z(t, chi_q) across conductor windows.

The fast path amortizes one window [Q, Q+Delta) of odd fundamental
conductors through shared Taylor coefficient tables and gridded
exponential-sum multi-evaluation; an independent per-conductor oracle
provides certified reference values for validation.

The package exports the entry points; the layers behind them are imported
from their own modules (qlbatch.arith, qlbatch.taylor, qlbatch.multieval,
qlbatch.special, qlbatch.gauss).
"""

from .arith import Window
from .counters import OpCounter
from .errors import AccuracyError, BudgetError, ConsistencyError, DomainError
from .oracle import OracleResult, direct_Z, oracle_sweep
from .pipeline import BatchRequest, BatchResult, compare_with_oracle, run_batch
from .taylor import ErrorBudget

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "BatchRequest",
    "BatchResult",
    "BudgetError",
    "ConsistencyError",
    "DomainError",
    "ErrorBudget",
    "OpCounter",
    "OracleResult",
    "Window",
    "compare_with_oracle",
    "direct_Z",
    "oracle_sweep",
    "run_batch",
    "__version__",
]
