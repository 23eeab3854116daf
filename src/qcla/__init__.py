"""Log-depth carry-lookahead adder circuits over NOT/CNOT/Toffoli.

Circuit generators for out-of-place / in-place addition, addition mod
2^n and mod 2^n - 1, subtraction, and comparison, together with a
classical reversible simulator, ASAP time-slice scheduling, and
closed-form resource verification.
"""

from .adders import (
    VARIANTS,
    AdderRequest,
    build,
    build_variant,
    request_for,
)
from .carry import build_carry_network
from .core import (
    Barrier,
    Circuit,
    CircuitError,
    Gate,
    GateKind,
    Register,
    RegisterLayout,
    ResourceReport,
    Role,
    resource_report,
    schedule_asap,
)
from .formulas import formula_eval, verify_family
from .sim import (
    Counterexample,
    exhaustive_check,
    expected_state,
    random_check,
    run_operands,
)
from .textfmt import ParseError, emit_native, emit_qasm, parse_native

__version__ = "0.1.0"

__all__ = [
    "AdderRequest",
    "Barrier",
    "Circuit",
    "CircuitError",
    "Counterexample",
    "Gate",
    "GateKind",
    "ParseError",
    "Register",
    "RegisterLayout",
    "ResourceReport",
    "Role",
    "VARIANTS",
    "build",
    "build_carry_network",
    "build_variant",
    "emit_native",
    "emit_qasm",
    "exhaustive_check",
    "expected_state",
    "formula_eval",
    "parse_native",
    "random_check",
    "request_for",
    "resource_report",
    "run_operands",
    "schedule_asap",
    "verify_family",
]
