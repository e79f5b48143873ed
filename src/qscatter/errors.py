"""Exception hierarchy with stable identifiers for CLI exit-code mapping."""


def brief(value) -> str:
    """``value``'s repr cut to 40 characters for an error message, or its type
    if Python refuses to print it (an integer of over 4,300 digits)."""
    try:
        return f"{value!r:.40}"
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


class QscatterError(ValueError):
    """Base error. ``slug`` and ``exit_code`` are stable across releases."""

    slug = "error"
    exit_code = 1


class InputFormatError(QscatterError):
    """Malformed matrix or circuit payload."""

    slug = "bad-input"
    exit_code = 3


class DimensionMismatchError(QscatterError):
    """Operands with incompatible shapes."""

    slug = "dimension-mismatch"
    exit_code = 4


class PowerOfTwoError(QscatterError):
    """Register dimension must be 2**k to map onto qubits."""

    slug = "not-power-of-two"
    exit_code = 5


class QubitBudgetError(QscatterError):
    """Requested register exceeds the simulable qubit budget."""

    slug = "qubit-budget"
    exit_code = 6


class InvalidValueError(QscatterError):
    """Argument outside its documented domain."""

    slug = "invalid-value"
    exit_code = 7
