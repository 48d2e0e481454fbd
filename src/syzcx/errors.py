"""Exception hierarchy. Every error carries a stable machine-readable
`code`, which the CLI prints as `error[code]: message`, and `exit_code`, the
CLI's exit status when the error ends a run. A subclass inherits the exit
status of its category: syntax, validation, mathematical precondition or
internal inconsistency."""

from __future__ import annotations


class SyzcxError(Exception):
    """Base class. `code` is the stable diagnostic identifier and
    `exit_code` the CLI's exit status."""

    code = "error"
    exit_code = 5

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)
        self.message = message or self.code

    def __str__(self):
        return self.message


class AlgebraSyntaxError(SyzcxError):
    """Malformed input file or literal. Carries the line when known."""

    code = "syntax_error"
    exit_code = 2

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line

    def __str__(self):
        if self.line is not None:
            return f"line {self.line}: {self.message}"
        return self.message


class ValidationError(SyzcxError):
    """Algebra fails a structural requirement (e.g. infinite dimensional)."""

    code = "validation_error"
    exit_code = 3


class InfiniteDimensionalError(ValidationError):
    code = "infinite_dimensional"


class RelationTooShortError(ValidationError):
    code = "relation_too_short"


class MathPreconditionError(SyzcxError):
    """An operation's mathematical precondition is violated."""

    code = "math_precondition"
    exit_code = 4


class ZeroPathError(MathPreconditionError):
    code = "zero_path"


class NotMonicError(MathPreconditionError):
    code = "not_monic"


class NonMonicInputError(MathPreconditionError):
    code = "nonmonic_input"


class ZeroPolynomialError(MathPreconditionError):
    code = "zero_polynomial"


class NotStronglyConnectedError(MathPreconditionError):
    code = "not_strongly_connected"


class NoArrowsError(MathPreconditionError):
    code = "no_arrows"


class TrailingZeroError(MathPreconditionError):
    code = "trailing_zero"


class InvalidPartialError(ValidationError):
    code = "invalid_partial"


class WindowTooSmallError(MathPreconditionError):
    code = "window_too_small"


class DimensionCapExceededError(MathPreconditionError):
    """Oracle iteration hit the dimension cap. Partial results attached."""

    code = "dimension_cap_exceeded"

    def __init__(self, message, dims=None):
        super().__init__(message)
        self.dims = list(dims or [])


class InternalInconsistencyError(SyzcxError):
    """Two routes that must agree disagreed. Always a bug or a cap issue."""

    code = "inconsistent"


class PrimeDisagreementError(InternalInconsistencyError):
    code = "prime_disagreement"
