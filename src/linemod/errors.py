"""Exception types shared across the package."""


class LinemodError(Exception):
    """Base class for every error raised by this package."""


class UngradedAlphabetError(LinemodError):
    """A group degree was requested but some generator carries no label."""


class DegenerateRelationError(LinemodError):
    """A relation is zero, or reduces to a nonzero constant (inconsistent
    presentation), so it cannot be oriented into a rewrite rule."""


class OutOfCertifiedRangeError(LinemodError):
    """A normal form or membership query exceeds the certified degree bound."""


class InhomogeneousError(LinemodError):
    """A graded computation was requested for an inhomogeneous input."""


class OracleCapError(LinemodError):
    """The brute-force oracle or the filtered model would exceed its cap.

    The monomial cap is the LINEMOD_ORACLE_CAP environment variable, or 4096
    when it is unset; raise it to allow larger free-algebra slices.
    """


class RankDeficientError(LinemodError):
    """A subspace basis does not have the required rank."""


class SubalgebraFormError(LinemodError):
    """A subalgebra is not of the classified shape expected by the caller."""


class AdmissibilityError(LinemodError):
    """A linear functional does not define a one-dimensional module; the
    message names the violated condition."""


class RouteDisagreementError(LinemodError):
    """Two independent computational routes disagreed.  This is an internal
    inconsistency; a verification suite records it as a failed check with
    its witness, and everywhere else it propagates."""


class UnknownPresetError(LinemodError):
    """No built-in object with the requested name."""


class DSLSyntaxError(LinemodError):
    """Parse failure in the algebra DSL, with source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column
