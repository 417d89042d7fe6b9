"""Exception types shared across the package."""


class GorhomError(Exception):
    """Base class for all errors raised by this package."""


class InputShapeError(GorhomError):
    """Input data is malformed: matrix dimensions do not match the
    operation's requirements, or a scalar is not an element of the field."""


class InfiniteDimensional(GorhomError):
    """A path algebra quotient does not collapse within the path-length bound."""


class MalformedRelation(GorhomError):
    """A quiver relation is not a well-formed combination of parallel paths."""


class NotAGroup(GorhomError):
    """A multiplication table fails the group axioms."""


class UnsupportedAlgebra(GorhomError):
    """The algebra lacks the idempotent data an operation needs."""


class AlgebraMismatch(GorhomError):
    """Two modules expected over the same algebra live over different ones."""


class NoHomotopy(GorhomError):
    """The null-homotopy system is inconsistent."""


class ProfileNotCertified(GorhomError):
    """An operation requires a finite Gorenstein profile that is not available."""


class PreconditionFailed(GorhomError):
    """A verification routine was invoked without its required certificates."""


class PropertyViolation(GorhomError):
    """An internally asserted mathematical law failed on concrete data.

    This should never happen; it indicates a bug, and the message names
    the violated law.
    """
