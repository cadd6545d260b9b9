"""Exception types raised on validation and optimization failures.

Every validation error message names the tolerance that was violated and the
measured value, so failures are diagnosable from the message alone.
"""


class QsteerError(Exception):
    """Base class for all package errors."""


class ValidationError(QsteerError, ValueError):
    """An operator or parameter failed a physicality/consistency check."""


class NotFinite(ValidationError):
    """An input array holds NaN or infinite entries."""


class NotHermitian(ValidationError):
    pass


class NotUnitTrace(ValidationError):
    pass


class NotPSD(ValidationError):
    pass


class NotBipartite(ValidationError):
    pass


class WrongDimension(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class DimensionTooLarge(ValidationError):
    pass


class NonUnitAxis(ValidationError):
    pass


class InvalidPOVMElement(ValidationError):
    pass


class IncompletePOVM(ValidationError):
    pass


class ZeroProbability(QsteerError):
    """Measurement outcome probability below threshold; steering undefined."""


class SingularDenominator(QsteerError):
    """Steered-state denominator 1 + a·m vanished (only possible as |a| -> 1)."""


class SingularMarginal(QsteerError):
    """Alice's marginal is singular (pure); the canonical transform is undefined."""


class TrivialProductState(QsteerError):
    """rho_A is pure, so rho is a product state and steering is trivial."""


class LinearAlgebraFailure(QsteerError):
    """A numpy linear-algebra routine failed, such as an eigensolver that did not converge."""


class ParameterOutOfRange(ValidationError):
    pass


class WeightsInvalid(ValidationError):
    pass


class RankDeficient(ValidationError):
    pass


class GeometryViolation(ValidationError):
    pass


class RadialSegment(ValidationError):
    """The requested segment is radial: the state is classical, use classical_state."""
