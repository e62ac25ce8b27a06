"""Exception types shared across the package.

Every failure mode has its own class so callers (and the CLI) can map an
exception to a machine-readable error kind via ``type(exc).__name__``.
"""


class GeometryError(Exception):
    """Base class for all domain/geometry errors raised by this package."""


class NonSymmetric(GeometryError):
    """Matrix expected to be (complex) symmetric is not, beyond tolerance."""


class NotInBall(GeometryError):
    """Point fails the bounded-domain condition 1 - W Wbar > 0."""


class NotInUpperHalfPlane(GeometryError):
    """Point fails the condition Im V > 0."""


class DimensionMismatch(GeometryError):
    """Operands built for different dimensions n."""


class InvalidInput(GeometryError):
    """Constructor invariants violated beyond tolerance."""


class SingularDenominator(GeometryError):
    """A matrix that is invertible on the domain came out numerically singular."""


class GammaPoleError(GeometryError):
    """The normalization constant Lambda_n is undefined or non-positive: k <= 3,
    a Gamma-function argument <= 0, or a factor (k-3)/2 - n + i <= 0."""


class NotConverged(GeometryError):
    """A fixed quadrature rule's result is not finite and positive, or its
    error estimate (the rule rerun at half the order) exceeds the rule's
    own relative tolerance."""


class StepTooLarge(GeometryError):
    """A finite-difference stencil would leave the domain."""


class NonHolomorphic(GeometryError):
    """Numerical Jacobian detected a non-vanishing dbar block for a map
    expected to be holomorphic."""


class NumericalOverflow(GeometryError):
    """A closed-form value leaves the normal float range (e.g. the metric
    determinant at large n or tiny weights); it is reported, not returned."""
