"""Exception types shared across the package."""


class SunflowsError(Exception):
    """Base class for all package-specific errors."""


class InvalidRank(SunflowsError):
    """Group size n is too small to carry a root system."""


class ShapeError(SunflowsError):
    """Matrix or vector arguments have incompatible shapes."""


class DegenerateBasis(SunflowsError):
    """A putative basis has a singular Gram matrix."""


class RegularityViolation(SunflowsError):
    """Spectrum too close to a chamber or alcove wall."""


class SingularMatrix(SunflowsError):
    """A matrix that must be invertible is numerically singular."""


class NotPositiveDefinite(SunflowsError):
    """A Hermitian argument is not positive definite."""


class UnsupportedBracket(SunflowsError):
    """Requested space/observable pairing has no bracket rule."""


class UnsupportedWord(SunflowsError):
    """Word Hamiltonian outside the supported block classes."""


class AssumptionViolation(SunflowsError):
    """A Hamiltonian family violates the admissibility rules.

    The message names the violated clause.
    """


class InvalidPlan(SunflowsError):
    """Malformed permutation plan."""


class SamplingFailure(SunflowsError):
    """A sampler drew its whole budget without a regular point.

    The message gives the number of draws and the last rejection.
    """


class InvalidShape(SunflowsError):
    """Point or space has the wrong layout for the operation."""


class Unsupported(SunflowsError):
    """Requested crafted point or probe is not implemented."""
