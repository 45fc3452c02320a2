"""Exception hierarchy shared by all chflow modules."""


class ChflowError(Exception):
    """Base class for all chflow errors."""


class PairFormatError(ChflowError):
    """Invalid peakon-pair data (unsorted sites, negative atom weight, bad JSON)."""


class SingularInterpolation(ChflowError):
    """Peakon interpolation nodes coincide; the kernel matrix is singular."""


class NonpositiveLength(ChflowError):
    """String interval length must be strictly positive."""


class NegativeLength(NonpositiveLength):
    """Layer stripping produced a negative interval length."""


class NegativeMass(ChflowError):
    """Point masses of the string measure must be non-negative."""


class LocationMismatch(ChflowError):
    """Wronskian of two solution vectors taken at different locations."""


class RootCountMismatch(ChflowError):
    """Polynomial root finder recovered fewer real simple roots than the degree."""


class WeightNonpositive(ChflowError):
    """A Weyl-function weight came out non-positive (data outside class or precision loss)."""


class NotAnEigenvalue(ChflowError):
    """Quadrature norming requested at a point that is not a spectral point."""


class PoleHit(ChflowError):
    """A probe sample coincides with a pole of the rational function."""


class DuplicateEigenvalue(ChflowError):
    """Spectral input contains repeated eigenvalues."""


class DegreeStall(ChflowError):
    """Layer stripping failed to reduce the denominator degree (precision exhausted)."""


class NonpositiveProduct(ChflowError):
    """An eigenvalue/norming-constant product violates the required positivity."""


class RoundTripFailure(ChflowError):
    """Mandatory inverse/direct self-check exceeded its tolerance."""


class SupportNotCovered(ChflowError):
    """Test-function support sticks out of the sampled time window."""
