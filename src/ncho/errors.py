"""Exception types raised by the ncho package."""


class NchoError(Exception):
    """Base class for all ncho errors."""


class NonPositiveParameter(NchoError):
    """A parameter that must be strictly positive is zero or negative."""

    def __init__(self, field, value):
        self.field = field
        self.value = value
        super().__init__(f"parameter '{field}' must be > 0, got {value!r}")


class NegativeDeformation(NchoError):
    """theta or eta is negative; the positivity results assume both >= 0."""

    def __init__(self, field, value):
        self.field = field
        self.value = value
        super().__init__(f"deformation '{field}' must be >= 0, got {value!r}")


class DegenerateSpectrum(NchoError):
    """The two normal-mode frequencies coincide (or one vanishes); the
    closed-form eigenvector expressions are ill-conditioned there."""


class EigenvectorResidualTooLarge(NchoError):
    """Neither the closed-form eigenvector nor the numeric null-space
    fallback met the residual tolerance."""


class SingularQ(NchoError):
    """The assembled similarity transformation failed the inverse check."""


class DegenerateGroundState(NchoError):
    """The denominator of the Gaussian exponent coefficients vanished."""


class UnphysicalCovariance(NchoError):
    """Covariance matrix violates the Robertson-Schroedinger inequality."""


class EmptyRange(NchoError):
    """A scan axis or a Wigner grid axis has no grid points."""


class InvalidAxisName(NchoError):
    """A scan axis does not name a physical input parameter."""


class InvalidPlane(NchoError):
    """The requested projection plane is not a pair of distinct axes."""


class DegenerateForm(NchoError):
    """The Wigner exponent matrix is not positive definite."""


class HomodyneUnsupported(NchoError):
    """Homodyne limit (measurement parameter 0) is not implemented."""


class SingularMeasurement(NchoError):
    """The measured-mode covariance plus measurement noise is singular."""
