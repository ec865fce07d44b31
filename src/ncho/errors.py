"""Exception types raised by the ncho package.

`exit_code` is the exit status of the ncho CLI: 2 invalid input or usage,
3 degenerate parameter point, 4 (the default) internal consistency failure.
"""


class NchoError(Exception):
    """Base class for all ncho errors."""

    exit_code = 4


class NonPositiveParameter(NchoError):
    """A parameter that must be strictly positive is zero or negative."""

    exit_code = 2

    def __init__(self, field, value):
        self.field = field
        self.value = value
        super().__init__(f"parameter '{field}' must be > 0, got {value!r}")


class NegativeDeformation(NchoError):
    """theta or eta is negative; the positivity results assume both >= 0."""

    exit_code = 2

    def __init__(self, field, value):
        self.field = field
        self.value = value
        super().__init__(f"deformation '{field}' must be >= 0, got {value!r}")


class DegenerateSpectrum(NchoError):
    """The two normal-mode frequencies coincide (or one vanishes); the
    closed-form eigenvector expressions are ill-conditioned there."""

    exit_code = 3


class EigenvectorResidualTooLarge(NchoError):
    """Neither the closed-form eigenvector nor its mode-swapped form met
    the residual tolerance."""


class SingularQ(NchoError):
    """The assembled similarity transformation failed the inverse check."""


class DegenerateGroundState(NchoError):
    """The denominator of the Gaussian exponent coefficients vanished."""

    exit_code = 3


class UnphysicalCovariance(NchoError):
    """Covariance matrix violates the Robertson-Schroedinger inequality."""


class EmptyRange(NchoError):
    """A scan axis or a Wigner grid axis has no grid points."""

    exit_code = 2


class InvalidAxisName(NchoError):
    """A scan axis does not name a physical input parameter."""

    exit_code = 2


class InvalidPlane(NchoError):
    """The requested projection plane is not a pair of distinct axes."""

    exit_code = 2


class DegenerateForm(NchoError):
    """The Wigner exponent matrix is not positive definite."""


class HomodyneUnsupported(NchoError):
    """Homodyne limit (measurement parameter 0) is not implemented."""

    exit_code = 2


class SingularMeasurement(NchoError):
    """The measured-mode covariance plus measurement noise is singular."""
