"""Exception types raised by the ncho package.

`exit_code` is the exit status of the ncho CLI: 2 invalid input or usage,
3 degenerate parameter point, 4 (the default) internal consistency failure.
"""


class NchoError(Exception):
    """Base class for all ncho errors."""

    exit_code = 4


class NonPositiveParameter(NchoError):
    """A parameter is outside its domain: zero or negative where it must
    be > 0, or not finite where `must` says so (a measurement angle)."""

    exit_code = 2

    def __init__(self, field, value, must="> 0"):
        self.field = field
        self.value = value
        super().__init__(f"parameter '{field}' must be {must}, got {value!r}")


class NegativeDeformation(NchoError):
    """theta or eta is negative; the positivity results assume both >= 0."""

    exit_code = 2

    def __init__(self, field, value):
        self.field = field
        self.value = value
        super().__init__(f"deformation '{field}' must be >= 0, got {value!r}")


class DegenerateSpectrum(NchoError):
    """A degenerate point, one of four gates (symplectic.gates): the Bopp
    map is singular (theta eta = 4, |k|/h below SINGULAR_TOL, lambda2 = 0),
    a frequency, a moment of V, an eigenvector row or the Szilard work
    leaves float64, the normal modes collide (delta/sigma below
    COLLISION_TOL, the basis is not unique), or the correlation s passes
    CORRELATION_MAX, where the float64 V no longer resolves its purity.
    The message names the gate and its value."""

    exit_code = 3


class SingularQ(NchoError):
    """An identity residual of the assembled similarity transformation
    (eigenvectors, diagonalization, ladder metric) exceeds its tolerance."""


# Past the spectral gates the ground state is never degenerate, so no
# separate error is raised for it; the name stays for callers that catch it.
DegenerateGroundState = DegenerateSpectrum


class UnphysicalCovariance(NchoError):
    """Covariance matrix violates the Robertson-Schroedinger inequality
    or is not finite."""


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
