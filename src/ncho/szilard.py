"""Work extraction from mode-mode correlations (Gaussian Szilard engine).

A Gaussian measurement on mode 2 with outcome covariance

    gamma = R(angle) diag(mu/2, 1/(2 mu)) R(angle)^T

conditions mode 1 on the outcome.  For Gaussian states the conditional
covariance is outcome independent,

    V1' = V1 - C (V2 + gamma)^-1 C^T,

and the average work extractable from an isothermal cycle run on the
conditioned mode is set by the entropy drop:

    W = (kB T / 2) ln( det V1 / det V1' ).

Every spec here is minimum uncertainty (det gamma = 1/4), and the
ground state is pure, so the conditioned mode ends up pure as well:
det V1' = 1/4 and the work is independent of mu and angle on this
family.  mu = 1 is the heterodyne measurement (gamma = 1/2 identity);
for the oscillator ground state it admits the closed form

    W = -(kB T / 2) ln[ (1 - y^2/(d + 2 L11)) (1 - y^2/(d (1 + 2 L22))) ]

in terms of the exponent coefficients, which the log-det route must
reproduce identically.  W vanishes exactly when the modes are
uncorrelated (y = 0) and is positive otherwise: the engine runs on the
correlation alone.

The homodyne limit mu -> 0 (or infinity) needs a rank-deficient gamma
and is not implemented; mu = 0 raises HomodyneUnsupported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HomodyneUnsupported, NonPositiveParameter, SingularMeasurement
from .gaussian import CovarianceMatrix, require_physical


@dataclass(frozen=True)
class MeasurementSpec:
    """Gaussian measurement on mode 2.

    mu    : squeezing of the measurement ellipse (> 0; 1 = heterodyne)
    angle : orientation of the ellipse
    kbt   : bath temperature in energy units (> 0)
    """

    mu: float = 1.0
    angle: float = 0.0
    kbt: float = 1.0


@dataclass(frozen=True)
class SzilardResult:
    """Extracted work and the determinants behind it.

    work_closed_form is filled only for the heterodyne case (mu = 1) on
    a covariance matrix of the ground-state family; it must agree with
    work to rounding.
    """

    work: float
    work_closed_form: float | None
    det_before: float
    det_after: float
    mu: float
    angle: float
    kbt: float


def _check_spec(spec: MeasurementSpec):
    if not np.isfinite(spec.mu) or spec.mu < 0.0:
        raise NonPositiveParameter("mu", spec.mu)
    if spec.mu == 0.0:
        raise HomodyneUnsupported(
            "mu = 0 is the homodyne limit; only mu > 0 measurements are supported"
        )
    if not np.isfinite(spec.kbt) or spec.kbt <= 0.0:
        raise NonPositiveParameter("kbt", spec.kbt)
    if not np.isfinite(spec.angle):
        raise NonPositiveParameter("angle", spec.angle, must="finite")


def measurement_covariance(spec: MeasurementSpec) -> np.ndarray:
    """Outcome covariance gamma of the measurement POVM (2x2)."""
    _check_spec(spec)
    c, s = np.cos(spec.angle), np.sin(spec.angle)
    r = np.array([[c, -s], [s, c]])
    return r @ np.diag([0.5 * spec.mu, 0.5 / spec.mu]) @ r.T


def conditional_covariance(
    v: CovarianceMatrix | np.ndarray, gamma: np.ndarray
) -> np.ndarray:
    """Covariance of mode 1 after the mode-2 measurement (Schur complement)."""
    m = np.asarray(v)
    a = m[:2, :2]
    b = m[2:, 2:]
    c = m[:2, 2:]
    denom = b + gamma
    det = float(np.linalg.det(denom))
    scale = float(np.max(np.abs(denom))) ** 2
    if abs(det) <= 1e-14 * max(scale, 1e-300):
        raise SingularMeasurement(
            f"V2 + gamma is singular (det = {det:.3e})"
        )
    return a - c @ np.linalg.solve(denom, c.T)


def _family_coefficients(m: np.ndarray):
    """(L11, L22, y, d) read back from a ground-state covariance matrix."""
    l11 = 1.0 / (4.0 * m[0, 0])
    l22 = 1.0 / (4.0 * m[2, 2])
    y = -m[0, 3] / m[0, 0]
    return l11, l22, y, 4.0 * l11 * l22 + y * y


def _is_family(m: np.ndarray) -> bool:
    scale = float(np.max(np.abs(m)))
    zeros = ((0, 1), (0, 2), (1, 3), (2, 3))
    return all(
        abs(m[i, j]) <= 1e-10 * scale and abs(m[j, i]) <= 1e-10 * scale
        for i, j in zeros
    )


def extractable_work(
    v: CovarianceMatrix | np.ndarray, spec: MeasurementSpec
) -> SzilardResult:
    """Average extractable work for a Gaussian measurement on mode 2.

    Raises UnphysicalCovariance for a covariance matrix that fails the
    uncertainty check, HomodyneUnsupported for mu = 0 and
    SingularMeasurement if V2 + gamma cannot be inverted.
    """
    gamma = measurement_covariance(spec)  # checks spec before V
    m = np.asarray(v)
    require_physical(m)
    a = m[:2, :2]
    a_cond = conditional_covariance(m, gamma)
    det_before = float(np.linalg.det(a))
    det_after = float(np.linalg.det(a_cond))
    work = 0.5 * spec.kbt * float(np.log(det_before / det_after))
    closed = None
    if spec.mu == 1.0 and _is_family(m):
        l11, l22, y, d = _family_coefficients(m)
        closed = -0.5 * spec.kbt * float(
            np.log(
                (1.0 - y * y / (d + 2.0 * l11))
                * (1.0 - y * y / (d * (1.0 + 2.0 * l22)))
            )
        )
    return SzilardResult(
        work=work,
        work_closed_form=closed,
        det_before=det_before,
        det_after=det_after,
        mu=spec.mu,
        angle=spec.angle,
        kbt=spec.kbt,
    )
