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
det V1' = 1/4 and W = (kB T / 2) ln(4 det V1), whatever mu and angle.
For any pure two-mode state the standard form gives
4 det V1 - 1 = -4 det C = s (Adesso & Illuminati, J. Phys. A 40, 7821
(2007)), so on a pure V the work has the closed form

    W = (kB T / 2) log1p(s),      s = -4 det C,

which the log-det route must reproduce.  On the ground state C has two
exact zeros, s = y^2 / (4 L11 L22) has no cancellation, and W vanishes
exactly when the modes are uncorrelated (y = 0) and is positive
otherwise: the engine runs on the correlation alone.

The homodyne limit mu -> 0 (or infinity) needs a rank-deficient gamma
and is not implemented; mu = 0 raises HomodyneUnsupported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HomodyneUnsupported, NonPositiveParameter, SingularMeasurement
from .gaussian import CovarianceMatrix, is_pure, require_physical


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

    work_closed_form, (kbt/2) log1p(-4 det C), is filled for every pure
    V (gaussian.is_pure) and None for a mixed one; it must agree with
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
    s = 4.0 * (m[0, 3] * m[1, 2] - m[0, 2] * m[1, 3])  # -4 det C
    closed = 0.5 * spec.kbt * math.log1p(s) if is_pure(m) else None
    return SzilardResult(
        work=work,
        work_closed_form=closed,
        det_before=det_before,
        det_after=det_after,
        mu=spec.mu,
        angle=spec.angle,
        kbt=spec.kbt,
    )
