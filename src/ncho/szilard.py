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

The Schur step runs on Python floats: gamma from math.cos and math.sin,
the solve by pivoted elimination and each determinant as ad - bc, which
on 2x2 blocks spares numpy's per-call overhead.

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
    c, s = math.cos(spec.angle), math.sin(spec.angle)
    a, b = 0.5 * spec.mu, 0.5 / spec.mu
    g01 = (a - b) * c * s
    return np.array([[a * c * c + b * s * s, g01], [g01, a * s * s + b * c * c]])


def conditional_covariance(
    v: CovarianceMatrix | np.ndarray, gamma: np.ndarray
) -> np.ndarray:
    """Covariance of mode 1 after the mode-2 measurement (Schur complement).

    Runs on floats.  The solve pivots as np.linalg.solve does: on a dense
    V of far-apart scales the adjugate formula loses 20 to 150 times more
    of det V1'.  V2 + gamma counts as singular when its determinant is
    below 1e-14 times the product of its diagonal: for a positive-definite
    matrix that ratio lies in (0, 1] at any scale.
    """
    rows, g = np.asarray(v).tolist(), np.ravel(gamma).tolist()
    (a00, a01, c00, c01), (a10, a11, c10, c11) = rows[0], rows[1]
    e0 = (rows[2][2] + g[0], rows[2][3] + g[1], c00, c10)  # [B + gamma | C^T]
    e1 = (rows[3][2] + g[2], rows[3][3] + g[3], c01, c11)
    det = e0[0] * e1[1] - e0[1] * e1[0]
    if abs(det) <= 1e-14 * abs(e0[0] * e1[1]):
        raise SingularMeasurement(f"V2 + gamma is singular (det = {det:.3e})")
    (p, q, y0, y1), (r, t, z0, z1) = (e1, e0) if abs(e1[0]) > abs(e0[0]) else (e0, e1)
    l = r / p
    u = t - l * q  # det / p up to sign, so not 0 past the gate above
    x10, x11 = (z0 - l * y0) / u, (z1 - l * y1) / u
    x00, x01 = (y0 - q * x10) / p, (y1 - q * x11) / p
    return np.array(
        [
            [a00 - (c00 * x00 + c01 * x10), a01 - (c00 * x01 + c01 * x11)],
            [a10 - (c10 * x00 + c11 * x10), a11 - (c10 * x01 + c11 * x11)],
        ]
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
    (k00, k01), (k10, k11) = conditional_covariance(m, gamma).tolist()
    (a00, a01, c00, c01), (a10, a11, c10, c11) = m[:2].tolist()
    det_before = a00 * a11 - a01 * a10
    det_after = k00 * k11 - k01 * k10
    work = 0.5 * spec.kbt * float(np.log(det_before / det_after))
    s = 4.0 * (c01 * c10 - c00 * c11)  # -4 det C
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
