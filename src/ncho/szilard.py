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
the solve by the LDL^T factors of V2 + gamma and each determinant as
ad - bc, which on 2x2 blocks spares numpy's per-call overhead.

The homodyne limit mu -> 0 (or infinity) needs a rank-deficient gamma
and is not implemented; mu = 0 raises HomodyneUnsupported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, HomodyneUnsupported, NonPositiveParameter
from .errors import SingularMeasurement, UnphysicalCovariance
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
    """Extracted work and the determinants behind it, for the spec that
    extractable_work was given.

    work_closed_form, (kbt/2) log1p(-4 det C), is filled for every pure
    V (gaussian.is_pure) and None for a mixed one; it must agree with
    work to rounding.  Every field is a float64 number.
    """

    work: float
    work_closed_form: float | None
    det_before: float
    det_after: float


def _check_spec(spec: MeasurementSpec):
    """mu, kbt and angle in their domains, with gamma's mu/2 and 1/(2 mu) finite."""
    if not math.isfinite(spec.mu) or spec.mu < 0.0:
        raise NonPositiveParameter("mu", spec.mu)
    if spec.mu == 0.0:
        raise HomodyneUnsupported(
            "mu = 0 is the homodyne limit; only mu > 0 measurements are supported"
        )
    if not 0.5 / spec.mu < math.inf:
        raise NonPositiveParameter("mu", spec.mu, must="large enough that 1/(2 mu) is finite")
    if not math.isfinite(spec.kbt) or spec.kbt <= 0.0:
        raise NonPositiveParameter("kbt", spec.kbt)
    if not math.isfinite(spec.angle):
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

    Runs on floats, through the LDL^T factors of the symmetric positive
    definite G = V2 + gamma: pivots p = G00 and d = G11 - (G01/p) G01, and
    C G^-1 C^T = c0 c0^T / p + y y^T / d, y = c1 - (G01/p) c0, each term
    formed as c (c / p) so that no square overflows.  G counts as singular
    unless d > 1e-14 G11, the ratio det G / (G00 G11) in (0, 1] at any
    scale, never formed as a product; a pivot that is NaN or not positive
    (inf - inf, at a far-squeezed tilted gamma) counts too.
    """
    rows, g = np.asarray(v).tolist(), np.ravel(gamma).tolist()
    (a00, a01, c00, c01), (a10, a11, c10, c11) = rows[0], rows[1]
    p, g01, g11 = rows[2][2] + g[0], rows[2][3] + g[1], rows[3][3] + g[3]
    l = g01 / p if p > 0.0 else math.nan  # a pivot that is NaN or <= 0: singular
    d = g11 - l * g01
    if not d > 1e-14 * g11:
        raise SingularMeasurement(f"V2 + gamma is singular (pivots {p:.3e}, {d:.3e})")
    y0, y1 = c01 - l * c00, c11 - l * c10
    t0, t1, z0, z1 = c00 / p, c10 / p, y0 / d, y1 / d
    return np.array(
        [
            [a00 - (c00 * t0 + y0 * z0), a01 - (c00 * t1 + y0 * z1)],
            [a10 - (c10 * t0 + y1 * z0), a11 - (c10 * t1 + y1 * z1)],
        ]
    )


def extractable_work(
    v: CovarianceMatrix | np.ndarray, spec: MeasurementSpec
) -> SzilardResult:
    """Average extractable work for a Gaussian measurement on mode 2.

    Raises UnphysicalCovariance for a covariance matrix that fails the
    uncertainty check or whose det V1' rounds to <= 0, HomodyneUnsupported
    for mu = 0, SingularMeasurement if V2 + gamma cannot be inverted and
    DegenerateSpectrum when the work leaves float64 (kbt near its top).
    """
    gamma = measurement_covariance(spec)  # checks spec before V
    m = np.asarray(v)
    require_physical(m)
    (k00, k01), (k10, k11) = conditional_covariance(m, gamma).tolist()
    (a00, a01, c00, c01), (a10, a11, c10, c11) = m[:2].tolist()
    det_before = a00 * a11 - a01 * a10
    det_after = k00 * k11 - k01 * k10
    if not det_after > 0.0:  # the Schur step lost V's digits
        raise UnphysicalCovariance(f"det V1' = {det_after:.6e} is not > 0")
    # np.log, not math.log: they differ in the last bit on ~0.1 % of
    # arguments (numpy's SIMD log), and the printed work must not move
    work = 0.5 * spec.kbt * float(np.log(det_before / det_after))
    s = 4.0 * (c01 * c10 - c00 * c11)  # -4 det C
    closed = 0.5 * spec.kbt * math.log1p(s) if is_pure(m) else None
    if not abs(work) < math.inf or closed == math.inf:  # kbt near float64's top
        raise DegenerateSpectrum(f"out of float64 range: work = {work!r}, closed form {closed!r}")
    return SzilardResult(work, closed, det_before, det_after)
