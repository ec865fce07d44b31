"""Ground state of the coupled model and its covariance matrix.

The ground state is a correlated Gaussian

    psi0(x1, x2) = A0 exp(-L11 x1^2 - L22 x2^2 - i y x1 x2),

with real L11, L22 > 0 and a purely imaginary cross coefficient
L12 = i y.  The three coefficients follow in closed form from the
normal-mode frequencies; y is the single quantity that carries all the
mode-mode correlation.  y = 0 collapses the state to a product of two
squeezed vacua, which is what happens at theta = eta = 0, at equal
oscillator frequencies wt1 = wt2, and on the parameter surface
theta m1 wt1 = eta / (m2 wt2).

Covariances of (x1, p1, x2, p2) in this state are rational in the
coefficients; the only nonzero cross moments are <x1 p2> and <p1 x2>,
and every second moment involves d = 4 L11 L22 + y^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGroundState, UnphysicalCovariance
from .params import CommutativeParams
from .symplectic import SIGMA_Y, SpectralData, spectral_data


@dataclass(frozen=True)
class GroundState:
    """Closed-form exponent coefficients of the Gaussian ground state.

    lambda11, lambda22 : real quadratic coefficients (> 0)
    lambda12_im        : y, the imaginary part of the cross coefficient
    a0_mod             : |A0| = (4 lambda11 lambda22 / pi^2)^(1/4)
    d                  : 4 lambda11 lambda22 + y^2
    tau                : 2 (lambda1 + lambda2)
    denom              : mu2 (w2^2 + lambda1 lambda2) - 4 mu1 nu1^2
    energy0            : ground energy (lambda1 + lambda2) / 2
    """

    lambda11: float
    lambda22: float
    lambda12_im: float
    a0_mod: float
    d: float
    tau: float
    denom: float
    energy0: float


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric covariance matrix of (x1, p1, x2, p2), V_ab = <{dXa, dXb}>/2.

    np.asarray(cov) gives the matrix, so functions that take a covariance
    accept this record and a plain array alike.
    """

    matrix: np.ndarray

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype, copy=copy)


def vanishing_denominator(denom, scale):
    """Gate: the exponent denominator is not safely positive relative to
    its scale mu2 (w2^2 + lambda1 lambda2).  Elementwise."""
    return denom <= 1e-12 * scale


def nonpositive_coefficients(l11, l22):
    """Gate: a real exponent coefficient is not positive.  Elementwise."""
    return (l11 <= 0.0) | (l22 <= 0.0)


def exponent_denominator(cp: CommutativeParams, lambda1, lambda2) -> tuple:
    """(scale, denom) with scale = mu2 (w2^2 + lambda1 lambda2) and
    denom = scale - 4 mu1 nu1^2.  Elementwise."""
    scale = cp.mu2 * (cp.w2 * cp.w2 + lambda1 * lambda2)
    return scale, scale - 4.0 * cp.mu1 * (cp.nu1 * cp.nu1)


def exponent_coefficients(cp: CommutativeParams, lambda1, lambda2, denom) -> tuple:
    """(lambda11, lambda22, y, d) over a denominator that passed its gate.

    Elementwise; the formulas are those of ground_state.
    """
    w2s = cp.w2 * cp.w2
    ll = lambda1 * lambda2
    tau = 2.0 * (lambda1 + lambda2)
    nu1s = cp.nu1 * cp.nu1
    l11 = cp.mu1 * cp.mu2 * tau * ll / (4.0 * denom)
    l22 = cp.mu2 * tau * (cp.mu2 * w2s - 4.0 * cp.mu1 * nu1s) / (4.0 * denom)
    y = (
        2.0
        * cp.mu2
        * (4.0 * cp.mu1 * nu1s * cp.nu2 - cp.mu2 * cp.nu2 * w2s + cp.mu1 * cp.nu1 * ll)
        / denom
    )
    return l11, l22, y, 4.0 * l11 * l22 + y * y


def ground_state(
    cp: CommutativeParams, sd: SpectralData | None = None
) -> GroundState:
    """Exponent coefficients of psi0 from the normal-mode frequencies.

    With tau = 2 (lambda1 + lambda2) and the common denominator

        denom = mu2 (w2^2 + lambda1 lambda2) - 4 mu1 nu1^2

    the coefficients are

        lambda11 = mu1 mu2 tau lambda1 lambda2 / (4 denom)
        lambda22 = mu2 tau (mu2 w2^2 - 4 mu1 nu1^2) / (4 denom)
        y = 2 mu2 (4 mu1 nu1^2 nu2 - mu2 nu2 w2^2 + mu1 nu1 lambda1 lambda2)
            / denom

    These satisfy the stationary Schroedinger equation coefficient by
    coefficient (see tests/test_gaussian.py for the independent check)
    with energy (lambda1 + lambda2)/2.

    Raises DegenerateGroundState when denom or either real coefficient
    is not safely positive; for inputs that pass validation and the
    spectral gates this does not occur, so the guard is defensive.
    """
    if sd is None:
        sd = spectral_data(cp)
    l1, l2 = sd.lambda1, sd.lambda2
    scale, denom = exponent_denominator(cp, l1, l2)
    if vanishing_denominator(denom, scale):
        raise DegenerateGroundState(
            f"exponent denominator {denom:.6e} vanishes (scale {scale:.6e})"
        )
    l11, l22, y, d = exponent_coefficients(cp, l1, l2, denom)
    if nonpositive_coefficients(l11, l22):
        raise DegenerateGroundState(
            f"non-positive exponent coefficients: {l11:.6e}, {l22:.6e}"
        )
    return GroundState(
        lambda11=float(l11),
        lambda22=float(l22),
        lambda12_im=float(y),
        a0_mod=float((4.0 * l11 * l22 / np.pi**2) ** 0.25),
        d=float(d),
        tau=float(2.0 * (l1 + l2)),
        denom=float(denom),
        energy0=float(0.5 * (l1 + l2)),
    )


def psi0(gs: GroundState, x1, x2) -> np.ndarray:
    """Evaluate the ground-state wave function (broadcasts over arrays).

    The overall phase is chosen so A0 = |A0| is real and positive.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    return gs.a0_mod * np.exp(
        -gs.lambda11 * x1**2
        - gs.lambda22 * x2**2
        - 1.0j * gs.lambda12_im * x1 * x2
    )


def covariance_matrix(l11, l22, y, d) -> np.ndarray:
    """The 4x4 covariance of covariance(), stacked over leading axes when
    the coefficients are arrays."""
    v = np.zeros(np.shape(l11) + (4, 4))
    t = v.T  # t[j, i] is V_ij over any leading axes; V is symmetric
    t[0, 0] = 1.0 / (4.0 * l11)
    t[1, 1] = d / (4.0 * l22)
    t[2, 2] = 1.0 / (4.0 * l22)
    t[3, 3] = d / (4.0 * l11)
    t[0, 3] = t[3, 0] = -y / (4.0 * l11)
    t[1, 2] = t[2, 1] = -y / (4.0 * l22)
    return v


def covariance(gs: GroundState) -> CovarianceMatrix:
    """Second moments of (x1, p1, x2, p2) in the ground state.

    <x1^2> = 1/(4 L11)          <p1^2> = d/(4 L22)
    <x2^2> = 1/(4 L22)          <p2^2> = d/(4 L11)
    <x1 p2> = -y/(4 L11)        <p1 x2> = -y/(4 L22)

    with all other cross moments zero.  Symmetrized ordering is implied;
    first moments vanish.
    """
    return CovarianceMatrix(
        matrix=covariance_matrix(gs.lambda11, gs.lambda22, gs.lambda12_im, gs.d)
    )


def rs_min_eigenvalue(v: CovarianceMatrix | np.ndarray):
    """Smallest eigenvalue of the uncertainty matrix V - Sigma_y / 2.

    The canonical commutators give [X_a, X_b] = -i (Sigma_y)_ab at
    hbar = 1, so the Robertson-Schroedinger condition reads
    V - Sigma_y/2 >= 0 (the matrix is Hermitian).  require_physical
    accepts values >= -tol |V|_F.  A stack of matrices (leading axes)
    gives one value per matrix.
    """
    m = np.asarray(v)
    # eigvalsh sorts ascending: entry 0 of the last axis is the smallest
    return np.linalg.eigvalsh(m - 0.5 * SIGMA_Y).T[0]


def require_physical(v: CovarianceMatrix | np.ndarray, *, tol: float = 1e-10):
    """Raise UnphysicalCovariance unless V satisfies Robertson-Schroedinger.

    The smallest eigenvalue of V - Sigma_y/2 must reach -tol |V|_F: the
    bound is relative, because rounding in V scales with its size.  For
    a stack of matrices each one is held to its own bound; the error
    reports the worst eigenvalue relative to |V|_F.  Returns
    rs_min_eigenvalue(V), so a caller that reports it computes it once.
    """
    m = np.asarray(v)
    rs_min = rs_min_eigenvalue(m)
    rel = rs_min / np.linalg.norm(m, axis=(-2, -1))
    if (rel < -tol).any():
        raise UnphysicalCovariance(
            f"V - Sigma_y/2 has eigenvalue {rel.min():.6e} |V|_F < -{tol:.1e} |V|_F"
        )
    return rs_min


def variance_products(gs: GroundState) -> tuple:
    """(dx1 dp1, dx2 dp2); both equal (1/2) sqrt(1 + y^2 / (4 L11 L22)).

    Equality of the two products and the value 1/2 at y = 0 reflect that
    the cross coefficient is the only source of single-mode mixedness.
    """
    q = 0.5 * np.sqrt(gs.d / (4.0 * gs.lambda11 * gs.lambda22))
    return (float(q), float(q))


def energy(sd: SpectralData, n1: int = 0, n2: int = 0) -> float:
    """Spectrum E(n1, n2) = (n1 + 1/2) lambda1 + (n2 + 1/2) lambda2."""
    if n1 < 0 or n2 < 0:
        raise ValueError(f"quantum numbers must be >= 0, got ({n1}, {n2})")
    return float((n1 + 0.5) * sd.lambda1 + (n2 + 0.5) * sd.lambda2)
