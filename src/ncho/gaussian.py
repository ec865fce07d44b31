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

from .errors import UnphysicalCovariance
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


@np.errstate(all="ignore")  # a product that leaves float64 gives 0 or inf
def exponent_coefficients(cp: CommutativeParams, lambda1, lambda2) -> tuple:
    """(lambda11, lambda22, y, d, denom) by the formulas of ground_state.
    Elementwise."""
    w2s = cp.w2 * cp.w2
    ll = lambda1 * lambda2
    tau = 2.0 * (lambda1 + lambda2)
    nu1s = cp.nu1 * cp.nu1
    denom = cp.mu2 * (w2s + ll) - 4.0 * cp.mu1 * nu1s
    l11 = cp.mu1 * cp.mu2 * tau * ll / (4.0 * denom)
    l22 = cp.mu2 * tau * (cp.mu2 * w2s - 4.0 * cp.mu1 * nu1s) / (4.0 * denom)
    y = (
        2.0
        * cp.mu2
        * (4.0 * cp.mu1 * nu1s * cp.nu2 - cp.mu2 * cp.nu2 * w2s + cp.mu1 * cp.nu1 * ll)
        / denom
    )
    return l11, l22, y, 4.0 * l11 * l22 + y * y, denom


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

    Raises only what spectral_data raises.  Past the spectral gates Hm
    is positive definite, so mu2 w2^2 - 4 mu1 nu1^2 (mu1 times the
    determinant of its (p1, x2) block) is positive, and with it denom,
    lambda11 and lambda22 (see tests/test_gaussian.py).
    """
    if sd is None:
        sd = spectral_data(cp)
    l1, l2 = sd.lambda1, sd.lambda2
    l11, l22, y, d, denom = exponent_coefficients(cp, l1, l2)
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


@np.errstate(all="ignore")
def covariance_matrix(l11, l22, y, d) -> np.ndarray:
    """The 4x4 covariance of covariance(), stacked over leading axes when
    the coefficients are arrays.

    A coefficient that under- or overflowed float64 gives a moment that
    is not finite (never ZeroDivisionError or a warning); require_physical
    rejects it.
    """
    l11, l22 = np.float64(l11), np.float64(l22)
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


# (m.dtype.char, m.tobytes(), tol) and rs_min of the last single V that passed
_last_passed = (None, None)


def require_physical(v: CovarianceMatrix | np.ndarray, *, tol: float = 1e-10):
    """Raise UnphysicalCovariance unless V satisfies Robertson-Schroedinger.

    The smallest eigenvalue of V - Sigma_y/2 must reach -tol |V|_F: the
    bound is relative, because rounding in V scales with its size.  For
    a stack of matrices each one is held to its own bound; the error
    reports the worst eigenvalue relative to |V|_F.  Returns
    rs_min_eigenvalue(V), so a caller that reports it computes it once.

    Results are memoized for a single 4x4 V, one entry keyed by its bytes
    and tol: checking the V just checked (analyze, then extractable_work)
    runs no second eigvalsh, while a V edited in place is checked again.
    Stacks are always checked.
    """
    global _last_passed
    m = np.asarray(v)
    key = (m.dtype.char, m.tobytes(), tol) if m.shape == (4, 4) else None
    last_key, last_rs_min = _last_passed  # one read: the pair stays matched
    if key is not None and key == last_key:
        return last_rs_min
    try:
        rs_min = rs_min_eigenvalue(m)
    except np.linalg.LinAlgError:
        raise UnphysicalCovariance("V is not finite") from None
    rel = rs_min / np.linalg.norm(m, axis=(-2, -1))
    # a V that is not finite gives NaN here, which fails the comparison
    if not (rel >= -tol).all():
        raise UnphysicalCovariance(
            f"V - Sigma_y/2 has eigenvalue {rel.min():.6e} |V|_F < -{tol:.1e} |V|_F"
        )
    if key is not None:
        _last_passed = (key, rs_min)
    return rs_min


PURITY_TOL = 1e-9


def is_pure(v: CovarianceMatrix | np.ndarray) -> bool:
    """True when |16 det V - 1| <= PURITY_TOL.

    det V is the product of the squared symplectic eigenvalues, each at
    least 1/4 on a V that passes require_physical, so there 16 det V = 1
    exactly for a pure state.  The test is dimensionless and symplectic
    invariant, so the spread of V's scales does not enter it; it does
    not check physicality.
    """
    return abs(16.0 * float(np.linalg.det(np.asarray(v))) - 1.0) <= PURITY_TOL


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
