"""Ground state of the coupled model and its covariance matrix.

The ground state is a correlated Gaussian

    psi0(x1, x2) = A0 exp(-L11 x1^2 - L22 x2^2 - i y x1 x2),

with real L11, L22 > 0 and a purely imaginary cross coefficient
L12 = i y.  In the notation of symplectic (a_i = sqrt(m_i wt_i),
th = theta a1 a2, et = eta / (a1 a2)) the coefficients factor as

    L11 = 2 m1 wt1 sigma / ((wt1 + wt2)(4 + th^2)),
    L22 = 2 m2 wt2 sigma / ((wt1 + wt2)(4 + th^2)),
    y   = 2 a1 a2 (et - th)(wt1 - wt2) / ((wt1 + wt2)(4 + th^2)),

with sigma = lambda1 + lambda2 = 2 E0; symplectic.closed_forms
evaluates them.  y is the single quantity that carries all the mode-mode
correlation, and it vanishes exactly on its two factors: on the
constraint th = et, i.e. theta m1 wt1 = eta / (m2 wt2) (theta = eta = 0
included), and at equal frequencies wt1 = wt2.  There the state is a
product of two squeezed vacua.

Covariances of (x1, p1, x2, p2) in this state are rational in the
coefficients (symplectic.moments); the only nonzero cross moments are
<x1 p2> and <p1 x2>, and <p_i^2> = L_ii (1 + s), s = y^2 / (4 L11 L22).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnphysicalCovariance
from .params import CommutativeParams
from .symplectic import PURITY_TOL, SIGMA_Y, ClosedForms, moments, spectral_data


@dataclass(frozen=True)
class GroundState:
    """Closed-form exponent coefficients of the Gaussian ground state.

    lambda11, lambda22 : real quadratic coefficients (> 0)
    lambda12_im        : y, the imaginary part of the cross coefficient
    a0_mod             : |A0| = (4 lambda11 lambda22 / pi^2)^(1/4)
    energy0            : ground energy sigma / 2 = (lambda1 + lambda2) / 2
    """

    lambda11: float
    lambda22: float
    lambda12_im: float
    a0_mod: float
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


def ground_state(cp: CommutativeParams, f: ClosedForms | None = None) -> GroundState:
    """Exponent coefficients of psi0, read from the closed forms f
    (default spectral_data(cp), cp = to_commutative(p)); they solve the
    stationary Schroedinger equation with energy sigma / 2 (checked in
    tests/test_gaussian.py).  Raises only what spectral_data raises.
    """
    if f is None:
        f = spectral_data(cp)
    l11, l22 = float(f.l11), float(f.l22)
    # |A0| = (4 l11 l22 / pi^2)^(1/4), with no product that can overflow
    a0 = math.sqrt(2.0 / math.pi * math.sqrt(l11) * math.sqrt(l22))
    return GroundState(l11, l22, float(f.y), a0, float(0.5 * f.sigma))


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
def covariance_matrix(l11, l22, y) -> np.ndarray:
    """The 4x4 covariance of covariance(), stacked over leading axes when
    the coefficients are arrays; its entries are symplectic.moments.

    A moment that under- or overflows float64 comes out 0 or not finite
    (never ZeroDivisionError or a warning); the range gate of
    symplectic.gates refuses the points where one does, by the same
    function.
    """
    x1, p1, x2, p2, x1p2, p1x2 = moments(np.float64(l11), np.float64(l22), y)
    v = np.zeros(np.shape(x1) + (4, 4))
    t = v.T  # t[j, i] is V_ij over any leading axes; V is symmetric
    t[0, 0], t[1, 1], t[2, 2], t[3, 3] = x1, p1, x2, p2
    t[0, 3] = t[3, 0] = x1p2
    t[1, 2] = t[2, 1] = p1x2
    return v


def covariance(gs: GroundState) -> CovarianceMatrix:
    """Second moments of (x1, p1, x2, p2) in the ground state.

    <x1^2> = 1/(4 L11)          <p1^2> = L11 - y <p1 x2> = L11 (1 + s)
    <x2^2> = 1/(4 L22)          <p2^2> = L22 - y <x1 p2> = L22 (1 + s)
    <x1 p2> = -y/(4 L11)        <p1 x2> = -y/(4 L22)

    with s = y^2 / (4 L11 L22) and all other cross moments zero.
    Symmetrized ordering is implied; first moments vanish.  The state is
    pure, so V is physical by construction, and past the spectral gates
    every moment is a float64 number (symplectic.gates).
    """
    return CovarianceMatrix(covariance_matrix(gs.lambda11, gs.lambda22, gs.lambda12_im))


def rs_min_eigenvalue(v: CovarianceMatrix | np.ndarray):
    """Smallest eigenvalue of the uncertainty matrix V - Sigma_y / 2.

    The canonical commutators give [X_a, X_b] = -i (Sigma_y)_ab at
    hbar = 1, so the Robertson-Schroedinger condition reads
    V - Sigma_y/2 >= 0 (the matrix is Hermitian).  require_physical
    accepts values >= -RS_TOL |V|_F.  A stack of matrices (leading axes)
    gives one value per matrix.
    """
    m = np.asarray(v)
    # eigvalsh sorts ascending: entry 0 of the last axis is the smallest
    return np.linalg.eigvalsh(m - 0.5 * SIGMA_Y).T[0]


RS_TOL = 1e-10


def require_physical(v: CovarianceMatrix | np.ndarray):
    """Raise UnphysicalCovariance unless V satisfies Robertson-Schroedinger.

    Meant for a caller's V and for scan's stacks; covariance() builds a
    V that is physical by construction.  The smallest eigenvalue of
    V - Sigma_y/2 must reach -RS_TOL |V|_F: the bound is relative, because
    rounding in V scales with its size; |V|_F is one hypot reduction over
    V's entries, so no square overflows, and V = 0 fails.  Each matrix of a
    stack is held to its own bound; the error reports the worst eigenvalue
    relative to |V|_F.  Returns rs_min_eigenvalue(V).
    """
    m = np.asarray(v)
    try:
        rs_min = rs_min_eigenvalue(m)
    except np.linalg.LinAlgError:
        raise UnphysicalCovariance("V is not finite") from None
    norm = np.hypot.reduce(m.reshape(*m.shape[:-2], 16), axis=-1)  # |V|_F; no square overflows
    if not (rs_min >= -RS_TOL * norm).all():  # a NaN (V not finite) fails too
        with np.errstate(divide="ignore", invalid="ignore"):  # V = 0 or not finite
            rel = (rs_min / norm).min()
        raise UnphysicalCovariance(
            f"V - Sigma_y/2 has eigenvalue {rel:.6e} |V|_F < -{RS_TOL:.1e} |V|_F"
        )
    return rs_min


def is_pure(v: CovarianceMatrix | np.ndarray) -> bool:
    """True when |16 det V - 1| <= PURITY_TOL.

    det V is the product of the squared symplectic eigenvalues, each at
    least 1/4 on a V that passes require_physical, so there 16 det V = 1
    exactly for a pure state.  The test is dimensionless and symplectic
    invariant, so the spread of V's scales does not enter it; it reads
    expm1(log 16 det V) from slogdet, so that no determinant under- or
    overflows, and it does not check physicality.
    """
    sign, logdet = np.linalg.slogdet(np.asarray(v))
    x = float(logdet) + math.log(16.0)  # log(16 det V); math.expm1 overflows past 709
    return bool(sign > 0.0) and abs(x) < 1.0 and abs(math.expm1(x)) <= PURITY_TOL


def variance_products(gs: GroundState) -> tuple:
    """(dx1 dp1, dx2 dp2); both equal (1/2) sqrt(1 + s), s = y^2 / (4 L11 L22),
    taken as hypot(1, y / (2 sqrt(L11) sqrt(L22))) / 2 so that no product
    leaves float64.  Equality of the two products and the value 1/2 at
    y = 0 reflect that y is the only source of single-mode mixedness.
    """
    r = gs.lambda12_im / (2.0 * math.sqrt(gs.lambda11) * math.sqrt(gs.lambda22))
    q = 0.5 * math.hypot(1.0, r)
    return (q, q)


def energy(f: ClosedForms, n1: int = 0, n2: int = 0) -> float:
    """Spectrum E(n1, n2) = (n1 + 1/2) lambda1 + (n2 + 1/2) lambda2 of
    f = spectral_data(cp)."""
    if n1 < 0 or n2 < 0:
        raise ValueError(f"quantum numbers must be >= 0, got ({n1}, {n2})")
    return float((n1 + 0.5) * f.lambda1 + (n2 + 0.5) * f.lambda2)
