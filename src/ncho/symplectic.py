"""Normal modes of the coupled quadratic Hamiltonian.

The effective commutative Hamiltonian is the quadratic form

    H = (1/2) X^T Hm X,    X = (x1, p1, x2, p2),

with Hm built from CommutativeParams.  Heisenberg evolution closes on X,
and the object that gets diagonalized is

    Omega = i Sigma_y Hm,

a real 4x4 matrix whose eigenvalues come in pairs -i lambda_1, +i lambda_1,
-i lambda_2, +i lambda_2 with lambda_1 >= lambda_2 > 0 for stable input.
The characteristic polynomial of Omega is biquadratic,

    lambda^4 - b lambda^2 + c = 0,

so both normal-mode frequencies have closed forms.  Left eigenvectors of
Omega also have closed forms; rows u_i (eigenvalue -i lambda_i) and
columns v_i = -Sigma_y u_i^dagger are assembled into a similarity
transformation Q that diagonalizes Omega and carries the metric
structure needed for ladder operators:

    Q^-1 Omega Q = Omega_D,
    Q^dagger      = -Sigma_z Q^-1 Sigma_y,
    Q^-1 (-Sigma_y) (Q^-1)^dagger = diag(1, -1, 1, -1).

The last identity is the statement [zeta_i, zeta_j^dagger] = delta_ij for
the mode operators zeta = Q^-1 X, i.e. the transformation is a (complex
form of a) symplectic one and the modes are genuine bosonic modes.

All identities are checked numerically at assembly time and stored as
relative Frobenius residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, EigenvectorResidualTooLarge, SingularQ
from .params import CommutativeParams

# Pauli matrices and their two-mode block versions, ordering (x1,p1,x2,p2)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
J4 = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])

SIGMA_Y = np.kron(np.eye(2), PAULI_Y)
SIGMA_Z = np.kron(np.eye(2), PAULI_Z)

# i Sigma_y is real; it is also the commutator table of X at hbar = 1:
# [X_a, X_b] = i (I_SIGMA_Y)_ab
I_SIGMA_Y = np.kron(np.eye(2), J2)

LADDER_METRIC = np.diag([1.0, -1.0, 1.0, -1.0])


@dataclass(frozen=True)
class QuadraticForm:
    """Symmetric matrix of the Hamiltonian, H = (1/2) X^T matrix X."""

    matrix: np.ndarray

    @property
    def mode1_block(self) -> np.ndarray:
        return self.matrix[:2, :2]

    @property
    def mode2_block(self) -> np.ndarray:
        return self.matrix[2:, 2:]

    @property
    def coupling_block(self) -> np.ndarray:
        """Lower-left block; couples (x1, p1) into (x2, p2)."""
        return self.matrix[2:, :2]


@dataclass(frozen=True)
class SpectralData:
    """Closed-form spectrum of Omega.

    b, c    : coefficients of lambda^4 - b lambda^2 + c
    delta   : discriminant b^2 - 4c
    wx2, wy2: squared frequencies of the decoupled comparison oscillators
    alpha0  : asymmetry ratio mu2 nu2 / (mu1 nu1) (1.0 when nu1 nu2 = 0)
    lambda1, lambda2 : normal-mode frequencies, lambda1 >= lambda2 > 0
    """

    b: float
    c: float
    delta: float
    wx2: float
    wy2: float
    alpha0: float
    lambda1: float
    lambda2: float


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvectors of Omega and the assembled transformation.

    u1, u2        : left row eigenvectors, u_i Omega = -i lambda_i u_i,
                    normalized to u_i (-Sigma_y) u_i^dagger = 1
    v1, v2        : right column eigenvectors v_i = -Sigma_y u_i^dagger
    q, q_inv      : Q = (v1, v1*, v2, v2*), Q^-1 = rows (u1, u1*, u2, u2*)
    omega_d       : diag(-i l1, +i l1, -i l2, +i l2)
    sigma         : diag(l1, l1, l2, l2)
    residuals     : relative Frobenius residuals of the defining identities
    used_fallback : per mode, True when the closed-form eigenvector was
                    unusable and the numeric null-space route was taken
    """

    u1: np.ndarray
    u2: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    q: np.ndarray
    q_inv: np.ndarray
    omega_d: np.ndarray
    sigma: np.ndarray
    residuals: dict
    used_fallback: tuple


def build_hamiltonian(cp: CommutativeParams) -> QuadraticForm:
    """Quadratic form of the effective Hamiltonian.

    Diagonal blocks are single-mode oscillators diag(mu w^2, 1/mu); the
    off-diagonal blocks carry the couplings 2 nu1 x2 p1 - 2 nu2 x1 p2.
    """
    m = np.array(
        [
            [cp.mu1 * cp.w1**2, 0.0, 0.0, -2.0 * cp.nu2],
            [0.0, 1.0 / cp.mu1, 2.0 * cp.nu1, 0.0],
            [0.0, 2.0 * cp.nu1, cp.mu2 * cp.w2**2, 0.0],
            [-2.0 * cp.nu2, 0.0, 0.0, 1.0 / cp.mu2],
        ]
    )
    return QuadraticForm(matrix=m)


def build_omega(qf: QuadraticForm) -> np.ndarray:
    """Dynamical matrix Omega = i Sigma_y Hm (real)."""
    return I_SIGMA_Y @ qf.matrix


def motion_matrix(qf: QuadraticForm) -> np.ndarray:
    """S = J4 Hm, the generator of dX/dt = S X in (x1,p1,x2,p2) ordering."""
    return J4 @ qf.matrix


def symplectic_residual(qf: QuadraticForm) -> float:
    """Relative size of S J4 + J4 S^T, zero for any symmetric Hm."""
    s = motion_matrix(qf)
    return float(
        np.linalg.norm(s @ J4 + J4 @ s.T) / max(np.linalg.norm(s), 1e-300)
    )


DEG_TOL = 1e-10


def mode_collision(b, delta, deg_tol: float = DEG_TOL):
    """Gate: the discriminant is below deg_tol b^2, so lambda1 ~ lambda2.

    Delta / b^2 is dimensionless, so the gate does not depend on the
    frequency scale.  Elementwise on arrays.
    """
    return delta < deg_tol * b * b


def zero_mode(b, lam2sq, deg_tol: float = DEG_TOL):
    """Gate: lambda2^2 / b is below deg_tol, a zero-frequency mode."""
    return lam2sq < deg_tol * b


def biquadratic(cp: CommutativeParams) -> tuple:
    """(b, c, delta, wx2, wy2, alpha0) of lambda^4 - b lambda^2 + c.

    Elementwise: the fields of cp may be floats or arrays of one shape.
    At theta = eta = 0 (nu1 = nu2 = 0) the modes decouple: alpha0 = 1,
    wx2 = w1^2, wy2 = w2^2.  Adding the 0/1 mask `dec` reaches those
    values without a branch and adds an exact zero at coupled points.
    """
    w1s = cp.w1 * cp.w1
    w2s = cp.w2 * cp.w2
    nunu = cp.nu1 * cp.nu2
    dec = nunu == 0.0
    wx2 = (
        4.0 * nunu * (cp.mu1 * w1s / (4.0 * cp.mu2 * (cp.nu2 * cp.nu2 + dec)) - 1.0)
        + dec * w1s
    )
    wy2 = (
        4.0 * nunu * (cp.mu2 * w2s / (4.0 * cp.mu1 * (cp.nu1 * cp.nu1 + dec)) - 1.0)
        + dec * w2s
    )
    alpha0 = (cp.mu2 * cp.nu2 + dec) / (cp.mu1 * cp.nu1 + dec)
    ra = np.sqrt(alpha0)
    s = ra + 1.0 / ra
    b = alpha0 * wx2 + wy2 / alpha0 + 4.0 * nunu * (s * s)
    c = wx2 * wy2
    return b, c, b * b - 4.0 * c, wx2, wy2, alpha0


def squared_frequencies(b, c, delta) -> tuple:
    """(lambda1^2, lambda2^2), the second as c / lambda1^2 to avoid
    cancellation when c << b^2.  Elementwise."""
    lam1sq = 0.5 * (b + np.sqrt(delta))
    return lam1sq, c / lam1sq


def spectral_data(cp: CommutativeParams, *, deg_tol: float = DEG_TOL) -> SpectralData:
    """Closed-form normal-mode frequencies.

    The biquadratic coefficients are written through the decoupled
    comparison frequencies and the asymmetry ratio alpha0:

        wx2 = 4 nu1 nu2 (mu1 w1^2 / (4 mu2 nu2^2) - 1)
        wy2 = 4 nu1 nu2 (mu2 w2^2 / (4 mu1 nu1^2) - 1)
        alpha0 = mu2 nu2 / (mu1 nu1)
        b = alpha0 wx2 + wy2/alpha0 + 4 nu1 nu2 (sqrt(alpha0) + 1/sqrt(alpha0))^2
        c = wx2 wy2

    which collapses to b = w1^2 + w2^2 + 8 nu1 nu2 and

        c = w1^2 w2^2 + 16 nu1^2 nu2^2 - 4 (mu1 w1^2 nu1^2/mu2 + mu2 w2^2 nu2^2/mu1)

    when expanded.  At theta = eta = 0 (nu1 = nu2 = 0) alpha0 = 1,
    wx2 = w1^2 and wy2 = w2^2.  The cross term in b carries coefficient 8;
    see tests/test_symplectic.py for the oracle that pins this down.

    lambda2 is evaluated as sqrt(2c / (b + sqrt(delta))) to avoid
    cancellation when c << b^2.

    Raises DegenerateSpectrum when the discriminant falls below
    deg_tol * b^2 (mode collision lambda1 = lambda2) or lambda2^2 below
    deg_tol * b (zero-frequency mode); see mode_collision and zero_mode.
    """
    b, c, delta, wx2, wy2, alpha0 = biquadratic(cp)
    if mode_collision(b, delta, deg_tol):
        raise DegenerateSpectrum(
            f"normal modes collide: Delta = {delta:.6e} < {deg_tol * b * b:.6e}"
        )
    lam1sq, lam2sq = squared_frequencies(b, c, delta)
    if zero_mode(b, lam2sq, deg_tol):
        raise DegenerateSpectrum(
            f"zero-frequency mode: lambda2^2 = {lam2sq:.6e} < {deg_tol * b:.6e}"
        )
    return SpectralData(
        b=float(b),
        c=float(c),
        delta=float(delta),
        wx2=float(wx2),
        wy2=float(wy2),
        alpha0=float(alpha0),
        lambda1=float(np.sqrt(lam1sq)),
        lambda2=float(np.sqrt(lam2sq)),
    )


def _fix_sign(u: np.ndarray) -> np.ndarray:
    """Flip the overall sign so the first significant component points up.

    "Up" means positive imaginary part, or positive real part for a
    component with negligible imaginary part.
    """
    amax = np.max(np.abs(u))
    for comp in u:
        if abs(comp) > 1e-12 * amax:
            if abs(comp.imag) > 1e-12 * abs(comp):
                return u if comp.imag > 0 else -u
            return u if comp.real > 0 else -u
    return u


def _eig_residual(u: np.ndarray, omega: np.ndarray, lam: float) -> float:
    r = u @ omega + 1.0j * lam * u
    return float(np.linalg.norm(r) / (np.linalg.norm(u) * np.linalg.norm(omega)))


def _left_eigenvector(
    cp: CommutativeParams,
    omega: np.ndarray,
    lam: float,
    tol: float,
) -> tuple:
    """Left eigenvector u with u Omega = -i lam u, normalized and sign fixed.

    Returns (u, used_fallback).  The closed form

        u ~ ( -i lam mu1 mu2 (lam^2 - w2^2 - 4 nu1 nu2),
              mu2 (lam^2 - w2^2) + 4 mu1 nu1^2,
              2 nu1 mu1 mu2 (lam^2 - 4 nu1 nu2) + 2 nu2 mu2^2 w2^2,
              2 i lam (mu1 nu1 + mu2 nu2) )

    degenerates to the zero vector for a mode that decouples from
    (x1, p1) (e.g. nu1 = nu2 = 0); the numeric null space of
    (Omega + i lam I)^T is used instead.  Normalization fixes
    u (-Sigma_y) u^dagger = 1, which is positive on this eigenvalue
    branch.
    """
    nunu = cp.nu1 * cp.nu2
    w2s = cp.w2**2
    lam2 = lam * lam
    u = np.array(
        [
            -1.0j * lam * cp.mu1 * cp.mu2 * (lam2 - w2s - 4.0 * nunu),
            cp.mu2 * (lam2 - w2s) + 4.0 * cp.mu1 * cp.nu1**2,
            2.0 * cp.nu1 * cp.mu1 * cp.mu2 * (lam2 - 4.0 * nunu)
            + 2.0 * cp.nu2 * cp.mu2**2 * w2s,
            2.0j * lam * (cp.mu1 * cp.nu1 + cp.mu2 * cp.nu2),
        ]
    )
    used_fallback = False
    nrm = np.linalg.norm(u)
    if nrm < 1e-300 or _eig_residual(u, omega, lam) > tol:
        # closed form is degenerate for this mode; null space of
        # (Omega + i lam)^T gives the row eigenvector
        _, _, vh = np.linalg.svd(omega.T + 1.0j * lam * np.eye(4))
        u = vh[-1].conj()
        used_fallback = True
        if _eig_residual(u, omega, lam) > tol:
            raise EigenvectorResidualTooLarge(
                f"residual for lambda = {lam:.6g} exceeds {tol:.1e} "
                "on both the closed-form and null-space routes"
            )
    n = float(np.real(u @ (-SIGMA_Y) @ u.conj()))
    if n <= 0.0:
        raise EigenvectorResidualTooLarge(
            f"norm u (-Sigma_y) u^dagger = {n:.6g} is not positive for "
            f"lambda = {lam:.6g}; wrong eigenvalue branch"
        )
    u = u / np.sqrt(n)
    return _fix_sign(u), used_fallback


def left_eigenvector(
    cp: CommutativeParams,
    sd: SpectralData,
    mode: int,
    *,
    tol: float = 1e-9,
) -> np.ndarray:
    """Normalized left eigenvector of Omega for mode 1 or 2."""
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode!r}")
    omega = build_omega(build_hamiltonian(cp))
    lam = sd.lambda1 if mode == 1 else sd.lambda2
    u, _ = _left_eigenvector(cp, omega, lam, tol)
    return u


def assemble_eigensystem(
    cp: CommutativeParams,
    sd: SpectralData | None = None,
    *,
    tol: float = 1e-9,
) -> EigenSystem:
    """Build Q, Q^-1 and the diagonalized forms, verifying all identities.

    Q^-1 is assembled from the eigenvector rows (u1, u1*, u2, u2*), not by
    matrix inversion; the residual of Q Q^-1 = I certifies it.  Raises
    SingularQ when that residual exceeds tol, and DegenerateSpectrum /
    EigenvectorResidualTooLarge propagate from the earlier stages.
    """
    if sd is None:
        sd = spectral_data(cp)
    qf = build_hamiltonian(cp)
    omega = build_omega(qf)
    u1, fb1 = _left_eigenvector(cp, omega, sd.lambda1, tol)
    u2, fb2 = _left_eigenvector(cp, omega, sd.lambda2, tol)
    v1 = -SIGMA_Y @ u1.conj()
    v2 = -SIGMA_Y @ u2.conj()
    q = np.column_stack([v1, v1.conj(), v2, v2.conj()])
    q_inv = np.vstack([u1, u1.conj(), u2, u2.conj()])
    omega_d = np.diag(
        [-1.0j * sd.lambda1, 1.0j * sd.lambda1, -1.0j * sd.lambda2, 1.0j * sd.lambda2]
    )
    sigma = np.diag([sd.lambda1, sd.lambda1, sd.lambda2, sd.lambda2])
    r_inv = float(np.linalg.norm(q @ q_inv - np.eye(4)) / 2.0)
    if r_inv > tol:
        raise SingularQ(f"|Q Q^-1 - I| = {r_inv:.3e} exceeds {tol:.1e}")
    residuals = {
        "eigvec_1": _eig_residual(u1, omega, sd.lambda1),
        "eigvec_2": _eig_residual(u2, omega, sd.lambda2),
        "inverse": r_inv,
        "diagonalization": float(
            np.linalg.norm(q_inv @ omega @ q - omega_d) / np.linalg.norm(omega_d)
        ),
        "dagger": float(
            np.linalg.norm(q.conj().T + SIGMA_Z @ q_inv @ SIGMA_Y)
            / np.linalg.norm(q)
        ),
        "ladder": float(
            np.linalg.norm(q_inv @ (-SIGMA_Y) @ q_inv.conj().T - LADDER_METRIC) / 2.0
        ),
        "symplectic": symplectic_residual(qf),
    }
    residuals["max"] = max(residuals.values())
    return EigenSystem(
        u1=u1,
        u2=u2,
        v1=v1,
        v2=v2,
        q=q,
        q_inv=q_inv,
        omega_d=omega_d,
        sigma=sigma,
        residuals=residuals,
        used_fallback=(fb1, fb2),
    )
