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

with Hm's two invariants as coefficients, b = lambda_1^2 + lambda_2^2 and
c = lambda_1^2 lambda_2^2 = det Hm, so both normal-mode frequencies have
closed forms.

The eigenvectors come from the physical variables Y = T X (T the Bopp
matrix).  Scaled by D^1/2 = diag(sqrt(m1) wt1, 1/sqrt(m1), sqrt(m2) wt2,
1/sqrt(m2)) they make H = (1/2)|D^1/2 Y|^2, with the real antisymmetric
commutator table A = D^1/2 K D^1/2, K = T (i Sigma_y) T^T.  A splits
into commuting self-dual and anti-self-dual halves A+- = (A +- *A)/2
(so(4) = su(2) + su(2)), A+-^2 = -|a+-|^2, so (1 - i s A+-/|a+-|)/2 are
projectors.  With +i on both halves (mode 1), or +i on A+ and -i on A-
(mode 2; |a+|^2 - |a-|^2 = Pf A >= 0), their product has rank one and a
column of it is the eigenvector of A for +i lambda, which gives the left
eigenvector u of Omega for -i lambda.  Rows u_i, normalized to
u (-Sigma_y) u^dagger = 1 with the first significant component positive
imaginary, and columns v_i = -Sigma_y u_i^dagger make a similarity
transformation Q that diagonalizes Omega and carries the metric needed
for ladder operators:

    Q^-1 Omega Q = Omega_D,
    Q^-1 (-Sigma_y) (Q^-1)^dagger = diag(1, -1, 1, -1).

The last identity is the statement [zeta_i, zeta_j^dagger] = delta_ij for
the mode operators zeta = Q^-1 X, i.e. the transformation is a (complex
form of a) symplectic one and the modes are genuine bosonic modes.

Both identities and the eigenvector relations are checked at assembly
time against Omega, built from the commutative side, and stored as
relative Frobenius residuals; SingularQ is raised when the largest one
exceeds the tolerance.  Q = -Sigma_y (Q^-1)^dagger Sigma_z is built as
the exact signed permutation of (Q^-1)^dagger that it is, so
Q^-1 Q - I = (L - Sigma_z) Sigma_z with L the left side of the ladder
identity: the ladder residual is |Q^-1 Q - I|_F / 2, and
Q Q^-1 - I = Q (Q^-1 Q - I) Q^-1 would only magnify it by up to the
condition number of Q.  The other residuals share W = Q^-1 Omega (rows
0 and 2 are u1 Omega, u2 Omega); |Omega_D|_F = sqrt(2 (l1^2 + l2^2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, EigenvectorResidualTooLarge, SingularQ
from .params import CommutativeParams, PhysicalParams

# Pauli y and its two-mode block version, ordering (x1,p1,x2,p2)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

SIGMA_Y = np.kron(np.eye(2), PAULI_Y)

# i Sigma_y is real; it is also the commutator table of X at hbar = 1:
# [X_a, X_b] = i (I_SIGMA_Y)_ab
I_SIGMA_Y = np.kron(np.eye(2), J2)

LADDER_METRIC = np.diag([1.0, -1.0, 1.0, -1.0])


@dataclass(frozen=True)
class SpectralData:
    """Closed-form spectrum of Omega.

    b, c    : coefficients of lambda^4 - b lambda^2 + c,
              b = lambda1^2 + lambda2^2 and c = lambda1^2 lambda2^2
    delta   : discriminant b^2 - 4c
    lambda1, lambda2 : normal-mode frequencies, lambda1 >= lambda2 > 0
    """

    b: float
    c: float
    delta: float
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
    used_fallback : always (False, False): one construction covers every
                    mode; bench/tracing.py counts eigenvectors from it
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


def build_hamiltonian(cp: CommutativeParams) -> np.ndarray:
    """Symmetric matrix Hm of the effective Hamiltonian, H = (1/2) X^T Hm X.

    Diagonal blocks are single-mode oscillators diag(mu w^2, 1/mu); the
    off-diagonal blocks carry the couplings 2 nu1 x2 p1 - 2 nu2 x1 p2.
    """
    return np.array(
        [
            [cp.mu1 * cp.w1**2, 0.0, 0.0, -2.0 * cp.nu2],
            [0.0, 1.0 / cp.mu1, 2.0 * cp.nu1, 0.0],
            [0.0, 2.0 * cp.nu1, cp.mu2 * cp.w2**2, 0.0],
            [-2.0 * cp.nu2, 0.0, 0.0, 1.0 / cp.mu2],
        ]
    )


def build_omega(hm: np.ndarray) -> np.ndarray:
    """Dynamical matrix Omega = i Sigma_y Hm (real)."""
    return I_SIGMA_Y @ hm


DEG_TOL = 1e-10


def mode_collision(b, delta):
    """Gate: the discriminant is below DEG_TOL b^2, so lambda1 ~ lambda2.

    Delta / b^2 is dimensionless, so the gate does not depend on the
    frequency scale.  Elementwise on arrays.
    """
    return delta < DEG_TOL * b * b


def zero_mode(b, lam1sq, lam2sq):
    """Gate: lambda2^2 / b is below DEG_TOL, a zero-frequency mode.

    It passes only where b > 0 and lambda1^2 is finite, and NaN fails it,
    so it also fires where finite inputs of far-apart scales overflow the
    spectrum in float64.  Elementwise on arrays.
    """
    return np.logical_not((lam2sq >= DEG_TOL * b) & (b > 0.0) & (lam1sq < np.inf))


def biquadratic(cp: CommutativeParams) -> tuple:
    """(b, c, delta) of lambda^4 - b lambda^2 + c, from Hm's invariants.

    b = w1^2 + w2^2 + 8 nu1 nu2 is a sum of non-negative terms, and
    c = det Hm is the product of the determinants of Hm's (x1, p2) and
    (p1, x2) blocks.  Elementwise: the fields of cp may be floats or
    arrays of one shape.
    """
    w1s = cp.w1 * cp.w1
    w2s = cp.w2 * cp.w2
    b = w1s + w2s + 8.0 * cp.nu1 * cp.nu2
    c = (cp.mu1 * w1s / cp.mu2 - 4.0 * cp.nu2 * cp.nu2) * (
        cp.mu2 * w2s / cp.mu1 - 4.0 * cp.nu1 * cp.nu1
    )
    return b, c, b * b - 4.0 * c


def squared_frequencies(b, c, delta) -> tuple:
    """(lambda1^2, lambda2^2), the second as c / lambda1^2 to avoid
    cancellation when c << b^2.  Elementwise."""
    lam1sq = 0.5 * (b + np.sqrt(delta))
    return lam1sq, c / lam1sq


def spectral_data(cp: CommutativeParams) -> SpectralData:
    """Closed-form normal-mode frequencies.

    Omega's spectrum is fixed by Hm's two invariants (see biquadratic):

        b = lambda1^2 + lambda2^2 = w1^2 + w2^2 + 8 nu1 nu2
        c = lambda1^2 lambda2^2 = det Hm
          = (mu1 w1^2 / mu2 - 4 nu2^2) (mu2 w2^2 / mu1 - 4 nu1^2)

    The cross term in b carries coefficient 8; see tests/test_symplectic.py
    for the oracles that pin b and c down.

    lambda2 is evaluated as sqrt(2c / (b + sqrt(delta))) to avoid
    cancellation when c << b^2.

    Raises DegenerateSpectrum when the discriminant falls below
    DEG_TOL * b^2 (mode collision lambda1 = lambda2) or lambda2^2 below
    DEG_TOL * b (zero-frequency mode), or when the spectrum overflows
    float64; see mode_collision and zero_mode.
    """
    with np.errstate(all="ignore"):  # the gates below reject what overflowed
        b, c, delta = biquadratic(cp)
        lam1sq, lam2sq = squared_frequencies(b, c, delta)
        collide = mode_collision(b, delta)
        zero = zero_mode(b, lam1sq, lam2sq)
    if collide:
        raise DegenerateSpectrum(
            f"normal modes collide: Delta = {delta:.6e} < {DEG_TOL * b * b:.6e}"
        )
    if zero:
        if not (b > 0.0 and math.isfinite(lam1sq) and math.isfinite(lam2sq)):
            raise DegenerateSpectrum(
                f"spectrum overflows float64: b = {b:.6e}, "
                f"lambda^2 = {lam1sq:.6e}, {lam2sq:.6e}"
            )
        raise DegenerateSpectrum(
            f"zero-frequency mode: lambda2^2 = {lam2sq:.6e} < {DEG_TOL * b:.6e}"
        )
    return SpectralData(
        b=float(b),
        c=float(c),
        delta=float(delta),
        lambda1=float(np.sqrt(lam1sq)),
        lambda2=float(np.sqrt(lam2sq)),
    )


_EYE = np.eye(4, dtype=complex)
# -Sigma_y M Sigma_z = _Q_SIGNS * M[_SWAP]: i Sigma_y is a signed row swap
_SWAP = [1, 0, 3, 2]
_Q_SIGNS = 1.0j * np.outer([1.0, -1.0, 1.0, -1.0], [1.0, -1.0, 1.0, -1.0])


def _mode_rows(p: PhysicalParams) -> np.ndarray:
    """Rows (u1, u2), u_i Omega = -i lambda_i u_i, from the so(4) split.

    A has four nonzero upper entries, so its Hodge dual swaps A01 with
    A23 and A02 with -A13; A+- are scaled to A+-^2 = -1 by the norm of
    their first rows (p1, p2), (q1, q2).  v is the largest-diagonal column
    of the Hermitian (1 - i A+)(1 - i s A-), u = v^T D^1/2 T, on floats.
    """
    hbar_e = 1.0 + p.theta * p.eta / 4.0
    rm = math.sqrt(p.m1 * p.m2)
    a01, a23 = p.wt1 * hbar_e, p.wt2 * hbar_e
    a02, a13 = rm * p.wt1 * p.wt2 * p.theta, p.eta / rm
    s01, s02, d01, d02 = a01 + a23, a02 - a13, a01 - a23, a02 + a13
    n_plus, n_minus = math.hypot(s01, s02), math.hypot(d01, d02)
    p1, p2, q1, q2 = s01 / n_plus, s02 / n_plus, d01 / n_minus, d02 / n_minus
    # A+ A- = [[-al, 0, 0, ga], [0, -be, -de, 0], [0, -de, be, 0], [ga, 0, 0, al]]
    al, be = p1 * q1 + p2 * q2, p1 * q1 - p2 * q2
    ga, de = p1 * q2 - p2 * q1, p1 * q2 + p2 * q1
    diag = [-al, -be, be, al]
    r1, r2 = math.sqrt(p.m1), math.sqrt(p.m2)
    d_half = (r1 * p.wt1, 1.0 / r1, r2 * p.wt2, 1.0 / r2)
    a, b = p.theta / 2.0, p.eta / 2.0  # the Bopp matrix T
    rows = []
    for s, j in ((1.0, diag.index(min(diag))), (-1.0, diag.index(max(diag)))):
        # A+ + s A- has upper entries k01, k02, k13, k23
        k01, k02, k13, k23 = p1 + s * q1, p2 + s * q2, s * q2 - p2, p1 - s * q1
        column = (
            (1.0 + s * al, 1j * k01, 1j * k02, -s * ga),
            (-1j * k01, 1.0 + s * be, s * de, 1j * k13),
            (-1j * k02, s * de, 1.0 - s * be, 1j * k23),
            (-s * ga, -1j * k13, -1j * k23, 1.0 - s * al),
        )[j]
        w0, w1, w2, w3 = (c * d for c, d in zip(column, d_half))
        row = [w0 - b * w3, w1 + a * w2, b * w1 + w2, w3 - a * w0]
        # u (-Sigma_y) u^dagger = -2 Im(u0 u1* + u2 u3*)
        norm = -2.0 * (row[0] * row[1].conjugate() + row[2] * row[3].conjugate()).imag
        if not 0.0 < norm < math.inf:
            raise EigenvectorResidualTooLarge(
                f"norm u (-Sigma_y) u^dagger = {norm:.6g} is not finite and > 0"
            )
        big = 1e-12 * max(map(abs, row))
        lead = next(c for c in row if abs(c) > big)
        phase = 1.0j * lead.conjugate() / (abs(lead) * math.sqrt(norm))
        rows.append([c * phase for c in row])
    return np.array(rows)


def _frobenius(m: np.ndarray) -> float:
    """Frobenius norm of m, as a Python float."""
    return math.sqrt(np.vdot(m, m).real)


@np.errstate(over="ignore")  # |Omega|_F = inf gives 0 residuals; V is then not finite
def assemble_eigensystem(
    p: PhysicalParams,
    cp: CommutativeParams,
    sd: SpectralData,
    *,
    tol: float = 1e-9,
) -> EigenSystem:
    """Build Q, Q^-1 and the diagonalized forms, verifying all identities.

    cp = to_commutative(p), sd = spectral_data(cp); the rows u_i come from
    p, Omega from cp.  Q^-1 is the stack of rows (u1, u1*, u2, u2*), not
    an inverse; the ladder residual certifies Q^-1 Q = I (see the module
    docstring).  SingularQ is raised when residuals["max"], the largest
    of the eigenvector, diagonalization and ladder residuals, exceeds tol
    (or is NaN).
    """
    omega = build_omega(build_hamiltonian(cp))
    u = _mode_rows(p)
    q_inv = np.array([u[0], u[0].conj(), u[1], u[1].conj()])
    # columns v1, v1*, v2, v2*: Q = -Sigma_y (Q^-1)^dagger Sigma_z, exactly
    q = _Q_SIGNS * q_inv[:, _SWAP].conj().T
    l1, l2 = sd.lambda1, sd.lambda2
    sigma = np.diag([l1, l1, l2, l2])
    omega_d = np.diag([-1.0j * l1, 1.0j * l1, -1.0j * l2, 1.0j * l2])
    w = q_inv @ omega  # rows 0 and 2 are u1 Omega and u2 Omega
    n_omega = _frobenius(omega)
    residuals = {
        "eigvec_1": _frobenius(w[0] + 1.0j * l1 * u[0]) / (_frobenius(u[0]) * n_omega),
        "eigvec_2": _frobenius(w[2] + 1.0j * l2 * u[1]) / (_frobenius(u[1]) * n_omega),
        "diagonalization": _frobenius(w @ q - omega_d)
        / math.sqrt(2.0 * (l1 * l1 + l2 * l2)),
        "ladder": _frobenius(q_inv @ q - _EYE) / 2.0,
    }
    # a NaN residual ranks above every number, so it fails the check
    worst = residuals["max"] = max(residuals.values(), key=lambda r: (r != r, r))
    if not worst <= tol:
        raise SingularQ(f"identity residual {worst:.3e} exceeds {tol:.1e}")
    return EigenSystem(
        u1=u[0],
        u2=u[1],
        v1=q[:, 0],
        v2=q[:, 2],
        q=q,
        q_inv=q_inv,
        omega_d=omega_d,
        sigma=sigma,
        residuals=residuals,
        used_fallback=(False, False),
    )
