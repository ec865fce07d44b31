"""Normal modes of the coupled quadratic Hamiltonian.

The effective commutative Hamiltonian is H = (1/2) X^T Hm X on
X = (x1, p1, x2, p2), Hm built from CommutativeParams, and Heisenberg
evolution is generated by Omega = i Sigma_y Hm, with eigenvalues
-+i lambda_1, -+i lambda_2, lambda_1 >= lambda_2 > 0.

Everything here comes instead from the physical inputs, in a frame where
nothing cancels.  Scaled by D^1/2 = diag(sqrt(m1) wt1, 1/sqrt(m1),
sqrt(m2) wt2, 1/sqrt(m2)), the noncommutative variables Y = T X (T the
Bopp matrix) make H = (1/2)|D^1/2 Y|^2 and evolve under the real
antisymmetric table A = D^1/2 K D^1/2, K = T (i Sigma_y) T^T, similar to
Omega (Omega = M^-1 A M, M = D^1/2 T).  With h = 1 + theta eta/4,
k = 1 - theta eta/4, rho = sqrt(wt1 wt2), a1 a2 = sqrt(m1 wt1) sqrt(m2 wt2),
th = theta a1 a2 and et = eta / (a1 a2), A has the upper entries
A01 = wt1 h, A23 = wt2 h, A02 = rho th and A13 = rho et; its self-dual
and anti-self-dual halves A+- = (A +- *A)/2 commute (so(4) = su(2) + su(2))
with norms sigma/2 = (lambda1 + lambda2)/2 and delta/2 = (lambda1 -
lambda2)/2, and its Pfaffian is lambda1 lambda2 = (rho k)^2.  The two true
degeneracies are delta = 0 (theta = eta = 0 with wt1 = wt2) and k = 0
(theta eta = 4: the Bopp map is singular and lambda2 = 0).

For s = +1 (mode 1) or -1 (mode 2) the projectors (1 - i s A+-/|a+-|)/2
multiply to e e^dagger, e a unit eigenvector of A for +i lambda, and
u = e^T D^1/2 T / sqrt(lambda) is the left eigenvector of Omega for
-i lambda with u (-Sigma_y) u^dagger = 1.  The rows u_i and the columns
v_i = -Sigma_y u_i^dagger make Q with Q^-1 Omega Q = Omega_D and
Q^-1 (-Sigma_y) (Q^-1)^dagger = diag(1, -1, 1, -1): [zeta_i, zeta_j^dagger]
= delta_ij for zeta = Q^-1 X, genuine bosonic modes.  The identities are
checked in the scaled frame, on A / sigma and the unit rows
P = (e1, e1*, e2, e2*), of order one at any input scale: A e_i =
i lambda_i e_i, P A P^dagger = Omega_D (Q^-1 Omega Q = Omega_D up to the
scaling by sqrt(lambda)) and P P^dagger = 1 (with the eigenvector
relations, the ladder identity).
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, SingularQ
from .params import CommutativeParams, PhysicalParams

# Pauli y in each mode block, ordering (x1,p1,x2,p2)
SIGMA_Y = np.kron(np.eye(2), [[0.0, -1.0j], [1.0j, 0.0]])

# i Sigma_y is real; it is also the commutator table of X at hbar = 1:
# [X_a, X_b] = i (I_SIGMA_Y)_ab
I_SIGMA_Y = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])

# what closed_forms gives, each a float or an array of the inputs' shape:
# A01, A23, A02, A13, h, k, sigma, delta, the two frequencies, the
# ground-state coefficients l11, l22 and y = 2 r sqrt(l11 l22), the signed
# correlation r and s = r^2 = y^2 / (4 l11 l22)
ClosedForms = namedtuple(
    "ClosedForms", "a01 a23 a02 a13 h k sigma delta lambda1 lambda2 l11 l22 y r s"
)

_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant


def _bopp_defect(theta, eta):
    """k = 1 - theta eta / 4 within one rounding (theta eta exactly as
    t + err, Dekker's product of Veltkamp halves).  Elementwise; past
    2^996 (~6.7e299) the split overflows and k is NaN (out of range)."""
    t = theta * eta
    c = _SPLIT * theta
    h1 = c - (c - theta)
    c = _SPLIT * eta
    h2 = c - (c - eta)
    l1, l2 = theta - h1, eta - h2
    err = ((h1 * h2 - t) + h1 * l2 + l1 * h2) + l1 * l2
    return (1.0 - 0.25 * t) - 0.25 * err


def closed_forms(p: PhysicalParams) -> ClosedForms:
    """The spectrum and ground state of p (module docstring's notation):

        sigma   = hypot((wt1 + wt2) h, rho |th - et|)
        delta   = hypot((wt1 - wt2) h, rho (th + et))
        lambda1 = (sigma + delta) / 2,     lambda2 = (rho k / lambda1) rho k
        l11     = q1^2 = 2 m1 wt1 sigma / ((wt1 + wt2)(4 + th^2)), l22 likewise
        q1      = (a1 / hypot(1, th / 2)) sqrt(sigma) / sqrt(2 (wt1 + wt2))
        y       = 2 r q1 q2,  s = r^2,  r = (et - th)(wt1 - wt2) / (2 sigma)

    Past th - et and wt1 - wt2, the factors whose zeros are the separable
    surfaces, each is a product, quotient or hypot: a few ulps at any
    scale, with no factor past float64 where the value is not (rho th is
    theta rho a1 a2, rho et is eta / (sqrt(m1) sqrt(m2))).  Floats and
    float64 arrays of one shape go through the same numpy calls, so a scan
    row equals its point bit for bit.  Nothing is checked (spectral_data
    gates), and callers run it under np.errstate.
    """
    k = _bopp_defect(p.theta, p.eta)
    h = 2.0 - k
    r1, r2, v1, v2 = np.sqrt(p.m1), np.sqrt(p.m2), np.sqrt(p.wt1), np.sqrt(p.wt2)
    rho, a1, a2 = v1 * v2, r1 * v1, r2 * v2
    th = p.theta * (a1 * a2)
    a02, a13 = rho * th, p.eta / (r1 * r2)
    wsum, wdif = p.wt1 + p.wt2, p.wt1 - p.wt2
    sigma = np.hypot(wsum * h, abs(a02 - a13))
    delta = np.hypot(wdif * h, a02 + a13)
    rk = rho * k
    lam1 = 0.5 * sigma + 0.5 * delta
    g = np.sqrt(sigma) / np.sqrt(2.0 * wsum) / np.hypot(1.0, 0.5 * th)
    q1, q2 = a1 * g, a2 * g
    r = (a13 - a02) / sigma * (0.5 * wdif / rho)
    return ClosedForms(
        p.wt1 * h, p.wt2 * h, a02, a13, h, k, sigma, delta,
        lam1, rk / lam1 * rk, q1 * q1, q2 * q2, 2.0 * r * (q1 * q2), r, r * r,
    )


# a collision below this delta/sigma: Delta/b^2 < 1e-10 restated, as
# Delta/b^2 ~ 4 delta^2/sigma^2 (b = lambda1^2 + lambda2^2, Delta = (sigma delta)^2)
COLLISION_TOL = math.sqrt(1e-10) / 2.0
# the singular Bopp map at or below this |k|/h: c = 4 units u = 2^-52.  k
# is exact to one rounding, and decimal inputs on theta eta = 4 round to
# doubles with |k|/h up to ~u/2
SINGULAR_TOL = 4.0 * 2.0**-52
# a pure V has 16 det V = 1; gaussian.is_pure accepts |16 det V - 1| up to this
PURITY_TOL = 1e-9
# the float64 V of the ground state is pure only to ~4 u (1 + s) (3.5 u (1 + s)
# at worst on 2,440 probe points with s >= 1e3), beyond PURITY_TOL / 2 past
# this s: no stage that reads V (purity, the Wigner norm, det V1' = 1/4) holds
CORRELATION_MAX = PURITY_TOL / (8.0 * 2.0**-52)
MOMENTS = ("<x1^2>", "<p1^2>", "<x2^2>", "<p2^2>", "<x1 p2>", "<p1 x2>")


def moments(l11, l22, y) -> tuple:
    """V's six nonzero moments, named by MOMENTS, from the ground state's
    coefficients (float64 scalars or arrays): <x_i^2> = 1/(4 L_ii),
    <x1 p2> = -y/(4 L11), <p1 x2> = -y/(4 L22), <p1^2> = L11 - y <p1 x2>
    = L11 (1 + s) and <p2^2> = L22 - y <x1 p2>: a quotient, or a sum of
    two terms no larger than it, so none leaves float64 where it does not."""
    x1p2, p1x2 = -0.25 * y / l11, -0.25 * y / l22
    return 0.25 / l11, l11 - y * p1x2, 0.25 / l22, l22 - y * x1p2, x1p2, p1x2


def _ranged(f: ClosedForms) -> list:
    """(name, value, inside) of what must be a float64 number: the
    frequencies and V's moments, by the function covariance_matrix reads,
    so V is one past the gates.  inside is elementwise: finite, and > 0
    but for the cross moments; NaN fails."""
    values = (f.lambda1, f.lambda2) + moments(f.l11, f.l22, f.y)
    return [(n, v, abs(v) < np.inf if n in MOMENTS[4:] else (v > 0.0) & (v < np.inf))
            for n, v in zip(("lambda1", "lambda2") + MOMENTS, values)]


def gates(f: ClosedForms) -> tuple:
    """(name, fires, detail) of the four gates of spectral_data, in order:
    fires is elementwise (a NaN fires the range gate alone), detail()
    gives the gate's value at a float point.  lambda1 bounds sigma and
    delta, so the range gate covers every output that a later stage reads.
    Each gate compares a ratio with its tolerance, never the tolerance
    times a scale, which underflows at subnormal sigma."""
    ranged = _ranged(f)
    inside = True
    for _, _, ok in ranged:
        inside = inside & ok
    return (
        ("singular Bopp map (theta eta = 4)", abs(f.k) / f.h <= SINGULAR_TOL,
         lambda: f"|k|/h = {abs(f.k) / f.h:.6e} <= {SINGULAR_TOL:.6e}"),
        ("out of float64 range", np.logical_not(inside),
         lambda: "%s = %r" % next((n, float(v)) for n, v, ok in ranged if not ok)),
        ("normal modes collide", f.delta / f.sigma < COLLISION_TOL,
         lambda: f"delta/sigma = {f.delta / f.sigma:.6e} < {COLLISION_TOL:.6e}"),
        ("correlation past float64 resolution", f.s > CORRELATION_MAX,
         lambda: f"s = {f.s:.6e} > {CORRELATION_MAX:.6e}"),
    )


def degenerate(f: ClosedForms):
    """Whether any gate of spectral_data fires.  Elementwise."""
    out = False
    for _, fires, _ in gates(f):
        out = out | fires
    return out


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvectors of Omega, verified.

    q_inv         : Q^-1 = rows (u1, u1*, u2, u2*), u_i the left row
                    eigenvectors, u_i Omega = -i lambda_i u_i, normalized
                    to u_i (-Sigma_y) u_i^dagger = 1: u1 = q_inv[0] and
                    u2 = q_inv[2]; Q itself is -Sigma_y (Q^-1)^dagger Sigma_z
    residuals     : relative Frobenius residuals of the defining identities
    used_fallback : always (False, False): one construction covers every
                    mode; bench/tracing.py counts eigenvectors from it
    """

    q_inv: np.ndarray
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


def spectral_data(cp: CommutativeParams) -> ClosedForms:
    """closed_forms(p) of cp = to_commutative(p), past the gates: the
    spectrum lambda1 >= lambda2 > 0 and the ground state's coefficients,
    as float64 scalars, for the later stages to read.

    Raises DegenerateSpectrum at the singular Bopp map, where a frequency
    or a moment of V leaves float64, where the modes collide and where the
    correlation s passes CORRELATION_MAX, gated in that order; the message
    names the gate and its value.  A CommutativeParams built by hand does
    not carry p and raises TypeError.
    """
    p = cp.physical
    if p is None:
        raise TypeError("spectral_data needs the record of to_commutative(p), which keeps p")
    with np.errstate(all="ignore"):  # the gates reject what overflowed
        f = closed_forms(p)
        for name, fires, detail in gates(f):
            if fires:
                raise DegenerateSpectrum(f"{name}: {detail()}")
    return f


_EYE = np.eye(4, dtype=complex)


def _mode_rows(p: PhysicalParams, f: ClosedForms) -> np.ndarray:
    """Rows (u1, u1*, u2, u2*, e1, e1*, e2, e2*): u_i Omega = -i lambda_i u_i,
    A e_i = i lambda_i e_i, |e_i| = 1; on floats, DegenerateSpectrum if u
    leaves float64.  A+- scaled to A+-^2 = -1 have first rows p = (A01 +
    A23, A02 - A13) / sigma, q = (A01 - A23, A02 + A13) / delta, and
    (1 - i A+)(1 - i s A-) = 4 e e^dagger is quadratic in g = p + s q and
    h = p - s q.  Of p1 +- q1 one sums terms of one sign, the other is gap /
    (that one), gap = p1^2 - q1^2 = q2^2 - p2^2 >= 0 in factored form; so
    for p2 +- q2: nothing cancels where lambda2 << lambda1 makes p ~ q.  e
    is the largest-diagonal column over 2 sqrt(its diagonal entry); e and u
    take the phase that makes u's first significant entry positive imaginary.
    """
    sigma, delta, l1, l2 = map(float, (f.sigma, f.delta, f.lambda1, f.lambda2))
    a01, a23, a02, a13 = (float(x) / sigma for x in (f.a01, f.a23, f.a02, f.a13))
    p1, p2 = a01 + a23, a02 - a13
    q1, q2 = float(f.h) * (p.wt1 - p.wt2) / delta, float(f.a02 + f.a13) / delta
    gap = 2.0 * (min(a01, a23) * q2 + abs(q1) * min(a02, a13)) * (p1 * q2 + abs(q1 * p2))
    s1, d1, s2, d2 = p1 + q1, p1 - q1, p2 + q2, p2 - q2  # one of each pair cancels
    plus1, minus1 = (s1, gap / s1) if q1 >= 0.0 else (gap / d1, d1)
    plus2, minus2 = (s2, -gap / s2 if s2 else 0.0) if p2 >= 0.0 else (-gap / d2, d2)
    r1, r2 = math.sqrt(p.m1), math.sqrt(p.m2)
    d_half = (r1 * p.wt1, 1.0 / r1, r2 * p.wt2, 1.0 / r2)
    a, b = p.theta / 2.0, p.eta / 2.0  # the Bopp matrix T
    us, es = [], []
    plus, minus = (plus1, plus2), (minus1, minus2)
    for (g1, g2), (h1, h2), lam in ((plus, minus, l1), (minus, plus, l2)):
        cross, dot = 0.5 * (h1 * g2 - g1 * h2), 0.5 * (g1 * g2 - h1 * h2)
        diag = [0.5 * (g1 * g1 + g2 * g2), 0.5 * (g1 * g1 + h2 * h2),
                0.5 * (h1 * h1 + g2 * g2), 0.5 * (h1 * h1 + h2 * h2)]
        j = diag.index(max(diag))
        column = (
            (diag[0], 1j * g1, 1j * g2, -cross),
            (-1j * g1, diag[1], dot, -1j * h2),
            (-1j * g2, dot, diag[2], 1j * h1),
            (-cross, 1j * h2, -1j * h1, diag[3]),
        )[j]
        w0, w1, w2, w3 = (c * d for c, d in zip(column, d_half))
        row = [w0 - b * w3, w1 + a * w2, b * w1 + w2, w3 - a * w0]
        try:
            size = [abs(c) for c in row]
        except OverflowError:  # a finite entry past 1.8e308 in modulus
            size = [math.inf]
        top = max(size)
        if not 0.0 < top < math.inf:
            raise DegenerateSpectrum("out of float64 range: eigenvector rows u")
        i = next(i for i, r in enumerate(size) if r > 1e-12 * top)
        unit = 0.5j * row[i].conjugate() / (size[i] * math.sqrt(diag[j]))
        e = [c * unit for c in column]
        unit /= math.sqrt(lam)
        u = [c * unit for c in row]
        us += [u, [c.conjugate() for c in u]]
        es += [e, [c.conjugate() for c in e]]
    if not all(map(cmath.isfinite, us[0] + us[2])):
        raise DegenerateSpectrum("out of float64 range: eigenvector rows u")
    return np.array(us + es)


def _frobenius(m: np.ndarray) -> float:
    """Frobenius norm of m, as a Python float."""
    return math.sqrt(np.vdot(m, m).real)


def assemble_eigensystem(
    p: PhysicalParams,
    f: ClosedForms,
    *,
    tol: float = 1e-9,
) -> EigenSystem:
    """Build Q^-1 (the rows u1, u1*, u2, u2*) for f = spectral_data(
    to_commutative(p)), verifying the identities on A / sigma and
    P = (e1, e1*, e2, e2*): eigvec_i = |A e_i - i lambda_i e_i| / (|A| |e_i|),
    diagonalization = |P A P^dagger - Omega_D| / |Omega_D|, ladder =
    |P P^dagger - 1| / 2 (Frobenius norms), Omega_D = diag(-i l1, +i l1,
    -i l2, +i l2).  SingularQ when residuals["max"] exceeds tol or is NaN.
    """
    rows = _mode_rows(p, f)
    q_inv, pe = rows[:4], rows[4:]
    scale = float(f.sigma)
    s1, s2 = float(f.lambda1) / scale, float(f.lambda2) / scale
    a01, a23, a02, a13 = (float(x) / scale for x in (f.a01, f.a23, f.a02, f.a13))
    a = np.array([[0, a01, a02, 0], [-a01, 0, 0, a13], [-a02, 0, 0, a23], [0, -a13, -a23, 0]])
    pe_h = pe.conj().T
    w = pe @ a  # rows 0 and 2 are e1^T A = -i l1 e1^T and e2^T A, over sigma
    n_a = _frobenius(a)
    omega_d = np.diag([-1.0j * s1, 1.0j * s1, -1.0j * s2, 1.0j * s2])  # over sigma
    residuals = {
        "eigvec_1": _frobenius(w[0] + 1.0j * s1 * pe[0]) / (_frobenius(pe[0]) * n_a),
        "eigvec_2": _frobenius(w[2] + 1.0j * s2 * pe[2]) / (_frobenius(pe[2]) * n_a),
        "diagonalization": _frobenius(w @ pe_h - omega_d) / math.sqrt(2.0 * (s1 * s1 + s2 * s2)),
        "ladder": _frobenius(pe @ pe_h - _EYE) / 2.0,
    }
    # a NaN residual ranks above every number, so it fails the check
    worst = residuals["max"] = max(residuals.values(), key=lambda r: (r != r, r))
    if not worst <= tol:
        raise SingularQ(f"identity residual {worst:.3e} exceeds {tol:.1e}")
    return EigenSystem(q_inv, residuals, (False, False))
