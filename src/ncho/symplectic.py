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
import functools
import math
import operator
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, SingularQ
from .params import ARRAYS, CommutativeParams, PhysicalParams, point

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


def _forms(m1, m2, wt1, wt2, theta, eta, ns) -> tuple:
    """The fields of ClosedForms; sqrt and the three hypots come from ns."""
    k = _bopp_defect(theta, eta)
    h = 2.0 - k
    r1, r2, v1, v2 = ns.sqrt(m1), ns.sqrt(m2), ns.sqrt(wt1), ns.sqrt(wt2)
    rho, a1, a2 = v1 * v2, r1 * v1, r2 * v2
    th = theta * (a1 * a2)
    a02, a13 = rho * th, eta / (r1 * r2)
    wsum, wdif = wt1 + wt2, wt1 - wt2
    sigma, delta, hth = ns.hypot((wsum * h, wdif * h, 1.0), (abs(a02 - a13), a02 + a13, 0.5 * th))
    rk = rho * k
    lam1 = 0.5 * sigma + 0.5 * delta
    g = ns.sqrt(sigma) / ns.sqrt(2.0 * wsum) / hth
    q1, q2 = a1 * g, a2 * g
    r = (a13 - a02) / sigma * (0.5 * wdif / rho)
    return (wt1 * h, wt2 * h, a02, a13, h, k, sigma, delta, lam1, rk / lam1 * rk,
            q1 * q1, q2 * q2, 2.0 * r * (q1 * q2), r, r * r)


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
    theta rho a1 a2, rho et is eta / (sqrt(m1) sqrt(m2))).  The fields
    of p are float64 arrays of one shape (or scalars), under the caller's
    np.errstate; spectral_data runs the same text (_forms) on a point's
    Python floats, equal to its entry in an array bit for bit.  Nothing
    is checked (spectral_data gates).
    """
    return ClosedForms(*_forms(p.m1, p.m2, p.wt1, p.wt2, p.theta, p.eta, ARRAYS))


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
RANGED = ("lambda1", "lambda2") + MOMENTS


def moments(l11, l22, y) -> tuple:
    """V's six nonzero moments, named by MOMENTS, from the ground state's
    coefficients (float64 scalars or arrays): <x_i^2> = 1/(4 L_ii),
    <x1 p2> = -y/(4 L11), <p1 x2> = -y/(4 L22), <p1^2> = L11 - y <p1 x2>
    = L11 (1 + s) and <p2^2> = L22 - y <x1 p2>: a quotient, or a sum of
    two terms no larger than it, so none leaves float64 where it does not."""
    x1p2, p1x2 = -0.25 * y / l11, -0.25 * y / l22
    return 0.25 / l11, l11 - y * p1x2, 0.25 / l22, l22 - y * x1p2, x1p2, p1x2


def gates(f: ClosedForms) -> tuple:
    """(name, fires, detail) of the four gates of spectral_data, in order:
    fires is elementwise (a NaN fires the range gate alone), detail()
    gives the gate's value at a float point.  The range gate holds the
    frequencies and V's moments (by covariance_matrix's function) finite,
    and > 0 but the cross moments; lambda1 bounds sigma and delta, so it
    covers every output a later stage reads.  Each gate compares a ratio
    with its tolerance, never the tolerance times a scale, which
    underflows at subnormal sigma."""
    values = (f.lambda1, f.lambda2) + moments(f.l11, f.l22, f.y)
    ok = [(v > 0.0) & (v < math.inf) for v in values[:6]] + [abs(v) < math.inf for v in values[6:]]
    return (
        ("singular Bopp map (theta eta = 4)", abs(f.k) / f.h <= SINGULAR_TOL,
         lambda: f"|k|/h = {abs(f.k) / f.h:.6e} <= {SINGULAR_TOL:.6e}"),
        ("out of float64 range", functools.reduce(operator.and_, ok) ^ True,  # not all ok
         lambda: "%s = %r" % next((n, float(v)) for n, v, o in zip(RANGED, values, ok) if not o)),
        ("normal modes collide", f.delta / f.sigma < COLLISION_TOL,
         lambda: f"delta/sigma = {f.delta / f.sigma:.6e} < {COLLISION_TOL:.6e}"),
        ("correlation past float64 resolution", f.s > CORRELATION_MAX,
         lambda: f"s = {f.s:.6e} > {CORRELATION_MAX:.6e}"),
    )


def degenerate(f: ClosedForms):
    """Whether any gate of spectral_data fires.  Elementwise."""
    return functools.reduce(operator.or_, [fires for _, fires, _ in gates(f)])


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


def _gated_forms(*x) -> ClosedForms:
    """_forms(*x) as a ClosedForms, past the gates of spectral_data."""
    f = ClosedForms(*_forms(*x))
    for name, fires, detail in gates(f):
        if fires:
            raise DegenerateSpectrum(f"{name}: {detail()}")
    return f


def spectral_data(cp: CommutativeParams) -> ClosedForms:
    """closed_forms(p) of cp = to_commutative(p), past the gates: the
    spectrum lambda1 >= lambda2 > 0 and the ground state's coefficients,
    as Python floats, for the later stages to read.

    Raises DegenerateSpectrum at the singular Bopp map, where a frequency
    or a moment of V leaves float64, where the modes collide and where the
    correlation s passes CORRELATION_MAX, gated in that order; the message
    names the gate and its value.  The forms and the gates run together on
    Python floats, or where a division there meets an underflowed 0, both
    on float64 scalars (params.point): the fields and the gate are those of
    p's row in a scan.  A CommutativeParams built by hand does not carry p
    and raises TypeError.
    """
    p = cp.physical
    if p is None:
        raise TypeError("spectral_data needs the record of to_commutative(p), which keeps p")
    return ClosedForms(*point(_gated_forms, p))


def _mode_rows(p: PhysicalParams, f: ClosedForms) -> tuple:
    """(Q^-1, ((x1, y1), (x2, y2))): Q^-1 has the rows (u1, u1*, u2, u2*),
    u_i Omega = -i lambda_i u_i, and e_i = x_i + i y_i (x_i, y_i four
    floats) are the unit rows, A e_i = i lambda_i e_i.  On floats;
    DegenerateSpectrum if u leaves float64.  A+- scaled to A+-^2 = -1 have
    first rows p = (A01 + A23, A02 - A13) / sigma, q = (A01 - A23, A02 +
    A13) / delta, and (1 - i A+)(1 - i s A-) = 4 e e^dagger is quadratic
    in g = p + s q and h = p - s q.  Of p1 +- q1 one sums terms of one
    sign, the other is gap / (that one), gap = p1^2 - q1^2 = q2^2 - p2^2
    >= 0 in factored form; so for p2 +- q2: nothing cancels where lambda2
    << lambda1 makes p ~ q.  e is the largest-diagonal column over
    2 sqrt(its diagonal entry); e and u take the phase that makes u's
    first significant entry positive imaginary."""
    sigma, delta = f.sigma, f.delta
    a01, a23, a02, a13 = f.a01 / sigma, f.a23 / sigma, f.a02 / sigma, f.a13 / sigma
    p1, p2 = a01 + a23, a02 - a13
    q1, q2 = f.h * (p.wt1 - p.wt2) / delta, (f.a02 + f.a13) / delta
    gap = 2.0 * (min(a01, a23) * q2 + abs(q1) * min(a02, a13)) * (p1 * q2 + abs(q1 * p2))
    s1, d1, s2, d2 = p1 + q1, p1 - q1, p2 + q2, p2 - q2  # one of each pair cancels
    plus1, minus1 = (s1, gap / s1) if q1 >= 0.0 else (gap / d1, d1)
    plus2, minus2 = (s2, -gap / s2 if s2 else 0.0) if p2 >= 0.0 else (-gap / d2, d2)
    r1, r2 = math.sqrt(p.m1), math.sqrt(p.m2)
    d0, d1, d2, d3 = r1 * p.wt1, 1.0 / r1, r2 * p.wt2, 1.0 / r2  # D^1/2
    a, b = p.theta / 2.0, p.eta / 2.0  # the Bopp matrix T
    us, es = [], []
    plus, minus = (plus1, plus2), (minus1, minus2)
    for (g1, g2), (h1, h2), lam in ((plus, minus, f.lambda1), (minus, plus, f.lambda2)):
        cross, dot = 0.5 * (h1 * g2 - g1 * h2), 0.5 * (g1 * g2 - h1 * h2)
        diag = [0.5 * (g1 * g1 + g2 * g2), 0.5 * (g1 * g1 + h2 * h2),
                0.5 * (h1 * h1 + g2 * g2), 0.5 * (h1 * h1 + h2 * h2)]
        j = diag.index(max(diag))
        column = ((diag[0], 1j * g1, 1j * g2, -cross) if j == 0 else
                  (-1j * g1, diag[1], dot, -1j * h2) if j == 1 else
                  (-1j * g2, dot, diag[2], 1j * h1) if j == 2 else
                  (-cross, 1j * h2, -1j * h1, diag[3]))
        w0, w1, w2, w3 = column[0] * d0, column[1] * d1, column[2] * d2, column[3] * d3
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
        es.append(([c.real for c in e], [c.imag for c in e]))
    if not all(map(cmath.isfinite, us[0] + us[2])):
        raise DegenerateSpectrum("out of float64 range: eigenvector rows u")
    return np.array(us), es


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + u[3] * v[3]


def _residuals(f: ClosedForms, e1, e2) -> dict:
    """The residuals of assemble_eigensystem from A / sigma and the unit rows
    e_i = x_i + i y_i, on floats: |A e - i lambda e|^2 = |A x + lambda y|^2
    + |A y - lambda x|^2; an entry of P A P^dagger or P P^dagger is -2i x^T A y
    (e^T A e = 0) or, cross-mode, a value u^T A v or u^T v over (x1, y1, x2, y2)."""
    a01, a23, a02, a13 = f.a01 / f.sigma, f.a23 / f.sigma, f.a02 / f.sigma, f.a13 / f.sigma
    s1, s2 = f.lambda1 / f.sigma, f.lambda2 / f.sigma
    (x1, y1), (x2, y2) = e1, e2
    ax1, ay1, ax2, ay2 = [  # A x1, A y1, A x2, A y2
        (a01 * v1 + a02 * v2, a13 * v3 - a01 * v0, a23 * v3 - a02 * v0, -a13 * v1 - a23 * v2)
        for v0, v1, v2, v3 in (x1, y1, x2, y2)
    ]
    xx1, yy1, xx2, yy2 = _dot(x1, x1), _dot(y1, y1), _dot(x2, x2), _dot(y2, y2)
    n_a = math.sqrt(2.0) * math.hypot(a01, a23, a02, a13)
    eig1 = [a + s1 * b for a, b in zip(ax1, y1)] + [a - s1 * b for a, b in zip(ay1, x1)]
    eig2 = [a + s2 * b for a, b in zip(ax2, y2)] + [a - s2 * b for a, b in zip(ay2, x2)]
    return {
        "eigvec_1": math.hypot(*eig1) / (math.sqrt(xx1 + yy1) * n_a),
        "eigvec_2": math.hypot(*eig2) / (math.sqrt(xx2 + yy2) * n_a),
        "diagonalization": math.hypot(
            s1 - 2.0 * _dot(x1, ay1), s2 - 2.0 * _dot(x2, ay2), 2.0 * _dot(x1, ax2),
            2.0 * _dot(y1, ay2), 2.0 * _dot(x1, ay2), 2.0 * _dot(y1, ax2),
        ) / math.hypot(s1, s2),
        "ladder": math.hypot(  # |e|^2 - 1 and e e^T per mode, then the cross-mode e1 e2
            xx1 + yy1 - 1.0, xx1 - yy1, 2.0 * _dot(x1, y1), xx2 + yy2 - 1.0, xx2 - yy2,
            2.0 * _dot(x2, y2), 2.0 * _dot(x1, x2), 2.0 * _dot(y1, y2), 2.0 * _dot(x1, y2),
            2.0 * _dot(y1, x2),
        ) / math.sqrt(2.0),
    }


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
    -i l2, +i l2), on floats with no matrix formed (_residuals).  SingularQ
    when residuals["max"] exceeds tol or is NaN.
    """
    q_inv, (e1, e2) = _mode_rows(p, f)
    residuals = _residuals(f, e1, e2)
    # a NaN residual ranks above every number, so it fails the check
    worst = residuals["max"] = max(residuals.values(), key=lambda r: (r != r, r))
    if not worst <= tol:
        raise SingularQ(f"identity residual {worst:.3e} exceeds {tol:.1e}")
    return EigenSystem(q_inv, residuals, (False, False))
