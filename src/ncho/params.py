"""Physical parameters and the Bopp-shift map to an equivalent commutative model.

A two-dimensional anisotropic oscillator on a noncommutative phase space,

    [X1, X2] = i theta,   [P1, P2] = i eta,   [Xi, Pj] = i hbar_e delta_ij,

with hbar_e = 1 + theta eta / 4, can be rewritten in terms of canonical
operators (x1, p1, x2, p2) through a linear Bopp shift

    X_i = x_i - (theta / 2) eps_ij p_j,
    P_i = p_i + (eta   / 2) eps_ij x_j.

Under that substitution the oscillator Hamiltonian

    H = P1^2/2m1 + P2^2/2m2 + m1 wt1^2 X1^2 / 2 + m2 wt2^2 X2^2 / 2

becomes a commutative two-mode Hamiltonian with effective masses mu_i,
frequencies w_i and a bilinear coupling (nu1, nu2):

    H = p1^2/2mu1 + p2^2/2mu2 + mu1 w1^2 x1^2 / 2 + mu2 w2^2 x2^2 / 2
        + 2 nu1 x2 p1 - 2 nu2 x1 p2.

This module holds the two parameter records and the map between them.
The record that to_commutative returns keeps p in its `physical` field
(not part of equality, repr or JSON): spectral_data and ground_state read
the factored closed forms of p through it (symplectic.closed_forms).

Units are chosen so that hbar = 1 (every stage after the Bopp map
assumes it), and all six physical inputs are plain numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NegativeDeformation, NonPositiveParameter


@dataclass(frozen=True)
class PhysicalParams:
    """Inputs of the noncommutative oscillator.

    m1, m2     : masses (> 0)
    wt1, wt2   : oscillator frequencies in the noncommutative variables (> 0)
    theta      : position-position deformation (>= 0)
    eta        : momentum-momentum deformation (>= 0)
    """

    m1: float
    m2: float
    wt1: float
    wt2: float
    theta: float
    eta: float


@dataclass(frozen=True)
class CommutativeParams:
    """Effective commutative-model parameters produced by the Bopp shift.

    mu1, mu2 : effective masses
    w1, w2   : effective frequencies
    nu1, nu2 : coefficients of the x2 p1 and x1 p2 couplings (each enters
               the Hamiltonian with a factor 2, see module docstring)
    physical : the PhysicalParams mapped, None on a record built by hand
    """

    mu1: float
    mu2: float
    w1: float
    w2: float
    nu1: float
    nu2: float
    physical: PhysicalParams | None = field(default=None, compare=False, repr=False)


_POSITIVE = ("m1", "m2", "wt1", "wt2")
_DEFORMATIONS = ("theta", "eta")


def _inside(field: str, v):
    """v lies in the domain of field: finite and > 0 (>= 0 for theta and
    eta).  NaN fails both comparisons.  Elementwise on arrays."""
    low = v >= 0.0 if field in _DEFORMATIONS else v > 0.0
    return low & (v < np.inf)


def validate(p: PhysicalParams) -> PhysicalParams:
    """Check positivity constraints, returning p unchanged if they hold.

    Raises NonPositiveParameter for m1, m2, wt1 or wt2 <= 0 and
    NegativeDeformation for theta or eta < 0, for the first failing field
    in that order.  Values that are not finite fail the same checks.

    Fields may be arrays of one shape (a batched scan): the error is then
    the one the first invalid point in C (row-major) order would raise,
    with the array value reported as a float.
    """
    ok = True
    for field in _POSITIVE + _DEFORMATIONS:
        ok = ok & _inside(field, getattr(p, field))
    # Python floats give a plain bool; arrays (or numpy scalars) a mask
    if ok is True:
        return p
    bad = ~np.asarray(ok)
    if not bad.any():
        return p
    i = int(np.argmax(bad))
    for field in _POSITIVE + _DEFORMATIONS:
        v = getattr(p, field)
        if np.ndim(v):
            v = float(np.broadcast_to(v, bad.shape).flat[i])
        if not _inside(field, float(v)):
            if field in _DEFORMATIONS:
                raise NegativeDeformation(field, v)
            raise NonPositiveParameter(field, v)


def effective_planck(p: PhysicalParams) -> float:
    """Deformed Planck constant hbar_e = 1 + theta*eta/4."""
    validate(p)
    return 1.0 + p.theta * p.eta / 4.0


def bopp_matrix(p: PhysicalParams) -> np.ndarray:
    """Matrix T of the Bopp shift in the ordering (x1, p1, x2, p2).

    (X1, P1, X2, P2)^T = T (x1, p1, x2, p2)^T.  T is the identity when
    theta = eta = 0.  The noncommutative brackets are reproduced through

        T K T^T  with  K = [x_a, x_b] / i  of the canonical side,

    which is the content of test_params.test_bopp_commutators.
    """
    validate(p)
    a = p.theta / 2.0
    b = p.eta / 2.0
    return np.array(
        [
            [1.0, 0.0, 0.0, -a],
            [0.0, 1.0, b, 0.0],
            [0.0, a, 1.0, 0.0],
            [-b, 0.0, 0.0, 1.0],
        ]
    )


def to_commutative(p: PhysicalParams) -> CommutativeParams:
    """Map physical inputs to the effective commutative parameters.

    Substituting the Bopp shift into the oscillator Hamiltonian and
    collecting terms gives

        1/mu1 = 1/m1 + m2 wt2^2 theta^2 / 4
        1/mu2 = 1/m2 + m1 wt1^2 theta^2 / 4
        mu1 w1^2 = m1 wt1^2 + eta^2 / (4 m2)
        mu2 w2^2 = m2 wt2^2 + eta^2 / (4 m1)
        nu1 = eta / (4 m1) + theta m2 wt2^2 / 4
        nu2 = eta / (4 m2) + theta m1 wt1^2 / 4

    At theta = eta = 0 this is the identity map.  With c1 = theta wt2
    sqrt(m1 m2) / 2, mu1 = m1 / (1 + c1^2) and w1 = hypot(wt1, eta / (2
    sqrt(m1 m2))) hypot(1, c1): no factor leaves float64 where mu1 or w1
    does not (mode 2 likewise), nor one of the two terms of nu1 or nu2.
    The fields of p are floats: the six hypots run as two numpy calls on
    stacked pairs.
    """
    validate(p)
    with np.errstate(all="ignore"):  # a field past float64 comes out 0 or inf
        r12 = np.sqrt(p.m1) * np.sqrt(p.m2)
        c1, c2, e = 0.5 * p.theta * p.wt2 * r12, 0.5 * p.theta * p.wt1 * r12, 0.5 * p.eta / r12
        h1, h2, k1, k2 = np.hypot((1.0, 1.0, p.wt1, p.wt2), (c1, c2, e, e))
        nu1 = 0.25 * p.eta / p.m1 + 0.25 * (p.theta * p.wt2) * (p.m2 * p.wt2)
        nu2 = 0.25 * p.eta / p.m2 + 0.25 * (p.theta * p.wt1) * (p.m1 * p.wt1)
        w1, w2 = np.hypot((k1, k2), (k1 * c1, k2 * c2))
        return CommutativeParams(p.m1 / h1 / h1, p.m2 / h2 / h2, w1, w2, nu1, nu2, physical=p)
