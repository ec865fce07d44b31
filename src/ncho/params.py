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
Everything downstream (spectrum, ground state, separability, Wigner
function) is computed from the commutative side.

Units are chosen so that hbar = 1 (every stage after the Bopp map
assumes it), and all six physical inputs are plain numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """

    mu1: float
    mu2: float
    w1: float
    w2: float
    nu1: float
    nu2: float


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
        nu1 = (eta + m1 m2 wt2^2 theta) / (4 m1)
        nu2 = (eta + m1 m2 wt1^2 theta) / (4 m2)

    At theta = eta = 0 this is the identity map.

    The fields of p may be floats or float64 arrays of one shape (a
    batched scan); the result then holds arrays.
    """
    validate(p)
    wt1s = p.wt1 * p.wt1
    wt2s = p.wt2 * p.wt2
    th2 = p.theta * p.theta
    eta2 = p.eta * p.eta
    inv_mu1 = 1.0 / p.m1 + p.m2 * wt2s * th2 / 4.0
    inv_mu2 = 1.0 / p.m2 + p.m1 * wt1s * th2 / 4.0
    mu1 = 1.0 / inv_mu1
    mu2 = 1.0 / inv_mu2
    k1 = p.m1 * wt1s + eta2 / (4.0 * p.m2)
    k2 = p.m2 * wt2s + eta2 / (4.0 * p.m1)
    # np.divide: where 1/mu overflowed, mu = 0 gives inf, not ZeroDivisionError;
    # spectral_data's gates reject such a point, so numpy need not warn
    with np.errstate(all="ignore"):
        w1 = np.sqrt(np.divide(k1, mu1))
        w2 = np.sqrt(np.divide(k2, mu2))
    nu1 = (p.eta + p.m1 * p.m2 * wt2s * p.theta) / (4.0 * p.m1)
    nu2 = (p.eta + p.m1 * p.m2 * wt1s * p.theta) / (4.0 * p.m2)
    return CommutativeParams(mu1=mu1, mu2=mu2, w1=w1, w2=w2, nu1=nu1, nu2=nu2)
