"""Validation, the deformed Planck constant and the Bopp-shift map."""

import numpy as np
import pytest

from ncho import (
    NegativeDeformation,
    NonPositiveParameter,
    PhysicalParams,
    bopp_matrix,
    effective_planck,
    to_commutative,
    validate,
)
from ncho.symplectic import I_SIGMA_Y

from conftest import draw_params


def test_validate_accepts_good_params():
    p = PhysicalParams(1.0, 2.0, 0.5, 1.5, 0.1, 0.2)
    assert validate(p) is p
    # zero deformations are valid (the commutative limit)
    validate(PhysicalParams(1.0, 1.0, 1.0, 2.0, 0.0, 0.0))


@pytest.mark.parametrize("field", ["m1", "m2", "wt1", "wt2"])
def test_validate_rejects_nonpositive(field):
    good = dict(m1=1.0, m2=1.0, wt1=1.0, wt2=2.0, theta=0.1, eta=0.1)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(NonPositiveParameter) as err:
            validate(PhysicalParams(**{**good, field: bad}))
        assert field in str(err.value)


@pytest.mark.parametrize("field", ["theta", "eta"])
def test_validate_rejects_negative_deformation(field):
    good = dict(m1=1.0, m2=1.0, wt1=1.0, wt2=2.0, theta=0.1, eta=0.1)
    with pytest.raises(NegativeDeformation):
        validate(PhysicalParams(**{**good, field: -0.01}))


def test_effective_planck_values():
    assert effective_planck(PhysicalParams(1, 1, 1, 2, 0.0, 0.0)) == 1.0
    # theta eta / 4 = 1 doubles hbar_e
    assert effective_planck(PhysicalParams(1, 1, 1, 2, 2.0, 2.0)) == pytest.approx(
        2.0, rel=1e-15
    )
    assert effective_planck(PhysicalParams(1, 1, 1, 2, 0.1, 0.4)) == pytest.approx(
        1.01, rel=1e-15
    )


def test_bopp_matrix_identity_at_zero_deformation():
    t = bopp_matrix(PhysicalParams(1, 1, 1, 2, 0.0, 0.0))
    assert np.array_equal(t, np.eye(4))


def test_bopp_matrix_hand_rows():
    # theta = 2: X1 = x1 - p2, X2 = x2 + p1
    t = bopp_matrix(PhysicalParams(1, 1, 1, 2, 2.0, 0.0))
    assert np.allclose(t[0], [1, 0, 0, -1])
    assert np.allclose(t[2], [0, 1, 1, 0])
    # eta = 1: P1 = p1 + x2/2, P2 = p2 - x1/2
    t = bopp_matrix(PhysicalParams(1, 1, 1, 2, 0.0, 1.0))
    assert np.allclose(t[1], [0, 1, 0.5, 0])
    assert np.allclose(t[3], [-0.5, 0, 0, 1])


def test_bopp_commutators(rng):
    """T (iSigma_y) T^T reproduces the deformed bracket table.

    Rows/columns ordered (X1, P1, X2, P2): [X1,X2] = i theta,
    [P1,P2] = i eta, [Xi,Pi] = i hbar_e.
    """
    for _ in range(1000):
        m1, m2, w1, w2 = rng.uniform(0.2, 4.0, size=4)
        th, et = rng.uniform(0.0, 2.0, size=2)
        p = PhysicalParams(m1, m2, w1, w2, th, et)
        t = bopp_matrix(p)
        got = t @ I_SIGMA_Y @ t.T
        he = effective_planck(p)
        want = np.array(
            [
                [0.0, he, th, 0.0],
                [-he, 0.0, 0.0, et],
                [-th, 0.0, 0.0, he],
                [0.0, -et, -he, 0.0],
            ]
        )
        assert np.allclose(got, want, rtol=0.0, atol=1e-13 * max(1.0, he))


def test_to_commutative_identity_at_zero_deformation(rng):
    for p in draw_params(rng, 20, commutative=True):
        cp = to_commutative(p)
        assert cp.mu1 == pytest.approx(p.m1, rel=1e-15)
        assert cp.mu2 == pytest.approx(p.m2, rel=1e-15)
        assert cp.w1 == pytest.approx(p.wt1, rel=1e-15)
        assert cp.w2 == pytest.approx(p.wt2, rel=1e-15)
        assert cp.nu1 == 0.0
        assert cp.nu2 == 0.0


def test_to_commutative_hand_case():
    # m=w=1, theta=0.2, eta=0: 1/mu = 1.01, nu = 0.05
    cp = to_commutative(PhysicalParams(1, 1, 1, 1, 0.2, 0.0))
    assert cp.mu1 == pytest.approx(1 / 1.01, rel=1e-15)
    assert cp.mu2 == pytest.approx(1 / 1.01, rel=1e-15)
    assert cp.nu1 == pytest.approx(0.05, rel=1e-15)
    assert cp.nu2 == pytest.approx(0.05, rel=1e-15)
    # mu w^2 = m wt^2 with eta = 0, so w^2 = 1.01
    assert cp.w1**2 == pytest.approx(1.01, rel=1e-14)
    # eta only: frequencies pick up eta^2/(4 m1 m2 wt^2) and mu is untouched
    cp = to_commutative(PhysicalParams(1, 2, 1, 1, 0.0, 0.4))
    assert cp.mu1 == 1.0
    assert cp.mu2 == 2.0
    assert cp.w1**2 == pytest.approx(1 + 0.16 / 8, rel=1e-14)
    assert cp.nu1 == pytest.approx(0.1, rel=1e-15)
    assert cp.nu2 == pytest.approx(0.05, rel=1e-15)


def test_symmetric_inputs_give_symmetric_couplings(rng):
    for _ in range(20):
        m, w = rng.uniform(0.3, 3.0, size=2)
        th, et = rng.uniform(0.01, 0.5, size=2)
        cp = to_commutative(PhysicalParams(m, m, w, w, th, et))
        assert cp.mu1 == pytest.approx(cp.mu2, rel=1e-14)
        assert cp.w1 == pytest.approx(cp.w2, rel=1e-14)
        assert cp.nu1 == pytest.approx(cp.nu2, rel=1e-14)


def test_coupling_bounds(rng):
    """mu1 w1^2 >= 4 mu2 nu2^2 and mu2 w2^2 >= 4 mu1 nu1^2.

    These inequalities make the quadratic form positive definite and the
    biquadratic coefficient c nonnegative; they hold for every validated
    input, with equality only on the theta*eta = 4 surface.
    """
    worst = np.inf
    for p in draw_params(rng, 2000, theta=(0.0, 1.0), eta=(0.0, 1.0)):
        cp = to_commutative(p)
        r1 = cp.mu1 * cp.w1**2 / max(4 * cp.mu2 * cp.nu2**2, 1e-300)
        r2 = cp.mu2 * cp.w2**2 / max(4 * cp.mu1 * cp.nu1**2, 1e-300)
        worst = min(worst, r1, r2)
    assert worst >= 1.0 - 1e-12
