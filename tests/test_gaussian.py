"""Ground-state coefficients, wave function, covariance and uncertainty."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq

from ncho import (
    DegenerateGroundState,
    DegenerateSpectrum,
    PhysicalParams,
    UnphysicalCovariance,
    covariance,
    energy,
    ground_state,
    psi0,
    require_physical,
    rs_min_eigenvalue,
    spectral_data,
    to_commutative,
    variance_products,
)
from ncho.params import CommutativeParams
from ncho.symplectic import SpectralData

from conftest import constraint_params, draw_params


def solve_ground_state_independently(cp):
    """Oracle: solve the stationary-equation system by 1D root finding.

    The x1^2 and x2^2 coefficient equations express L11, L22 through the
    cross coefficient y; the x1 x2 equation then becomes a scalar root
    problem f(y) = 0, solved by bracketing + brentq without any use of
    the normal-mode frequencies.
    """

    def l11(y):
        return np.sqrt(
            (cp.mu1 / 2)
            * (y**2 / (2 * cp.mu2) + cp.mu1 * cp.w1**2 / 2 + 2 * cp.nu2 * y)
        )

    def l22(y):
        return np.sqrt(
            (cp.mu2 / 2)
            * (y**2 / (2 * cp.mu1) + cp.mu2 * cp.w2**2 / 2 - 2 * cp.nu1 * y)
        )

    def f(y):
        return (
            -2 * l11(y) * y / cp.mu1
            - 2 * l22(y) * y / cp.mu2
            + 4 * cp.nu1 * l11(y)
            - 4 * cp.nu2 * l22(y)
        )

    span = 2.0 * (1.0 + cp.nu1 + cp.nu2) * (1.0 + cp.mu1 + cp.mu2)
    grid = np.linspace(-span, span, 4001)
    vals = np.array([f(y) for y in grid])
    roots = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            roots.append(a)
        elif fa * fb < 0:
            roots.append(brentq(f, a, b, xtol=1e-14, rtol=1e-14))
    assert len(roots) == 1, roots
    y = roots[0]
    return l11(y), l22(y), y


def test_commutative_coefficients_are_half_mu_omega(rng):
    for p in draw_params(rng, 50, commutative=True):
        cp = to_commutative(p)
        gs = ground_state(cp)
        assert gs.lambda11 == pytest.approx(0.5 * cp.mu1 * cp.w1, rel=1e-12)
        assert gs.lambda22 == pytest.approx(0.5 * cp.mu2 * cp.w2, rel=1e-12)
        assert abs(gs.lambda12_im) < 1e-14 * max(gs.lambda11, gs.lambda22)


def test_ground_state_against_root_finding_oracle(rng):
    for p in draw_params(rng, 60):
        cp = to_commutative(p)
        gs = ground_state(cp)
        l11, l22, y = solve_ground_state_independently(cp)
        assert gs.lambda11 == pytest.approx(l11, rel=1e-8)
        assert gs.lambda22 == pytest.approx(l22, rel=1e-8)
        assert gs.lambda12_im == pytest.approx(y, rel=1e-8, abs=1e-10)
        # energy two ways: closed form and L11/mu1 + L22/mu2
        e_coeff = l11 / cp.mu1 + l22 / cp.mu2
        assert gs.energy0 == pytest.approx(e_coeff, rel=1e-8)


def test_stationary_equation_residuals(rng):
    """The closed-form coefficients satisfy the three coefficient
    equations of H psi = E psi with a Gaussian ansatz."""
    for p in draw_params(rng, 200):
        cp = to_commutative(p)
        gs = ground_state(cp)
        l11, l22, y = gs.lambda11, gs.lambda22, gs.lambda12_im
        scale = cp.mu1 * cp.w1**2
        r1 = (
            -2 * l11**2 / cp.mu1
            + y**2 / (2 * cp.mu2)
            + cp.mu1 * cp.w1**2 / 2
            + 2 * cp.nu2 * y
        )
        r2 = (
            y**2 / (2 * cp.mu1)
            - 2 * l22**2 / cp.mu2
            + cp.mu2 * cp.w2**2 / 2
            - 2 * cp.nu1 * y
        )
        r3 = -2 * l11 * y / cp.mu1 - 2 * l22 * y / cp.mu2 + 4 * cp.nu1 * l11 - 4 * cp.nu2 * l22
        assert abs(r1) < 1e-10 * scale
        assert abs(r2) < 1e-10 * scale
        assert abs(r3) < 1e-10 * scale
        assert gs.energy0 == pytest.approx(l11 / cp.mu1 + l22 / cp.mu2, rel=1e-12)


def test_constraint_surface_kills_cross_coefficient(rng):
    for p in constraint_params(rng, 50):
        gs = ground_state(to_commutative(p))
        assert abs(gs.lambda12_im) < 1e-10


def test_equal_frequencies_kill_cross_coefficient(rng):
    for _ in range(30):
        m1, m2 = rng.uniform(0.3, 3.0, size=2)
        w = rng.uniform(0.3, 3.0)
        th, et = rng.uniform(0.01, 0.6, size=2)
        gs = ground_state(to_commutative(PhysicalParams(m1, m2, w, w, th, et)))
        assert abs(gs.lambda12_im) < 1e-10


def test_commutative_limit_is_continuous():
    p0 = PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.0, 0.0)
    p1 = PhysicalParams(1.0, 1.5, 1.0, 2.0, 1e-8, 1e-8)
    g0 = ground_state(to_commutative(p0))
    g1 = ground_state(to_commutative(p1))
    assert g1.lambda11 == pytest.approx(g0.lambda11, rel=1e-6)
    assert g1.lambda22 == pytest.approx(g0.lambda22, rel=1e-6)
    assert abs(g1.lambda12_im) < 1e-6


def test_psi0_value_shape_and_parity(rng):
    gs = ground_state(to_commutative(PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.1, 0.4)))
    assert psi0(gs, 0.0, 0.0) == pytest.approx(gs.a0_mod)
    x = rng.normal(size=7)
    y = rng.normal(size=7)
    vals = psi0(gs, x, y)
    assert vals.shape == (7,)
    assert np.allclose(psi0(gs, -x, -y), vals)
    # |psi| factorizes: the cross coefficient is purely a phase
    assert np.allclose(
        np.abs(vals),
        gs.a0_mod * np.exp(-gs.lambda11 * x**2 - gs.lambda22 * y**2),
    )


def test_psi0_normalization_by_quadrature():
    gs = ground_state(to_commutative(PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.1, 0.4)))
    nodes, weights = leggauss(120)
    s1 = 6.0 / (2.0 * np.sqrt(gs.lambda11))
    s2 = 6.0 / (2.0 * np.sqrt(gs.lambda22))
    x1 = nodes * s1
    x2 = nodes * s2
    vals = np.abs(psi0(gs, x1[:, None], x2[None, :])) ** 2
    integral = s1 * s2 * np.einsum("i,j,ij->", weights, weights, vals)
    assert integral == pytest.approx(1.0, abs=1e-6)


def test_covariance_commutative_is_diagonal(rng):
    for p in draw_params(rng, 30, commutative=True):
        cp = to_commutative(p)
        v = covariance(ground_state(cp)).matrix
        want = np.diag(
            [
                1 / (2 * cp.mu1 * cp.w1),
                cp.mu1 * cp.w1 / 2,
                1 / (2 * cp.mu2 * cp.w2),
                cp.mu2 * cp.w2 / 2,
            ]
        )
        assert np.allclose(v, want, rtol=1e-12, atol=1e-14)


def test_covariance_structure_and_physicality(rng):
    for p in draw_params(rng, 200, theta=(0.0, 0.8), eta=(0.0, 0.8)):
        gs = ground_state(to_commutative(p))
        vm = covariance(gs).matrix
        assert np.array_equal(vm, vm.T)
        # zero pattern of the family
        for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
            assert vm[i, j] == 0.0
        # entries against the coefficients
        assert vm[0, 0] == pytest.approx(1 / (4 * gs.lambda11), rel=1e-14)
        assert vm[1, 1] == pytest.approx(gs.d / (4 * gs.lambda22), rel=1e-14)
        assert vm[2, 2] == pytest.approx(1 / (4 * gs.lambda22), rel=1e-14)
        assert vm[3, 3] == pytest.approx(gs.d / (4 * gs.lambda11), rel=1e-14)
        assert vm[0, 3] == pytest.approx(-gs.lambda12_im / (4 * gs.lambda11), rel=1e-14)
        assert vm[1, 2] == pytest.approx(-gs.lambda12_im / (4 * gs.lambda22), rel=1e-14)
        assert rs_min_eigenvalue(vm) > -1e-10
        require_physical(vm)


def test_covariance_cross_moments_by_quadrature():
    """<x1 p2> from the wave function directly: p2 acts as -i d/dx2."""
    gs = ground_state(to_commutative(PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.1, 0.4)))
    nodes, weights = leggauss(140)
    s1 = 6.5 / (2.0 * np.sqrt(gs.lambda11))
    s2 = 6.5 / (2.0 * np.sqrt(gs.lambda22))
    x1 = nodes[:, None] * s1
    x2 = nodes[None, :] * s2
    psi = psi0(gs, x1, x2)
    # p2 psi = -i dpsi/dx2 = -i (-2 L22 x2 - i y x1) psi
    p2psi = -1j * (-2 * gs.lambda22 * x2 - 1j * gs.lambda12_im * x1) * psi
    integrand = np.real(np.conj(psi) * x1 * p2psi)
    got = s1 * s2 * np.einsum("i,j,ij->", weights, weights, integrand)
    want = covariance(gs).matrix[0, 3]
    assert got == pytest.approx(want, rel=1e-8, abs=1e-10)


def test_unphysical_covariance_rejected():
    with pytest.raises(UnphysicalCovariance):
        require_physical(0.1 * np.eye(4))


def test_physicality_bound_is_relative_to_the_size_of_v():
    """A pure V of norm ~1.6e6 passes although rounding leaves its smallest
    Robertson-Schroedinger eigenvalue near -2.9e-10; shifting its spectrum
    down by 1e-8 |V|_F fails, alone and inside a stack."""
    p = PhysicalParams(
        0.4110636528635846, 4882.7966867515115, 0.009258397936562218,
        636.4555829540503, 0.4956299009404123, 0.013220750904957662,
    )
    vm = covariance(ground_state(to_commutative(p))).matrix
    norm = np.linalg.norm(vm)
    assert norm > 1e6
    assert rs_min_eigenvalue(vm) < -1e-10
    require_physical(vm)
    require_physical(vm - 1e-11 * norm * np.eye(4))
    bad = vm - 1e-8 * norm * np.eye(4)
    with pytest.raises(UnphysicalCovariance):
        require_physical(bad)
    with pytest.raises(UnphysicalCovariance):
        require_physical(np.stack([np.eye(4), vm, bad]))
    require_physical(np.stack([np.eye(4), vm]))


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None)
@given(
    log_uniform(-4, 4),
    log_uniform(-4, 4),
    log_uniform(-4, 4),
    log_uniform(-4, 4),
    log_uniform(-4, 2),
    log_uniform(-4, 2),
)
def test_ground_state_meets_robertson_schroedinger_to_rounding(m1, m2, wt1, wt2, theta, eta):
    """rs_min >= -16 u |V|_F for the closed-form V of any ground state over
    log-uniform masses and frequencies in [1e-4, 1e4] and theta, eta in
    [1e-4, 1e2]; about -2.4 u |V|_F is the worst of 2e4 random points.  So
    require_physical (bound -1e-10 |V|_F) can fire on such a V only
    through a defect, never through rounding."""
    cp = to_commutative(PhysicalParams(m1, m2, wt1, wt2, theta, eta))
    try:
        gs = ground_state(cp)
    except (DegenerateSpectrum, DegenerateGroundState):
        assume(False)
    vm = covariance(gs).matrix
    assert rs_min_eigenvalue(vm) >= -16 * 2.0**-52 * np.linalg.norm(vm)


def test_variance_products_closed_form(rng):
    for p in draw_params(rng, 100, theta=(0.0, 0.8), eta=(0.0, 0.8)):
        gs = ground_state(to_commutative(p))
        q1, q2 = variance_products(gs)
        vm = covariance(gs).matrix
        assert q1 == q2
        assert q1 == pytest.approx(np.sqrt(vm[0, 0] * vm[1, 1]), rel=1e-12)
        assert q2 == pytest.approx(np.sqrt(vm[2, 2] * vm[3, 3]), rel=1e-12)
        want = 0.5 * np.sqrt(
            1 + gs.lambda12_im**2 / (4 * gs.lambda11 * gs.lambda22)
        )
        assert q1 == pytest.approx(want, rel=1e-10)
        assert q1 >= 0.5


def test_variance_product_is_half_iff_uncorrelated(rng):
    for p in draw_params(rng, 20, commutative=True):
        q1, q2 = variance_products(ground_state(to_commutative(p)))
        assert q1 == 0.5 and q2 == 0.5
    for p in constraint_params(rng, 10):
        q1, _ = variance_products(ground_state(to_commutative(p)))
        assert q1 == pytest.approx(0.5, abs=1e-12)


def test_degenerate_ground_state_guard():
    """Hand-built spectral data with mu2 (w2^2 + l1 l2) = 4 mu1 nu1^2
    trips the denominator guard (not reachable from validated inputs)."""
    cp = CommutativeParams(mu1=1.0, mu2=1.0, w1=1.0, w2=1.0, nu1=1.0, nu2=1.0)
    sd = SpectralData(
        b=10.0, c=9.0, delta=64.0, wx2=9.0, wy2=1.0, alpha0=1.0,
        lambda1=3.0, lambda2=1.0,
    )
    with pytest.raises(DegenerateGroundState):
        ground_state(cp, sd)


def test_energy_increases_with_deformation():
    e0 = ground_state(to_commutative(PhysicalParams(1, 1.5, 1, 2, 0.0, 0.0))).energy0
    e1 = ground_state(to_commutative(PhysicalParams(1, 1.5, 1, 2, 0.1, 0.4))).energy0
    assert e1 > e0


def test_energy_matches_spectral_data(rng):
    for p in draw_params(rng, 50):
        cp = to_commutative(p)
        sd = spectral_data(cp)
        assert ground_state(cp, sd).energy0 == pytest.approx(
            energy(sd), rel=1e-15
        )
