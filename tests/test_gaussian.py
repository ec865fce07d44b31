"""Ground-state coefficients, wave function, covariance and uncertainty."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq

from ncho import (
    CommutativeParams,
    DegenerateSpectrum,
    MeasurementSpec,
    PhysicalParams,
    UnphysicalCovariance,
    analyze,
    covariance,
    energy,
    extractable_work,
    ground_state,
    psi0,
    require_physical,
    rs_min_eigenvalue,
    spectral_data,
    to_commutative,
    variance_products,
)
from ncho import gaussian
from ncho.symplectic import build_hamiltonian, closed_forms, degenerate

from conftest import (
    constraint_params,
    draw_params,
    hm_frequencies,
    hm_ground_state,
    outside_float64,
    wide_probe,
)


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
        # entries against the coefficients, d = 4 L11 L22 + y^2
        d = 4 * gs.lambda11 * gs.lambda22 + gs.lambda12_im**2
        assert vm[0, 0] == pytest.approx(1 / (4 * gs.lambda11), rel=1e-14)
        assert vm[1, 1] == pytest.approx(d / (4 * gs.lambda22), rel=1e-14)
        assert vm[2, 2] == pytest.approx(1 / (4 * gs.lambda22), rel=1e-14)
        assert vm[3, 3] == pytest.approx(d / (4 * gs.lambda11), rel=1e-14)
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
    """One V and a stack take the same overflow-free |V|_F: at 1e200 the
    squares of |V|_F overflow, and the single-matrix path divided by an
    infinite norm and passed V.  V = 0 fails without a RuntimeWarning (the
    pytest filter makes one an error)."""
    wide = np.diag([1e200, -1e200, 1e200, 1e200])
    for v in (0.1 * np.eye(4), wide, wide[None], np.zeros((4, 4)), np.zeros((2, 4, 4))):
        with pytest.raises(UnphysicalCovariance):
            require_physical(v)


def test_physicality_bound_is_relative_to_the_size_of_v():
    """A pure V of norm ~1.6e6 passes although rounding leaves its smallest
    Robertson-Schroedinger eigenvalue near -2.9e-10; shifting its spectrum
    down by 1e-8 |V|_F fails, alone and inside a stack.  V is built by the
    Bopp-map route (conftest), whose rounding puts the eigenvalue there;
    closed_forms gives -3.3e-11 on the same point."""
    p = PhysicalParams(
        0.4110636528635846, 4882.7966867515115, 0.009258397936562218,
        636.4555829540503, 0.4956299009404123, 0.013220750904957662,
    )
    cp = to_commutative(p)
    vm = gaussian.covariance_matrix(*hm_ground_state(cp, *hm_frequencies(cp))[:3])
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


@pytest.fixture
def rs_calls(monkeypatch):
    """Calls of gaussian.rs_min_eigenvalue."""
    calls = []
    orig = gaussian.rs_min_eigenvalue
    monkeypatch.setattr(
        gaussian, "rs_min_eigenvalue", lambda v: calls.append(1) or orig(v)
    )
    return calls


def test_analyze_then_szilard_checks_v_once(rs_calls):
    """analyze builds a covariance that is physical by construction and
    does not check it; extractable_work checks the V it is given, once
    per call, so a V edited in place is caught."""
    rep = analyze(PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.3, 0.4))
    res = extractable_work(rep.cov, MeasurementSpec())
    assert len(rs_calls) == 1
    assert res.work > 0.0
    rep.cov.matrix[:] *= 0.5  # half a pure V breaks the uncertainty relation
    with pytest.raises(UnphysicalCovariance):
        extractable_work(rep.cov, MeasurementSpec())
    assert len(rs_calls) == 2


def test_require_physical_checks_each_stack(rs_calls):
    vm = covariance(ground_state(to_commutative(PhysicalParams(1, 1.5, 1, 2, 0.3, 0.4)))).matrix
    rs_min = rs_min_eigenvalue(vm)
    for _ in range(2):
        assert require_physical(vm[None]) == [rs_min]
    assert len(rs_calls) == 2


@pytest.mark.parametrize(
    "point",
    [
        (1e-160, 1.0, 1e-160, 1.0, 0.0, 0.0),  # <x1^2> = 1/(2 m1 wt1) ~ 5e319: inf
        (1e163, 1.0, 1e163, 1.0, 0.0, 0.0),  # <x1^2> ~ 5e-327 rounds to 0
    ],
)
def test_covariance_out_of_float64_range_raises(point):
    """Two points whose frequencies are float64 numbers but whose <x1^2> is
    not, at 60 digits (conftest.outside_float64): the spectral gates bound
    V's moments by covariance_matrix's own function, so the ground state is
    refused as a degenerate point (exit 3) that names the moment, and no V
    leaves float64."""
    p = PhysicalParams(*point)
    assert outside_float64(p)[:1] == ["<x1^2>"]  # the first, as the gate reads them
    with pytest.raises(DegenerateSpectrum, match=r"^out of float64 range: <x1\^2> = (inf|0\.0)$"):
        covariance(ground_state(to_commutative(p)))


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
    except DegenerateSpectrum:
        assume(False)
    vm = covariance(gs).matrix
    assert rs_min_eigenvalue(vm) >= -16 * 2.0**-52 * np.linalg.norm(vm)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wide_probe_ground_state_meets_robertson_schroedinger_to_rounding(seed):
    """The bound above on every gate-passing point of a wide probe: masses
    and frequencies log-uniform in [1e-8, 1e8].  This is why analyze and
    classify run no Robertson-Schroedinger check on the V they build."""
    vms = np.array([covariance(ground_state(to_commutative(p))).matrix for p in wide_probe(seed, 1e-8, 1e8)])
    norms = np.linalg.norm(vms, axis=(-2, -1))
    assert (rs_min_eigenvalue(vms) >= -16 * 2.0**-52 * norms).all()


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


def test_exponent_denominator_is_a_positive_block_determinant_past_the_gates():
    """The Bopp-map route of the ground state (conftest.hm_ground_state)
    has a positive denominator past the gates, in exact arithmetic.  There
    Hm is positive definite, so q = mu2 w2^2 - 4 mu1 nu1^2 (mu1 times the
    determinant of its (p1, x2) block) is positive, and with it
    denom = mu2 lambda1 lambda2 + q.  Checked up to rounding on 20,000
    log-uniform points (masses and frequencies in [1e-8, 1e8], theta and
    eta in [1e-4, 1e2]), half of them with theta eta within a factor 2 of
    4, where Hm turns singular, with lambda1 lambda2 from closed_forms.
    In float64 both q and denom are differences of large terms: at about
    a thousand of these points the rounding of denom exceeds its value,
    which is why the coefficients come from closed_forms, positive by
    construction."""
    rng = np.random.default_rng(3)
    lo = np.log([1e-8] * 4 + [1e-4] * 2)
    hi = np.log([1e8] * 4 + [1e2] * 2)
    m1, m2, wt1, wt2, theta, eta = np.exp(rng.uniform(lo, hi, size=(20000, 6))).T
    eta[::2] = 4.0 / theta[::2] * np.exp(rng.uniform(-0.7, 0.7, 10000))
    ok = ~degenerate(closed_forms(PhysicalParams(m1, m2, wt1, wt2, theta, eta)))
    assert ok[::2].sum() > 500 and ok[1::2].sum() > 500
    p = PhysicalParams(m1[ok], m2[ok], wt1[ok], wt2[ok], theta[ok], eta[ok])
    # to_commutative takes floats: its fields, point by point, as arrays
    points = [to_commutative(PhysicalParams(*x)) for x in zip(*(v.tolist() for v in vars(p).values()))]
    fields = ((c.mu1, c.mu2, c.w1, c.w2, c.nu1, c.nu2) for c in points)
    cp = CommutativeParams(*map(np.array, zip(*fields)))
    f = closed_forms(p)
    l1, l2 = f.lambda1, f.lambda2
    with np.errstate(all="ignore"):  # denom rounds to 0 at some points
        denom = hm_ground_state(cp, l1, l2)[4]
    u = 2.0**-52
    w2s, nu1s = cp.w2 * cp.w2, cp.nu1 * cp.nu1
    q = cp.mu2 * w2s - 4.0 * cp.mu1 * nu1s
    assert (q >= -4 * u * (cp.mu2 * w2s + 4.0 * cp.mu1 * nu1s)).all()
    slack = 8 * u * (cp.mu2 * (w2s + l1 * l2) + 4.0 * cp.mu1 * nu1s)
    assert (denom - cp.mu2 * l1 * l2 >= -slack).all()
    assert (f.l11 > 0).all() and (f.l22 > 0).all()
    for k in range(0, len(l1), len(l1) // 20):
        hm = build_hamiltonian(points[k])
        # q's own rounding, 8 u times its terms, where it is a cancellation residue
        slack = 8 * u * (cp.mu2[k] * w2s[k] + 4.0 * cp.mu1[k] * nu1s[k])
        assert abs(cp.mu1[k] * np.linalg.det(hm[1:3, 1:3]) - q[k]) <= 1e-9 * abs(q[k]) + slack


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
