"""Quadratic form, closed-form spectrum and the verified eigensystem."""

import numpy as np
import pytest
import sympy as sp

from ncho import (
    DegenerateSpectrum,
    PhysicalParams,
    SingularQ,
    analyze,
    assemble_eigensystem,
    build_hamiltonian,
    build_omega,
    classify,
    energy,
    spectral_data,
    to_commutative,
)
from ncho import symplectic
from ncho.params import CommutativeParams
from ncho.symplectic import I_SIGMA_Y, LADDER_METRIC, SIGMA_Y

from conftest import draw_params, wide_probe


def cp_of(*args, **kw):
    return to_commutative(PhysicalParams(*args, **kw))


# ---------------------------------------------------------------- quadratic form


def test_hamiltonian_is_symmetric_and_blocks_match():
    cp = cp_of(1.0, 1.5, 1.0, 2.0, 0.1, 0.4)
    m = build_hamiltonian(cp)
    assert np.array_equal(m, m.T)
    assert np.allclose(m[:2, :2], np.diag([cp.mu1 * cp.w1**2, 1 / cp.mu1]))
    assert np.allclose(m[2:, 2:], np.diag([cp.mu2 * cp.w2**2, 1 / cp.mu2]))
    # coupling block rows (x2, p2) x cols (x1, p1): x2p1 carries 2 nu1,
    # p2x1 carries -2 nu2
    assert np.allclose(
        m[2:, :2], np.array([[0.0, 2 * cp.nu1], [-2 * cp.nu2, 0.0]])
    )


def test_hamiltonian_positive_definite(rng):
    for p in draw_params(rng, 300, theta=(0.0, 0.8), eta=(0.0, 0.8)):
        np.linalg.cholesky(build_hamiltonian(to_commutative(p)))


def test_bopp_expansion_matches_quadratic_form_symbolically():
    """Substituting the shift into the physical Hamiltonian and collecting
    terms reproduces exactly the effective masses, frequencies and
    couplings used by the numeric code (hbar = 1, general symbols)."""
    m1, m2, wt1, wt2, th, et = sp.symbols(
        "m1 m2 wt1 wt2 theta eta", positive=True
    )
    x1, p1, x2, p2 = sp.symbols("x1 p1 x2 p2", real=True)
    X1 = x1 - th / 2 * p2
    X2 = x2 + th / 2 * p1
    P1 = p1 + et / 2 * x2
    P2 = p2 - et / 2 * x1
    h_phys = (
        P1**2 / (2 * m1)
        + P2**2 / (2 * m2)
        + m1 * wt1**2 * X1**2 / 2
        + m2 * wt2**2 * X2**2 / 2
    )
    inv_mu1 = 1 / m1 + m2 * wt2**2 * th**2 / 4
    inv_mu2 = 1 / m2 + m1 * wt1**2 * th**2 / 4
    k1 = m1 * wt1**2 + et**2 / (4 * m2)
    k2 = m2 * wt2**2 + et**2 / (4 * m1)
    nu1 = (et + m1 * m2 * wt2**2 * th) / (4 * m1)
    nu2 = (et + m1 * m2 * wt1**2 * th) / (4 * m2)
    h_eff = (
        inv_mu1 * p1**2 / 2
        + inv_mu2 * p2**2 / 2
        + k1 * x1**2 / 2
        + k2 * x2**2 / 2
        + 2 * nu1 * x2 * p1
        - 2 * nu2 * x1 * p2
    )
    assert sp.simplify(sp.expand(h_phys - h_eff)) == 0


def test_omega_is_row_shuffle_of_h():
    cp = cp_of(0.8, 2.0, 1.2, 0.7, 0.2, 0.3)
    h = build_hamiltonian(cp)
    om = build_omega(h)
    assert np.array_equal(om[0], h[1])
    assert np.array_equal(om[1], -h[0])
    assert np.array_equal(om[2], h[3])
    assert np.array_equal(om[3], -h[2])
    assert np.array_equal(om, I_SIGMA_Y @ h)


# ---------------------------------------------------------------- spectrum


def test_commutative_anisotropic_spectrum_exact():
    sd = spectral_data(cp_of(1.0, 1.0, 1.0, 2.0, 0.0, 0.0))
    assert sd.b == pytest.approx(5.0, abs=1e-14)
    assert sd.c == pytest.approx(4.0, abs=1e-14)
    assert sd.delta == pytest.approx(9.0, abs=1e-13)
    assert sd.lambda1 == pytest.approx(2.0, rel=1e-15)
    assert sd.lambda2 == pytest.approx(1.0, rel=1e-15)
    assert sd.alpha0 == 1.0
    assert sd.wx2 == pytest.approx(1.0) and sd.wy2 == pytest.approx(4.0)


def test_isotropic_in_field_modes_are_w_plus_minus_2nu(rng):
    """Equal masses and equal frequencies: lambda = w +- 2 nu exactly.

    This pins the cross coefficient of b at 8 nu1 nu2: the variant with
    6 nu1 nu2 that circulates in expanded write-ups misses the
    eigensolver values by an O(nu^2) amount."""
    for _ in range(50):
        m, w = rng.uniform(0.4, 2.5, size=2)
        th, et = rng.uniform(0.02, 0.5, size=2)
        cp = cp_of(m, m, w, w, th, et)
        assert cp.nu1 == pytest.approx(cp.nu2, rel=1e-13)
        nu = cp.nu1
        sd = spectral_data(cp)
        assert sd.lambda1 == pytest.approx(cp.w1 + 2 * nu, rel=1e-12)
        assert sd.lambda2 == pytest.approx(cp.w1 - 2 * nu, rel=1e-12)
        # b carries + 8 nu1 nu2 ...
        assert sd.b == pytest.approx(2 * cp.w1**2 + 8 * nu**2, rel=1e-13)
        # ... and demonstrably not + 6 nu1 nu2
        b_text = cp.w1**2 + cp.w2**2 + 6 * cp.nu1 * cp.nu2
        lam1_text = np.sqrt((b_text + np.sqrt(b_text**2 - 4 * sd.c)) / 2)
        assert abs(lam1_text - (cp.w1 + 2 * nu)) > 1e-4 * cp.w1


def test_b_cross_coefficient_is_eight(rng):
    for p in draw_params(rng, 300):
        cp = to_commutative(p)
        sd = spectral_data(cp)
        cross = (sd.b - cp.w1**2 - cp.w2**2) / (cp.nu1 * cp.nu2)
        assert cross == pytest.approx(8.0, rel=1e-9)


def test_c_equals_det_of_quadratic_form(rng):
    for p in draw_params(rng, 300):
        cp = to_commutative(p)
        sd = spectral_data(cp)
        det_h = float(np.linalg.det(build_hamiltonian(cp)))
        assert sd.c == pytest.approx(det_h, rel=1e-10)
        assert sd.c == pytest.approx(
            (cp.mu1 * cp.w1**2 / cp.mu2 - 4 * cp.nu2**2)
            * (cp.mu2 * cp.w2**2 / cp.mu1 - 4 * cp.nu1**2),
            rel=1e-12,
        )


def test_spectrum_against_dense_eigensolver(rng):
    worst = 0.0
    for p in draw_params(rng, 500, theta=(0.0, 0.8), eta=(0.0, 0.8)):
        cp = to_commutative(p)
        sd = spectral_data(cp)
        ev = np.linalg.eigvals(build_omega(build_hamiltonian(cp)))
        lams = np.sort(np.abs(ev.imag))
        worst = max(
            worst,
            abs(lams[0] - sd.lambda2) / sd.lambda2,
            abs(lams[3] - sd.lambda1) / sd.lambda1,
        )
        assert np.abs(ev.real).max() < 1e-10 * sd.lambda1
    assert worst < 1e-12


def test_spectral_invariants_hold_in_bulk(rng):
    for p in draw_params(rng, 10_000, theta=(0.0, 1.0), eta=(0.0, 1.0)):
        sd = spectral_data(to_commutative(p))
        assert sd.b >= 0.0
        assert sd.c >= 0.0
        assert sd.delta >= 0.0
        assert sd.lambda1 >= sd.lambda2 > 0.0


def test_commutative_bypass_values():
    sd = spectral_data(CommutativeParams(1.0, 1.0, 1.3, 0.6, 0.0, 0.0))
    assert sd.alpha0 == 1.0
    assert sd.wx2 == pytest.approx(1.3**2)
    assert sd.wy2 == pytest.approx(0.6**2)


def test_degenerate_spectrum_raises():
    with pytest.raises(DegenerateSpectrum):
        spectral_data(cp_of(1.0, 1.0, 1.5, 1.5, 0.0, 0.0))
    # theta*eta = 4 opens a zero-frequency mode (c -> 0)
    with pytest.raises(DegenerateSpectrum):
        spectral_data(cp_of(1.0, 1.5, 1.0, 2.0, 2.0, 2.0))


def test_degeneracy_gate_scales_with_tolerance():
    cp = cp_of(1.0, 1.0, 1.0, 1.0 + 1e-7, 0.0, 0.0)
    with pytest.raises(DegenerateSpectrum):
        spectral_data(cp)  # delta ~ 4e-14 < 1e-10 * b^2


@pytest.mark.parametrize("scale", [1.0, 1e-3])
def test_collision_gate_is_dimensionless(scale):
    """A fixed relative split wt2/wt1 = 1 + 3e-5 at theta = eta = 0 passes
    the gate at every frequency scale: it compares Delta with b^2."""
    p = PhysicalParams(1.0, 1.0, scale, scale * (1.0 + 3e-5), 0.0, 0.0)
    sd = spectral_data(to_commutative(p))
    assert sd.lambda1 == pytest.approx(scale * (1.0 + 3e-5), rel=1e-12)
    assert sd.lambda2 == pytest.approx(scale, rel=1e-12)
    rep = classify(p)
    assert (rep.verdict, rep.boundary) == ("separable", True)


# ---------------------------------------------------------------- eigensystem


def test_left_eigenvector_defining_relation(rng):
    for p in draw_params(rng, 100):
        cp = to_commutative(p)
        sd = spectral_data(cp)
        om = build_omega(build_hamiltonian(cp))
        es = assemble_eigensystem(p, cp, sd)
        for u, lam in ((es.u1, sd.lambda1), (es.u2, sd.lambda2)):
            res = np.linalg.norm(u @ om + 1j * lam * u) / (
                np.linalg.norm(u) * np.linalg.norm(om)
            )
            assert res < 1e-12
            # normalization u (-Sigma_y) u^dagger = 1
            n = np.real(u @ (-SIGMA_Y) @ u.conj())
            assert n == pytest.approx(1.0, rel=1e-12)


def test_left_eigenvector_sign_convention(rng):
    for p in draw_params(rng, 50):
        es = assemble_eigensystem(p, to_commutative(p))
        for u in (es.u1, es.u2):
            lead = next(c for c in u if abs(c) > 1e-12 * np.abs(u).max())
            if abs(lead.imag) > 1e-12 * abs(lead):
                assert lead.imag > 0
            else:
                assert lead.real > 0


def test_eigensystem_identities(rng):
    for p in draw_params(rng, 200, theta=(0.0, 0.8), eta=(0.0, 0.8)):
        es = assemble_eigensystem(p, to_commutative(p))
        assert es.residuals["max"] < 1e-9


def test_eigensystem_identity_matrices_explicitly():
    p = PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.1, 0.4)
    cp = to_commutative(p)
    sd = spectral_data(cp)
    es = assemble_eigensystem(p, cp, sd)
    om = build_omega(build_hamiltonian(cp))
    assert np.allclose(es.q @ es.q_inv, np.eye(4), atol=1e-13)
    assert np.allclose(es.q_inv @ om @ es.q, es.omega_d, atol=1e-13)
    # Q^dagger = -Sigma_z Q^-1 Sigma_y, where Sigma_z = diag(1, -1, 1, -1)
    # is the ladder metric
    assert np.allclose(
        es.q.conj().T, -LADDER_METRIC @ es.q_inv @ SIGMA_Y, atol=1e-13
    )
    assert np.allclose(
        es.q_inv @ (-SIGMA_Y) @ es.q_inv.conj().T, LADDER_METRIC, atol=1e-13
    )
    assert np.array_equal(
        np.diag(es.sigma), [sd.lambda1, sd.lambda1, sd.lambda2, sd.lambda2]
    )
    # rows of q_inv are the eigenvectors and their conjugates
    assert np.array_equal(es.q_inv[0], es.u1)
    assert np.array_equal(es.q_inv[1], es.u1.conj())
    # columns of q are v_i = -Sigma_y u_i^dagger
    assert np.allclose(es.q[:, 0], -SIGMA_Y @ es.u1.conj())


def test_nan_residual_raises_singular_q(monkeypatch):
    """A NaN in u2 leaves eigvec_1 finite and every later residual NaN;
    the check must still fail (Python's max would keep the finite one)."""
    p = PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.3, 0.4)
    rows = symplectic._mode_rows(p)
    rows[1, 0] = np.nan
    monkeypatch.setattr(symplectic, "_mode_rows", lambda p: rows)
    with pytest.raises(SingularQ, match="nan"):
        assemble_eigensystem(p, to_commutative(p))


def test_decoupled_modes_split(rng):
    """theta = eta = 0: one mode lives entirely on (x1, p1), the other
    entirely on (x2, p2)."""
    for p in draw_params(rng, 30, commutative=True):
        cp = to_commutative(p)
        es = assemble_eigensystem(p, cp)
        assert es.residuals["max"] < 1e-9
        # each eigenvector occupies exactly one mode pair
        for u in (es.u1, es.u2):
            on1 = np.abs(u[:2]).max()
            on2 = np.abs(u[2:]).max()
            assert min(on1, on2) < 1e-9 * max(on1, on2)


def test_wide_probe_meets_every_identity():
    """3,000 points, masses and frequencies log-uniform in [1e-4, 1e4],
    theta and eta in [1e-4, 1e2]: every point past the spectral gates gets
    all identity residuals within 1e-9, lambda1/lambda2 up to ~1e5
    included (the closed form with a mode-swapped retry raised SingularQ
    at 47 of them)."""
    rng = np.random.default_rng(0)
    mw = np.exp(rng.uniform(np.log(1e-4), np.log(1e4), size=(3000, 4)))
    te = np.exp(rng.uniform(np.log(1e-4), np.log(1e2), size=(3000, 2)))
    answered = 0
    for row in np.hstack([mw, te]).tolist():
        p = PhysicalParams(*row)
        cp = to_commutative(p)
        try:
            sd = spectral_data(cp)
        except DegenerateSpectrum:
            continue
        answered += 1
        assert assemble_eigensystem(p, cp, sd).residuals["max"] <= 1e-9, p
    assert answered == 1996


def test_wider_probe_answers_every_gate_passing_point():
    """3,000 points, masses and frequencies log-uniform in [1e-8, 1e8],
    theta and eta in [1e-4, 1e2] (seed 1): analyze answers every point past
    the spectral gates, with every identity residual within 1e-9 and the
    Simon verdict equal to the PPT one.  A residual of Q Q^-1 = I, which
    carries the conditioning of Q, raised SingularQ at 95 of the 753."""
    points = wide_probe(1, 1e-8, 1e8)
    for p in points:
        rep = analyze(p)
        assert rep.eigensystem.residuals["max"] <= 1e-9, p
        assert rep.separability.verdict == rep.separability.ppt_verdict, p
    assert len(points) == 753


def test_ground_energy_is_quarter_trace_of_sigma():
    p = PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.1, 0.4)
    cp = to_commutative(p)
    sd = spectral_data(cp)
    es = assemble_eigensystem(p, cp, sd)
    assert energy(sd) == pytest.approx(np.trace(es.sigma).real / 4, rel=1e-15)


def test_energy_ladder():
    sd = spectral_data(cp_of(1.0, 1.0, 1.0, 2.0, 0.0, 0.0))
    assert energy(sd) == pytest.approx(1.5, rel=1e-15)
    assert energy(sd, 1, 0) - energy(sd) == pytest.approx(2.0, rel=1e-14)
    assert energy(sd, 0, 1) - energy(sd) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        energy(sd, -1, 0)
