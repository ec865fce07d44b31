"""Quadratic form, closed-form spectrum and the verified eigensystem."""

import mpmath as mp
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
    ground_state,
    spectral_data,
    to_commutative,
)
from ncho import symplectic
from ncho.params import CommutativeParams
from ncho.symplectic import I_SIGMA_Y, SIGMA_Y

from conftest import constraint_params, draw_params, hm_invariants, wide_probe


# Sigma_z in the ladder basis: Q^-1 (-Sigma_y) (Q^-1)^dagger for bosonic modes
LADDER_METRIC = np.diag([1.0, -1.0, 1.0, -1.0])


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
    # decoupled: sigma = 3 and delta = 1 exactly, and lambda2 = (rho k)^2 / lambda1
    assert sd.lambda1 == 2.0
    assert sd.lambda2 == pytest.approx(1.0, rel=1e-15)
    assert (sd.sigma, sd.delta) == (3.0, 1.0)


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
        # the Hm route's b carries + 8 nu1 nu2 ...
        b, c, _ = hm_invariants(cp)
        assert b == pytest.approx(2 * cp.w1**2 + 8 * nu**2, rel=1e-13)
        assert b == pytest.approx(sd.lambda1**2 + sd.lambda2**2, rel=1e-12)
        # ... and demonstrably not + 6 nu1 nu2
        b_text = cp.w1**2 + cp.w2**2 + 6 * cp.nu1 * cp.nu2
        lam1_text = np.sqrt((b_text + np.sqrt(b_text**2 - 4 * c)) / 2)
        assert abs(lam1_text - (cp.w1 + 2 * nu)) > 1e-4 * cp.w1


def test_b_cross_coefficient_is_eight(rng):
    """b = w1^2 + w2^2 + 8 nu1 nu2 of the Hm route (conftest.hm_invariants)
    is lambda1^2 + lambda2^2 of the dense Omega's eigenvalues and of the
    closed forms."""
    for p in draw_params(rng, 300):
        cp = to_commutative(p)
        sd = spectral_data(cp)
        b = hm_invariants(cp)[0]
        lam = np.linalg.eigvals(build_omega(build_hamiltonian(cp))).imag
        assert b == pytest.approx(np.sum(lam * lam) / 2, rel=1e-9)
        assert b == pytest.approx(sd.lambda1**2 + sd.lambda2**2, rel=1e-12)


def test_c_equals_det_of_quadratic_form(rng):
    """c of the Hm route is det Hm, and (lambda1 lambda2)^2 of the closed
    forms."""
    for p in draw_params(rng, 300):
        cp = to_commutative(p)
        sd = spectral_data(cp)
        c = hm_invariants(cp)[1]
        det_h = float(np.linalg.det(build_hamiltonian(cp)))
        assert c == pytest.approx(det_h, rel=1e-10)
        assert (sd.lambda1 * sd.lambda2) ** 2 == pytest.approx(det_h, rel=1e-10)


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
        f = spectral_data(to_commutative(p))
        assert f.sigma >= f.delta >= 0.0
        assert f.lambda1 >= f.lambda2 > 0.0


def test_commutative_bypass_values():
    """A CommutativeParams built by hand has no physical inputs: it still
    builds Hm, but spectral_data and ground_state refuse it."""
    cp = CommutativeParams(1.0, 1.0, 1.3, 0.6, 0.0, 0.0)
    assert build_hamiltonian(cp)[0, 0] == 1.3**2
    for stage in (spectral_data, ground_state):
        with pytest.raises(TypeError, match="to_commutative"):
            stage(cp)
    sd = spectral_data(cp_of(1.0, 1.0, 1.3, 0.6, 0.0, 0.0))
    assert sd.lambda1 == 1.3
    assert sd.lambda2 == pytest.approx(0.6, rel=1e-15)


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
        es = assemble_eigensystem(p, sd)
        for u, lam in ((es.q_inv[0], sd.lambda1), (es.q_inv[2], sd.lambda2)):
            res = np.linalg.norm(u @ om + 1j * lam * u) / (
                np.linalg.norm(u) * np.linalg.norm(om)
            )
            assert res < 1e-12
            # normalization u (-Sigma_y) u^dagger = 1
            n = np.real(u @ (-SIGMA_Y) @ u.conj())
            assert n == pytest.approx(1.0, rel=1e-12)


def test_left_eigenvector_sign_convention(rng):
    for p in draw_params(rng, 50):
        cp = to_commutative(p)
        es = assemble_eigensystem(p, spectral_data(cp))
        for u in es.q_inv[::2]:
            lead = next(c for c in u if abs(c) > 1e-12 * np.abs(u).max())
            if abs(lead.imag) > 1e-12 * abs(lead):
                assert lead.imag > 0
            else:
                assert lead.real > 0


def test_eigensystem_identities(rng):
    for p in draw_params(rng, 200, theta=(0.0, 0.8), eta=(0.0, 0.8)):
        cp = to_commutative(p)
        es = assemble_eigensystem(p, spectral_data(cp))
        assert es.residuals["max"] < 1e-9


def test_eigensystem_identity_matrices_explicitly():
    p = PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.1, 0.4)
    cp = to_commutative(p)
    sd = spectral_data(cp)
    es = assemble_eigensystem(p, sd)
    om = build_omega(build_hamiltonian(cp))
    q = np.linalg.inv(es.q_inv)  # an independent Q, by a dense inverse
    omega_d = np.diag([-1j * sd.lambda1, 1j * sd.lambda1, -1j * sd.lambda2, 1j * sd.lambda2])
    assert np.allclose(es.q_inv @ om @ q, omega_d, atol=1e-13)
    # Q = -Sigma_y (Q^-1)^dagger Sigma_z, where Sigma_z = diag(1, -1, 1, -1)
    # is the ladder metric
    assert np.allclose(q, -SIGMA_Y @ es.q_inv.conj().T @ LADDER_METRIC, atol=1e-13)
    assert np.allclose(
        es.q_inv @ (-SIGMA_Y) @ es.q_inv.conj().T, LADDER_METRIC, atol=1e-13
    )
    # rows of q_inv are the eigenvectors and their conjugates
    assert np.array_equal(es.q_inv[1], es.q_inv[0].conj())
    assert np.array_equal(es.q_inv[3], es.q_inv[2].conj())
    # columns of Q are v_i = -Sigma_y u_i^dagger
    assert np.allclose(q[:, 0], -SIGMA_Y @ es.q_inv[0].conj())


def test_nan_residual_raises_singular_q(monkeypatch):
    """A NaN in e2 leaves eigvec_1 finite and every later residual NaN;
    the check must still fail (Python's max would keep the finite one)."""
    p = PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.3, 0.4)
    cp = to_commutative(p)
    q_inv, (e1, (x2, y2)) = symplectic._mode_rows(p, spectral_data(cp))
    x2[0] = np.nan  # the real part of e2's first entry
    monkeypatch.setattr(symplectic, "_mode_rows", lambda p, f: (q_inv, (e1, (x2, y2))))
    with pytest.raises(SingularQ, match="nan"):
        assemble_eigensystem(p, spectral_data(cp))


def test_swapped_mode_rows_raise_singular_q(monkeypatch):
    """Finite rows that are not the right eigenvectors fail the check:
    modes 1 and 2 swapped."""
    p = PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.3, 0.4)
    cp = to_commutative(p)
    q_inv, (e1, e2) = symplectic._mode_rows(p, spectral_data(cp))
    assert np.isfinite(q_inv).all() and np.isfinite([e1, e2]).all()
    rows = q_inv[[2, 3, 0, 1]], (e2, e1)
    monkeypatch.setattr(symplectic, "_mode_rows", lambda p, f: rows)
    with pytest.raises(SingularQ):
        assemble_eigensystem(p, spectral_data(cp))


def complex_residuals(f, e1, e2):
    """The identity residuals of assemble_eigensystem by their complex
    matrix definitions: A / sigma as a 4x4 array, P = (e1, e1*, e2, e2*),
    np.linalg.norm of A e - i lambda e, P A P^dagger - Omega_D and
    P P^dagger - 1."""
    a01, a23, a02, a13 = (x / f.sigma for x in (f.a01, f.a23, f.a02, f.a13))
    a = np.array([[0, a01, a02, 0], [-a01, 0, 0, a13], [-a02, 0, 0, a23], [0, -a13, -a23, 0]])
    s1, s2 = f.lambda1 / f.sigma, f.lambda2 / f.sigma
    u1, u2 = (np.array(x) + 1j * np.array(y) for x, y in (e1, e2))
    pe = np.array([u1, u1.conj(), u2, u2.conj()])
    omega_d = np.diag([-1j * s1, 1j * s1, -1j * s2, 1j * s2])
    n_a = np.linalg.norm(a)
    return {
        "eigvec_1": np.linalg.norm(a @ u1 - 1j * s1 * u1) / (np.linalg.norm(u1) * n_a),
        "eigvec_2": np.linalg.norm(a @ u2 - 1j * s2 * u2) / (np.linalg.norm(u2) * n_a),
        "diagonalization": np.linalg.norm(pe @ a @ pe.conj().T - omega_d) / np.linalg.norm(omega_d),
        "ladder": np.linalg.norm(pe @ pe.conj().T - np.eye(4)) / 2.0,
    }


def _scaled(e, c):
    return [v * c for v in e[0]], [v * c for v in e[1]]


def _rotated(e, j, phi):
    """e with its component j multiplied by exp(i phi)."""
    x, y = list(e[0]), list(e[1])
    x[j], y[j] = (x[j] * np.cos(phi) - y[j] * np.sin(phi), x[j] * np.sin(phi) + y[j] * np.cos(phi))
    return x, y


@pytest.mark.parametrize("fault", ["scaled", "rotated", "swapped"])
def test_real_form_kernel_catches_wrong_eigenvectors(fault, monkeypatch):
    """Unit rows with a known fault: e1 scaled by 1 + 1e-6, e2's largest
    component turned by 1e-6 rad in phase, or the two modes swapped.  The
    real-form kernel gives each residual as the complex matrix
    definitions do (to 1e-6 of the fault's size), the largest of them of
    the injected size (about the fault itself: sqrt(2) 1e-6 on the
    ladder for the scaled row), and assemble_eigensystem raises SingularQ
    past tol.  The exact rows read within 4 eps in both forms."""
    p = PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.3, 0.4)
    f = spectral_data(to_commutative(p))
    q_inv, (e1, e2) = symplectic._mode_rows(p, f)
    eps = np.finfo(float).eps
    assert max(symplectic._residuals(f, e1, e2).values()) <= 4 * eps
    assert max(complex_residuals(f, e1, e2).values()) <= 4 * eps
    size = 1e-6
    if fault == "scaled":
        e1 = _scaled(e1, 1.0 + size)
    elif fault == "rotated":
        j = int(np.argmax(np.hypot(*e2)))
        e2 = _rotated(e2, j, size)
    else:
        e1, e2, size = e2, e1, 1.0
    got, want = symplectic._residuals(f, e1, e2), complex_residuals(f, e1, e2)
    for name in want:
        assert abs(got[name] - want[name]) <= 1e-6 * size, name
    assert size / 4 <= max(got.values()) <= 4 * size
    if fault == "scaled":
        assert got["ladder"] == pytest.approx(np.sqrt(2.0) * size, rel=1e-5)
        assert got["eigvec_1"] <= 4 * eps  # a scaled eigenvector is one
    monkeypatch.setattr(symplectic, "_mode_rows", lambda p, f: (q_inv, (e1, e2)))
    with pytest.raises(SingularQ):
        assemble_eigensystem(p, f)
    if fault != "swapped":
        assert assemble_eigensystem(p, f, tol=8 * size).residuals["max"] == max(got.values())


def dense_rows(omega, sd):
    """Left eigenvectors of Omega for -i lambda1 and -i lambda2 from dense
    eig(Omega^T), normalized to u (-Sigma_y) u^dagger = 1 and phased with
    the first significant component positive imaginary, as _mode_rows."""
    ev, vecs = np.linalg.eig(omega.T)
    rows = []
    for lam in (sd.lambda1, sd.lambda2):
        x = vecs[:, np.argmin(np.abs(ev + 1j * lam))]
        x = x / np.sqrt(np.real(x @ (-SIGMA_Y) @ x.conj()))
        lead = next(c for c in x if abs(c) > 1e-12 * np.abs(x).max())
        rows.append(x * 1j * np.conj(lead) / abs(lead))
    return np.array(rows)


def mp_rows(p, sd):
    """dense_rows at 50 digits: Omega from the Bopp map in mpmath and its
    eigenvectors by mpmath.eig, rounded to complex at the end."""
    with mp.workdps(50):
        m1, m2, wt1, wt2, th, et = map(mp.mpf, (p.m1, p.m2, p.wt1, p.wt2, p.theta, p.eta))
        nu1 = (et + m1 * m2 * wt2**2 * th) / (4 * m1)
        nu2 = (et + m1 * m2 * wt1**2 * th) / (4 * m2)
        hm = mp.matrix(
            [
                [m1 * wt1**2 + et**2 / (4 * m2), 0, 0, -2 * nu2],
                [0, 1 / m1 + m2 * wt2**2 * th**2 / 4, 2 * nu1, 0],
                [0, 2 * nu1, m2 * wt2**2 + et**2 / (4 * m1), 0],
                [-2 * nu2, 0, 0, 1 / m2 + m1 * wt1**2 * th**2 / 4],
            ]
        )
        ev, vecs = mp.eig((mp.matrix(I_SIGMA_Y.tolist()) * hm).T)
        rows = []
        for lam in (sd.lambda1, sd.lambda2):
            i = min(range(4), key=lambda i: abs(ev[i] + 1j * lam))
            x = [vecs[j, i] for j in range(4)]
            norm = -2 * mp.im(x[0] * mp.conj(x[1]) + x[2] * mp.conj(x[3]))
            x = [c / mp.sqrt(norm) for c in x]
            lead = next(c for c in x if abs(c) > mp.mpf("1e-12") * max(map(abs, x)))
            rows.append([complex(c * 1j * mp.conj(lead) / abs(lead)) for c in x])
    return np.array(rows)


def matrix_residuals(u, omega, sd):
    """The four identity residuals of rows u by the matrix products:
    Q = -Sigma_y (Q^-1)^dagger Sigma_z multiplied out, the ladder residual
    from Q^-1 (-Sigma_y) (Q^-1)^dagger - Sigma_z, np.linalg.norm throughout."""
    q_inv = np.array([u[0], u[0].conj(), u[1], u[1].conj()])
    q = -SIGMA_Y @ q_inv.conj().T @ LADDER_METRIC
    lam = np.array([[sd.lambda1], [sd.lambda2]])
    r_eig = np.linalg.norm(u @ omega + 1j * lam * u, axis=1)
    r_eig /= np.linalg.norm(u, axis=1) * np.linalg.norm(omega)
    omega_d = np.diag([-1j, 1j, -1j, 1j]) * np.repeat(lam.ravel(), 2)
    ladder = q_inv @ (-SIGMA_Y) @ q_inv.conj().T - LADDER_METRIC
    return {
        "eigvec_1": r_eig[0],
        "eigvec_2": r_eig[1],
        "diagonalization": np.linalg.norm(q_inv @ omega @ q - omega_d)
        / np.linalg.norm(omega_d),
        "ladder": np.linalg.norm(ladder) / 2.0,
    }


@pytest.mark.parametrize("kind", ["wide", "theta_eta_zero", "constraint"])
def test_kernel_matches_dense_eigenvectors(kind):
    """The float kernel against dense eig(Omega^T): the seed-1 wide probe
    (masses and frequencies in [1e-6, 1e6]), theta = eta = 0 points and
    constraint-surface points.  Each kernel residual, and each residual
    of the kernel's rows by the matrix products, stays within 64x the
    largest residual of the reference rows (floored at eps): the kernel
    builds u from p and Omega from cp, two roundings of the inputs, and
    reached 16x on wide probes and 39x on constraint points over six
    seeds.  The rows agree to 1e-12 off the wide probe; on it to 1e-5
    (median 4e-14), since at lambda1/lambda2 up to ~1e6 the eigenvectors
    are ill conditioned while both routes keep their residuals near
    rounding.  Past that ratio (up to ~1e17 on this probe) dense eig
    loses the rows altogether, by up to 7.6 or to NaN, while its
    matrix-product residuals stay small: they measure backward error,
    and the 50-digit rows themselves, rounded to float64, read up to
    6e-10 there (Q's condition number reaches ~5e9).  At those points the
    kernel's rows must instead agree to 1e-12 with mp_rows, the 50-digit
    eigenvectors (they do to 3.9e-14), and its own residuals, measured in
    the scaled frame, stay within 64 eps."""
    rng = np.random.default_rng(7)
    points, agree = {
        "wide": (lambda: wide_probe(1, 1e-6, 1e6), 1e-5),
        "theta_eta_zero": (lambda: draw_params(rng, 100, commutative=True), 1e-12),
        "constraint": (lambda: constraint_params(rng, 100), 1e-12),
    }[kind]
    eps = np.finfo(float).eps
    for p in points():
        cp = to_commutative(p)
        sd = spectral_data(cp)
        omega = build_omega(build_hamiltonian(cp))
        es = assemble_eigensystem(p, sd)
        rows = es.q_inv[::2]

        def kernel_agrees(want, tol):
            return all(np.linalg.norm(u - x) <= tol * np.linalg.norm(x) for u, x in zip(rows, want))

        with np.errstate(all="ignore"):  # a lost row may not normalize
            try:
                want = dense_rows(omega, sd)
            except StopIteration:
                want = np.full((2, 4), np.nan)
        if not kernel_agrees(want, agree):
            assert kind == "wide", p
            assert kernel_agrees(mp_rows(p, sd), 1e-12), p
            assert es.residuals["max"] <= 64.0 * eps, p
            continue
        floor = max(max(matrix_residuals(want, omega, sd).values()), eps)
        for name, r in matrix_residuals(rows, omega, sd).items():
            assert es.residuals[name] <= 64.0 * floor, (p, name)
            assert r <= 64.0 * floor, (p, name)


def test_decoupled_modes_split(rng):
    """theta = eta = 0: one mode lives entirely on (x1, p1), the other
    entirely on (x2, p2)."""
    for p in draw_params(rng, 30, commutative=True):
        cp = to_commutative(p)
        es = assemble_eigensystem(p, spectral_data(cp))
        assert es.residuals["max"] < 1e-9
        # each eigenvector occupies exactly one mode pair
        for u in es.q_inv[::2]:
            on1 = np.abs(u[:2]).max()
            on2 = np.abs(u[2:]).max()
            assert min(on1, on2) < 1e-9 * max(on1, on2)


def test_wide_probe_meets_every_identity():
    """3,000 points, masses and frequencies log-uniform in [1e-4, 1e4],
    theta and eta in [1e-4, 1e2]: all but one point pass the spectral
    gates (the Bopp-map route's zero-mode band stopped 1,004 of them; the
    one has s = 4.9e6, past CORRELATION_MAX) and get all identity
    residuals within 1e-9, lambda1/lambda2 up to ~1e5 included (the
    closed form with a mode-swapped retry raised SingularQ at 47 of them)."""
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
        assert assemble_eigensystem(p, sd).residuals["max"] <= 1e-9, p
    assert answered == 2999


def test_wider_probe_answers_every_gate_passing_point():
    """3,000 points, masses and frequencies log-uniform in [1e-8, 1e8],
    theta and eta in [1e-4, 1e2] (seed 1): analyze answers every point past
    the spectral gates, with every identity residual within 1e-9 and the
    Simon verdict equal to the PPT one.  2,692 pass the gates (753 did
    past the Bopp-map route's zero-mode band; the other 308 have s past
    CORRELATION_MAX).  A residual of Q Q^-1 = I,
    which carries the conditioning of Q, raised SingularQ at 95 of those
    753."""
    points = wide_probe(1, 1e-8, 1e8)
    for p in points:
        rep = analyze(p)
        assert rep.eigensystem.residuals["max"] <= 1e-9, p
        assert rep.separability.verdict == rep.separability.ppt_verdict, p
    assert len(points) == 2692


def test_ground_energy_is_quarter_trace_of_sigma():
    p = PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.1, 0.4)
    cp = to_commutative(p)
    sd = spectral_data(cp)
    es = assemble_eigensystem(p, sd)
    # |Omega_D| = diag(l1, l1, l2, l2), with Omega_D = Q^-1 Omega Q from the eigensystem
    omega_d = es.q_inv @ build_omega(build_hamiltonian(cp)) @ np.linalg.inv(es.q_inv)
    assert energy(sd) == pytest.approx(np.trace(np.abs(omega_d)) / 4, rel=1e-15)


def test_energy_ladder():
    sd = spectral_data(cp_of(1.0, 1.0, 1.0, 2.0, 0.0, 0.0))
    assert energy(sd) == pytest.approx(1.5, rel=1e-15)
    assert energy(sd, 1, 0) - energy(sd) == pytest.approx(2.0, rel=1e-14)
    assert energy(sd, 0, 1) - energy(sd) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        energy(sd, -1, 0)
