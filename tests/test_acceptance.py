"""Go/no-go suite: the ten release criteria at their stated tolerances.

Each criterion emits one PASS/FAIL scoreboard line; the lines are
collected in conftest.ACCEPTANCE_LINES and printed as a terminal
section at the end of the run:

    PASS  1  commutative limit: spectrum, coefficients, moments, verdict
    ...

Every numeric bound below is a release gate, not a goal; loosening one
is an interface change.
"""

import functools
import time

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from ncho import (
    AxisSpec,
    MeasurementSpec,
    PhysicalParams,
    analyze,
    assemble_eigensystem,
    build_hamiltonian,
    build_omega,
    covariance,
    extractable_work,
    ground_state,
    illustration_covariance,
    marginal_position,
    project,
    psi0,
    scan,
    simon_report,
    spectral_data,
    to_commutative,
    variance_products,
    wigner_form,
)
from ncho.wigner import evaluate

from conftest import ACCEPTANCE_LINES, SEED, constraint_params, draw_params


def criterion(num, label):
    """Record one scoreboard line per criterion, pass or fail."""

    def deco(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                ACCEPTANCE_LINES.append(f"FAIL {num:>2}  {label}")
                raise
            ACCEPTANCE_LINES.append(f"PASS {num:>2}  {label}")

        return run

    return deco


@criterion(1, "commutative limit: spectrum, coefficients, moments, verdict")
def test_criterion_01_commutative_limit():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    for p in draw_params(rng, 100, commutative=True):
        cp = to_commutative(p)
        sd = spectral_data(cp)
        assert sd.lambda1 == pytest.approx(max(cp.w1, cp.w2), rel=1e-12)
        assert sd.lambda2 == pytest.approx(min(cp.w1, cp.w2), rel=1e-12)
        gs = ground_state(cp, sd)
        assert gs.lambda11 == pytest.approx(0.5 * cp.mu1 * cp.w1, rel=1e-12)
        assert gs.lambda22 == pytest.approx(0.5 * cp.mu2 * cp.w2, rel=1e-12)
        assert gs.lambda12_im == 0.0
        vm = covariance(gs).matrix
        want = np.diag(
            [
                1.0 / (2 * cp.mu1 * cp.w1),
                cp.mu1 * cp.w1 / 2,
                1.0 / (2 * cp.mu2 * cp.w2),
                cp.mu2 * cp.w2 / 2,
            ]
        )
        assert np.max(np.abs(vm - want)) < 1e-12
        assert simon_report(vm).verdict == "separable"
    assert time.perf_counter() - start < 1.0


@criterion(2, "constraint surface separable; 1% off-surface entangled (PPT agrees)")
def test_criterion_02_constraint_boundary():
    rng = np.random.default_rng(SEED + 1)
    for p in constraint_params(rng, 100):
        gs = ground_state(to_commutative(p))
        assert abs(gs.lambda12_im) < 1e-10
        assert simon_report(covariance(gs)).verdict == "separable"
        for factor in (1.01, 0.99):
            q = PhysicalParams(
                m1=p.m1, m2=p.m2, wt1=p.wt1, wt2=p.wt2,
                theta=p.theta, eta=p.eta * factor,
            )
            rep = simon_report(covariance(ground_state(to_commutative(q))))
            assert rep.verdict == "entangled"
            assert rep.ppt_verdict == "entangled"


@criterion(3, "closed-form spectrum vs dense eigensolver; b pinned at 8 nu1 nu2")
def test_criterion_03_spectrum_oracle():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for p in draw_params(rng, 10_000):
        cp = to_commutative(p)
        sd = spectral_data(cp)
        ev = np.linalg.eigvals(build_omega(build_hamiltonian(cp)))
        assert np.max(np.abs(ev.real)) < 1e-10 * sd.lambda1
        lam_num = np.sort(ev.imag)[2:]
        worst = max(
            worst,
            abs(lam_num[1] - sd.lambda1) / sd.lambda1,
            abs(lam_num[0] - sd.lambda2) / sd.lambda2,
        )
    assert worst < 1e-9
    # isotropic-in-field pin: lambda = w +- 2 nu picks the 8 nu1 nu2 form
    for _ in range(20):
        m, w = rng.uniform(0.4, 2.5, size=2)
        p = PhysicalParams(m, m, w, w, rng.uniform(0.02, 0.5), rng.uniform(0.02, 0.5))
        cp = to_commutative(p)
        sd = spectral_data(cp)
        nu = cp.nu1
        assert sd.lambda1 == pytest.approx(cp.w1 + 2 * nu, rel=1e-12)
        assert sd.lambda2 == pytest.approx(cp.w1 - 2 * nu, rel=1e-12)
        assert sd.b == pytest.approx(cp.w1**2 + cp.w2**2 + 8 * nu * nu, rel=1e-13)
        b_text = cp.w1**2 + cp.w2**2 + 6 * cp.nu1 * cp.nu2
        lam1_text = np.sqrt((b_text + np.sqrt(b_text**2 - 4 * sd.c)) / 2)
        assert abs(lam1_text - sd.lambda1) > 1e-5 * sd.lambda1


@criterion(4, "eigensystem identities below 1e-9 residual")
def test_criterion_04_eigensystem_identities():
    rng = np.random.default_rng(SEED + 3)
    for p in draw_params(rng, 1_000):
        cp = to_commutative(p)
        es = assemble_eigensystem(p, cp, spectral_data(cp))
        assert es.residuals["max"] < 1e-9


@criterion(5, "Gaussian ansatz solves the stationary equation; E0 = (l1+l2)/2")
def test_criterion_05_ground_state_oracle():
    rng = np.random.default_rng(SEED + 4)
    for p in draw_params(rng, 100):
        cp = to_commutative(p)
        sd = spectral_data(cp)
        gs = ground_state(cp, sd)
        l11, l22, y = gs.lambda11, gs.lambda22, gs.lambda12_im
        scale = max(cp.mu1 * cp.w1**2, cp.mu2 * cp.w2**2)
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
        r3 = (
            -2 * l11 * y / cp.mu1
            - 2 * l22 * y / cp.mu2
            + 4 * cp.nu1 * l11
            - 4 * cp.nu2 * l22
        )
        assert abs(r1) < 1e-8 * scale
        assert abs(r2) < 1e-8 * scale
        assert abs(r3) < 1e-8 * scale
        assert gs.energy0 == pytest.approx(0.5 * (sd.lambda1 + sd.lambda2), rel=1e-8)


@criterion(6, "Simon determinant verdict agrees with the PPT oracle")
def test_criterion_06_simon_vs_ppt():
    rng = np.random.default_rng(SEED + 5)
    for p in draw_params(rng, 1_000, theta=(0.0, 0.8), eta=(0.0, 0.8)):
        rep = simon_report(covariance(ground_state(to_commutative(p))))
        assert rep.verdict == rep.ppt_verdict


def _wigner_by_integral(gs, z, order=160):
    nodes, weights = leggauss(order)
    s1 = 7.0 / (2.0 * np.sqrt(gs.lambda11))
    s2 = 7.0 / (2.0 * np.sqrt(gs.lambda22))
    t1 = nodes[:, None] * s1
    t2 = nodes[None, :] * s2
    x1, p1, x2, p2 = z
    f = (
        np.conj(psi0(gs, x1 - t1, x2 - t2))
        * np.exp(-2j * (t1 * p1 + t2 * p2))
        * psi0(gs, x1 + t1, x2 + t2)
    )
    return (s1 * s2 * np.einsum("i,j,ij->", weights, weights, f) / np.pi**2).real


def _rank_ratio(values):
    s = np.linalg.svd(values, compute_uv=False)
    return s[1] / s[0]


@criterion(7, "Wigner: defining integral, normalization, marginal, slices")
def test_criterion_07_wigner():
    rng = np.random.default_rng(SEED + 6)
    sets = draw_params(rng, 20)
    for i, p in enumerate(sets):
        gs = ground_state(to_commutative(p))
        wf = wigner_form(covariance(gs))
        assert wf.norm * np.pi**2 / np.sqrt(np.linalg.det(wf.m)) == pytest.approx(
            1.0, rel=1e-12
        )
        width = 1.0 / np.sqrt(max(gs.lambda11, gs.lambda22))
        for _ in range(10):
            z = rng.uniform(-1.2, 1.2, size=4) * width
            want = _wigner_by_integral(gs, z)
            assert float(evaluate(wf, z)) == pytest.approx(want, rel=1e-6, abs=1e-12)
        if i < 2:
            nodes, weights = leggauss(48)
            scales = 6.0 / np.sqrt(np.diag(wf.m))
            grids = [nodes * s / 2 for s in scales]
            zz = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1)
            w4 = np.einsum("i,j,k,l->ijkl", *([weights] * 4))
            integral = float(
                (w4 * evaluate(wf, zz)).sum() * np.prod(scales) / 16.0
            )
            assert integral == pytest.approx(1.0, abs=1e-3)
        if i < 3:
            g1, g2, density = marginal_position(wf, axes=((-3, 3, 41), (-3, 3, 41)))
            want = np.abs(psi0(gs, g1[:, None], g2[None, :])) ** 2
            assert np.max(np.abs(density - want)) < 1e-5 * want.max()
    # illustrative moments: four factorized planes, two ridge planes
    wf = wigner_form(illustration_covariance())
    axes = ((-4.0, 4.0, 81), (-4.0, 4.0, 81))
    for plane, fixed in [
        (("x2", "p2"), {"x1": 1.0, "p1": 1.0}),
        (("x1", "p1"), {"x2": 1.0, "p2": 1.0}),
        (("x1", "x2"), {"p1": 1.0, "p2": 1.0}),
        (("p1", "p2"), {"x1": 1.0, "x2": 1.0}),
    ]:
        assert _rank_ratio(project(wf, plane, fixed, axes).values) < 1e-10
    for plane, fixed in [
        (("x1", "p2"), {"p1": 1.0, "x2": 1.0}),
        (("x2", "p1"), {"x1": 1.0, "p2": 1.0}),
    ]:
        grid = project(wf, plane, fixed, axes)
        assert _rank_ratio(grid.values) > 0.1
        n = grid.values.shape[0]
        anti = [grid.values[k, n - 1 - k] for k in range(n)]
        assert np.allclose(anti, anti[0], rtol=1e-12)


@criterion(8, "equal squeezing on both modes, 1/2 exactly when uncorrelated")
def test_criterion_08_squeezing():
    rng = np.random.default_rng(SEED + 7)
    for p in draw_params(rng, 200):
        gs = ground_state(to_commutative(p))
        v1, v2 = variance_products(gs)
        want = 0.5 * np.sqrt(
            1.0 + gs.lambda12_im**2 / (4 * gs.lambda11 * gs.lambda22)
        )
        assert abs(v1 - want) < 1e-10
        assert abs(v2 - want) < 1e-10
        assert v1 == v2
    for p in draw_params(rng, 50, commutative=True):
        v1, v2 = variance_products(ground_state(to_commutative(p)))
        assert v1 == 0.5 and v2 == 0.5


@criterion(9, "work vanishes on separable points, positive on entangled ones")
def test_criterion_09_szilard():
    spec = MeasurementSpec()
    rng = np.random.default_rng(SEED)
    for p in draw_params(rng, 100, commutative=True):
        res = extractable_work(covariance(ground_state(to_commutative(p))), spec)
        assert abs(res.work) < 1e-12
        assert abs(res.work_closed_form) < 1e-12
    rng = np.random.default_rng(SEED + 1)
    for p in constraint_params(rng, 100):
        res = extractable_work(covariance(ground_state(to_commutative(p))), spec)
        assert abs(res.work) < 1e-12
        for factor in (1.01, 0.99):
            q = PhysicalParams(
                m1=p.m1, m2=p.m2, wt1=p.wt1, wt2=p.wt2,
                theta=p.theta, eta=p.eta * factor,
            )
            res = extractable_work(
                covariance(ground_state(to_commutative(q))), spec
            )
            assert res.work > 0.0
            # the two routes to W stay equal to rounding
            assert res.work_closed_form == pytest.approx(
                res.work, rel=1e-9, abs=1e-15
            )


@criterion(10, "analyze under 10 ms per point, 1e4-point scan under 5 s")
def test_criterion_10_performance():
    rng = np.random.default_rng(SEED + 9)
    points = draw_params(rng, 100)
    start = time.perf_counter()
    for p in points:
        analyze(p)
    per_point = (time.perf_counter() - start) / len(points)
    assert per_point < 0.010
    base = PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.1, 0.4)
    start = time.perf_counter()
    result = scan(
        base,
        AxisSpec("eta", 0.05, 0.50, 100),
        AxisSpec("w2", 1.3, 2.7, 100),
    )
    elapsed = time.perf_counter() - start
    assert len(result.rows) == 10_000
    assert result.counts()["degenerate"] == 0
    assert elapsed < 5.0
