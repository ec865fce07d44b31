"""Measurement covariance, Gaussian conditioning, extractable work."""

import mpmath as mp
import numpy as np
import pytest

from ncho import (
    HomodyneUnsupported,
    MeasurementSpec,
    NonPositiveParameter,
    PhysicalParams,
    SingularMeasurement,
    UnphysicalCovariance,
    conditional_covariance,
    covariance,
    extractable_work,
    ground_state,
    measurement_covariance,
    to_commutative,
)

from conftest import beam_splitter, constraint_params, draw_params, wide_probe
from test_margin_oracle import oracle

BASE = PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.1, 0.4)


def base_cov():
    return covariance(ground_state(to_commutative(BASE)))


def test_heterodyne_covariance_is_isotropic():
    for angle in (0.0, 0.3, -2.0, np.pi / 2):
        gamma = measurement_covariance(MeasurementSpec(mu=1.0, angle=angle))
        assert np.allclose(gamma, 0.5 * np.eye(2), atol=1e-15)


def test_squeezed_covariance_rotates():
    gamma = measurement_covariance(MeasurementSpec(mu=2.0))
    assert np.allclose(gamma, np.diag([1.0, 0.25]))
    gamma = measurement_covariance(MeasurementSpec(mu=2.0, angle=np.pi / 2))
    assert np.allclose(gamma, np.diag([0.25, 1.0]))


def test_measurement_stays_minimum_uncertainty(rng):
    for _ in range(50):
        spec = MeasurementSpec(mu=rng.uniform(0.1, 10), angle=rng.uniform(-4, 4))
        gamma = measurement_covariance(spec)
        assert np.linalg.det(gamma) == pytest.approx(0.25, rel=1e-12)
        assert np.allclose(gamma, gamma.T)


@pytest.mark.parametrize(
    "spec",
    [
        MeasurementSpec(mu=-1.0),
        MeasurementSpec(kbt=0.0),
        MeasurementSpec(kbt=-2.0),
        MeasurementSpec(mu=np.nan),
        MeasurementSpec(angle=np.inf),
    ],
)
def test_bad_spec_rejected(spec):
    with pytest.raises(NonPositiveParameter):
        measurement_covariance(spec)


def test_homodyne_limit_unsupported():
    with pytest.raises(HomodyneUnsupported):
        measurement_covariance(MeasurementSpec(mu=0.0))
    with pytest.raises(HomodyneUnsupported):
        extractable_work(base_cov(), MeasurementSpec(mu=0.0))


def test_conditioning_single_mode_by_monte_carlo(rng):
    """Schur-complement conditioning against sampled linear regression."""
    vm = base_cov().matrix
    spec = MeasurementSpec(mu=1.7, angle=0.6)
    gamma = measurement_covariance(spec)
    want = conditional_covariance(vm, gamma)
    n = 400_000
    z = rng.multivariate_normal(np.zeros(4), vm, size=n)
    noise = rng.multivariate_normal(np.zeros(2), gamma, size=n)
    outcome = z[:, 2:] + noise
    coeff, *_ = np.linalg.lstsq(outcome, z[:, :2], rcond=None)
    resid = z[:, :2] - outcome @ coeff
    got = resid.T @ resid / n
    assert np.allclose(got, want, atol=6e-3 * np.max(np.abs(want)))


def numpy_szilard(vm, spec):
    """Oracle of the float kernel for a V or a stack of them: gamma by
    rotation matrices, V1' by np.linalg.solve and each determinant by
    np.linalg.det.  Returns (V1', det V1, det V1', work)."""
    c, s = np.cos(spec.angle), np.sin(spec.angle)
    r = np.array([[c, -s], [s, c]])
    gamma = r @ np.diag([0.5 * spec.mu, 0.5 / spec.mu]) @ r.T
    a, b, cc = vm[..., :2, :2], vm[..., 2:, 2:], vm[..., :2, 2:]
    cond = a - cc @ np.linalg.solve(b + gamma, np.swapaxes(cc, -1, -2))
    det_before, det_after = np.linalg.det(a), np.linalg.det(cond)
    return cond, det_before, det_after, 0.5 * spec.kbt * np.log(det_before / det_after)


@pytest.mark.parametrize("lo, hi", [(1e-6, 1e6), (1e-8, 1e8)])
def test_float_kernel_matches_numpy_route_on_wide_probe(lo, hi):
    """The float Schur step against numpy_szilard on the seed-1 wide probes.

    V1' and det V1' come out of a cancellation that magnifies rounding by
    det V1 / det V1' = 1 + s (up to ~5e3 here), so both routes carry
    errors of a few u (1 + s): against the exact det V1' = 1/4 of a pure
    state the float route is within 2.6 u (1 + s), numpy's within 15.  The
    gap is held to 32 u (1 + s), 1.6e-12 relative at most on these draws,
    so the work, half the log of det V1 / det V1', to 16 u (1 + s).
    """
    vms = np.array([covariance(ground_state(to_commutative(p))).matrix for p in wide_probe(1, lo, hi)])
    for mu in (0.3, 1.0, 5.0):
        for angle in (0.0, 0.7, 2.0):
            spec = MeasurementSpec(mu=mu, angle=angle)
            gamma = measurement_covariance(spec)
            oracle_route = zip(vms, *numpy_szilard(vms, spec))
            for vm, cond, det_before, det_after, work in oracle_route:
                res = extractable_work(vm, spec)
                tol = 32 * 2.0**-52 * res.det_before / 0.25  # 32 u (1 + s)
                got = conditional_covariance(vm, gamma)
                assert np.abs(got - cond).max() <= tol * np.abs(cond).max()
                assert abs(res.det_before - det_before) <= 1e-12 * det_before
                assert abs(res.det_after - det_after) <= tol * det_after
                assert abs(res.det_after - 0.25) <= tol / 8 * 0.25
                assert abs(res.work - work) <= 1e-9 * abs(work) + tol / 2


def test_float_kernel_keeps_numpy_accuracy_on_dense_wide_states():
    """A beam splitter mixes the modes of the 1e-8..1e8 probe, whose
    scales lie far apart, so det V1' = 1/4 comes out of a far larger
    cancellation than on the ground states.  The float route's relative
    error there stays within 3 times numpy_szilard's, at the 99th
    percentile and at the worst draw (an adjugate solve was ~20 times
    worse on both)."""
    bs = beam_splitter(0.3)
    vms = np.array(
        [bs @ covariance(ground_state(to_commutative(p))).matrix @ bs.T for p in wide_probe(1, 1e-8, 1e8)]
    )
    got, want = [], []
    for mu in (0.3, 1.0, 5.0):
        for angle in (0.0, 0.7, 2.0):
            spec = MeasurementSpec(mu=mu, angle=angle)
            got += [extractable_work(vm, spec).det_after for vm in vms]
            want += list(numpy_szilard(vms, spec)[2])
    err_got, err_want = np.abs(np.array([got, want]) - 0.25) / 0.25
    for q in (0.99, 1.0):
        assert np.quantile(err_got, q) <= 3.0 * np.quantile(err_want, q)


def test_conditioning_no_correlation_is_identity_operation():
    vm = covariance(
        ground_state(to_commutative(PhysicalParams(1, 2, 1, 3, 0, 0)))
    ).matrix
    gamma = measurement_covariance(MeasurementSpec())
    assert np.array_equal(conditional_covariance(vm, gamma), vm[:2, :2])


def test_conditioning_shrinks_determinant(rng):
    for p in draw_params(rng, 40):
        vm = covariance(ground_state(to_commutative(p))).matrix
        spec = MeasurementSpec(mu=rng.uniform(0.2, 5), angle=rng.uniform(-3, 3))
        cond = conditional_covariance(vm, measurement_covariance(spec))
        assert np.linalg.det(cond) <= np.linalg.det(vm[:2, :2]) + 1e-15


def test_singular_measurement_detected():
    vm = base_cov().matrix
    with pytest.raises(SingularMeasurement):
        conditional_covariance(vm, -vm[2:, 2:])


def test_unphysical_covariance_rejected():
    with pytest.raises(UnphysicalCovariance):
        extractable_work(0.1 * np.eye(4), MeasurementSpec())


def test_work_zero_without_correlations(rng):
    for p in draw_params(rng, 20, commutative=True):
        res = extractable_work(
            covariance(ground_state(to_commutative(p))), MeasurementSpec()
        )
        assert res.work == 0.0
        assert res.work_closed_form == 0.0
    for p in constraint_params(rng, 20):
        res = extractable_work(
            covariance(ground_state(to_commutative(p))), MeasurementSpec()
        )
        assert abs(res.work) < 1e-12


def test_work_positive_on_correlated_state(rng):
    for p in draw_params(rng, 40):
        res = extractable_work(
            covariance(ground_state(to_commutative(p))), MeasurementSpec()
        )
        assert res.work > 0.0
        assert res.det_after < res.det_before


def test_closed_form_matches_log_det(rng):
    for p in draw_params(rng, 100, theta=(0.0, 0.8), eta=(0.0, 0.8)):
        res = extractable_work(
            covariance(ground_state(to_commutative(p))), MeasurementSpec()
        )
        assert res.work_closed_form == pytest.approx(res.work, rel=1e-10, abs=1e-15)


def test_closed_form_at_every_measurement(rng):
    for p in draw_params(rng, 30):
        vm = covariance(ground_state(to_commutative(p)))
        spec = MeasurementSpec(mu=rng.uniform(0.2, 5), angle=rng.uniform(-3, 3))
        res = extractable_work(vm, spec)
        assert res.work_closed_form == pytest.approx(res.work, rel=1e-10, abs=1e-15)


def test_closed_form_only_for_pure_covariance():
    """A dense pure state (a beam splitter mixes the modes) gets the
    closed form; a mixed one does not."""
    vm = beam_splitter(0.3) @ base_cov().matrix @ beam_splitter(0.3).T
    res = extractable_work(vm, MeasurementSpec(mu=2.0, angle=0.7))
    assert res.work_closed_form == pytest.approx(res.work, rel=1e-10, abs=0)
    vm = 1.5 * base_cov().matrix
    vm[0, 1] = vm[1, 0] = 0.05
    res = extractable_work(vm, MeasurementSpec())
    assert res.work_closed_form is None


def heterodyne_work(gs):
    """W at mu = 1 and kB T = 1 from the exponent coefficients of the ground state:

        W = -(1/2) ln[ (1 - y^2/(d + 2 L11)) (1 - y^2/(d (1 + 2 L22))) ]

    At mu = 1, V2 + gamma = diag(1/(4 L22) + 1/2, d/(4 L11) + 1/2), and C
    holds only <x1 p2> and <p1 x2>, so V1' is diagonal and
    det V1 / det V1' is the inverse of the product of the brackets."""
    l11, l22, y, d = gs.lambda11, gs.lambda22, gs.lambda12_im, gs.d
    return -0.5 * np.log(
        (1.0 - y * y / (d + 2.0 * l11)) * (1.0 - y * y / (d * (1.0 + 2.0 * l22)))
    )


def test_heterodyne_work_matches_exponent_coefficient_form(rng):
    for p in draw_params(rng, 100, theta=(0.0, 0.8), eta=(0.0, 0.8)):
        gs = ground_state(to_commutative(p))
        res = extractable_work(covariance(gs), MeasurementSpec())
        assert res.work == pytest.approx(heterodyne_work(gs), rel=1e-10, abs=1e-15)


def test_closed_form_at_reference_point_matches_60_digit_oracle():
    """s = -4 margin of the mpmath pipeline: the closed form is within a
    few u of (1/2) log1p(s), the log-det work only within 2e-12 relative."""
    margin, *_ = oracle(BASE)
    with mp.workdps(60):
        want = float(mp.log1p(-4 * margin) / 2)
    res = extractable_work(base_cov(), MeasurementSpec())
    assert res.work_closed_form == pytest.approx(want, rel=1e-14, abs=0)


def test_conditioned_mode_is_pure_whatever_the_measurement(rng):
    """Pure state + minimum-uncertainty measurement -> pure conditional
    state: det V1' = 1/4, so W = ln(4 det V1)/2 independent of mu, angle."""
    for p in draw_params(rng, 30):
        vm = covariance(ground_state(to_commutative(p)))
        spec = MeasurementSpec(mu=rng.uniform(0.2, 5), angle=rng.uniform(-3, 3))
        res = extractable_work(vm, spec)
        assert res.det_after == pytest.approx(0.25, abs=1e-12)
        assert res.work == pytest.approx(
            0.5 * np.log(4.0 * res.det_before), abs=1e-10
        )


def test_work_scales_with_temperature():
    one = extractable_work(base_cov(), MeasurementSpec(kbt=1.0))
    three = extractable_work(base_cov(), MeasurementSpec(kbt=3.0))
    assert three.work == pytest.approx(3.0 * one.work, rel=1e-14)
    assert three.det_before == one.det_before
    assert three.det_after == one.det_after


def test_heterodyne_work_is_angle_independent():
    w0 = extractable_work(base_cov(), MeasurementSpec(angle=0.0)).work
    w1 = extractable_work(base_cov(), MeasurementSpec(angle=1.1)).work
    assert w1 == pytest.approx(w0, rel=1e-14)


def test_reference_point_regression():
    res = extractable_work(base_cov(), MeasurementSpec())
    assert res.work == pytest.approx(4.534908824240489e-05, rel=1e-12)


def test_work_grows_with_deformation():
    works = []
    for eta in (0.1, 0.3, 0.6, 0.9):
        p = PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.0, eta)
        vm = covariance(ground_state(to_commutative(p)))
        works.append(extractable_work(vm, MeasurementSpec()).work)
    assert all(b > a for a, b in zip(works, works[1:]))
