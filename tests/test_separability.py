"""Determinant criterion, PPT cross-check, classification and scans."""

import dataclasses
import json

import numpy as np
import pytest

from ncho import (
    AxisSpec,
    EmptyRange,
    InvalidAxisName,
    PhysicalParams,
    UnphysicalCovariance,
    classify,
    covariance,
    ground_state,
    ppt_oracle,
    scan,
    simon_report,
    to_commutative,
)
from ncho.separability import simon_terms
from ncho.symplectic import I_SIGMA_Y

from conftest import constraint_params, draw_params

BASE = PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.1, 0.4)


def cov_of(p):
    return covariance(ground_state(to_commutative(p)))


def test_product_state_sits_on_boundary(rng):
    for p in draw_params(rng, 30, commutative=True):
        rep = simon_report(cov_of(p))
        assert rep.verdict == "separable"
        assert rep.boundary
        assert abs(rep.margin) < 1e-12
        assert rep.det12 == 0.0
        assert rep.trace_term == 0.0
        assert rep.ppt_verdict == "separable"
        assert rep.ppt_min == pytest.approx(0.5, abs=1e-12)


def test_margin_reduces_to_cross_coefficient_formula(rng):
    """For this family margin = -y^2 / (16 L11 L22), exactly."""
    for p in draw_params(rng, 100, theta=(0.0, 0.8), eta=(0.0, 0.8)):
        gs = ground_state(to_commutative(p))
        rep = simon_report(covariance(gs), ppt=False)
        want = -(gs.lambda12_im**2) / (16 * gs.lambda11 * gs.lambda22)
        assert rep.margin == pytest.approx(want, rel=1e-9, abs=1e-15)
        assert rep.det12 == pytest.approx(want, rel=1e-9, abs=1e-15)
        assert rep.det1 == pytest.approx(rep.det2, rel=1e-12)


def test_unscaled_right_side_misclassifies_product_states(rng):
    """The variant without the 1/4 factor, lhs - (det1 + det2), calls even
    exact product states entangled (margin -3/8 there), so it must never
    drive the verdict."""
    for p in draw_params(rng, 20, commutative=True):
        rep = simon_report(cov_of(p))
        assert rep.lhs - (rep.det1 + rep.det2) == pytest.approx(-0.375, abs=1e-10)
        assert rep.verdict == "separable"
    for p in draw_params(rng, 50):
        rep = simon_report(cov_of(p))
        assert rep.lhs - (rep.det1 + rep.det2) < 0


def test_generic_deformation_entangles():
    rep = simon_report(cov_of(BASE))
    assert rep.verdict == "entangled"
    assert rep.margin < -1e-8
    assert rep.ppt_verdict == "entangled"
    assert rep.ppt_min < 0.5


def test_simon_and_ppt_agree(rng):
    for p in draw_params(rng, 300, theta=(0.0, 0.8), eta=(0.0, 0.8)):
        rep = simon_report(cov_of(p))
        assert rep.verdict == rep.ppt_verdict


def test_ppt_band_is_the_image_of_the_simon_band():
    """Just off the separable surface the margin (-5.9e-14) sits inside
    the Simon band eps_sep * rhs (1.25e-13) while ppt_min - 1/2 is
    -2.4e-7: on this pure family 1/2 - ppt_min ~ sqrt(-margin), so the
    PPT band must be sqrt(eps_sep * rhs) for the two verdicts to agree."""
    p = PhysicalParams(
        m1=1.070639976601407,
        m2=0.7355063650452074,
        wt1=0.9165277514496399,
        wt2=1.3410559776096662,
        theta=0.04535526757434246,
        eta=0.043903613390839764,
    )
    rep = classify(p)
    assert -1e-12 * rep.rhs < rep.margin < 0.0
    assert 0.5 - rep.ppt_min > 1e-7
    assert rep.verdict == rep.ppt_verdict == "separable"
    assert rep.boundary
    # well off the surface both bands agree on entangled
    rep = classify(dataclasses.replace(p, eta=p.eta * 1.01))
    assert rep.verdict == rep.ppt_verdict == "entangled"


def test_ppt_input_is_the_matrix_product_bit_for_bit(rng, monkeypatch):
    """ppt_oracle hands eigvals I_SIGMA_Y F V F, F = diag(1, 1, 1, -1),
    with every bit (signed zeros included) as the matrix products give it,
    so ppt_min keeps its value.  The last point is one where Python's
    abs of a complex eigenvalue differs from np.abs in the last bit."""
    eigvals = np.linalg.eigvals
    seen = []
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: seen.append(a) or eigvals(a))
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    points = draw_params(rng, 500, theta=(0.0, 0.8), eta=(0.0, 0.8))
    for p in points + [PhysicalParams(1.0, 1e-100, 1e50, 1e50, 0.04, 0.0)]:
        v = cov_of(p).matrix
        want = I_SIGMA_Y @ (flip @ v @ flip)
        ppt_min = ppt_oracle(v)
        assert seen.pop().tobytes() == want.tobytes()
        assert ppt_min == float(np.min(np.abs(eigvals(want))))


def test_simon_terms_of_one_matrix_equal_the_stack_path(rng):
    """One V is read as Python floats, a stack as arrays: the same
    arithmetic, so the terms agree bit for bit."""
    for p in draw_params(rng, 500, theta=(0.0, 0.8), eta=(0.0, 0.8)):
        v = cov_of(p).matrix
        stacked = simon_terms(v[None])
        assert simon_terms(v) == tuple(t[0] for t in stacked)


def test_simon_rejects_unphysical_covariance():
    with pytest.raises(UnphysicalCovariance):
        simon_report(0.1 * np.eye(4))


def test_classify_reasons():
    assert classify(PhysicalParams(1, 1, 1, 2, 0.0, 0.0)).reason == "theta_eta_zero"
    rep = classify(PhysicalParams(1, 1, 1, 1, 0.3, 0.5))
    assert rep.reason == "equal_frequencies"
    assert rep.verdict == "separable"
    # theta m1 wt1 = 0.1 = eta / (m2 wt2) = 0.4 / 4
    rep = classify(PhysicalParams(1, 2, 1, 2, 0.1, 0.4))
    assert rep.reason == "constraint"
    assert rep.verdict == "separable"
    assert rep.boundary
    assert classify(BASE).reason == "generic"


def test_constraint_surface_verdicts_and_perturbation(rng):
    for p in constraint_params(rng, 40):
        rep = classify(p)
        assert rep.verdict == "separable"
        assert rep.ppt_verdict == "separable"
        for factor in (1.01, 0.99):
            q = dataclasses.replace(p, eta=p.eta * factor)
            pert = classify(q)
            assert pert.verdict == "entangled"
            assert pert.ppt_verdict == "entangled"


# ---------------------------------------------------------------- scans


def test_scan_1d_crosses_constraint_boundary():
    # base has eta* = theta m1 wt1 m2 wt2 = 0.1*1*1*2*2 = 0.4
    base = PhysicalParams(1.0, 2.0, 1.0, 2.0, 0.1, 0.4)
    res = scan(base, AxisSpec("eta", 0.2, 0.6, 81))
    assert len(res.rows) == 81
    verdicts = [r.verdict for r in res.rows]
    margins = np.array([r.margin for r in res.rows])
    star = res.rows[40]
    assert star.point[0] == pytest.approx(0.4, rel=1e-15)
    assert star.verdict == "separable"
    assert star.boundary
    assert verdicts[0] == "entangled" and verdicts[-1] == "entangled"
    # margin peaks (least negative) exactly at the boundary point
    assert np.argmax(margins) == 40
    counts = res.counts()
    assert counts["separable"] == 1
    assert counts["entangled"] == 80
    assert counts["degenerate"] == 0


def test_scan_2d_row_major_order():
    base = PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.1, 0.4)
    res = scan(
        base,
        AxisSpec("theta", 0.0, 0.2, 3),
        AxisSpec("eta", 0.1, 0.3, 4),
    )
    assert len(res.rows) == 12
    pts = [r.point for r in res.rows]
    assert pts[0] == (0.0, 0.1)
    assert pts[1] == (0.0, pytest.approx(0.16666666666666669))
    assert pts[4] == (0.1, 0.1)
    # every point valid here
    assert all(not r.degenerate for r in res.rows)


def test_scan_flags_degenerate_points():
    # w2 grid hits w1 = 1.0 at the middle point with theta = eta = 0
    base = PhysicalParams(1.0, 1.0, 1.0, 1.5, 0.0, 0.0)
    res = scan(base, AxisSpec("w2", 0.5, 1.5, 3))
    mid = res.rows[1]
    assert mid.degenerate
    assert mid.margin is None
    assert mid.verdict == ""
    assert not mid.boundary
    assert res.counts()["degenerate"] == 1
    assert res.rows[0].verdict == "separable"
    assert res.rows[2].verdict == "separable"


def test_scan_rejects_bad_axes():
    with pytest.raises(InvalidAxisName):
        scan(BASE, AxisSpec("w3", 0.1, 0.2, 5))
    with pytest.raises(EmptyRange):
        scan(BASE, AxisSpec("eta", 0.1, 0.2, 0))
    with pytest.raises(InvalidAxisName):
        scan(BASE, AxisSpec("eta", 0.1, 0.2, 3), AxisSpec("eta", 0.1, 0.2, 3))


def test_scan_csv_layout():
    base = PhysicalParams(1.0, 2.0, 1.0, 2.0, 0.1, 0.4)
    res = scan(base, AxisSpec("eta", 0.39, 0.41, 3))
    text = res.csv_text()
    lines = text.split("\n")
    assert lines[0] == "eta,margin,verdict,boundary,degenerate"
    assert text.endswith("\n")
    cells = lines[2].split(",")
    assert cells[0] == "0.4"
    assert cells[2] == "separable"
    assert cells[3] == "true"
    assert cells[4] == "false"
    # all floats round-trip through repr
    assert float(lines[1].split(",")[1]) == res.rows[0].margin


def test_scan_csv_empty_cells_for_degenerate_rows():
    base = PhysicalParams(1.0, 1.0, 1.0, 1.5, 0.0, 0.0)
    res = scan(base, AxisSpec("w2", 1.0, 1.0, 1))
    line = res.csv_text().split("\n")[1]
    assert line == "1.0,,,false,true"


def test_scan_json_round_trip():
    base = PhysicalParams(1.0, 2.0, 1.0, 2.0, 0.1, 0.4)
    res = scan(base, AxisSpec("eta", 0.3, 0.5, 5))
    obj = json.loads(res.json_text())
    assert obj["axes"][0]["name"] == "eta"
    assert obj["base"]["m2"] == 2.0
    assert len(obj["rows"]) == 5
    assert obj["counts"]["separable"] == 1
    assert obj["rows"][2]["verdict"] == "separable"


def test_scan_is_deterministic():
    base = PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.1, 0.4)
    a = scan(base, AxisSpec("theta", 0.0, 0.3, 17)).csv_text()
    b = scan(base, AxisSpec("theta", 0.0, 0.3, 17)).csv_text()
    assert a == b


def test_scan_w1_axis_maps_to_physical_frequency():
    base = PhysicalParams(1.0, 1.5, 1.0, 1.0, 0.2, 0.3)
    res = scan(base, AxisSpec("w1", 0.5, 1.5, 3))
    # the middle point has wt1 = wt2 = 1.0: equal frequencies, separable
    assert res.rows[1].verdict == "separable"
    assert res.rows[0].verdict == "entangled"
