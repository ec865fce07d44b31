"""Exact symmetries of the model: time rescaling, per-mode length
rescaling and the mode swap.

With X -> X / sqrt(s) and P -> sqrt(s) P the brackets keep their form
for (wt1, wt2, theta, eta) -> (s wt1, s wt2, theta / s, s eta), and the
Hamiltonian becomes s H.  So the mode frequencies scale by s, while the
covariance matrix changes by a local symplectic scaling, which leaves the
separability invariants, the PPT eigenvalue and the extracted work
(det V1 / det V1') as they were.

Rescaling the lengths of mode i by a_i, (m_i, theta, eta) ->
(m_i / a_i^2, a1 a2 theta, eta / (a1 a2)), and relabelling the modes,
(m1, wt1) <-> (m2, wt2), leave the Hamiltonian's spectrum as it is and
change the covariance matrix by a local symplectic map, so frequencies,
verdict, margin and PPT eigenvalue stay put.  The spectrum's invariants
b and c are written symmetrically in the two modes, but the closed forms
for y and the eigenvectors are not, so the swap checks them against
their mirror images.
"""

import dataclasses
import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncho import (
    DegenerateSpectrum,
    MeasurementSpec,
    PhysicalParams,
    analyze,
    extractable_work,
)


def rescaled(p, s):
    return dataclasses.replace(
        p, wt1=s * p.wt1, wt2=s * p.wt2, theta=p.theta / s, eta=s * p.eta
    )


@st.composite
def points(draw):
    """Points over the ranges of conftest.draw_params, plus points on the
    three separable surfaces so that every reason tag occurs."""
    mass = st.floats(0.3, 3.0)
    freq = st.floats(0.3, 3.0)
    deform = st.floats(0.01, 0.6)
    p = PhysicalParams(
        m1=draw(mass),
        m2=draw(mass),
        wt1=draw(freq),
        wt2=draw(freq),
        theta=draw(deform),
        eta=draw(deform),
    )
    special = draw(st.sampled_from(["none", "commutative", "equal", "constraint"]))
    if special == "commutative":
        p = dataclasses.replace(p, theta=0.0, eta=0.0)
    elif special == "equal":
        p = dataclasses.replace(p, wt2=p.wt1)
    elif special == "constraint":
        theta = p.eta / (p.m1 * p.wt1 * p.m2 * p.wt2)
        assume(0.01 <= theta <= 0.6)
        p = dataclasses.replace(p, theta=theta)
    return p


def analyze_or_skip(p):
    try:
        return analyze(p)
    except DegenerateSpectrum:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(points(), st.floats(1e-3, 10.0))
def test_time_rescaling(p, s):
    rep = analyze_or_skip(p)
    q = rescaled(p, s)
    rep_s = analyze(q)
    for lam, lam_s in (
        (rep.spectral.lambda1, rep_s.spectral.lambda1),
        (rep.spectral.lambda2, rep_s.spectral.lambda2),
    ):
        assert abs(lam_s - s * lam) <= 1e-10 * s * lam
    a, b = rep.separability, rep_s.separability
    assert (b.verdict, b.boundary, b.reason) == (a.verdict, a.boundary, a.reason)
    assert abs(b.margin - a.margin) <= 1e-12 * a.rhs
    assert abs(b.ppt_min - a.ppt_min) <= 1e-12
    work = extractable_work(rep.cov, MeasurementSpec()).work
    work_s = extractable_work(rep_s.cov, MeasurementSpec()).work
    assert abs(work_s - work) <= 1e-13


def assert_same_state(rep, rep_q):
    """Equal frequencies, verdict and local invariants; both eigensystems
    pass their identity checks."""
    for lam, lam_q in (
        (rep.spectral.lambda1, rep_q.spectral.lambda1),
        (rep.spectral.lambda2, rep_q.spectral.lambda2),
    ):
        assert math.isclose(lam_q, lam, rel_tol=1e-12)
    a, b = rep.separability, rep_q.separability
    assert (b.verdict, b.boundary) == (a.verdict, a.boundary)
    assert abs(b.margin - a.margin) <= 1e-12 * a.rhs
    assert abs(b.ppt_min - a.ppt_min) <= 1e-12
    for r in (rep, rep_q):
        assert r.eigensystem.residuals["max"] <= r.tol
        g = r.ground
        want = -g.lambda12_im**2 / (16.0 * g.lambda11 * g.lambda22)
        assert abs(r.separability.margin - want) <= 1e-12 * r.separability.rhs


@settings(max_examples=300, deadline=None)
@given(points())
def test_mode_swap(p):
    rep = analyze_or_skip(p)
    q = dataclasses.replace(p, m1=p.m2, m2=p.m1, wt1=p.wt2, wt2=p.wt1)
    assert_same_state(rep, analyze(q))


@settings(max_examples=300, deadline=None)
@given(points(), st.floats(0.2, 5.0), st.floats(0.2, 5.0))
def test_length_rescaling(p, a1, a2):
    rep = analyze_or_skip(p)
    q = dataclasses.replace(
        p,
        m1=p.m1 / (a1 * a1),
        m2=p.m2 / (a2 * a2),
        theta=a1 * a2 * p.theta,
        eta=p.eta / (a1 * a2),
    )
    assert_same_state(rep, analyze(q))
