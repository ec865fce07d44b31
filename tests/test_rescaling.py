"""Time rescaling is an exact symmetry of the model.

With X -> X / sqrt(s) and P -> sqrt(s) P the brackets keep their form
for (wt1, wt2, theta, eta) -> (s wt1, s wt2, theta / s, s eta), and the
Hamiltonian becomes s H.  So the mode frequencies scale by s, while the
covariance matrix changes by a local symplectic scaling, which leaves the
separability invariants, the PPT eigenvalue and the extracted work
(det V1 / det V1') as they were.
"""

import dataclasses

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncho import (
    DegenerateGroundState,
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


@settings(max_examples=300, deadline=None)
@given(points(), st.floats(1e-3, 10.0))
def test_time_rescaling(p, s):
    try:
        rep = analyze(p)
    except (DegenerateSpectrum, DegenerateGroundState):
        assume(False)
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
