"""The batched scan against classify, point by point.

scan evaluates the closed forms on arrays of grid points; classify runs
the same functions on one point.  Every row must equal classify(p,
ppt=False) exactly: the margin bit for bit, the verdict and boundary flag,
and degenerate exactly where classify raises a degeneracy error.
"""

import dataclasses
import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ncho import (
    AxisSpec,
    DegenerateGroundState,
    DegenerateSpectrum,
    NchoError,
    NegativeDeformation,
    NonPositiveParameter,
    PhysicalParams,
    classify,
    scan,
    validate,
)
from ncho import separability
from ncho.separability import AXIS_FIELDS, SCAN_CHUNK

AXES = sorted(AXIS_FIELDS)


def grid_points(base, axes):
    """Scalar PhysicalParams of every grid point, in row-major order."""
    for values in itertools.product(*(ax.grid() for ax in axes)):
        yield dataclasses.replace(
            base,
            **{AXIS_FIELDS[ax.name]: float(v) for ax, v in zip(axes, values)},
        )


def assert_rows_match_classify(base, axes, res):
    points = list(grid_points(base, axes))
    assert len(res.rows) == len(points)
    for row, p in zip(res.rows, points):
        assert row.point == tuple(getattr(p, AXIS_FIELDS[ax.name]) for ax in axes)
        try:
            rep = classify(p, ppt=False)
        except (DegenerateSpectrum, DegenerateGroundState):
            assert row.degenerate, p
            assert (row.margin, row.verdict, row.boundary) == (None, "", False)
            continue
        assert not row.degenerate, p
        assert row.margin.hex() == rep.margin.hex(), p
        assert (row.verdict, row.boundary) == (rep.verdict, rep.boundary), p


def _centre(name, base, hbar):
    """A value of axis `name` where the grid meets a special surface:
    theta eta = 4 hbar^2 (zero mode) for theta/eta, wt1 = wt2 for w1/w2."""
    if name == "theta":
        return 4.0 * hbar * hbar / base.eta
    if name == "eta":
        return 4.0 * hbar * hbar / base.theta
    if name == "w1":
        return base.wt2
    if name == "w2":
        return base.wt1
    return getattr(base, AXIS_FIELDS[name])


@st.composite
def grids(draw):
    pos = st.floats(0.3, 3.0)
    hbar = draw(st.floats(0.5, 2.0).filter(lambda h: h != 1.0))
    base = PhysicalParams(
        m1=draw(pos),
        m2=draw(pos),
        wt1=draw(pos),
        wt2=draw(pos),
        theta=draw(pos),
        eta=draw(pos),
        hbar=hbar,
    )
    # sometimes put the base itself on a degenerate surface, so that grids
    # over the masses meet it too
    special = draw(st.sampled_from(["none", "equal_frequencies", "zero_mode"]))
    if special == "equal_frequencies":
        base = dataclasses.replace(base, wt2=base.wt1)
    elif special == "zero_mode":
        base = dataclasses.replace(base, eta=4.0 * hbar * hbar / base.theta)
    names = draw(st.lists(st.sampled_from(AXES), min_size=1, max_size=2, unique=True))
    axes = []
    centre_of = base
    for name in names:
        # each axis crosses theta eta = 4 hbar^2 or wt1 = wt2 at its centre
        c = _centre(name, centre_of, hbar)
        centre_of = dataclasses.replace(centre_of, **{AXIS_FIELDS[name]: c})
        lo = c * draw(st.floats(0.2, 0.95))
        hi = c * draw(st.floats(1.05, 3.0))
        steps = draw(st.integers(1, 40 if len(names) == 1 else 15))
        if draw(st.booleans()):  # odd steps over [c/2, 3c/2]: may hit c exactly
            lo, hi, steps = 0.5 * c, 1.5 * c, 2 * (steps // 2) + 1
        axes.append(AxisSpec(name, lo, hi, steps))
    return base, tuple(axes)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(grids())
def test_scan_rows_equal_classify(case):
    base, axes = case
    assert_rows_match_classify(base, axes, scan(base, *axes))


def test_scan_grid_crosses_special_surfaces():
    """A fixed theta x eta grid with hbar != 1 that hits theta eta = 4
    hbar^2 and a w1 grid that hits wt1 = wt2: degenerate and separable
    rows both occur and match classify."""
    base = PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.0, 0.0, hbar=0.8)
    axes = (AxisSpec("theta", 0.0, 3.0, 31), AxisSpec("eta", 0.0, 3.0, 31))
    res = scan(base, *axes)
    counts = res.counts()
    assert counts["degenerate"] > 0 and counts["separable"] > 0
    assert_rows_match_classify(base, axes, res)
    base = PhysicalParams(1.0, 1.5, 1.0, 1.0, 0.3, 0.2, hbar=1.7)
    axes = (AxisSpec("w1", 0.5, 1.5, 11),)
    res = scan(base, *axes)
    assert res.rows[5].point == (1.0,) and res.rows[5].verdict == "separable"
    assert_rows_match_classify(base, axes, res)


def test_scan_grid_longer_than_one_chunk():
    """4270 points: chunks start in the middle of grid rows and the last
    one is short."""
    n1, n2 = 70, 61
    assert n1 * n2 > SCAN_CHUNK and (n1 * n2) % SCAN_CHUNK and SCAN_CHUNK % n2
    base = PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.1, 0.4, hbar=1.3)
    axes = (AxisSpec("eta", 0.0, 3.0, n1), AxisSpec("theta", 0.0, 3.0, n2))
    assert_rows_match_classify(base, axes, scan(base, *axes))


def first_invalid(base, axes):
    """The error a per-point validate loop raises first, or None."""
    for p in grid_points(base, axes):
        try:
            validate(p)
        except NchoError as err:
            return err
    return None


@pytest.mark.parametrize(
    "base, axes",
    [
        # m1 walks through 0 at the fifth point
        (PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.1, 0.4), (AxisSpec("m1", 2.0, -2.0, 9),)),
        # m2 <= 0 only in the last grid rows, past the first chunk
        (
            PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.1, 0.4),
            (AxisSpec("m2", 3.0, -0.1, 70), AxisSpec("theta", 0.0, 0.5, 70)),
        ),
        # the first point leaves the domain on both axes: validate's field
        # order reports wt1 before theta
        (
            PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.1, 0.4),
            (AxisSpec("theta", -0.2, 0.2, 5), AxisSpec("w1", -1.0, 1.0, 5)),
        ),
        # an invalid base field fails at the first point
        (PhysicalParams(1, 1.5, 1.0, 2.0, 0.1, -1), (AxisSpec("w2", 1.0, 2.0, 3),)),
        (PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.1, 0.4, hbar=0), (AxisSpec("eta", 0.0, 1.0, 3),)),
    ],
)
def test_scan_raises_like_the_per_point_loop(base, axes):
    want = first_invalid(base, axes)
    assert isinstance(want, (NonPositiveParameter, NegativeDeformation))
    with pytest.raises(type(want)) as err:
        scan(base, *axes)
    assert (err.value.field, repr(err.value.value)) == (want.field, repr(want.value))
    assert str(err.value) == str(want)


def test_scan_does_not_call_classify(monkeypatch):
    def per_point(*args, **kwargs):
        raise AssertionError("scan called classify")

    monkeypatch.setattr(separability, "classify", per_point)
    res = scan(PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.1, 0.4), AxisSpec("eta", 0.0, 1.0, 50))
    assert len(res.rows) == 50
