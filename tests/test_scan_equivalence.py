"""The batched scan against classify, point by point.

scan evaluates the closed forms on arrays of grid points; classify runs
the same functions on one point.  Every row must equal classify(p,
ppt=False) exactly: the margin bit for bit, the verdict and boundary flag,
and degenerate exactly where classify raises a degeneracy error.  The
scan CSV must equal a row-by-row, cell-by-cell formatter byte for byte.
"""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ncho import (
    AxisSpec,
    DegenerateSpectrum,
    NchoError,
    NegativeDeformation,
    NonPositiveParameter,
    PhysicalParams,
    ScanResult,
    ScanRow,
    classify,
    scan,
    validate,
)
from ncho import separability
from ncho.separability import AXIS_FIELDS, SCAN_CHUNK, VERDICTS

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
        except DegenerateSpectrum:
            assert row.degenerate, p
            assert (row.margin, row.verdict, row.boundary) == (None, "", False)
            continue
        assert not row.degenerate, p
        assert row.margin.hex() == rep.margin.hex(), p
        assert (row.verdict, row.boundary) == (rep.verdict, rep.boundary), p


def _centre(name, base):
    """A value of axis `name` where the grid meets a special surface:
    theta eta = 4 (zero mode) for theta/eta, wt1 = wt2 for w1/w2."""
    if name == "theta":
        return 4.0 / base.eta
    if name == "eta":
        return 4.0 / base.theta
    if name == "w1":
        return base.wt2
    if name == "w2":
        return base.wt1
    return getattr(base, AXIS_FIELDS[name])


@st.composite
def grids(draw):
    pos = st.floats(0.3, 3.0)
    base = PhysicalParams(
        m1=draw(pos),
        m2=draw(pos),
        wt1=draw(pos),
        wt2=draw(pos),
        theta=draw(pos),
        eta=draw(pos),
    )
    # sometimes put the base itself on a degenerate surface, so that grids
    # over the masses meet it too
    special = draw(st.sampled_from(["none", "equal_frequencies", "zero_mode"]))
    if special == "equal_frequencies":
        base = dataclasses.replace(base, wt2=base.wt1)
    elif special == "zero_mode":
        base = dataclasses.replace(base, eta=4.0 / base.theta)
    names = draw(st.lists(st.sampled_from(AXES), min_size=1, max_size=2, unique=True))
    axes = []
    centre_of = base
    for name in names:
        # each axis crosses theta eta = 4 or wt1 = wt2 at its centre
        c = _centre(name, centre_of)
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
    """A fixed theta x eta grid that hits theta eta = 4 and a w1 grid that
    hits wt1 = wt2: degenerate and separable rows both occur and match
    classify."""
    base = PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.0, 0.0)
    axes = (AxisSpec("theta", 0.0, 3.0, 31), AxisSpec("eta", 0.0, 3.0, 31))
    res = scan(base, *axes)
    counts = res.counts()
    assert counts["degenerate"] > 0 and counts["separable"] > 0
    assert_rows_match_classify(base, axes, res)
    base = PhysicalParams(1.0, 1.5, 1.0, 1.0, 0.3, 0.2)
    axes = (AxisSpec("w1", 0.5, 1.5, 11),)
    res = scan(base, *axes)
    assert res.rows[5].point == (1.0,) and res.rows[5].verdict == "separable"
    assert_rows_match_classify(base, axes, res)


def test_scan_grid_longer_than_one_chunk():
    """4270 points: chunks start in the middle of grid rows and the last
    one is short."""
    n1, n2 = 70, 61
    assert n1 * n2 > SCAN_CHUNK and (n1 * n2) % SCAN_CHUNK and SCAN_CHUNK % n2
    base = PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.1, 0.4)
    axes = (AxisSpec("eta", 0.0, 3.0, n1), AxisSpec("theta", 0.0, 3.0, n2))
    assert_rows_match_classify(base, axes, scan(base, *axes))


def classify_row(p, axes):
    """The ScanRow of point p built from classify, one point at a time."""
    point = tuple(getattr(p, AXIS_FIELDS[ax.name]) for ax in axes)
    try:
        rep = classify(p, ppt=False)
    except DegenerateSpectrum:
        return ScanRow(point, None, "", False, True)
    return ScanRow(point, rep.margin, rep.verdict, rep.boundary, False)


def test_rows_are_a_lazy_read_only_sequence():
    """rows reads like the list of ScanRows that classify gives point by
    point, with Python floats, and cannot be changed."""
    base = PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.0, 0.0)
    axes = (AxisSpec("theta", 0.0, 3.0, 13), AxisSpec("eta", 0.0, 3.0, 11))
    res = scan(base, *axes)
    eager = [classify_row(p, axes) for p in grid_points(base, axes)]
    rows = res.rows
    n = len(eager)
    assert len(rows) == n == 143
    assert {r.degenerate for r in eager} == {False, True}
    assert list(rows) == eager
    assert [rows[k] for k in range(-n, n)] == eager + eager
    for sl in (slice(None), slice(3, 40, 7), slice(None, None, -2), slice(-5, None), slice(50, 10)):
        assert rows[sl] == eager[sl]
    assert all(type(x) is float for r in rows for x in r.point)
    assert all(type(r.margin) is float for r in rows if not r.degenerate)
    assert type(rows[7].margin) is float and type(rows[7].point[1]) is float
    for k in (n, -n - 1):
        with pytest.raises(IndexError):
            rows[k]
    with pytest.raises(TypeError):
        rows[0] = eager[0]
    with pytest.raises(AttributeError):
        rows.append(eager[0])
    with pytest.raises(AttributeError):
        rows[0].margin = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.margin = None


def test_scan_retains_columns_not_rows():
    """A 300 x 300 scan holds at most 16 bytes per point: its columns take
    8 (margin) + 3 (verdict, boundary, degenerate); a ScanRow per point
    would take about 230."""
    base = PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.0, 0.0)
    axes = (AxisSpec("theta", 0.0, 3.0, 300), AxisSpec("eta", 0.0, 3.0, 300))
    scan(base, *axes)  # first-call costs are not retained by the result
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = scan(base, *axes)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(res.rows) == 300 * 300
    assert retained <= 16 * 300 * 300


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
        # a NaN base field fails at the first point, reported as nan
        (PhysicalParams(1.0, float("nan"), 1.0, 2.0, 0.1, 0.4), (AxisSpec("eta", 0.0, 1.0, 3),)),
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


def csv_oracle(res):
    """ScanResult.csv_text as written before each distinct axis value was
    formatted once: every cell through repr(float(.)), row by row."""
    names = [ax.name for ax in res.axes]
    lines = [",".join(names + ["margin", "verdict", "boundary", "degenerate"])]
    for r in res.rows:
        cells = [repr(float(x)) for x in r.point]
        cells.append("" if r.margin is None else repr(float(r.margin)))
        cells.append(r.verdict)
        cells.append("true" if r.boundary else "false")
        cells.append("true" if r.degenerate else "false")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


EQUAL_FREQUENCIES = PhysicalParams(1.0, 1.5, 1.0, 1.0, 0.0, 0.0)


# theta = eta = 0 with wt1 = wt2 is a degenerate row; theta = 0:-0:2 puts
# 0.0 and -0.0 (both valid) on one axis
@example((EQUAL_FREQUENCIES, (AxisSpec("theta", 0.0, 1.0, 3),)))
@example(
    (
        EQUAL_FREQUENCIES,
        (AxisSpec("theta", 0.0, -0.0, 2), AxisSpec("eta", 0.0, 0.5, 3)),
    )
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grids())
def test_scan_csv_matches_cell_by_cell_oracle(case):
    res = scan(case[0], *case[1])
    assert res.csv_text() == csv_oracle(res)


# a small pool, so that axis values repeat; columns built by hand may
# hold numpy scalars
POOL = [0.0, -0.0, 5e-324, 1e-5, 0.1, 2.5, 1e16, 1e300, -3.0, math.inf, math.nan]
VALUES = (st.sampled_from(POOL) | st.floats()).flatmap(
    lambda x: st.sampled_from([x, np.float64(x)])
)


@st.composite
def columns(draw):
    """Axis grids and per-point columns drawn independently of each other,
    including NaN margins on points that are not degenerate."""
    grids = tuple(
        np.array(draw(st.lists(VALUES, max_size=6)), dtype=float)
        for _ in range(draw(st.integers(1, 2)))
    )
    n = math.prod(len(g) for g in grids)

    def column(elements, dtype):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=dtype)

    return (
        grids,
        column(VALUES, float),
        column(st.sampled_from(range(len(VERDICTS))), np.int8),
        column(st.booleans(), bool),
        column(st.booleans(), bool),
    )


@settings(max_examples=100, deadline=None)
@given(columns())
def test_csv_of_arbitrary_rows_matches_oracle(cols):
    grids, margin, verdict, boundary, degenerate = cols
    axes = (AxisSpec("theta", 0.0, 1.0, 2), AxisSpec("eta", 0.0, 1.0, 2))[: len(grids)]
    res = ScanResult(
        PhysicalParams(1, 1, 1, 2, 0, 0),
        axes,
        grids,
        margin,
        verdict,
        boundary,
        degenerate,
        1e-12,
    )
    assert res.csv_text() == csv_oracle(res)


def test_nan_margin_prints_nan_unless_degenerate():
    res = ScanResult(
        PhysicalParams(1, 1, 1, 2, 0, 0),
        (AxisSpec("theta", 0.0, 1.0, 2),),
        (np.array([0.0, -0.0]),),
        np.array([math.nan, math.nan]),
        np.array([0, 2], dtype=np.int8),
        np.array([False, False]),
        np.array([False, True]),
        1e-12,
    )
    assert res.csv_text().split("\n")[1:3] == [
        "0.0,nan,entangled,false,false",
        "-0.0,,,false,true",
    ]
    first, second = res.rows
    assert math.isnan(first.margin) and second.margin is None
