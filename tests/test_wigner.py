"""Wigner exponent, normalization, slices, marginals, degenerate form."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.polynomial.legendre import leggauss

from ncho import (
    DegenerateForm,
    EmptyRange,
    InvalidPlane,
    MeasurementSpec,
    PhysicalParams,
    UnphysicalCovariance,
    WignerGrid,
    covariance,
    extractable_work,
    ground_state,
    illustration_covariance,
    marginal_position,
    project,
    psi0,
    save_grid,
    to_commutative,
    wigner_form,
)
from ncho.gaussian import covariance_matrix, is_pure
from ncho.wigner import RAW_PREFACTOR, evaluate

from conftest import beam_splitter, draw_params, wide_probe

BASE = PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.1, 0.4)


def wigner_by_fourier_integral(gs, z, order=160):
    """Defining integral: (1/pi^2) int dt psi*(x-t) e^{-2i t.p} psi(x+t)."""
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
    val = s1 * s2 * np.einsum("i,j,ij->", weights, weights, f) / np.pi**2
    assert abs(val.imag) < 1e-12
    return val.real


def test_exponent_matrix_is_half_inverse_covariance(rng):
    for p in draw_params(rng, 100, theta=(0.0, 0.8), eta=(0.0, 0.8)):
        vm = covariance(ground_state(to_commutative(p))).matrix
        wf = wigner_form(vm)
        assert not wf.degenerate
        assert np.allclose(wf.m, np.linalg.inv(vm) / 2, rtol=1e-10, atol=1e-12)
        assert np.array_equal(wf.m, wf.m.T)
        np.linalg.cholesky(wf.m)


def test_vacuum_form_is_identity():
    # m = w = 1 commutative: V = I/2, M = I, N = 1/pi^2
    vm = covariance(ground_state(to_commutative(PhysicalParams(1, 1, 1, 2, 0, 0))))
    wf = wigner_form(vm.matrix)
    assert np.allclose(wf.m[:2, :2], np.eye(2), atol=1e-14)
    assert wf.norm == pytest.approx(np.sqrt(np.linalg.det(wf.m)) / np.pi**2)
    assert evaluate(wf, np.zeros(4)) == pytest.approx(wf.norm)


def test_analytic_normalization(rng):
    """integral of N exp(-Z M Z) over R^4 is N pi^2 / sqrt(det M) = 1."""
    for p in draw_params(rng, 50):
        wf = wigner_form(covariance(ground_state(to_commutative(p))))
        assert wf.norm * np.pi**2 / np.sqrt(np.linalg.det(wf.m)) == pytest.approx(
            1.0, rel=1e-12
        )


def test_numeric_4d_normalization():
    wf = wigner_form(covariance(ground_state(to_commutative(BASE))))
    nodes, weights = leggauss(48)
    # scale each axis to ~6 sigma using the diagonal of M
    scales = 6.0 / np.sqrt(np.diag(wf.m))
    grids = [nodes * s / 2 for s in scales]
    z = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1)
    vals = evaluate(wf, z)
    w4 = np.einsum("i,j,k,l->ijkl", weights, weights, weights, weights)
    integral = float((w4 * vals).sum() * np.prod(scales) / 16.0)
    assert integral == pytest.approx(1.0, abs=1e-3)


def test_matches_defining_integral(rng):
    for p in draw_params(rng, 5):
        cp = to_commutative(p)
        gs = ground_state(cp)
        wf = wigner_form(covariance(gs))
        for _ in range(4):
            z = rng.uniform(-1.2, 1.2, size=4) / np.sqrt(
                max(gs.lambda11, gs.lambda22)
            )
            want = wigner_by_fourier_integral(gs, z)
            got = float(evaluate(wf, z))
            assert got == pytest.approx(want, rel=1e-6, abs=1e-12)


def test_evaluate_parity_and_positivity(rng):
    wf = wigner_form(covariance(ground_state(to_commutative(BASE))))
    z = rng.normal(size=(50, 4))
    vals = evaluate(wf, z)
    assert vals.shape == (50,)
    assert np.all(vals > 0)
    assert np.allclose(evaluate(wf, -z), vals)


def test_commutative_form_factorizes_and_entangled_does_not(rng):
    for p in draw_params(rng, 10, commutative=True):
        wf = wigner_form(covariance(ground_state(to_commutative(p))))
        assert np.allclose(wf.m[:2, 2:], 0.0, atol=1e-13)
    wf = wigner_form(covariance(ground_state(to_commutative(BASE))))
    assert abs(wf.m[1, 2]) > 1e-4 and abs(wf.m[0, 3]) > 1e-4


def test_wigner_form_rejects_foreign_covariance():
    vm = 0.5 * np.eye(4)
    vm[0, 1] = vm[1, 0] = 0.2
    with pytest.raises(ValueError):
        wigner_form(vm)


def test_wigner_form_rejects_thermal_state():
    """V = c passes Robertson-Schroedinger but is mixed: 2 M V = 4 c^2.  At
    c = 1e100 det M and the product of M's diagonal both overflow; the form
    came back degenerate, after two RuntimeWarnings (errors here)."""
    for c in (1.0, 1e100):
        assert not is_pure(c * np.eye(4))
        with pytest.raises(ValueError):
            wigner_form(c * np.eye(4))


def test_wigner_form_rejects_unphysical_covariance_of_purity_determinant():
    """16 det V = 1, but V - Sigma_y/2 is not positive: no state has it."""
    with pytest.raises(UnphysicalCovariance):
        wigner_form(np.diag([1.0, 1.0, 0.25, 0.25]))


def test_wigner_form_rejects_covariance_that_is_not_finite():
    vm = covariance(ground_state(to_commutative(BASE))).matrix.copy()
    vm[0, 0] = np.inf
    with pytest.raises(UnphysicalCovariance):
        wigner_form(vm)


def test_wide_probe_gets_a_form_and_the_work_closed_form():
    """Seed-1 probe of tests/test_symplectic.py (masses and frequencies
    log-uniform in [1e-8, 1e8]): every ground state past the spectral
    gates gets a normalizable WignerForm and a Szilard closed form that
    matches the log-det work at three measurements.  The log-det route
    rounds to about 6 u absolute at a rotated ellipse, hence 2e-15 (the
    closed form is within 0.6 u of a 50-digit value on this probe).  The
    gates pass 2,692 of the 3,000 draws (753 on the Bopp-map route); the
    other 308 have s = y^2 / (4 L11 L22) past CORRELATION_MAX, where the
    float64 V is pure only to ~u (1 + s)."""
    specs = [MeasurementSpec(mu, angle) for mu, angle in ((1, 0), (0.3, 1.1), (5, -2))]
    points = wide_probe(1, 1e-8, 1e8)
    for p in points:
        vm = covariance(ground_state(to_commutative(p)))
        assert not wigner_form(vm).degenerate, p
        for spec in specs:
            res = extractable_work(vm, spec)
            want = pytest.approx(res.work, rel=1e-9, abs=2e-15)
            assert res.work_closed_form == want, (p, spec)
    assert len(points) == 2692


def test_strongly_correlated_pure_state_gets_a_normalizable_form():
    """A pure V with s = y^2 / (4 L11 L22) = 2e6 (L11 = L22 = 1/2): the
    product of M's diagonal is (1 + s)^2 = 4e12 times det M = 1, so a
    degeneracy test against it, run first, called the form degenerate and
    gave it the norm 2/pi.  Purity is tested first, and the norm is
    1/pi^2."""
    y = math.sqrt(2e6)
    wf = wigner_form(covariance_matrix(0.5, 0.5, y))
    assert not wf.degenerate
    assert wf.norm == pytest.approx(1.0 / np.pi**2, rel=1e-9)


def test_wigner_form_accepts_dense_pure_state():
    """A beam splitter (symplectic and orthogonal) mixes the two modes of
    a ground state: the result is pure with every entry of V nonzero, and
    its exponent is inv(V)/2."""
    bs = beam_splitter(0.3)
    vm = bs @ covariance(ground_state(to_commutative(BASE))).matrix @ bs.T
    assert np.all(np.abs(vm) > 1e-6)
    wf = wigner_form(vm)
    assert not wf.degenerate
    want = np.linalg.inv(vm) / 2
    assert np.max(np.abs(wf.m - want)) <= 1e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------- illustration


def test_illustration_form_is_degenerate_tilted():
    wf = wigner_form(illustration_covariance())
    want = np.array(
        [
            [1.0, 0.0, 0.0, 1.0],
            [0.0, 1.0, 1.0, 0.0],
            [0.0, 1.0, 1.0, 0.0],
            [1.0, 0.0, 0.0, 1.0],
        ]
    )
    assert np.allclose(wf.m, want)
    assert wf.degenerate
    assert wf.norm == RAW_PREFACTOR == pytest.approx(2 / np.pi)
    # exponent collapses onto (x1 + p2)^2 + (x2 + p1)^2
    z = np.array([0.7, -0.3, 0.2, 0.5])
    expo = (z[0] + z[3]) ** 2 + (z[2] + z[1]) ** 2
    assert float(evaluate(wf, z)) == pytest.approx(wf.norm * np.exp(-expo))


def _rank_ratio(values):
    s = np.linalg.svd(values, compute_uv=False)
    return s[1] / s[0]


def test_factorized_planes_of_illustration():
    """Clamping a conjugate-style pair gives a product of 1D bumps."""
    wf = wigner_form(illustration_covariance())
    axes = ((-4.0, 4.0, 81), (-4.0, 4.0, 81))
    for plane, fixed in [
        (("x2", "p2"), {"x1": 1.0, "p1": 1.0}),
        (("x1", "p1"), {"x2": 1.0, "p2": 1.0}),
        (("x1", "x2"), {"p1": 1.0, "p2": 1.0}),
        (("p1", "p2"), {"x1": 1.0, "x2": 1.0}),
    ]:
        grid = project(wf, plane, fixed, axes)
        assert _rank_ratio(grid.values) < 1e-12
        assert grid.values.max() > 0


def test_ridge_planes_of_illustration():
    """Scanning the correlated pairs (x1,p2) or (x2,p1) shows a ridge:
    constant along antidiagonals, nowhere close to a product of bumps."""
    wf = wigner_form(illustration_covariance())
    axes = ((-4.0, 4.0, 81), (-4.0, 4.0, 81))
    for plane, fixed in [
        (("x1", "p2"), {"p1": 1.0, "x2": 1.0}),
        (("x2", "p1"), {"x1": 1.0, "p2": 1.0}),
    ]:
        grid = project(wf, plane, fixed, axes)
        assert _rank_ratio(grid.values) > 0.1
        n = grid.values.shape[0]
        diag = [grid.values[i, n - 1 - i] for i in range(n)]
        assert np.allclose(diag, diag[0], rtol=1e-12)


def test_project_validates_plane_and_fixed():
    wf = wigner_form(illustration_covariance())
    with pytest.raises(InvalidPlane):
        project(wf, ("x1", "x1"), {"x2": 1.0, "p2": 1.0})
    with pytest.raises(InvalidPlane):
        project(wf, ("x1", "q9"), {"x2": 1.0, "p2": 1.0})
    with pytest.raises(InvalidPlane):
        project(wf, ("x1", "p2"), {"x2": 1.0})
    with pytest.raises(InvalidPlane):
        project(wf, ("x1", "p2"), {"x2": 1.0, "p2": 7.0})


@pytest.mark.parametrize(
    "axes, fixed, error",
    [
        (((-4, 4, 0), (-4, 4, 3)), {}, EmptyRange),
        (((-4, 4, 3), (-4, 4, -3)), {}, EmptyRange),
        (((float("nan"), 4, 3), (-4, 4, 3)), {}, InvalidPlane),
        (((-4, 4, 3), (-4, float("inf"), 3)), {}, InvalidPlane),
        # finite bounds whose difference overflows
        (((-1e308, 1e308, 3), (-4, 4, 3)), {}, InvalidPlane),
        (((-4, 4, 3), (-4, 4, 3)), {"p1": float("nan")}, InvalidPlane),
    ],
)
def test_grids_reject_empty_and_non_finite_axes(axes, fixed, error):
    wf = wigner_form(illustration_covariance())
    with pytest.raises(error):
        project(wf, ("x1", "p2"), {"p1": 0.0, "x2": 0.0, **fixed}, axes)
    if not fixed:  # the grid is checked before the degenerate form
        with pytest.raises(error):
            marginal_position(wf, axes)


def test_project_agrees_with_pointwise_evaluate():
    wf = wigner_form(covariance(ground_state(to_commutative(BASE))))
    grid = project(wf, ("x2", "p2"), {"x1": 0.5, "p1": -0.25}, ((-2, 2, 11), (-1, 1, 7)))
    assert grid.values.shape == (11, 7)
    z = np.array([0.5, -0.25, grid.axis1[3], grid.axis2[5]])
    assert grid.values[3, 5] == pytest.approx(float(evaluate(wf, z)), rel=1e-14)


# ---------------------------------------------------------------- marginal


def test_position_marginal_matches_wavefunction(rng):
    for p in draw_params(rng, 10):
        gs = ground_state(to_commutative(p))
        wf = wigner_form(covariance(gs))
        g1, g2, density = marginal_position(wf, axes=((-3, 3, 41), (-3, 3, 41)))
        want = np.abs(psi0(gs, g1[:, None], g2[None, :])) ** 2
        assert np.max(np.abs(density - want)) < 1e-5 * want.max()


def test_position_marginal_normalizes():
    gs = ground_state(to_commutative(BASE))
    wf = wigner_form(covariance(gs))
    half = 7.0 / (2.0 * np.sqrt(min(gs.lambda11, gs.lambda22)))
    n = 401
    g1, g2, density = marginal_position(wf, axes=((-half, half, n), (-half, half, n)))
    dx = g1[1] - g1[0]
    assert float(density.sum() * dx * dx) == pytest.approx(1.0, abs=1e-4)


def test_position_marginal_rejects_degenerate_form():
    with pytest.raises(DegenerateForm):
        marginal_position(wigner_form(illustration_covariance()))


# ---------------------------------------------------------------- files


def test_save_grid_files(tmp_path):
    wf = wigner_form(covariance(ground_state(to_commutative(BASE))))
    grid = project(wf, ("x2", "p2"), {"x1": 1.0, "p1": 1.0}, ((-2, 2, 5), (-2, 2, 4)))
    prefix = str(tmp_path / "slice")
    csv_path, meta_path = save_grid(grid, prefix)
    text = open(csv_path).read()
    lines = text.split("\n")
    assert lines[0].startswith(",-2.0,")
    assert len(lines[0].split(",")) == 5
    assert len(lines) == 7  # header + 5 rows + trailing newline
    meta = json.loads(open(meta_path).read())
    assert meta["kind"] == "wigner"
    assert meta["plane"] == ["x2", "p2"]
    assert meta["fixed"] == {"p1": 1.0, "x1": 1.0}
    assert meta["axis1"]["steps"] == 5
    assert meta["degenerate"] is False
    assert meta["w_max"] > meta["w_min"] > 0


def test_save_grid_writes_no_file_when_it_fails(tmp_path):
    wf = wigner_form(covariance(ground_state(to_commutative(BASE))))
    grid = WignerGrid(
        ("x2", "p2"), {}, np.linspace(-1, 1, 3), np.zeros(0), np.zeros((3, 0)), wf
    )
    with pytest.raises(IndexError):
        save_grid(grid, str(tmp_path / "out"))
    assert list(tmp_path.iterdir()) == []


def test_save_grid_triples_layout(tmp_path):
    wf = wigner_form(illustration_covariance())
    grid = project(wf, ("x1", "p2"), {"p1": 0.0, "x2": 0.0}, ((-1, 1, 3), (-1, 1, 3)))
    csv_path, _ = save_grid(grid, str(tmp_path / "t"), triples=True)
    lines = open(csv_path).read().split("\n")
    assert lines[0] == "# x1 p2 w"
    assert lines[1].split() == ["-1.0", "-1.0", repr(float(grid.values[0, 0]))]
    # blank separator line between axis1 blocks (gnuplot splot format)
    assert lines[4] == ""


def csv_oracle(grid, triples=False):
    """WignerGrid.csv_text as written before it formatted whole rows: every
    cell through repr(float(.)), one at a time."""
    if triples:
        lines = [f"# {grid.plane[0]} {grid.plane[1]} w"]
        for i, a in enumerate(grid.axis1):
            for j, b in enumerate(grid.axis2):
                lines.append(
                    f"{float(a)!r} {float(b)!r} {float(grid.values[i, j])!r}"
                )
            lines.append("")
        return "\n".join(lines) + "\n"
    head = "," + ",".join(repr(float(b)) for b in grid.axis2)
    lines = [head]
    for i, a in enumerate(grid.axis1):
        row = [repr(float(a))] + [repr(float(w)) for w in grid.values[i]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


SPECIAL = [0.0, -0.0, 5e-324, 1e-5, 1e16, 1e300, -2.5, -1e300, math.inf, math.nan]
CELLS = st.sampled_from(SPECIAL) | st.floats()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.data())
def test_csv_text_matches_cell_by_cell_oracle(n1, n2, data):
    grid = WignerGrid(
        plane=("x1", "p2"),
        fixed={"p1": 0.0, "x2": 0.0},
        axis1=data.draw(arrays(np.float64, n1, elements=CELLS)),
        axis2=data.draw(arrays(np.float64, n2, elements=CELLS)),
        values=data.draw(arrays(np.float64, (n1, n2), elements=CELLS)),
        form=wigner_form(illustration_covariance()),
    )
    assert grid.csv_text() == csv_oracle(grid)
    assert grid.csv_text(triples=True) == csv_oracle(grid, triples=True)


def test_csv_text_writes_integer_and_float32_grids_as_floats():
    grid = WignerGrid(
        plane=("x2", "p2"),
        fixed={"x1": 0.0, "p1": 0.0},
        axis1=np.arange(3),
        axis2=np.array([-1, 1]),
        values=np.full((3, 2), 0.1, dtype=np.float32),
        form=wigner_form(illustration_covariance()),
    )
    w = repr(float(np.float32(0.1)))
    assert grid.csv_text().split("\n")[:2] == [",-1.0,1.0", f"0.0,{w},{w}"]
    for triples in (False, True):
        assert grid.csv_text(triples=triples) == csv_oracle(grid, triples)
