"""Separability of the two-mode Gaussian ground state.

For a Gaussian state the Peres-Horodecki partial-transpose test is
necessary and sufficient (Simon, Phys. Rev. Lett. 84, 2726 (2000)) and
takes a determinant form.  Writing the covariance matrix in 2x2 blocks

    V = [[A, C], [C^T, B]],

the state is separable exactly when

    det A det B + (1/4 - |det C|)^2 - tr(A J C J B J C^T J)
        >= (det A + det B) / 4,                    J = [[0, 1], [-1, 0]].

The right side is sometimes quoted without the 1/4 factor; that variant
is strictly stronger than the uncertainty relation itself and classifies
every state of this family (including exact product states) as
entangled, so it cannot serve as a verdict.  Reports carry the margin of
both versions; the verdict uses the form above.  An independent check
computes the smallest symplectic eigenvalue of the partially transposed
covariance matrix, which must reach 1/2 for separable states.

For the oscillator ground state the entire question collapses onto the
imaginary cross coefficient y of the exponent: the margin works out to
-y^2 / (16 L11 L22), so the state is separable iff y = 0, which happens
at theta = eta = 0, at wt1 = wt2, and on the constraint surface
theta m1 wt1 = eta / (m2 wt2).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import EmptyRange, InvalidAxisName
from .gaussian import (
    CovarianceMatrix,
    covariance,
    covariance_matrix,
    exponent_coefficients,
    exponent_denominator,
    ground_state,
    nonpositive_coefficients,
    require_physical,
    vanishing_denominator,
)
from .params import PhysicalParams, to_commutative, validate
from .symplectic import (
    I_SIGMA_Y,
    biquadratic,
    mode_collision,
    spectral_data,
    squared_frequencies,
    zero_mode,
)

SEPARABLE = "separable"
ENTANGLED = "entangled"

# scan axes and JSON inputs use the CLI spellings; w1/w2 address the
# physical frequencies
AXIS_FIELDS = {
    "m1": "m1",
    "m2": "m2",
    "w1": "wt1",
    "w2": "wt2",
    "theta": "theta",
    "eta": "eta",
}


def inputs_obj(p: PhysicalParams) -> dict:
    """The six inputs of p under their CLI names, in CLI order."""
    return {name: getattr(p, field) for name, field in AXIS_FIELDS.items()}


def json_text(obj, *, pretty: bool = False) -> str:
    """obj as compact one-line JSON, or indented with pretty; ends in \\n."""
    if pretty:
        return json.dumps(obj, indent=2) + "\n"
    return json.dumps(obj, separators=(",", ":")) + "\n"


@dataclass(frozen=True)
class SeparabilityReport:
    """Determinant-test quantities and the verdict for one state.

    margin = lhs - rhs is >= 0 (up to eps) for separable states; the
    _unscaled pair refers to the variant right side det1 + det2 kept for
    diagnostics only.  ppt_min is the smallest symplectic eigenvalue of
    the partially transposed covariance matrix (>= 1/2 means separable,
    up to the band described in simon_report); reason tags which structural mechanism produced a separable verdict.
    """

    det1: float
    det2: float
    det12: float
    trace_term: float
    lhs: float
    rhs: float
    margin: float
    rhs_unscaled: float
    margin_unscaled: float
    verdict: str
    boundary: bool
    ppt_min: float | None = None
    ppt_verdict: str | None = None
    reason: str | None = None


def _mul2(x, y) -> tuple:
    """Product of 2x2 matrices given as entry tuples (m00, m01, m10, m11)."""
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def simon_terms(m: np.ndarray) -> tuple:
    """(det A, det B, det C, tr(A J C J B J C^T J)) of V = [[A, C], [C^T, B]].

    m is one 4x4 matrix or a stack with leading axes.  Everything is
    plain elementwise arithmetic on the sixteen entries, so a stacked
    evaluation matches the single-matrix one bit for bit.
    """
    e = m.T  # e[j, i] is V_ij, over any leading axes of m
    a = (e[0, 0], e[1, 0], e[0, 1], e[1, 1])
    b = (e[2, 2], e[3, 2], e[2, 3], e[3, 3])
    c00, c01, c10, c11 = e[2, 0], e[3, 0], e[2, 1], e[3, 1]
    # J C J and J C^T J, with J = [[0, 1], [-1, 0]]: sign flips only
    jcj = (-c11, c10, c01, -c00)
    jctj = (-c11, c01, c10, -c00)
    ap = _mul2(a, jcj)
    bq = _mul2(b, jctj)
    trace_term = ap[0] * bq[0] + ap[1] * bq[2] + ap[2] * bq[1] + ap[3] * bq[3]
    return (
        a[0] * a[3] - a[1] * a[2],
        b[0] * b[3] - b[1] * b[2],
        c00 * c11 - c01 * c10,
        trace_term,
    )


def simon_margin(det1, det2, det12, trace_term) -> tuple:
    """(lhs, rhs, margin) of the determinant test; elementwise."""
    g = 0.25 - abs(det12)
    lhs = det1 * det2 + g * g - trace_term
    rhs = 0.25 * (det1 + det2)
    return lhs, rhs, lhs - rhs


def separable(margin, rhs, eps_sep: float):
    """Verdict predicate: margin >= -eps_sep * rhs.  Elementwise."""
    return margin >= -(eps_sep * rhs)


def on_boundary(margin, rhs, eps_sep: float):
    """Boundary predicate: |margin| <= eps_sep * rhs.  Elementwise."""
    return abs(margin) <= eps_sep * rhs


def ppt_oracle(v: CovarianceMatrix | np.ndarray) -> float:
    """Smallest symplectic eigenvalue after partial transposition.

    Partial transposition of mode 2 flips the sign of p2.  The symplectic
    spectrum is read off the eigenvalues of (J2 + J2) Vt; values below
    1/2 witness entanglement, and for two-mode Gaussian states the
    witness is conclusive.
    """
    m = np.asarray(v)
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    vt = flip @ m @ flip
    return float(np.min(np.abs(np.linalg.eigvals(I_SIGMA_Y @ vt))))


def simon_report(
    v: CovarianceMatrix | np.ndarray,
    *,
    eps_sep: float = 1e-12,
    ppt: bool = True,
) -> SeparabilityReport:
    """Evaluate the determinant separability test on a covariance matrix.

    eps_sep is relative: verdicts compare margin against eps_sep * rhs,
    which keeps the decision band meaningful across parameter scales
    (margin is quartic in the state's natural units while rhs never
    drops below the vacuum value).  The boundary flag marks
    |margin| <= eps_sep * rhs.  The PPT verdict uses the image of that
    band: on this pure family 1/2 - ppt_min ~ sqrt(-margin), so it reads
    separable when 1/2 - ppt_min <= sqrt(eps_sep * rhs).  Raises
    UnphysicalCovariance when V fails the Robertson-Schroedinger check.
    """
    m = np.asarray(v)
    require_physical(m)
    return _simon_report(m, eps_sep, ppt)


def _simon_report(m: np.ndarray, eps_sep: float, ppt: bool) -> SeparabilityReport:
    """simon_report on a 4x4 array that already passed require_physical."""
    det1, det2, det12, trace_term = simon_terms(m)
    lhs, rhs, margin = simon_margin(det1, det2, det12, trace_term)
    ppt_min = ppt_verdict = None
    if ppt:
        ppt_min = ppt_oracle(m)
        ppt_verdict = (
            SEPARABLE if 0.5 - ppt_min <= np.sqrt(eps_sep * rhs) else ENTANGLED
        )
    return SeparabilityReport(
        det1=float(det1),
        det2=float(det2),
        det12=float(det12),
        trace_term=float(trace_term),
        lhs=float(lhs),
        rhs=float(rhs),
        margin=float(margin),
        rhs_unscaled=float(det1 + det2),
        margin_unscaled=float(lhs - (det1 + det2)),
        verdict=SEPARABLE if separable(margin, rhs, eps_sep) else ENTANGLED,
        boundary=bool(on_boundary(margin, rhs, eps_sep)),
        ppt_min=ppt_min,
        ppt_verdict=ppt_verdict,
    )


def _reason(p: PhysicalParams, eps_c: float) -> str:
    if p.theta == 0.0 and p.eta == 0.0:
        return "theta_eta_zero"
    if abs(p.wt1 - p.wt2) <= eps_c * max(p.wt1, p.wt2):
        return "equal_frequencies"
    lhs = p.theta * p.m1 * p.wt1
    rhs = p.eta / (p.m2 * p.wt2)
    if abs(lhs - rhs) <= eps_c * max(lhs, rhs, 1e-300):
        return "constraint"
    return "generic"


def classify(
    p: PhysicalParams,
    *,
    eps_sep: float = 1e-12,
    eps_c: float = 1e-12,
    ppt: bool = True,
) -> SeparabilityReport:
    """Separability verdict for physical inputs, with a structural reason.

    The reason tag records which known separable surface (if any) the
    inputs lie on: "theta_eta_zero", "equal_frequencies", "constraint"
    (theta m1 wt1 = eta / (m2 wt2) within eps_c) or "generic".  The
    verdict itself always comes from the computed margin.
    """
    validate(p)
    cp = to_commutative(p)
    sd = spectral_data(cp)
    gs = ground_state(cp, sd)
    rep = simon_report(covariance(gs), eps_sep=eps_sep, ppt=ppt)
    return dataclasses.replace(rep, reason=_reason(p, eps_c))


@dataclass(frozen=True)
class AxisSpec:
    """One scan axis: a parameter name and a uniform grid over [start, stop]."""

    name: str
    start: float
    stop: float
    steps: int

    def grid(self) -> np.ndarray:
        if self.name not in AXIS_FIELDS:
            raise InvalidAxisName(
                f"axis {self.name!r} is not one of {sorted(AXIS_FIELDS)}"
            )
        if self.steps < 1:
            raise EmptyRange(f"axis {self.name!r} has {self.steps} points")
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class ScanRow:
    """One grid point: axis values, margin and verdict.

    Points where the spectrum (or the ground-state construction)
    degenerates carry degenerate=True, an empty verdict and no margin.
    """

    point: tuple
    margin: float | None
    verdict: str
    boundary: bool
    degenerate: bool


# verdict codes of ScanResult.verdict index this tuple; scan gives code 2
# (no verdict) exactly to the degenerate points
VERDICTS = (ENTANGLED, SEPARABLE, "")
NO_VERDICT = 2


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Scan output as columns, one entry per grid point in row-major order.

    grids      : the axis values, one float64 array per axis
    margin     : float64 margin, NaN on degenerate points
    verdict    : int8 index into VERDICTS
    boundary   : bool, |margin| <= eps_sep * rhs
    degenerate : bool, a spectral or ground-state gate fired

    Whether a point has a margin and a verdict is read from degenerate,
    never from NaN: a NaN margin on a point that is not degenerate prints
    as nan.  No per-point object is kept; rows builds ScanRows on demand.
    """

    base: PhysicalParams
    axes: tuple
    grids: tuple
    margin: np.ndarray
    verdict: np.ndarray
    boundary: np.ndarray
    degenerate: np.ndarray
    eps_sep: float

    @property
    def rows(self) -> ScanRows:
        """The points as a read-only sequence of ScanRow, built on access."""
        return ScanRows(self)

    def _row_values(self):
        """(point, margin, verdict, boundary, degenerate) of every point as
        Python values, in row order."""
        degenerate = self.degenerate.tolist()
        margins = [
            None if d else m for m, d in zip(self.margin.tolist(), degenerate)
        ]
        return zip(
            itertools.product(*[g.tolist() for g in self.grids]),
            margins,
            map(VERDICTS.__getitem__, self.verdict.tolist()),
            self.boundary.tolist(),
            degenerate,
        )

    def counts(self) -> dict:
        columns = {
            "separable": self.verdict == VERDICTS.index(SEPARABLE),
            "entangled": self.verdict == VERDICTS.index(ENTANGLED),
            "boundary": self.boundary,
            "degenerate": self.degenerate,
        }
        return {name: int(np.count_nonzero(c)) for name, c in columns.items()}

    def csv_text(self) -> str:
        """Deterministic CSV: axis columns, margin, verdict, boundary, degenerate.

        Floats use repr (shortest round-trip), booleans are true/false,
        degenerate rows leave margin and verdict empty.  Lines end in \\n.
        """
        names = [ax.name for ax in self.axes]
        header = ",".join(names + ["margin", "verdict", "boundary", "degenerate"])
        # each axis value is formatted once, not once per row it appears in
        axis_text = [[repr(x) for x in g.tolist()] for g in self.grids]
        points = map(",".join, itertools.product(*axis_text))
        margins = [repr(m) for m in self.margin.tolist()]
        for k in np.flatnonzero(self.degenerate).tolist():
            margins[k] = ""
        flag = ("false", "true")
        # verdict, boundary and degenerate cells, shared by all rows alike
        tails = [
            f"{v},{flag[b]},{flag[d]}" for v in VERDICTS for b in (0, 1) for d in (0, 1)
        ]
        key = 4 * self.verdict.astype(np.intp) + 2 * self.boundary + self.degenerate
        lines = map("{},{},{}".format, points, margins, map(tails.__getitem__, key.tolist()))
        return "\n".join(itertools.chain([header], lines)) + "\n"

    def json_obj(self) -> dict:
        keys = [f.name for f in dataclasses.fields(ScanRow)]
        return {
            "base": dataclasses.asdict(self.base),
            "axes": [dataclasses.asdict(ax) for ax in self.axes],
            "eps_sep": self.eps_sep,
            "counts": self.counts(),
            "rows": [dict(zip(keys, values)) for values in self._row_values()],
        }

    def json_text(self, *, pretty: bool = False) -> str:
        return json_text(self.json_obj(), pretty=pretty)


class ScanRows(Sequence):
    """Read-only view of a ScanResult as ScanRows, built on each access."""

    def __init__(self, result: ScanResult):
        self._result = result

    def __len__(self) -> int:
        return len(self._result.margin)

    def __iter__(self):
        return itertools.starmap(ScanRow, self._result._row_values())

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        i = range(len(self))[k]  # negative indices; IndexError out of range
        res = self._result
        shape = tuple(len(g) for g in res.grids)
        point = tuple(
            float(g[j]) for g, j in zip(res.grids, np.unravel_index(i, shape))
        )
        degenerate = bool(res.degenerate[i])
        return ScanRow(
            point=point,
            margin=None if degenerate else float(res.margin[i]),
            verdict=VERDICTS[res.verdict[i]],
            boundary=bool(res.boundary[i]),
            degenerate=degenerate,
        )


# grid points per batched evaluation in scan.  It bounds the working
# memory: on the 121 x 121 benchmark grid, 2048 keeps the scan's peak RSS
# at the per-point loop's, while 16384 raised it by about 5 MB.
SCAN_CHUNK = 2048


def _scan_columns(p: PhysicalParams, eps_sep: float) -> tuple:
    """(margin, verdict, boundary, degenerate) arrays for the grid points
    p, whose axis fields are arrays: the columns of ScanResult.

    The closed forms and gate predicates are those of classify, evaluated
    on arrays.  Points that trip a gate are degenerate, with a NaN margin
    and the empty verdict.  Invalid points raise through validate, and an
    unphysical covariance through require_physical.
    """
    with np.errstate(all="ignore"):  # gated rows may divide by zero
        cp = to_commutative(p)
        b, c, delta, *_ = biquadratic(cp)
        lam1sq, lam2sq = squared_frequencies(b, c, delta)
        l1, l2 = np.sqrt(lam1sq), np.sqrt(lam2sq)
        scale, denom = exponent_denominator(cp, l1, l2)
        l11, l22, y, d = exponent_coefficients(cp, l1, l2, denom)
        degenerate = (
            mode_collision(b, delta)
            | zero_mode(b, lam2sq)
            | vanishing_denominator(denom, scale)
            | nonpositive_coefficients(l11, l22)
        )
    ok = ~degenerate
    v = covariance_matrix(l11[ok], l22[ok], y[ok], d[ok])
    require_physical(v)
    _, rhs, margin_ok = simon_margin(*simon_terms(v))
    margin = np.full(ok.shape, np.nan)
    margin[ok] = margin_ok
    verdict = np.full(ok.shape, NO_VERDICT, dtype=np.int8)
    verdict[ok] = separable(margin_ok, rhs, eps_sep)
    boundary = np.zeros(ok.shape, dtype=bool)
    boundary[ok] = on_boundary(margin_ok, rhs, eps_sep)
    return margin, verdict, boundary, degenerate


def scan(
    base: PhysicalParams,
    axis1: AxisSpec,
    axis2: AxisSpec | None = None,
    *,
    eps_sep: float = 1e-12,
) -> ScanResult:
    """Margin and verdict over a 1D or 2D grid of physical parameters.

    Points are ordered row-major (axis1 outer, axis2 inner).  The grid
    is evaluated in batches of SCAN_CHUNK points, each in a few array
    calls through the same closed forms and gates as classify, so a row
    equals classify on its point bit for bit (margin, verdict, boundary)
    while working memory stays bounded by the chunk size.  The result
    keeps only the columns (about 11 bytes per point); ScanResult.rows
    builds ScanRows on demand.  Points that trip a spectral or
    ground-state gate are recorded as degenerate rather than raised;
    invalid parameter values (a grid that walks into m <= 0 or
    theta < 0) raise the error validate gives for the first such point,
    since the grid itself is at fault.  Scans skip the PPT cross-check
    and the structural reason tag of classify.
    """
    axes = (axis1,) if axis2 is None else (axis1, axis2)
    grids = tuple(ax.grid() for ax in axes)
    if len(axes) == 2 and axes[0].name == axes[1].name:
        raise InvalidAxisName(f"both axes scan {axis1.name!r}")
    shape = tuple(len(g) for g in grids)
    n = math.prod(shape)
    chunks = []
    for lo in range(0, n, SCAN_CHUNK):
        idx = np.arange(lo, min(lo + SCAN_CHUNK, n))
        columns = [g[i] for g, i in zip(grids, np.unravel_index(idx, shape))]
        p = dataclasses.replace(
            base, **{AXIS_FIELDS[ax.name]: col for ax, col in zip(axes, columns)}
        )
        chunks.append(_scan_columns(p, eps_sep))
    margin, verdict, boundary, degenerate = map(np.concatenate, zip(*chunks))
    return ScanResult(base, axes, grids, margin, verdict, boundary, degenerate, eps_sep)
