"""Wigner distribution of the Gaussian ground state.

For the correlated Gaussian ground state the phase-space distribution

    W(Z) = (1/pi^2) integral d^2t  psi*(x - t) e^{-2 i (t1 p1 + t2 p2)}
           psi(x + t),       Z = (x1, p1, x2, p2),

is again a Gaussian, W(Z) = N exp(-Z^T M Z).  For a pure Gaussian state
with covariance V the exponent matrix is the congruence

    M = 2 Omega^T V Omega,      Omega = i Sigma_y,

which equals inv(V)/2 because purity means (Omega V)^2 = -1/4, that is
2 M V = 1 (Adesso & Illuminati, J. Phys. A 40, 7821 (2007)).  Omega
swaps x_i and p_i within each mode, so <p1^2> sets the x1 x1 entry of
M, <p1 x2> the x1 p2 entry, and so on.  The tests check M against
inv(V)/2 and against the defining Fourier integral by quadrature.

The congruence needs no inverse, so it also applies to the singular
illustration moments below, whose exponent is degenerate (det M = 0).
A normalizable form must pass the purity check 2 M V = 1; a mixed V is
rejected rather than given the exponent of another state.

Normalization: N = sqrt(det M) / pi^2 makes the integral of W equal 1.
The constant 2/(pi hbar^2) that is conventional in front of the
two-mode convolution form is kept in the report as raw_prefactor; for a
degenerate exponent the distribution is not normalizable and
raw_prefactor is used verbatim for display.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateForm, EmptyRange, InvalidPlane
from .gaussian import CovarianceMatrix
from .symplectic import I_SIGMA_Y

AXIS_INDEX = {"x1": 0, "p1": 1, "x2": 2, "p2": 3}


@dataclass(frozen=True)
class WignerForm:
    """Exponent matrix and prefactors of W(Z) = norm * exp(-Z^T m Z).

    norm is sqrt(det m)/pi^2 for a normalizable form; for a degenerate
    form (det m = 0) it falls back to raw_prefactor = 2/pi and the
    degenerate flag is set.
    """

    m: np.ndarray
    norm: float
    raw_prefactor: float
    degenerate: bool


@dataclass(frozen=True)
class WignerGrid:
    """W sampled on a rectangular slice of phase space.

    plane  : the two scanned axis names, e.g. ("x2", "p2")
    fixed  : clamped values of the remaining two axes
    axis1, axis2 : grid nodes along plane[0], plane[1]
    values : values[i, j] = W at axis1[i], axis2[j]
    form   : the WignerForm the grid was sampled from
    """

    plane: tuple
    fixed: dict
    axis1: np.ndarray
    axis2: np.ndarray
    values: np.ndarray
    form: WignerForm
    kind: str = "wigner"

    def csv_text(self, *, triples: bool = False) -> str:
        """Grid as CSV (matrix layout) or gnuplot-style x y w triples.

        Matrix layout: first row is ,axis2 nodes; each following row is
        an axis1 node followed by that row of W values.  Triples layout
        uses space-separated columns with a blank line between axis1
        blocks, which splot consumes directly.
        """
        axis1 = np.asarray(self.axis1, dtype=float).tolist()
        axis2 = np.asarray(self.axis2, dtype=float).tolist()
        rows = zip(axis1, np.asarray(self.values, dtype=float))
        # map(repr, ...) formats in C; row by row, no grid-sized list is held
        if triples:
            axis2 = [repr(b) + " " for b in axis2]
            lines = [f"# {self.plane[0]} {self.plane[1]} w"]
            for a, row in rows:
                a = repr(a) + " "
                block = [a + b + w for b, w in zip(axis2, map(repr, row.tolist()))]
                lines.append("\n".join(block + [""]))  # a blank line ends a block
        else:
            lines = ["," + ",".join(map(repr, axis2))]
            lines += [",".join(map(repr, [a, *row.tolist()])) for a, row in rows]
        return "\n".join(lines) + "\n"

    def meta_obj(self) -> dict:
        return {
            "kind": self.kind,
            "plane": list(self.plane),
            "fixed": {k: self.fixed[k] for k in sorted(self.fixed)},
            "axis1": {
                "name": self.plane[0],
                "start": float(self.axis1[0]),
                "stop": float(self.axis1[-1]),
                "steps": int(self.axis1.size),
            },
            "axis2": {
                "name": self.plane[1],
                "start": float(self.axis2[0]),
                "stop": float(self.axis2[-1]),
                "steps": int(self.axis2.size),
            },
            "exponent_matrix": [[float(x) for x in row] for row in self.form.m],
            "norm": self.form.norm,
            "raw_prefactor": self.form.raw_prefactor,
            "degenerate": self.form.degenerate,
            "w_min": float(self.values.min()),
            "w_max": float(self.values.max()),
        }


def wigner_form(
    v: CovarianceMatrix | np.ndarray, *, deg_tol: float = 1e-12
) -> WignerForm:
    """Exponent matrix M = 2 Omega^T V Omega of W from the covariance matrix.

    det M below deg_tol (relative to the diagonal scale) marks the form
    degenerate.  A normalizable form must come from a pure state,
    |2 M V - 1| <= 1e-9 (Frobenius norm); otherwise M is not the
    exponent of V and ValueError is raised.
    """
    mv = np.asarray(v)
    m = 2.0 * (I_SIGMA_Y.T @ mv @ I_SIGMA_Y)
    det = float(np.linalg.det(m))
    dscale = float(np.prod(np.diag(m))) or 1.0
    raw = 2.0 / np.pi
    if det <= deg_tol * abs(dscale):
        return WignerForm(m=m, norm=raw, raw_prefactor=raw, degenerate=True)
    impurity = float(np.linalg.norm(2.0 * m @ mv - np.eye(4)))
    if impurity > 1e-9:
        raise ValueError(
            f"covariance matrix is not that of a pure state: |2 M V - 1| = "
            f"{impurity:.3e} > 1e-9"
        )
    return WignerForm(
        m=m, norm=float(np.sqrt(det) / np.pi**2), raw_prefactor=raw, degenerate=False
    )


def evaluate(wf: WignerForm, z) -> np.ndarray:
    """W at phase-space points z of shape (..., 4) in (x1,p1,x2,p2) order."""
    z = np.asarray(z, dtype=float)
    expo = np.einsum("...i,ij,...j->...", z, wf.m, z)
    return wf.norm * np.exp(-expo)


def _nodes(axes: tuple, fixed: dict) -> list:
    """Node arrays of axes ((start, stop, steps), ...).  EmptyRange for an
    axis without points, InvalidPlane for a node or fixed value that is
    not finite."""
    if any(int(steps) < 1 for _, _, steps in axes):
        raise EmptyRange(f"every grid axis needs at least 1 point, got {axes}")
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        nodes = [np.linspace(float(a), float(b), int(n)) for a, b, n in axes]
    values = np.concatenate([*nodes, [float(v) for v in fixed.values()]])
    if not np.isfinite(values).all():
        raise InvalidPlane("grid bounds and fixed values must be finite")
    return nodes


def project(
    wf: WignerForm,
    plane: tuple,
    fixed: dict,
    axes: tuple = ((-4.0, 4.0, 201), (-4.0, 4.0, 201)),
) -> WignerGrid:
    """Sample W on a 2D slice: scan the plane axes, clamp the other two.

    plane names two distinct axes out of x1, p1, x2, p2 and fixed must
    supply values for exactly the remaining two; anything else raises
    InvalidPlane.
    """
    plane = tuple(plane)
    if (
        len(plane) != 2
        or plane[0] == plane[1]
        or any(a not in AXIS_INDEX for a in plane)
    ):
        raise InvalidPlane(f"plane must be two distinct axes, got {plane!r}")
    rest = sorted(set(AXIS_INDEX) - set(plane), key=lambda a: AXIS_INDEX[a])
    if set(fixed) != set(rest):
        raise InvalidPlane(
            f"fixed must supply exactly {rest}, got {sorted(fixed)}"
        )
    g1, g2 = _nodes(axes, fixed)
    z = np.zeros((g1.size, g2.size, 4))
    z[..., AXIS_INDEX[plane[0]]] = g1[:, None]
    z[..., AXIS_INDEX[plane[1]]] = g2[None, :]
    for name, value in fixed.items():
        z[..., AXIS_INDEX[name]] = float(value)
    return WignerGrid(
        plane=plane,
        fixed={k: float(v) for k, v in fixed.items()},
        axis1=g1,
        axis2=g2,
        values=evaluate(wf, z),
        form=wf,
    )


def marginal_position(
    wf: WignerForm, axes: tuple = ((-4.0, 4.0, 201), (-4.0, 4.0, 201))
) -> tuple:
    """(x1 nodes, x2 nodes, density): W integrated over both momenta.

    The momentum block is integrated in closed form; the result is the
    position density |psi0|^2 evaluated on the grid.  Raises
    DegenerateForm when the momentum block (or its Schur complement) is
    not positive definite, as for the degenerate illustration moments.
    """
    g1, g2 = _nodes(axes, {})
    q = [AXIS_INDEX["x1"], AXIS_INDEX["x2"]]
    r = [AXIS_INDEX["p1"], AXIS_INDEX["p2"]]
    mqq = wf.m[np.ix_(q, q)]
    mqr = wf.m[np.ix_(q, r)]
    mrr = wf.m[np.ix_(r, r)]
    det_rr = float(np.linalg.det(mrr))
    if wf.degenerate or det_rr <= 0.0:
        raise DegenerateForm("momentum block is not positive definite")
    schur = mqq - mqr @ np.linalg.solve(mrr, mqr.T)
    eig = np.linalg.eigvalsh(schur)
    if eig.min() <= 1e-12 * max(eig.max(), 1.0):
        raise DegenerateForm(
            f"position marginal is not normalizable (min eig {eig.min():.3e})"
        )
    x1 = g1[:, None]
    x2 = g2[None, :]
    expo = (
        schur[0, 0] * x1**2
        + 2.0 * schur[0, 1] * x1 * x2
        + schur[1, 1] * x2**2
    )
    density = wf.norm * np.pi / np.sqrt(det_rr) * np.exp(-expo)
    return g1, g2, density


def save_grid(grid: WignerGrid, prefix: str, *, triples: bool = False) -> tuple:
    """Write <prefix>.csv (the grid) and <prefix>.json (metadata).

    Returns the two paths.  Output is deterministic: repr floats, fixed
    key order, newline-terminated.  Both texts are built before either
    file is opened, so a grid whose text cannot be built leaves no file.
    """
    texts = {
        f"{prefix}.csv": grid.csv_text(triples=triples),
        f"{prefix}.json": json.dumps(grid.meta_obj(), indent=2) + "\n",
    }
    for path, text in texts.items():
        with open(path, "w") as f:
            f.write(text)
    return tuple(texts)


def illustration_covariance() -> CovarianceMatrix:
    """Built-in demonstration moments: every variance 1/2, crosses -1/2.

    These produce the maximally tilted exponent
    -(x1 + p2)^2 - (x2 + p1)^2, a degenerate (non-normalizable) form
    useful for visualizing how M pairs x1 with p2 and x2 with p1.  Not
    the moments of any physical state of this family.
    """
    v = 0.5 * np.eye(4)
    v[0, 3] = v[3, 0] = -0.5
    v[1, 2] = v[2, 1] = -0.5
    return CovarianceMatrix(matrix=v)
