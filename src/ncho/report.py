"""Full analysis of one parameter point, serializable to JSON."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from . import __version__
from .gaussian import (
    CovarianceMatrix,
    GroundState,
    covariance,
    ground_state,
    require_physical,
    variance_products,
)
from .params import (
    CommutativeParams,
    PhysicalParams,
    effective_planck,
    to_commutative,
    validate,
)
from .separability import SeparabilityReport, _reason, _simon_report, inputs_obj, json_text
from .symplectic import EigenSystem, SpectralData, assemble_eigensystem, spectral_data


@dataclass(frozen=True)
class AnalysisReport:
    params: PhysicalParams
    hbar_e: float
    commutative: CommutativeParams
    spectral: SpectralData
    eigensystem: EigenSystem
    ground: GroundState
    cov: CovarianceMatrix
    rs_min: float
    variance: tuple
    separability: SeparabilityReport
    tol: float
    eps_sep: float
    eps_c: float

    def json_obj(self) -> dict:
        """Report as a JSON-ready dict with fixed field order.

        The commutative, spectral, ground_state and separability blocks
        are the fields of their records, in declaration order.
        """
        cp, sd = self.commutative, self.spectral
        nunu = cp.nu1 * cp.nu2
        cross = (sd.b - cp.w1**2 - cp.w2**2) / nunu if nunu > 0.0 else None
        return {
            "version": __version__,
            "tolerances": {
                "identity": self.tol,
                "eps_sep": self.eps_sep,
                "eps_c": self.eps_c,
            },
            "inputs": inputs_obj(self.params),
            "effective_planck": self.hbar_e,
            "commutative": dict(vars(cp)),
            "spectral": {**vars(sd), "b_cross_coefficient": cross},
            "residuals": dict(self.eigensystem.residuals),
            "used_fallback": list(self.eigensystem.used_fallback),
            "ground_state": dict(vars(self.ground)),
            "covariance": [[float(x) for x in row] for row in self.cov.matrix],
            "rs_min_eigenvalue": self.rs_min,
            "variance_products": list(self.variance),
            "separability": dict(vars(self.separability)),
        }

    def json_text(self, *, pretty: bool = False) -> str:
        return json_text(self.json_obj(), pretty=pretty)


def analyze(
    p: PhysicalParams,
    *,
    tol: float = 1e-9,
    eps_sep: float = 1e-12,
    eps_c: float = 1e-12,
) -> AnalysisReport:
    """Run the whole pipeline on one parameter point.

    Covers the Bopp map, spectrum, eigensystem with identity residuals,
    ground state, covariance matrix, uncertainty products and the
    separability verdict with its PPT cross-check.
    """
    validate(p)
    cp = to_commutative(p)
    sd = spectral_data(cp)
    es = assemble_eigensystem(cp, sd, tol=tol)
    gs = ground_state(cp, sd)
    cov = covariance(gs)
    rs_min = require_physical(cov)
    rep = _simon_report(cov.matrix, eps_sep, ppt=True)
    rep = dataclasses.replace(rep, reason=_reason(p, eps_c))
    return AnalysisReport(
        params=p,
        hbar_e=effective_planck(p),
        commutative=cp,
        spectral=sd,
        eigensystem=es,
        ground=gs,
        cov=cov,
        rs_min=rs_min,
        variance=variance_products(gs),
        separability=rep,
        tol=tol,
        eps_sep=eps_sep,
        eps_c=eps_c,
    )
