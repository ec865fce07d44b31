"""Full analysis of one parameter point, serializable to JSON."""

from __future__ import annotations

from dataclasses import dataclass

from . import __version__
from .gaussian import (
    CovarianceMatrix,
    GroundState,
    covariance,
    ground_state,
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
from .symplectic import ClosedForms, EigenSystem, assemble_eigensystem, spectral_data


@dataclass(frozen=True)
class AnalysisReport:
    params: PhysicalParams
    hbar_e: float
    commutative: CommutativeParams
    spectral: ClosedForms
    eigensystem: EigenSystem
    ground: GroundState
    cov: CovarianceMatrix
    variance: tuple
    separability: SeparabilityReport
    tol: float
    eps_sep: float
    eps_c: float

    def json_obj(self) -> dict:
        """Report as a JSON-ready dict with fixed field order.

        The commutative, ground_state and separability blocks are the
        fields of their records that repr shows, in declaration order;
        the spectral block is the two frequencies.
        """
        return {
            "version": __version__,
            "tolerances": {
                "identity": self.tol,
                "eps_sep": self.eps_sep,
                "eps_c": self.eps_c,
            },
            "inputs": inputs_obj(self.params),
            "effective_planck": self.hbar_e,
            "commutative": _fields_obj(self.commutative),
            "spectral": {
                "lambda1": self.spectral.lambda1,
                "lambda2": self.spectral.lambda2,
            },
            "residuals": dict(self.eigensystem.residuals),
            "ground_state": _fields_obj(self.ground),
            "covariance": self.cov.matrix.tolist(),
            "variance_products": list(self.variance),
            "separability": _fields_obj(self.separability),
        }

    def json_text(self, *, pretty: bool = False) -> str:
        return json_text(self.json_obj(), pretty=pretty)


def _fields_obj(record) -> dict:
    """The fields of a dataclass record that its repr shows."""
    shown = record.__dataclass_fields__
    return {k: v for k, v in vars(record).items() if shown[k].repr}


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
    separability verdict with its PPT cross-check.  The covariance is
    physical by construction (see covariance), so it gets no RS check.
    """
    validate(p)
    cp = to_commutative(p)
    f = spectral_data(cp)
    es = assemble_eigensystem(p, f, tol=tol)
    gs = ground_state(cp, f)
    cov = covariance(gs)
    rep = _simon_report(cov.matrix, eps_sep, ppt=True, reason=_reason(p, f, eps_c))
    return AnalysisReport(
        params=p,
        hbar_e=effective_planck(p),
        commutative=cp,
        spectral=f,
        eigensystem=es,
        ground=gs,
        cov=cov,
        variance=variance_products(gs),
        separability=rep,
        tol=tol,
        eps_sep=eps_sep,
        eps_c=eps_c,
    )
