"""Noncommutative-space anisotropic oscillator: spectrum, ground-state
entanglement, Wigner distribution and measurement-powered work extraction.

The pipeline runs from six physical inputs (two masses, two frequencies,
the position-position deformation theta and the momentum-momentum
deformation eta):

    PhysicalParams --to_commutative--> CommutativeParams
                   --spectral_data--> gated closed forms (frequencies, L11, L22, y)
                   --assemble_eigensystem--> verified mode transformation
                   --ground_state--> Gaussian exponent coefficients
                   --covariance--> 4x4 covariance matrix
                   --classify / simon_report--> separability verdict
                   --wigner_form--> phase-space distribution
                   --extractable_work--> Szilard-engine work

`analyze` runs everything at once; the `ncho` command line exposes
analyze/scan/wigner/szilard.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateForm,
    DegenerateGroundState,
    DegenerateSpectrum,
    EmptyRange,
    HomodyneUnsupported,
    InvalidAxisName,
    InvalidPlane,
    NchoError,
    NegativeDeformation,
    NonPositiveParameter,
    SingularMeasurement,
    SingularQ,
    UnphysicalCovariance,
)
from .gaussian import (
    CovarianceMatrix,
    GroundState,
    covariance,
    energy,
    ground_state,
    psi0,
    require_physical,
    rs_min_eigenvalue,
    variance_products,
)
from .params import (
    CommutativeParams,
    PhysicalParams,
    bopp_matrix,
    effective_planck,
    to_commutative,
    validate,
)
from .report import AnalysisReport, analyze
from .separability import (
    AxisSpec,
    ScanResult,
    ScanRow,
    SeparabilityReport,
    classify,
    ppt_oracle,
    scan,
    simon_report,
)
from .symplectic import (
    EigenSystem,
    assemble_eigensystem,
    build_hamiltonian,
    build_omega,
    spectral_data,
)
from .szilard import (
    MeasurementSpec,
    SzilardResult,
    conditional_covariance,
    extractable_work,
    measurement_covariance,
)
from .wigner import (
    WignerForm,
    WignerGrid,
    illustration_covariance,
    marginal_position,
    project,
    save_grid,
    wigner_form,
)

__all__ = [
    "__version__",
    "NchoError",
    "NonPositiveParameter",
    "NegativeDeformation",
    "DegenerateSpectrum",
    "SingularQ",
    "DegenerateGroundState",
    "UnphysicalCovariance",
    "EmptyRange",
    "InvalidAxisName",
    "InvalidPlane",
    "DegenerateForm",
    "HomodyneUnsupported",
    "SingularMeasurement",
    "PhysicalParams",
    "CommutativeParams",
    "validate",
    "effective_planck",
    "bopp_matrix",
    "to_commutative",
    "EigenSystem",
    "build_hamiltonian",
    "build_omega",
    "spectral_data",
    "assemble_eigensystem",
    "GroundState",
    "CovarianceMatrix",
    "ground_state",
    "psi0",
    "covariance",
    "rs_min_eigenvalue",
    "require_physical",
    "variance_products",
    "energy",
    "SeparabilityReport",
    "AxisSpec",
    "ScanRow",
    "ScanResult",
    "simon_report",
    "ppt_oracle",
    "classify",
    "scan",
    "WignerForm",
    "WignerGrid",
    "wigner_form",
    "project",
    "marginal_position",
    "save_grid",
    "illustration_covariance",
    "MeasurementSpec",
    "SzilardResult",
    "measurement_covariance",
    "conditional_covariance",
    "extractable_work",
    "AnalysisReport",
    "analyze",
]
