"""Fisher-information toolkit for two coupled charge qubits under dephasing."""

__version__ = "0.1.0"

from .errors import ContractViolationError, DegenerateDerivativeError, IntegrationError
from .model import (
    DensityMatrix,
    SystemParams,
    bell_state_psi_plus,
    build_hamiltonian,
    kappa_coefficients,
)
from .dynamics import (
    AnalyticCoefficients,
    AnalyticEigensystem,
    AuditReport,
    EigStructureParams,
    Liouvillian,
    analytic_coefficients,
    analytic_eigensystem,
    analytic_state_matrix,
    audit_analytic,
    build_liouvillian,
    lindblad_rhs,
    propagate_expm,
    propagate_rk,
)
from .spectral import SpectralDecomposition, spectral_decompose
from .qfi import (
    EstimandTag,
    QfiBreakdown,
    SpectralDerivative,
    cramer_rao,
    d_rho,
    qfi_components,
    qfi_sld,
    spectral_derivative,
)
from .sweeps import (
    FIGURES,
    FigureSpec,
    SweepConfig,
    SweepResult,
    SweepRow,
    figure_dataset,
    run_sweep,
    sweep_to_csv,
    sweep_to_json,
)

__all__ = [
    "ContractViolationError", "DegenerateDerivativeError", "IntegrationError",
    "DensityMatrix", "SystemParams", "bell_state_psi_plus", "build_hamiltonian",
    "kappa_coefficients",
    "AnalyticCoefficients", "AnalyticEigensystem", "AuditReport", "EigStructureParams",
    "Liouvillian", "analytic_coefficients", "analytic_eigensystem", "analytic_state_matrix",
    "audit_analytic", "build_liouvillian", "lindblad_rhs", "propagate_expm", "propagate_rk",
    "SpectralDecomposition", "spectral_decompose",
    "EstimandTag", "QfiBreakdown", "SpectralDerivative", "cramer_rao", "d_rho",
    "qfi_components", "qfi_sld", "spectral_derivative",
    "FIGURES", "FigureSpec", "SweepConfig", "SweepResult", "SweepRow",
    "figure_dataset", "run_sweep", "sweep_to_csv", "sweep_to_json",
]
