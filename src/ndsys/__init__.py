"""Toolkit for multiparametric linear stationary systems on the integer lattice.

The package models systems whose state and signals live on Z^N and evolve
along all N coordinate directions at once.  It provides windowed
simulation and closed-form trajectory formulas, symmetrized multipowers,
transfer functions on the polydisc, conservativity and dissipativity
analysis, translation-generator (scattering) views, and assembly of a
system from a transfer-function decomposition.
"""

from .errors import (
    ArityError,
    DivergenceError,
    DomainError,
    NdsysError,
    PreconditionError,
    RangeError,
    RankAmbiguityError,
    RealizationError,
    ShapeError,
    SingularityError,
)
from .lattice import Box, LatticeSignal, SimulationWindow
from .pencil import OperatorTuple, eval_pencil, multinomial, sym_multipower_table
from .system import (
    EnergyReport,
    EnergyRow,
    MultiLSDS,
    SimulationResult,
    Violation,
    closed_form,
    energy_balance_report,
    simulate,
    validate,
)
from .numerics import halton_disc, ordered_completion, orth_basis, spectral_norm
from .analysis import (
    BlockStructure,
    ConservativityCertificate,
    TorusScanReport,
    block_structure,
    closely_connected_subspace,
    conservativity_check,
    dissipativity_scan,
)
from .transfer import (
    MatrixPolynomial,
    maclaurin_poly,
    transfer_eval,
    transfer_eval_series,
)
from .laxphillips import (
    LPMask,
    MetricReport,
    OneParamSystemView,
    TruncatedLPVector,
    apply_adjoint,
    apply_generator,
    associated_one_param,
    commutation_residual,
    gamma_map,
    metric_check,
)
from .realization import (
    AglerData,
    AglerReport,
    RealizationResult,
    assemble_colligation,
    builtin_examples,
    canonical_fixture,
    verify_agler_identity,
)
from . import serialization

__version__ = "0.1.0"

__all__ = [
    "NdsysError",
    "ArityError",
    "ShapeError",
    "RangeError",
    "DomainError",
    "PreconditionError",
    "SingularityError",
    "DivergenceError",
    "RankAmbiguityError",
    "RealizationError",
    "Box",
    "SimulationWindow",
    "LatticeSignal",
    "OperatorTuple",
    "eval_pencil",
    "multinomial",
    "sym_multipower_table",
    "MultiLSDS",
    "Violation",
    "validate",
    "simulate",
    "closed_form",
    "SimulationResult",
    "EnergyRow",
    "EnergyReport",
    "energy_balance_report",
    "spectral_norm",
    "orth_basis",
    "ordered_completion",
    "halton_disc",
    "TorusScanReport",
    "dissipativity_scan",
    "ConservativityCertificate",
    "conservativity_check",
    "BlockStructure",
    "block_structure",
    "closely_connected_subspace",
    "MatrixPolynomial",
    "transfer_eval",
    "transfer_eval_series",
    "maclaurin_poly",
    "TruncatedLPVector",
    "LPMask",
    "apply_generator",
    "apply_adjoint",
    "gamma_map",
    "commutation_residual",
    "MetricReport",
    "metric_check",
    "OneParamSystemView",
    "associated_one_param",
    "AglerData",
    "AglerReport",
    "verify_agler_identity",
    "RealizationResult",
    "assemble_colligation",
    "builtin_examples",
    "canonical_fixture",
    "serialization",
]
