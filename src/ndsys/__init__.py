"""Toolkit for multiparametric linear stationary systems on the integer lattice.

The package models systems whose state and signals live on Z^N and evolve
along all N coordinate directions at once.  It provides windowed
simulation and closed-form trajectory formulas, symmetrized multipowers,
transfer functions on the polydisc, conservativity and dissipativity
analysis, translation-generator (scattering) views, and assembly of a
system from a transfer-function decomposition.

``import ndsys`` loads the core modules: errors, lattice, pencil, system,
numerics and serialization.  The engines (analysis, transfer, laxphillips
and realization) load on the first use of one of their names, so a caller
pays only for the engines it uses.
"""

import sys as _sys

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
from . import serialization

__version__ = "0.1.0"

# Each engine name and the module that defines it.
_ENGINE_NAMES = {
    name: module
    for module, names in {
        "analysis": (
            "TorusScanReport",
            "dissipativity_scan",
            "ConservativityCertificate",
            "conservativity_check",
            "BlockStructure",
            "block_structure",
            "closely_connected_subspace",
        ),
        "transfer": (
            "MatrixPolynomial",
            "transfer_eval",
            "transfer_eval_series",
            "maclaurin_poly",
        ),
        "laxphillips": (
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
        ),
        "realization": (
            "AglerData",
            "AglerReport",
            "verify_agler_identity",
            "RealizationResult",
            "assemble_colligation",
            "builtin_examples",
            "canonical_fixture",
        ),
    }.items()
    for name in names
}
_ENGINES = frozenset(_ENGINE_NAMES.values())


def __getattr__(name: str):
    """An engine module or one of its names, imported on first use.  A name
    is looked up in its home module on every access and never stored here
    (only the import system binds the engine module itself), so a patch on
    the home module is what callers see."""
    module = _ENGINE_NAMES.get(name, name)
    if module not in _ENGINES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the builtin __import__, unlike importlib.import_module, is timed by
    # ``python -X importtime``, so an engine shows there when it loads
    __import__(f"{__name__}.{module}")
    engine = _sys.modules[f"{__name__}.{module}"]
    return engine if module == name else getattr(engine, name)


def __dir__():
    return sorted({*globals(), *_ENGINES, *__all__})


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
    *_ENGINE_NAMES,
    "serialization",
]
