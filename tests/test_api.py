"""The package's public surface: names that left it stay gone."""

import importlib
import pkgutil

import pytest

import ndsys

MODULES = [ndsys] + [
    importlib.import_module(f"ndsys.{info.name}")
    for info in pkgutil.iter_modules(ndsys.__path__)
    if info.name != "__main__"
]

# helpers that no subcommand called, and the array-layout twins of the
# `*_to_json` encoders; a dotted name is a method of the class the package
# exports under the first part
REMOVED = [
    "CommutingTuple",
    "SchurSampleReport",
    "schur_agler_sample_test",
    "maclaurin_coeff",
    "conjugate_transfer_check",
    "CnuReport",
    "completely_nonunitary_check",
    "reduce_closely_connected",
    "front_energy",
    "MatrixPolynomial.degrees",
    "LPMask.clean",
    "bordered_multipower_table",
    "schwarz_split",
    "OneParamSystemView.system",
    "OneParamSystemView.stack",
    "OneParamSystemView.unstack",
    "Box.contains",
    "add",
    "sub",
    "unit",
    "halton_torus",
    "system_fields",
    "poly_fields",
    "lp_vector_fields",
]


@pytest.mark.parametrize("name", REMOVED)
def test_removed_helper_is_neither_exported_nor_defined(name):
    owner, _, attr = name.rpartition(".")
    for module in MODULES:
        assert attr not in getattr(module, "__all__", ()), module.__name__
        holder = getattr(module, owner, None) if owner else module
        assert not hasattr(holder, attr), module.__name__
