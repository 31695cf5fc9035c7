"""The package's public surface: names that left it stay gone, and the
engines load only when used."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import ndsys
from ndsys import serialization as ser

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
    "OperatorTuple.is_finite",
]


@pytest.mark.parametrize("name", REMOVED)
def test_removed_helper_is_neither_exported_nor_defined(name):
    owner, _, attr = name.rpartition(".")
    for module in MODULES:
        assert attr not in getattr(module, "__all__", ()), module.__name__
        holder = getattr(module, owner, None) if owner else module
        assert not hasattr(holder, attr), module.__name__


SRC = os.path.dirname(os.path.dirname(os.path.abspath(ndsys.__file__)))
CORE = ["ndsys.errors", "ndsys.lattice", "ndsys.numerics", "ndsys.pencil", "ndsys.serialization", "ndsys.system"]
LIBRARY = sorted(info.name for info in pkgutil.iter_modules(ndsys.__path__) if info.name not in ("__main__", "cli"))


def fresh(*args):
    """The finished ``python *args`` run in a fresh interpreter that imports
    this source tree."""
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return proc


def test_import_loads_the_core_and_no_engine():
    code = "import sys, ndsys; print(*sorted(m for m in sys.modules if m.startswith('ndsys.') or m == 'csv'))"
    assert fresh("-c", code).stdout.split() == CORE


@pytest.mark.parametrize(
    "argv, engines",
    [
        (["check", "builtin:alpha"], ["ndsys.analysis"]),
        (["simulate", "builtin:alpha", "--input", "impulse.json", "--box", "0:2,0:2", "--nmax", "1"], []),
        (["simulate", "builtin:alpha", "--input", "impulse.json", "--box", "0:2,0:2", "--nmax", "1",
          "--energy", "energy.csv"], ["csv"]),
        (["transfer", "builtin:alpha", "--grid", "3", "--coeffs", "2"], ["ndsys.transfer"]),
        (["realize", "canon.json"], ["ndsys.analysis", "ndsys.realization", "ndsys.transfer"]),
        (["laxphillips", "builtin:alpha", "--op", "associated", "--box", "0:2,0:2"], ["ndsys.laxphillips"]),
    ],
    ids=["check", "simulate", "simulate-energy", "transfer", "realize", "laxphillips"],
)
def test_each_subcommand_loads_its_engine_alone(tmp_path, argv, engines):
    (tmp_path / "impulse.json").write_text('{"n": 2, "dim": 1, "entries": [{"t": [0, 0], "v": [[1.0, 0.0]]}]}')
    (tmp_path / "canon.json").write_text(ser.dump(ser.agler_to_json(ndsys.canonical_fixture(grid_points=30))))
    argv = [str(tmp_path / a) if a.endswith((".json", ".csv")) else a for a in argv]
    code = (
        "import sys\n"
        "from ndsys.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(*sorted(m for m in sys.modules if m.startswith('ndsys.') or m == 'csv'))\n"
    )
    loaded = fresh("-c", code, *argv).stdout.splitlines()[-1]
    assert loaded.split() == sorted(CORE + ["ndsys.cli"] + engines)


def test_python_m_check_reports_its_imports_without_the_deferred_modules():
    # the form the installed-package CI step greps: -X importtime must list
    # the engine that does load, or the absence of the others proves nothing
    proc = fresh("-X", "importtime", "-m", "ndsys", "check", "builtin:alpha")
    named = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert {"ndsys.numerics", "ndsys.analysis"} <= named
    assert not named & {"ndsys.transfer", "ndsys.laxphillips", "ndsys.realization", "csv"}


@pytest.mark.parametrize("first", ["modules", "names"])
def test_every_name_resolves_to_its_home_after_a_bare_import(first):
    code = (
        "import sys, ndsys\n"
        f"order = {first!r}\n"
        "mods = sys.argv[1:]\n"
        "def modules():\n"
        "    for name in mods:\n"
        "        assert getattr(ndsys, name) is sys.modules['ndsys.' + name], name\n"
        "def names():\n"
        "    for name in ndsys.__all__:\n"
        "        obj = getattr(ndsys, name)\n"
        "        if isinstance(obj, type(sys)):\n"
        "            assert obj is sys.modules['ndsys.' + name], name\n"
        "        else:\n"
        "            assert obj.__module__.startswith('ndsys.'), name\n"
        "            assert getattr(sys.modules[obj.__module__], name) is obj, name\n"
        "for step in ((modules, names) if order == 'modules' else (names, modules)):\n"
        "    step()\n"
        "assert set(ndsys.__all__) | set(mods) <= set(dir(ndsys))\n"
        "assert len(ndsys.__all__) == len(set(ndsys.__all__))\n"
        # a name resolves through its home module on every access: a patch
        # there is what the package shows, and nothing is cached here
        "marker = object()\n"
        "ndsys.transfer.transfer_eval = marker\n"
        "assert ndsys.transfer_eval is marker and 'transfer_eval' not in vars(ndsys)\n"
        "print('ok')\n"
    )
    assert fresh("-c", code, *LIBRARY).stdout.strip() == "ok"


def test_an_unknown_name_raises_attribute_error_and_loads_nothing():
    code = (
        "import sys, ndsys\n"
        "for name in sys.argv[1:]:\n"
        "    try:\n"
        "        getattr(ndsys, name)\n"
        "    except AttributeError as exc:\n"
        "        assert repr(name) in str(exc), exc\n"
        "    else:\n"
        "        raise AssertionError(name)\n"
        "try:\n"
        "    from ndsys import no_such_name\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('no_such_name')\n"
        "print(*sorted(m for m in sys.modules if m.startswith('ndsys.')))\n"
    )
    names = ["no_such_name", *(name for name in REMOVED if "." not in name)]
    assert fresh("-c", code, *names).stdout.split() == CORE


def test_check_finds_bundled_files_without_site_or_importlib_resources():
    # without site nothing has loaded importlib.resources before ndsys
    # starts, so an import of it would show here; numpy's directory stands
    # in for the site-packages that -S leaves off the path
    import numpy

    path = os.pathsep.join([SRC, os.path.dirname(os.path.dirname(numpy.__file__))])
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "ndsys", "check", "builtin:alpha"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    named = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "ndsys.analysis" in named
    assert not {name for name in named if name.startswith("importlib.resources")}
