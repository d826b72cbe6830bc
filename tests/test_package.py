"""The package surface resolves lazily, and each ``qsys`` command loads
only the layers it runs."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsystem
import qsystem.qdim

SRC = Path(__file__).resolve().parents[1] / "src"


def test_public_names_resolve_to_their_home_objects():
    assert len(qsystem.__all__) == len(set(qsystem.__all__)) == 36
    for name in qsystem.__all__:
        obj = getattr(qsystem, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.split(".")[0] == "qsystem", name
        assert getattr(home, name) is obj, name
        if name != "precision_bits":  # defined in the package root itself
            assert qsystem.__getattr__(name) is obj, name
    assert qsystem.qdim.precision_bits is qsystem.precision_bits


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qsystem import *", namespace)
    assert set(qsystem.__all__) <= namespace.keys()
    assert all(namespace[name] is getattr(qsystem, name) for name in qsystem.__all__)


def test_dir_lists_the_public_surface():
    names = dir(qsystem)
    assert "__all__" in names
    assert set(qsystem.__all__) <= set(names)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        qsystem.no_such_name
    assert not hasattr(qsystem, "solver_tol")


def _imported(*args: str) -> tuple[int, set[str]]:
    """Exit code and imported modules of a fresh interpreter run with
    ``-X importtime`` on the source tree."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "QSYS_PRECISION_BITS": "128"}
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                             if line.startswith("import time:")}


CLI = ("-m", "qsystem.cli")
HEAVY = {"numpy", "mpmath"}
SOLVER = {"qsystem.solver", "qsystem.checks"}
TABLE_LAYER = {"qsystem.table", "qsystem.affine", "qsystem.qdim"}  # solving builds no table
STARTUP = {
    "import-package": (("-c", "import qsystem"), 0, set(), HEAVY),
    "import-cli": (("-c", "import qsystem.cli"), 0, set(), HEAVY),
    "import-solver": (("-c", "import qsystem.solver"), 0, SOLVER, TABLE_LAYER),
    "help": ((*CLI, "--help"), 0, set(), HEAVY),
    "version": ((*CLI, "--version"), 0, set(), HEAVY),
    "usage-error": ((*CLI, "table", "-f", "D", "-r", "13", "-k", "4"), 2, set(), HEAVY),
    "reduce": ((*CLI, "reduce", "-f", "D", "-r", "5", "-k", "4", "--", "-2", "0", "3", "0", "0",
                "0"), 0, {"numpy", "qsystem.affine"}, {"mpmath"}),
    "table": ((*CLI, "table", "-f", "D", "-r", "5", "-k", "4"), 0, {"qsystem.table"},
              {"qsystem.solver"}),
    "verify": ((*CLI, "verify", "-f", "D", "-r", "5", "-k", "4"), 0, {"qsystem.table"},
               {"qsystem.solver"}),
    "solve": ((*CLI, "solve", "-f", "A", "-r", "3", "-k", "4"), 0, SOLVER, TABLE_LAYER),
    "dilog": ((*CLI, "dilog", "-f", "A", "-r", "3", "-k", "4"), 0, SOLVER, TABLE_LAYER),
    "solve-against-table": ((*CLI, "solve", "-f", "A", "-r", "3", "-k", "4", "--against-table"),
                            0, SOLVER | {"qsystem.table"}, set()),
}


@pytest.mark.parametrize("case", sorted(STARTUP))
def test_commands_load_only_their_layers(case):
    args, code, needed, absent = STARTUP[case]
    rc, modules = _imported(*args)
    assert rc == code
    assert needed <= modules
    assert not absent & modules
    if case == "import-package":
        assert not {m for m in modules if m.startswith("qsystem.")}
