"""Quantum-dimension solutions of simply laced Q-systems.

Builds the specialised character tables z^(a)_m for families A and D,
certifies their exact zeros and signs, verifies the KNS property list
and the recurrence, solves the level-k restricted system numerically,
and evaluates the Rogers-dilogarithm identity for the positive solution.

``import qsystem`` loads no submodule: each public name is imported from
its home module on first use (PEP 562), so a caller pays for numpy and
mpmath only when it reaches a layer that needs them.
"""

import importlib
import os

__version__ = "0.1.0"

DEFAULT_PRECISION_BITS = 128


def precision_bits() -> int:
    """Working precision in bits, from QSYS_PRECISION_BITS (default 128)."""
    raw = os.environ.get("QSYS_PRECISION_BITS")
    if raw is None:
        return DEFAULT_PRECISION_BITS
    try:
        bits = int(raw)
    except ValueError:
        bits = 0
    if bits < 64:
        raise ValueError(f"QSYS_PRECISION_BITS must be an integer >= 64, got {raw!r}")
    return bits


_HOMES = {
    "affine": ("AffineWeight", "ReductionResult", "affinize", "level_of", "reduce_to_alcove"),
    "checks": ("PropertyCheck", "PropertyReport"),
    "dynkin": ("DynkinData", "RankMismatch", "Root", "UnsupportedType", "build_dynkin",
               "positive_roots"),
    "qdim": ("QDimValue", "qdim_affine"),
    "solver": ("DilogReport", "DomainError", "InvalidLevel", "NoConvergence",
               "RestrictedSolution", "XOutOfRange", "check_positive_solution_properties",
               "dilog_identity", "rogers_L", "solve_restricted", "uniqueness_probe"),
    "table": ("KRDecomposition", "QTable", "build_qtable", "forced_tail_report", "kr_decompose",
              "kr_term_count", "midpoint_checks", "verify_kns", "verify_qsystem"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted([*_HOME, "precision_bits"])


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
