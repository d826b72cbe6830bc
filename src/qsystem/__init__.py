"""Quantum-dimension solutions of simply laced Q-systems.

Builds the specialised character tables z^(a)_m for families A and D,
certifies their exact zeros and signs, verifies the KNS property list
and the recurrence, solves the level-k restricted system numerically,
and evaluates the Rogers-dilogarithm identity for the positive solution.
"""

from .affine import (AffineWeight, ReductionResult, affinize, level_of,
                     reduce_to_alcove)
from .dynkin import (DynkinData, RankMismatch, Root, UnsupportedType,
                     build_dynkin, positive_roots)
from .qdim import QDimValue, precision_bits, qdim_affine
from .solver import (DilogReport, DomainError, InvalidLevel, NoConvergence,
                     RestrictedSolution, XOutOfRange,
                     check_positive_solution_properties, dilog_identity,
                     rogers_L, solve_restricted, uniqueness_probe)
from .table import (KRDecomposition, PropertyCheck, PropertyReport, QTable,
                    build_qtable, forced_tail_report, kr_decompose,
                    kr_term_count, midpoint_checks, verify_kns, verify_qsystem)

__version__ = "0.1.0"

__all__ = [
    "AffineWeight", "DilogReport", "DomainError", "DynkinData",
    "InvalidLevel", "KRDecomposition",
    "NoConvergence", "PropertyCheck", "PropertyReport", "QDimValue",
    "QTable", "RankMismatch", "ReductionResult", "RestrictedSolution",
    "Root", "UnsupportedType", "XOutOfRange", "affinize", "build_dynkin",
    "build_qtable", "check_positive_solution_properties", "dilog_identity",
    "forced_tail_report", "kr_decompose", "kr_term_count", "level_of",
    "midpoint_checks", "positive_roots", "precision_bits", "qdim_affine",
    "reduce_to_alcove", "rogers_L", "solve_restricted",
    "uniqueness_probe", "verify_kns", "verify_qsystem",
]
