"""Exact toolkit for uninorms on finite chains.

Construction, validation, classification, decomposition and composition of
uninorms with integer-index tables, plus exhaustive enumeration and the
certification experiment comparing structural distributivity conditions
against brute-force checking.
"""

from .core import (
    ChainScale,
    CheckReport,
    OpTable,
    Uninorm,
    Violation,
    is_conjunctive,
    is_idempotent,
    is_locally_internal,
    underlying_tconorm,
    underlying_tnorm,
    validate_uninorm,
)
from .catalog import FamilySpec, from_string, make
from .distributivity import (
    ClassifyResult,
    Decomposition,
    Pick,
    TheoremCase,
    check_distributivity,
    classify_and_check,
    compose,
    decompose,
    necessity_conditions,
)
from .search import (
    CertificationReport,
    EnumerationTask,
    certify,
    enumerate_uninorms,
    scan_pairs,
)

__version__ = "0.1.0"

__all__ = [
    "ChainScale",
    "CheckReport",
    "OpTable",
    "Uninorm",
    "Violation",
    "is_conjunctive",
    "is_idempotent",
    "is_locally_internal",
    "underlying_tconorm",
    "underlying_tnorm",
    "validate_uninorm",
    "FamilySpec",
    "from_string",
    "make",
    "ClassifyResult",
    "Decomposition",
    "Pick",
    "TheoremCase",
    "check_distributivity",
    "classify_and_check",
    "compose",
    "decompose",
    "necessity_conditions",
    "CertificationReport",
    "EnumerationTask",
    "certify",
    "enumerate_uninorms",
    "scan_pairs",
]
