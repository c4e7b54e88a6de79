"""Rack-aware cooperative regenerating codes.

A library and CLI for storage clusters where intra-rack transfer is free:
the exact minimum-bandwidth code (encode, any-k recovery, two-round
multi-rack repair), the exact storage/repair-bandwidth tradeoff engine, and
an independent information-flow-graph min-cut oracle that cross-checks the
analytic bound.
"""

from .codec import (
    ClusterState,
    CodeBuildError,
    CodeIntegrityError,
    CodeSpec,
    RepairTranscript,
    UnsupportedParametersError,
    build_code,
    build_default_code,
    collect,
    default_field,
    encode,
    repair,
    strip_parities,
)
from .field import FieldSpec, gf256, gf65536, prime_field
from .harness import Manifest, Scenario, load, run_scenario, save
from .ifg import FlowGraph, build as build_ifg, max_flow, worst_case_mincut
from .linalg import Matrix
from .params import (
    CodeParams,
    ParameterError,
    RepairStage,
    TradeoffPoint,
    construction_params,
    mbrcr_point,
    msrcr_point,
    validate,
)
from .tradeoff import bound_rhs, compositions, feasible, max_file_size, min_gamma_given_alpha

__version__ = "0.1.0"

__all__ = [
    "ClusterState", "CodeBuildError", "CodeIntegrityError", "CodeSpec",
    "RepairTranscript", "UnsupportedParametersError", "build_code",
    "build_default_code", "collect", "default_field", "encode",
    "repair", "strip_parities", "FieldSpec", "gf256", "gf65536", "prime_field",
    "Manifest", "Scenario", "load", "run_scenario", "save", "FlowGraph",
    "RepairStage", "build_ifg", "max_flow", "worst_case_mincut", "Matrix",
    "CodeParams", "ParameterError", "TradeoffPoint", "construction_params",
    "mbrcr_point", "msrcr_point", "validate", "bound_rhs", "compositions",
    "feasible", "max_file_size", "min_gamma_given_alpha", "__version__",
]
