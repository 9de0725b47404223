"""Bounded reasoning over preference models and value-based case law.

The package decides queries about finite preference structures: a reflexive
transitive betterness relation over worlds, modal operators over its weak and
strict parts, global modalities, lifted preferences between propositions,
ceteris paribus variants, a defeasible conditional, and a small value
ontology (basic values, principles, aggregation, conflicts) used by the
shipped legal knowledge bases.  Queries are answered by bounded model search
with two independent engines that can cross-check each other.
"""

from .model import (
    MAX_WORLDS,
    Extension,
    ModelError,
    PreferenceModel,
    all_preorders,
    eval_formula,
    globally_true,
    is_total,
    render_dot,
    render_text,
    truth_at,
    validate_model,
)
from .ontology import ALL_VALUE_SYMBOLS, CONTENDERS, PRINCIPLES, BasicValue, other
from .solver import (
    DEFAULT_BOUND,
    BoundedValid,
    Countermodel,
    EngineDisagreement,
    EngineError,
    NoModel,
    OracleDomainError,
    Query,
    Satisfiable,
    Unknown,
    check,
    enum_oracle,
    oracle_in_domain,
    render_verdict,
    solve_at,
)
from .syntax import ParseError, Signature, base_signature, desugar, elaborate
from .kb import (
    ConfigError,
    KnowledgeBase,
    case_kb,
    case_proof_path,
    goal_query,
    load_kb,
    load_proof,
    replay,
    sat_query,
)
from .suites import run_suite, suite_queries

__all__ = [
    "ALL_VALUE_SYMBOLS",
    "BasicValue",
    "BoundedValid",
    "CONTENDERS",
    "ConfigError",
    "Countermodel",
    "DEFAULT_BOUND",
    "EngineDisagreement",
    "EngineError",
    "Extension",
    "KnowledgeBase",
    "MAX_WORLDS",
    "ModelError",
    "NoModel",
    "OracleDomainError",
    "PRINCIPLES",
    "ParseError",
    "PreferenceModel",
    "Query",
    "Satisfiable",
    "Signature",
    "Unknown",
    "all_preorders",
    "base_signature",
    "case_kb",
    "case_proof_path",
    "check",
    "desugar",
    "elaborate",
    "enum_oracle",
    "eval_formula",
    "globally_true",
    "goal_query",
    "is_total",
    "load_kb",
    "load_proof",
    "oracle_in_domain",
    "other",
    "render_dot",
    "render_text",
    "render_verdict",
    "replay",
    "run_suite",
    "sat_query",
    "solve_at",
    "suite_queries",
    "truth_at",
    "validate_model",
]
