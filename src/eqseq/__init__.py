"""eqseq: proof toolkit for G3-style sequent calculi with equality."""

import importlib.util
import sys

from .syntax import (
    Atom,
    BOT,
    BoundVar,
    Eq,
    EqSeqError,
    Formula,
    FunApp,
    Param,
    Sequent,
    Term,
    occurrences,
    replace_at,
    replace_leaf,
    substitute,
)
from .calculus import (
    CalculusSpec,
    Flag,
    PRESETS,
    Precedence,
    Replacement,
    RuleId,
    RuleInstance,
    applicable_instances,
    expansions,
    premisses_of,
    resolve_preset,
    resolve_spec,
)
from .checker import CheckReport, Derivation, check, stats
from .parser import (
    ParseError,
    parse_derivation,
    parse_formula,
    parse_sequent,
    parse_term,
    print_derivation,
    print_formula,
    print_sequent,
)


def _lazy(name: str):
    """Register submodule ``name`` without running its body; the first
    attribute looked up on it runs the body."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Search and the transforms load on first use: ``eqseq check`` runs neither.
search = _lazy("search")
transform = _lazy("transform")

# public name -> the lazily loaded module that defines it
_LAZY = {
    **dict.fromkeys(
        (
            "Chain",
            "DecidedUnderivable",
            "Exhausted",
            "Proved",
            "SearchLimits",
            "Signature",
            "WitnessPlan",
            "chain_extract",
            "chain_to_derivation",
            "decide_function_free",
            "exact_decide",
            "prove",
            "refuted_by_countermodel",
            "saturate_forward",
        ),
        search,
    ),
    **dict.fromkeys(
        (
            "TransformReport",
            "cut_eliminate_pipeline",
            "eliminate_rep1r_plus",
            "eliminate_rep2r_plus",
            "equivalence_translate",
            "orient_function_free",
            "project_succedent",
            "renormalize",
            "right_normalize",
            "scope_restrict",
            "semishorten",
            "single_occurrence_normalize",
            "weaken_hp",
        ),
        transform,
    ),
}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(_LAZY[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Atom",
    "BOT",
    "BoundVar",
    "CalculusSpec",
    "Chain",
    "CheckReport",
    "DecidedUnderivable",
    "Derivation",
    "Eq",
    "EqSeqError",
    "Exhausted",
    "Flag",
    "Formula",
    "FunApp",
    "PRESETS",
    "Param",
    "ParseError",
    "Precedence",
    "Proved",
    "Replacement",
    "RuleId",
    "RuleInstance",
    "SearchLimits",
    "Sequent",
    "Signature",
    "Term",
    "TransformReport",
    "WitnessPlan",
    "applicable_instances",
    "chain_extract",
    "chain_to_derivation",
    "check",
    "cut_eliminate_pipeline",
    "decide_function_free",
    "eliminate_rep1r_plus",
    "eliminate_rep2r_plus",
    "equivalence_translate",
    "exact_decide",
    "expansions",
    "occurrences",
    "orient_function_free",
    "parse_derivation",
    "parse_formula",
    "parse_sequent",
    "parse_term",
    "premisses_of",
    "print_derivation",
    "print_formula",
    "print_sequent",
    "project_succedent",
    "prove",
    "refuted_by_countermodel",
    "renormalize",
    "replace_at",
    "replace_leaf",
    "resolve_preset",
    "resolve_spec",
    "right_normalize",
    "saturate_forward",
    "scope_restrict",
    "semishorten",
    "single_occurrence_normalize",
    "stats",
    "substitute",
    "weaken_hp",
]

__version__ = "0.1.0"
