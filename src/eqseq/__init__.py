"""eqseq: proof toolkit for G3-style sequent calculi with equality."""

import importlib.util
import sys
import types

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


# the public names imported above, then the lazily served ones
__all__ = sorted(
    [
        name
        for name, value in globals().items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    + list(_LAZY)
)

__version__ = "0.1.0"
