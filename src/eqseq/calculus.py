"""Rule catalog, calculus specifications, presets and rule-instance expansion.

All rules are implemented backward: ``premisses_of`` maps a conclusion plus a
fully explicit rule instance to the exact premiss multiset(s) of the rule
display.  Orientation convention for the indexed replacement rules, reading
the display downward (premiss to conclusion) with operating equality as
stored, left side first:

  index 1   rewrites left side to right side   (operating written  r=s)
  index 2   rewrites right side to left side   (operating written  s=r)

so that backward (conclusion to premiss) an index-1 instance replaces
occurrences of the right side by the left side, and an index-2 instance
replaces occurrences of the left side by the right side.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from enum import Enum
from functools import cached_property

from .syntax import (
    And,
    Atom,
    Bottom,
    Eq,
    EqSeqError,
    Exists,
    Formula,
    Forall,
    Imp,
    Or,
    Param,
    Path,
    PathError,
    Record,
    Sequent,
    Term,
    _set,
    _top_terms,
    atomic_parts,
    closed_terms,
    is_atomic,
    is_identity,
    occurrences,
    paths_overlap,
    remove_at,
    replace_at,
    replace_formula,
    substitute,
    subterms,
    term_at,
    term_height,
)


class CalculusError(EqSeqError):
    pass


class RuleNotInCalculusError(CalculusError):
    pass


class ShapeMismatchError(CalculusError):
    pass


class FlagViolationError(CalculusError):
    pass


class EigenvariableError(CalculusError):
    pass


class OrientationViolationError(CalculusError):
    pass


class RuleId(str, Enum):
    INIT = "init"
    LBOT = "lbot"
    MINBOT = "minbot"
    LAND = "land"
    RAND = "rand"
    LOR = "lor"
    ROR = "ror"
    LIMP = "limp"
    RIMP = "rimp"
    LIMPI = "limpi"
    RIMPI = "rimpi"
    LFORALL = "lforall"
    RFORALL = "rforall"
    RFORALLI = "rforalli"
    LEXISTS = "lexists"
    REXISTS = "rexists"
    LW = "lw"
    RW = "rw"
    LC = "lc"
    RC = "rc"
    LCEQ = "lceq"
    CUT = "cut"
    REFAX = "refax"
    REFL = "refl"
    EQ1 = "eq1"
    EQ2 = "eq2"
    REP1R = "rep1r"
    REP2R = "rep2r"
    REP1L = "rep1l"
    REP2L = "rep2l"
    REP = "rep"
    REPP = "repp"
    REP1LP = "rep1lp"
    REP2LP = "rep2lp"
    CNG = "cng"
    SYMM = "symm"

    def __str__(self) -> str:
        return self.value


RULE_BY_NAME = {r.value: r for r in RuleId}

G3C_LOGICAL = frozenset(
    {
        RuleId.LAND,
        RuleId.RAND,
        RuleId.LOR,
        RuleId.ROR,
        RuleId.LIMP,
        RuleId.RIMP,
        RuleId.LFORALL,
        RuleId.RFORALL,
        RuleId.LEXISTS,
        RuleId.REXISTS,
    }
)

G3IM_LOGICAL = frozenset(
    {
        RuleId.LAND,
        RuleId.RAND,
        RuleId.LOR,
        RuleId.ROR,
        RuleId.LIMPI,
        RuleId.RIMPI,
        RuleId.LFORALL,
        RuleId.RFORALLI,
        RuleId.LEXISTS,
        RuleId.REXISTS,
    }
)

LOGICAL_RULES = G3C_LOGICAL | G3IM_LOGICAL

class Flag(str, Enum):
    RIGHT_HAND_ONLY = "eqr"  # equality context formulas rewritten only in their rhs
    CONTEXT_EQ_ONLY = "ctx-eq"  # succedent replacements: context must be an equality
    CONTEXT_NONEQ_ONLY = "ctx-noneq"  # antecedent replacements: context must not be one
    SINGLE_OCCURRENCE = "single"
    ORIENTED = "oriented"

    def __str__(self) -> str:
        return self.value


FLAG_BY_NAME = {f.value: f for f in Flag}


class Precedence(Record):
    """Antisymmetric term relation used by the orientation flag."""

    _fields = ("kind", "pairs")

    def __init__(
        self,
        kind: str = "none",  # "none" | "height" | "explicit"
        pairs: frozenset[tuple[Term, Term]] = frozenset(),
    ) -> None:
        if kind not in ("none", "height", "explicit"):
            raise CalculusError(f"unknown precedence kind {kind!r}")
        for (a, b) in pairs:
            if a == b or (b, a) in pairs:
                raise CalculusError(f"precedence is not antisymmetric at {a} / {b}")
        _set(self, "kind", kind)
        _set(self, "pairs", pairs)

    def lt(self, r: Term, s: Term) -> bool:
        if self.kind == "none":
            return False
        if self.kind == "height":
            return term_height(r) < term_height(s)
        return (r, s) in self.pairs


PREC_NONE = Precedence("none")
PREC_HEIGHT = Precedence("height")


class CalculusSpec(Record):
    _fields = ("base", "rules", "flags", "precedence")

    def __init__(
        self,
        base: str = "none",  # "none" | "m" | "i" | "c"
        rules: frozenset[RuleId] = frozenset(),
        flags: frozenset[Flag] = frozenset(),
        precedence: Precedence = PREC_NONE,
    ) -> None:
        if base not in ("none", "m", "i", "c"):
            raise CalculusError(f"unknown base {base!r}")
        if base == "none":
            bad = rules & LOGICAL_RULES
            if bad:
                raise CalculusError(
                    f"base=none permits no logical rules, got {sorted(r.value for r in bad)}"
                )
        elif base == "c":
            bad = rules & (G3IM_LOGICAL - G3C_LOGICAL)
            if bad:
                raise CalculusError(f"classical base excludes {sorted(r.value for r in bad)}")
        else:
            bad = rules & (G3C_LOGICAL - G3IM_LOGICAL)
            if bad:
                raise CalculusError(f"base={base} excludes {sorted(r.value for r in bad)}")
        if Flag.ORIENTED in flags and precedence.kind == "none":
            raise CalculusError("Oriented flag requires a precedence")
        _set(self, "base", base)
        _set(self, "rules", rules)
        _set(self, "flags", flags)
        _set(self, "precedence", precedence)

    def effective_rules(self) -> frozenset[RuleId]:
        if self.base == "c":
            return self.rules | G3C_LOGICAL
        if self.base in ("i", "m"):
            return self.rules | G3IM_LOGICAL
        return self.rules

    @cached_property
    def _allowed(self) -> frozenset[RuleId]:
        leaves = {RuleId.INIT}
        if self.base in ("i", "c"):
            leaves.add(RuleId.LBOT)
        if self.base == "m":
            leaves.add(RuleId.MINBOT)
        return (self.effective_rules() - {RuleId.LBOT, RuleId.MINBOT}) | leaves

    def allows(self, rule: RuleId) -> bool:
        return rule in self._allowed

    @cached_property
    def _signatures(self) -> list[tuple[RuleId, RuleSig]]:
        """The allowed rules with their signatures, in move order."""
        return [(rule, sig) for rule, sig in RULES.items() if rule in self._allowed]

    def with_rules(self, *extra: RuleId, without: tuple[RuleId, ...] = ()) -> "CalculusSpec":
        return CalculusSpec(
            self.base,
            (self.rules | frozenset(extra)) - frozenset(without),
            self.flags,
            self.precedence,
        )

    def describe(self) -> str:
        rules = ",".join(sorted(r.value for r in self.rules))
        flags = ",".join(sorted(f.value for f in self.flags))
        prec = self.precedence.kind
        if self.precedence.kind == "explicit":
            prec = "explicit(%d pairs)" % len(self.precedence.pairs)
        return f"base={self.base} rules={rules or '-'} flags={flags or '-'} prec={prec}"


class Replacement(namedtuple("Replacement", "eq_index context_index paths")):
    """Witness data for one replacement inference.

    ``eq_index`` locates the operating equality in the conclusion antecedent
    (absent for CNG, whose operating equality lives in its first premiss);
    ``context_index`` locates the context formula on the rule's side of the
    conclusion; ``paths`` are the positions of the conclusion-side term, kept
    sorted and without repeats.
    """

    __slots__ = ()
    eq_index: int | None
    context_index: int
    paths: tuple[Path, ...]

    def __new__(cls, eq_index: int | None, context_index: int, paths) -> "Replacement":
        return tuple.__new__(cls, (eq_index, context_index, tuple(sorted(set(paths)))))

    @classmethod
    def _make(cls, iterable) -> "Replacement":
        # ``_replace`` builds through here: normalise its paths too
        return cls(*iterable)


class RuleInstance(namedtuple(
    "RuleInstance", "rule principal replacement witness eigen cut_formula split",
    defaults=((), None, None, None, None, None),
)):
    __slots__ = ()
    rule: RuleId
    principal: tuple[int, ...]
    replacement: Replacement | None
    witness: Term | None
    eigen: str | None
    cut_formula: Formula | None
    split: tuple[tuple[int, ...], tuple[int, ...]] | None


def leaf(rule: RuleId, *principal: int) -> RuleInstance:
    return RuleInstance(rule, principal)


def repl_inst(rule: RuleId, eq_index: int | None, context_index: int, paths) -> RuleInstance:
    return RuleInstance(rule, replacement=Replacement(eq_index, context_index, tuple(paths)))


# ---------------------------------------------------------------------------
# Rule signatures

# the RuleInstance attribute each signature field fills
_FIELD_ATTR = {
    "witness": "witness",
    "quoted_witness": "witness",
    "eigen": "eigen",
    "cut_formula": "cut_formula",
    "split": "split",
    "eq_index": "replacement",
    "context_index": "replacement",
    "paths": "replacement",
}


class RuleSig(Record):
    """What the instances of one rule carry, and its replacement facts.

    ``principal`` has one letter per principal index, the side it points
    into: ``a`` (antecedent) or ``s`` (succedent).  ``fields`` names the
    further ``.drv`` arguments in order: ``witness`` (a term), ``eigen`` (a
    parameter name), ``split`` (the antecedent and the succedent indices that
    go to the first premiss), ``cut_formula`` (quoted), ``eq_index`` (the
    operating equality in the antecedent), ``context_index`` (the context
    formula on the ``context_side``), ``paths`` (of the replaced occurrences)
    and ``quoted_witness`` (a quoted term).

    A replacement rule has an ``index`` (1 or 2, see the module docstring)
    and a ``retention``: what its premiss keeps besides the rewritten context
    formula.  For succedent rules that is the operating equality (``keep``)
    or nothing (``strict``); for antecedent rules it is the context formula
    itself, never (``strict``), always (``keep``) or when it is an equality
    (``plus``).
    """

    _fields = ("principal", "fields", "index", "retention", "context_side")

    def __init__(
        self,
        principal: str = "",
        fields: tuple[str, ...] = (),
        index: int | None = None,
        retention: str | None = None,
        context_side: str | None = None,
    ) -> None:
        _set(self, "principal", principal)
        _set(self, "fields", fields)
        _set(self, "index", index)
        _set(self, "retention", retention)
        _set(self, "context_side", context_side)

    @cached_property
    def stray(self) -> tuple[str, ...]:
        """The optional ``RuleInstance`` attributes this rule does not take."""
        taken = {_FIELD_ATTR[f] for f in self.fields}
        optional = ("witness", "eigen", "cut_formula", "split", "replacement")
        return tuple(a for a in optional if a not in taken)

    def terms(self, operating: Eq) -> tuple[Term, Term]:
        """(conclusion-side term, premiss-side term) of this replacement rule
        on ``operating``, under the backward reading."""
        if self.index == 1:
            return operating.rhs, operating.lhs
        return operating.lhs, operating.rhs

    def keeps_context(self, ctx: Formula) -> bool:
        """Whether the premiss of this antecedent replacement keeps the
        context formula ``ctx`` beside its rewritten copy."""
        return self.context_side == "a" and (
            self.retention == "keep" or (self.retention == "plus" and isinstance(ctx, Eq))
        )


def _rep_sig(index: int, retention: str, side: str) -> RuleSig:
    return RuleSig("", ("eq_index", "context_index", "paths"), index, retention, side)


# In the order of backward moves (see ``expansions``): the leaves, the rules
# with one principal formula, reflexivity, replacement, congruence and cut.
RULES: dict[RuleId, RuleSig] = {
    RuleId.INIT: RuleSig("as"),
    RuleId.MINBOT: RuleSig("as"),
    RuleId.REFAX: RuleSig("s"),
    RuleId.LBOT: RuleSig("a"),
    RuleId.LAND: RuleSig("a"),
    RuleId.LOR: RuleSig("a"),
    RuleId.LIMP: RuleSig("a"),
    RuleId.LIMPI: RuleSig("a"),
    RuleId.LW: RuleSig("a"),
    RuleId.LC: RuleSig("a"),
    RuleId.LCEQ: RuleSig("a"),
    RuleId.SYMM: RuleSig("a"),
    RuleId.RAND: RuleSig("s"),
    RuleId.ROR: RuleSig("s"),
    RuleId.RIMP: RuleSig("s"),
    RuleId.RIMPI: RuleSig("s"),
    RuleId.RW: RuleSig("s"),
    RuleId.RC: RuleSig("s"),
    RuleId.LFORALL: RuleSig("a", ("witness",)),
    RuleId.REXISTS: RuleSig("s", ("witness",)),
    RuleId.RFORALL: RuleSig("s", ("eigen",)),
    RuleId.RFORALLI: RuleSig("s", ("eigen",)),
    RuleId.LEXISTS: RuleSig("a", ("eigen",)),
    RuleId.REFL: RuleSig("", ("witness",)),
    RuleId.REP1R: _rep_sig(1, "keep", "s"),
    RuleId.REP2R: _rep_sig(2, "keep", "s"),
    RuleId.EQ1: _rep_sig(1, "strict", "s"),
    RuleId.EQ2: _rep_sig(2, "strict", "s"),
    RuleId.REP1L: _rep_sig(1, "strict", "a"),
    RuleId.REP2L: _rep_sig(2, "strict", "a"),
    RuleId.REP: _rep_sig(2, "keep", "a"),
    RuleId.REPP: _rep_sig(1, "keep", "a"),
    RuleId.REP1LP: _rep_sig(1, "plus", "a"),
    RuleId.REP2LP: _rep_sig(2, "plus", "a"),
    RuleId.CNG: RuleSig("", ("split", "context_index", "paths", "quoted_witness"), context_side="s"),
    RuleId.CUT: RuleSig("", ("split", "cut_formula")),
}


# ---------------------------------------------------------------------------
# premisses_of


def _check_index(fs: tuple[Formula, ...], idx: int, what: str) -> Formula:
    if not (0 <= idx < len(fs)):
        raise ShapeMismatchError(f"{what} index {idx} out of range")
    return fs[idx]


def _check_orientation(spec: CalculusSpec, rule_index: int, operating: Eq) -> None:
    if Flag.ORIENTED not in spec.flags:
        return
    prec = spec.precedence
    if rule_index == 1:
        # index-1 instances must be shortening: r < s for operating r=s
        if not prec.lt(operating.lhs, operating.rhs):
            raise OrientationViolationError(
                f"orientation-violation: index-1 instance on {operating} is not shortening"
            )
    else:
        # index-2 instances must be nonlengthening: not (s < r) for operating s=r
        if prec.lt(operating.lhs, operating.rhs):
            raise OrientationViolationError(
                f"orientation-violation: index-2 instance on {operating} is lengthening"
            )


def _check_flags_right(spec: CalculusSpec, rule: RuleId, ctx: Formula, paths) -> None:
    if rule in (RuleId.REP1R, RuleId.REP2R):
        if Flag.CONTEXT_EQ_ONLY in spec.flags and not isinstance(ctx, Eq):
            raise FlagViolationError("flag-violation: context formula must be an equality")
        if Flag.RIGHT_HAND_ONLY in spec.flags and isinstance(ctx, Eq):
            if any(p[0] != 1 for p in paths):
                raise FlagViolationError(
                    "flag-violation: equality context may be rewritten only in its right-hand side"
                )
    if Flag.SINGLE_OCCURRENCE in spec.flags and len(paths) != 1:
        raise FlagViolationError("flag-violation: single-occurrence mode")


def _check_flags_left(spec: CalculusSpec, ctx: Formula, paths) -> None:
    if Flag.CONTEXT_NONEQ_ONLY in spec.flags and isinstance(ctx, Eq):
        raise FlagViolationError("flag-violation: context formula must not be an equality")
    if Flag.SINGLE_OCCURRENCE in spec.flags and len(paths) != 1:
        raise FlagViolationError("flag-violation: single-occurrence mode")


def premisses_of(conclusion: Sequent, inst: RuleInstance, spec: CalculusSpec) -> list[Sequent]:
    """The exact premiss multiset(s) of the rule display, computed backward.

    Raises a :class:`CalculusError` subtype when the instance is not a legal
    inference of ``spec`` with this conclusion.
    """
    rule = inst.rule
    if not spec.allows(rule):
        raise RuleNotInCalculusError(f"rule-not-in-calculus: {rule.value}")
    sig = RULES[rule]
    if len(inst.principal) != len(sig.principal):
        raise ShapeMismatchError(f"{rule.value} takes {_PRINCIPAL_COUNT[len(sig.principal)]}")
    for attr in sig.stray:
        if getattr(inst, attr) is not None:
            raise ShapeMismatchError(f"{rule.value} takes no {attr.replace('_', ' ')}")
    ante, succ = conclusion.ante, conclusion.succ
    if sig.principal:  # k: the first principal index, f: its formula
        k = inst.principal[0]
        if sig.principal[0] == "a":
            f = _check_index(ante, k, "antecedent")
        else:
            f = _check_index(succ, k, "succedent")

    # -- leaves
    if rule is RuleId.INIT:
        g = _check_index(succ, inst.principal[1], "succedent")
        if f != g or not is_atomic(f):
            raise ShapeMismatchError("initial sequent needs one atomic formula on both sides")
        return []
    if rule is RuleId.REFAX:
        if not is_identity(f):
            raise ShapeMismatchError("reflexivity axiom needs an identity in the succedent")
        return []
    if rule is RuleId.LBOT:
        if not isinstance(f, Bottom):
            raise ShapeMismatchError("lbot needs bot in the antecedent")
        return []
    if rule is RuleId.MINBOT:
        if not isinstance(f, Bottom) or not isinstance(_check_index(succ, inst.principal[1], "succedent"), Bottom):
            raise ShapeMismatchError("minimal bot axiom needs bot on both sides")
        return []

    # -- logical rules
    if rule is RuleId.LAND:
        if not isinstance(f, And):
            raise ShapeMismatchError("land principal must be a conjunction")
        return [Sequent(replace_formula(ante, k, f.left, f.right), succ)]
    if rule is RuleId.RAND:
        if not isinstance(f, And):
            raise ShapeMismatchError("rand principal must be a conjunction")
        return [
            Sequent(ante, replace_formula(succ, k, f.left)),
            Sequent(ante, replace_formula(succ, k, f.right)),
        ]
    if rule is RuleId.LOR:
        if not isinstance(f, Or):
            raise ShapeMismatchError("lor principal must be a disjunction")
        return [
            Sequent(replace_formula(ante, k, f.left), succ),
            Sequent(replace_formula(ante, k, f.right), succ),
        ]
    if rule is RuleId.ROR:
        if not isinstance(f, Or):
            raise ShapeMismatchError("ror principal must be a disjunction")
        return [Sequent(ante, replace_formula(succ, k, f.left, f.right))]
    if rule is RuleId.LIMP:
        if not isinstance(f, Imp):
            raise ShapeMismatchError("limp principal must be an implication")
        return [
            Sequent(remove_at(ante, k), succ + (f.left,)),
            Sequent(replace_formula(ante, k, f.right), succ),
        ]
    if rule is RuleId.LIMPI:
        if not isinstance(f, Imp):
            raise ShapeMismatchError("limpi principal must be an implication")
        return [
            Sequent(ante, succ + (f.left,)),
            Sequent(replace_formula(ante, k, f.right), succ),
        ]
    if rule is RuleId.RIMP:
        if not isinstance(f, Imp):
            raise ShapeMismatchError("rimp principal must be an implication")
        return [Sequent(ante + (f.left,), replace_formula(succ, k, f.right))]
    if rule is RuleId.RIMPI:
        if not isinstance(f, Imp):
            raise ShapeMismatchError("rimpi principal must be an implication")
        return [Sequent(ante + (f.left,), (f.right,))]
    if rule is RuleId.LFORALL:
        if not isinstance(f, Forall) or inst.witness is None:
            raise ShapeMismatchError("lforall needs a universal principal and a witness term")
        return [Sequent(replace_formula(ante, k, substitute(f.body, f.var, inst.witness), f), succ)]
    if rule is RuleId.REXISTS:
        if not isinstance(f, Exists) or inst.witness is None:
            raise ShapeMismatchError("rexists needs an existential principal and a witness term")
        return [Sequent(ante, replace_formula(succ, k, f, substitute(f.body, f.var, inst.witness)))]
    if rule in (RuleId.RFORALL, RuleId.RFORALLI):
        if not isinstance(f, Forall) or inst.eigen is None:
            raise ShapeMismatchError("rforall needs a universal principal and an eigenparameter")
        _check_eigen(inst.eigen, conclusion)
        inst_body = substitute(f.body, f.var, Param(inst.eigen))
        if rule is RuleId.RFORALL:
            return [Sequent(ante, replace_formula(succ, k, inst_body))]
        return [Sequent(ante, (inst_body,))]
    if rule is RuleId.LEXISTS:
        if not isinstance(f, Exists) or inst.eigen is None:
            raise ShapeMismatchError("lexists needs an existential principal and an eigenparameter")
        _check_eigen(inst.eigen, conclusion)
        return [Sequent(replace_formula(ante, k, substitute(f.body, f.var, Param(inst.eigen))), succ)]

    # -- structural rules
    if rule is RuleId.LW:
        return [Sequent(remove_at(ante, k), succ)]
    if rule is RuleId.RW:
        return [Sequent(ante, remove_at(succ, k))]
    if rule in (RuleId.LC, RuleId.LCEQ):
        if rule is RuleId.LCEQ and not isinstance(f, Eq):
            raise ShapeMismatchError("lceq contracts equalities only")
        return [Sequent(replace_formula(ante, k, f, f), succ)]
    if rule is RuleId.RC:
        return [Sequent(ante, replace_formula(succ, k, f, f))]
    if rule is RuleId.CUT:
        if inst.cut_formula is None or inst.split is None:
            raise ShapeMismatchError("cut needs a cut formula and a context split")
        a1, s1 = _check_split(conclusion, inst.split)
        left_ante = tuple(ante[n] for n in a1)
        left_succ = tuple(succ[n] for n in s1)
        right_ante = tuple(ante[n] for n in range(len(ante)) if n not in set(a1))
        right_succ = tuple(succ[n] for n in range(len(succ)) if n not in set(s1))
        return [
            Sequent(left_ante, left_succ + (inst.cut_formula,)),
            Sequent((inst.cut_formula,) + right_ante, right_succ),
        ]

    # -- reflexivity / symmetry
    if rule is RuleId.REFL:
        if inst.witness is None:
            raise ShapeMismatchError("refl needs the identity's term")
        return [Sequent((Eq(inst.witness, inst.witness),) + ante, succ)]
    if rule is RuleId.SYMM:
        if not isinstance(f, Eq):
            raise ShapeMismatchError("symm principal must be an equality")
        return [Sequent(replace_formula(ante, k, Eq(f.rhs, f.lhs)), succ)]

    # -- replacement rules
    if sig.index:
        rep = _the_replacement(inst)
        if rep.eq_index is None:
            raise ShapeMismatchError(f"{rule.value} needs an operating equality index")
        op = _check_index(ante, rep.eq_index, "operating equality")
        if not isinstance(op, Eq):
            raise ShapeMismatchError("operating formula must be an equality")
        right = sig.context_side == "s"
        if not right and rep.context_index == rep.eq_index:
            raise ShapeMismatchError("context formula must be distinct from the operating equality")
        ctx = _check_index(succ if right else ante, rep.context_index, "context formula")
        if not is_atomic(ctx):
            raise ShapeMismatchError("context formula must be atomic")
        if right:
            _check_flags_right(spec, rule, ctx, rep.paths)
        else:
            _check_flags_left(spec, ctx, rep.paths)
        _check_orientation(spec, sig.index, op)
        try:
            input_formula = replace_at(ctx, set(rep.paths), *sig.terms(op))
        except PathError as exc:
            raise ShapeMismatchError(str(exc)) from exc
        c = rep.context_index
        if right:
            new_ante = ante if sig.retention == "keep" else remove_at(ante, rep.eq_index)
            return [Sequent(new_ante, replace_formula(succ, c, input_formula))]
        if sig.keeps_context(ctx):
            return [Sequent(ante[: c + 1] + (input_formula,) + ante[c + 1 :], succ)]
        return [Sequent(replace_formula(ante, c, input_formula), succ)]

    if rule is RuleId.CNG:
        rep = _the_replacement(inst)
        if inst.witness is None or inst.split is None:
            raise ShapeMismatchError("cng needs a replaced term and a context split")
        if rep.eq_index is not None:
            raise ShapeMismatchError("cng carries its operating equality in its first premiss")
        ctx = _check_index(succ, rep.context_index, "context formula")
        if not is_atomic(ctx):
            raise ShapeMismatchError("context formula must be atomic")
        a1, s1 = _check_split(conclusion, inst.split)
        if rep.context_index in s1:
            raise ShapeMismatchError("cng context formula cannot be split into the first premiss")
        if not rep.paths:
            raise ShapeMismatchError("cng needs a nonempty path set")
        prem_term = inst.witness
        if Flag.SINGLE_OCCURRENCE in spec.flags and len(rep.paths) != 1:
            raise FlagViolationError("flag-violation: single-occurrence mode")
        try:
            concl_term = term_at(ctx, rep.paths[0])
            input_formula = replace_at(ctx, set(rep.paths), concl_term, prem_term)
        except PathError as exc:
            raise ShapeMismatchError(str(exc)) from exc
        a1set, s1set = set(a1), set(s1)
        left_ante = tuple(ante[k] for k in a1)
        left_succ = tuple(succ[k] for k in s1)
        right_ante = tuple(ante[k] for k in range(len(ante)) if k not in a1set)
        right_succ = tuple(
            input_formula if k == rep.context_index else succ[k]
            for k in range(len(succ))
            if k not in s1set
        )
        return [
            Sequent(left_ante, left_succ + (Eq(prem_term, concl_term),)),
            Sequent(right_ante, right_succ),
        ]

    raise RuleNotInCalculusError(f"rule {rule.value} has no premiss computation")


_PRINCIPAL_COUNT = ("no principal index", "one principal index", "two principal indices")


def _the_replacement(inst: RuleInstance) -> Replacement:
    if inst.replacement is None:
        raise ShapeMismatchError(f"{inst.rule.value} needs replacement data")
    return inst.replacement


def _check_split(
    conclusion: Sequent, split: tuple[tuple[int, ...], tuple[int, ...]]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    a1, s1 = split
    for k in a1:
        _check_index(conclusion.ante, k, "split antecedent")
    for k in s1:
        _check_index(conclusion.succ, k, "split succedent")
    if len(set(a1)) != len(a1) or len(set(s1)) != len(s1):
        raise ShapeMismatchError("split indices must be distinct")
    return tuple(sorted(a1)), tuple(sorted(s1))


def _check_eigen(name: str, conclusion: Sequent) -> None:
    if name in conclusion.params():
        raise EigenvariableError(f"eigenvariable-violation: {name} occurs in the conclusion")


# ---------------------------------------------------------------------------
# Backward move generation


def _nonempty_nonoverlapping_subsets(occ: list[Path]) -> list[tuple[Path, ...]]:
    out: list[tuple[Path, ...]] = []

    def extend(start: int, chosen: list[Path]) -> None:
        if chosen:
            out.append(tuple(chosen))
        for k in range(start, len(occ)):
            if any(paths_overlap(occ[k], c) for c in chosen):
                continue
            chosen.append(occ[k])
            extend(k + 1, chosen)
            chosen.pop()

    extend(0, [])
    return out


def _sorted_universe(universe) -> list[Term]:
    """The terms by height, and by printed text within one height; a term is
    printed only when another shares its height, as printing a deep term
    costs its size."""
    by_height: dict[int, list[Term]] = {}
    for t in universe:
        by_height.setdefault(t.height, []).append(t)
    out: list[Term] = []
    for h in sorted(by_height):
        ts = by_height[h]
        out += sorted(ts, key=str) if len(ts) > 1 else ts
    return out


def _subsets(n: int):
    for r in range(n + 1):
        yield from itertools.combinations(range(n), r)


def _first_occurrence_subsets(fs: tuple[Formula, ...], exclude: int | None = None):
    """The index subsets of ``fs`` (``exclude`` left out) that take the earliest
    occurrences of each repeated formula, in ``_subsets`` order.

    Two context splits give multiset-equal premisses exactly when they pick
    the same multiset of formulas; the subset kept here is the first of its
    class in ``_subsets`` order, so dropping the others keeps the move order.
    """
    prev: dict[int, int] = {}
    last: dict[Formula, int] = {}
    for k, f in enumerate(fs):
        if k == exclude:
            continue
        if f in last:
            prev[k] = last[f]
        last[f] = k
    return [
        sub
        for sub in _subsets(len(fs))
        if exclude not in sub and all(prev.get(k, k) in sub for k in sub)
    ]


def _split_parts(fs: tuple[Formula, ...], splits) -> list[tuple]:
    """``(split, chosen, rest)`` for each index split of ``fs``; the rest
    keeps its order."""
    return [
        (sub, tuple(fs[k] for k in sub), tuple(f for k, f in enumerate(fs) if k not in sub))
        for sub in splits
    ]


class _Memo(dict):
    """A table that fills a missing key with ``make(key)``."""

    def __init__(self, make) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        out = self[key] = self.make(key)
        return out


class MovePool:
    """What the moves of one search share, so that each is built once: one
    sequent object per ordered list of formulas, a number per multiset pair,
    the rewrites of each context formula, the closed subterms and parameter
    names of each formula, and the sorted term list of each distinct set of
    terms over the search's universe."""

    def __init__(self) -> None:
        self._sequents = _Memo(self._pooled)
        self._multisets: dict[Sequent, int] = {}
        self._multiset_of: dict[int, int] = {}
        self._rewrites = _Memo(lambda key: [
            (paths, replace_at(key[0], set(paths), *key[1:]))
            for paths in _nonempty_nonoverlapping_subsets(occurrences(*key[:2]))
        ])
        self._terms = _Memo(closed_terms)
        self._params = _Memo(lambda f: {t.name for t in self._terms[f] if isinstance(t, Param)})
        self._context_terms = _Memo(lambda f: _sorted_universe({t for s in _top_terms(f) for t in subterms(s)}))
        self._universe = None

    def _pooled(self, key: tuple) -> Sequent:
        seq = Sequent(*key)
        self._multiset_of[id(seq)] = self._multisets.setdefault(seq, len(self._multisets))
        return seq

    def sequent(self, ante, succ) -> Sequent:
        """The sequent ``ante |- succ``."""
        return self._sequents[ante, succ]

    def multiset(self, seq: Sequent) -> int:
        """A number shared by exactly the pooled sequents equal to ``seq``."""
        return self._multiset_of[id(seq)]

    def share(self, seq: Sequent) -> Sequent:
        """The pooled sequent with the formulas of ``seq``, in their order."""
        return self._sequents[seq.ante, seq.succ]

    def rewrites(self, ctx: Formula, frm: Term, to: Term) -> list[tuple]:
        """``(paths, rewritten ctx)`` for every nonempty set of nonoverlapping
        occurrences of ``frm`` in ``ctx``, replaced by ``to``."""
        return self._rewrites[ctx, frm, to]

    def fresh_eigen(self, seq: Sequent) -> str:
        """The first of ``_e1``, ``_e2``, ... that no formula of ``seq`` has as a parameter."""
        used = set().union(*[self._params[f] for f in seq.ante + seq.succ])
        return next(name for k in itertools.count(1) if (name := f"_e{k}") not in used)

    def terms(self, seq: Sequent, universe) -> list[Term]:
        """``universe`` and the closed subterms of ``seq``, in
        :func:`_sorted_universe` order.  What it keeps serves the universe of
        the last call, which is one per search."""
        if universe is not self._universe:
            self._universe, known = universe, frozenset(universe)
            self._outside = _Memo(lambda f: frozenset(t for t in self._terms[f] if t not in known))
            self._term_lists = _Memo(lambda extra: _sorted_universe(known | extra))
        return self._term_lists[frozenset().union(*[self._outside[f] for f in seq.ante + seq.succ])]

    def context_terms(self, ctx: Formula) -> list[Term]:
        """The subterms of the atomic formula ``ctx``, in :func:`_sorted_universe` order."""
        return self._context_terms[ctx]


def _collector(goal: Sequent, spec: CalculusSpec, out: list, pool: MovePool | None = None):
    """``add(inst)`` appends ``(inst, premisses)`` when ``premisses_of`` accepts."""

    def add(inst: RuleInstance) -> None:
        try:
            premisses = premisses_of(goal, inst, spec)
        except CalculusError:
            return
        out.append((inst, premisses if pool is None else [pool.share(p) for p in premisses]))

    return add


# the rules of leaf_expansions
_LEAVES = frozenset({RuleId.INIT, RuleId.MINBOT, RuleId.REFAX, RuleId.LBOT})


def leaf_expansions(goal: Sequent, spec: CalculusSpec) -> list[tuple[RuleInstance, list[Sequent]]]:
    """The zero-premiss prefix of :func:`expansions`: initial sequents and axioms."""
    out: list[tuple[RuleInstance, list[Sequent]]] = []
    add = _collector(goal, spec, out)
    ante, succ = goal.ante, goal.succ
    minbot = spec.allows(RuleId.MINBOT)
    for i, f in enumerate(ante):
        for j, g in enumerate(succ):
            if f == g:
                add(leaf(RuleId.INIT, i, j))
            if minbot and isinstance(f, Bottom) and isinstance(g, Bottom):
                add(leaf(RuleId.MINBOT, i, j))
    if spec.allows(RuleId.REFAX):
        for j, g in enumerate(succ):
            if is_identity(g):
                add(leaf(RuleId.REFAX, j))
    if spec.allows(RuleId.LBOT):
        for i, f in enumerate(ante):
            if isinstance(f, Bottom):
                add(leaf(RuleId.LBOT, i))
    return out


def _passes(check, *args) -> bool:
    try:
        check(*args)
    except CalculusError:
        return False
    return True


def expansions(
    goal: Sequent, spec: CalculusSpec, universe, pool: MovePool | None = None
) -> list[tuple[RuleInstance, list[Sequent]]]:
    """Every rule instance of ``spec`` whose conclusion matches ``goal``, each
    with its premisses: the move generator of backward search and of
    :func:`eqseq.search.exact_decide`.

    Witness, CNG and cut terms are drawn from ``universe`` and the closed
    subterms of ``goal`` (so eigenparameters that rules below it introduced
    are witnesses too), in :func:`_sorted_universe` order; cut atoms use the
    predicates present in the goal; eigenparameters are generated fresh.  The
    result is deterministic and complete relative to that bound, except that
    CNG/CUT context splits whose premisses are multiset-equal collapse to the
    first of them.  Zero-premiss instances come first (:func:`leaf_expansions`).

    The premisses are those ``premisses_of`` computes.  It computes them for
    the leaf, logical, structural and reflexivity rules; the replacement,
    CNG and CUT instances, which are most of the moves, are built directly
    here, with the kernel's own flag and orientation checks.  Premisses and
    the goal's terms come from ``pool``, shared across calls when one is
    given; a pool serves one universe at a time.
    """
    pool = MovePool() if pool is None else pool
    terms = pool.terms(goal, universe)
    out = leaf_expansions(goal, spec)
    add = _collector(goal, spec, out, pool)
    ante, succ = goal.ante, goal.succ

    # the rules whose instances a principal index and at most a witness or an
    # eigenparameter fix go through premisses_of
    eigen = None  # named on first use: most calculi have no eigen rule
    principals = {"a": [(i,) for i in range(len(ante))], "s": [(j,) for j in range(len(succ))]}
    for rule, sig in spec._signatures:
        if rule in _LEAVES or len(sig.fields) > 1:
            continue
        for principal in principals.get(sig.principal, [()]):
            if sig.fields == ("witness",):
                for t in terms:
                    add(RuleInstance(rule, principal, witness=t))
            elif sig.fields == ("eigen",):
                eigen = eigen or pool.fresh_eigen(goal)
                add(RuleInstance(rule, principal, eigen=eigen))
            else:
                add(RuleInstance(rule, principal))

    # replacement rules: one premiss, the context formula rewritten in place
    # (or, for retained contexts, the rewritten copy put after it)
    replacements = [(rule, sig) for rule, sig in spec._signatures if sig.index]
    for e, op in enumerate(ante):
        if not isinstance(op, Eq):
            continue
        for rule, sig in replacements:
            if not _passes(_check_orientation, spec, sig.index, op):
                continue
            if sig.context_side == "s":
                new_ante = ante if sig.retention == "keep" else remove_at(ante, e)
                for j, ctx in enumerate(succ):
                    if not is_atomic(ctx):
                        continue
                    for paths, new in pool.rewrites(ctx, *sig.terms(op)):
                        if _passes(_check_flags_right, spec, rule, ctx, paths):
                            premiss = pool.sequent(new_ante, replace_formula(succ, j, new))
                            out.append((repl_inst(rule, e, j, paths), [premiss]))
            else:
                for i, ctx in enumerate(ante):
                    if i == e or not is_atomic(ctx):
                        continue
                    at = i + 1 if sig.keeps_context(ctx) else i
                    for paths, new in pool.rewrites(ctx, *sig.terms(op)):
                        if _passes(_check_flags_left, spec, ctx, paths):
                            premiss = pool.sequent(ante[:at] + (new,) + ante[i + 1 :], succ)
                            out.append((repl_inst(rule, e, i, paths), [premiss]))

    # cng: the chosen context proves r=s, the rest has the context formula
    # rewritten in its place
    if spec.allows(RuleId.CNG):
        single = Flag.SINGLE_OCCURRENCE in spec.flags
        ante_parts = _split_parts(ante, _first_occurrence_subsets(ante))
        for j, ctx in enumerate(succ):
            if not is_atomic(ctx):
                continue
            succ_parts = []  # (split, chosen, rest before and after the context)
            for s1, chosen, rest in _split_parts(succ, _first_occurrence_subsets(succ, exclude=j)):
                at = j - sum(1 for k in s1 if k < j)  # the context's place in the rest
                succ_parts.append((s1, chosen, rest[:at], rest[at + 1 :]))
            for s_term in pool.context_terms(ctx):
                by_witness = [(r, Eq(r, s_term), pool.rewrites(ctx, s_term, r)) for r in terms]
                for k, paths in enumerate(_nonempty_nonoverlapping_subsets(occurrences(ctx, s_term))):
                    if single and len(paths) != 1:
                        continue
                    rep = Replacement(None, j, paths)
                    for r_term, eq, rewritten in by_witness:
                        new = rewritten[k][1]
                        sides = [(s1, s_in + (eq,), pre + (new,) + post) for s1, s_in, pre, post in succ_parts]
                        for a1, a_in, a_out in ante_parts:
                            for s1, first_succ, second_succ in sides:
                                out.append((
                                    RuleInstance(RuleId.CNG, replacement=rep, witness=r_term, split=(a1, s1)),
                                    [pool.sequent(a_in, first_succ), pool.sequent(a_out, second_succ)],
                                ))

    if spec.allows(RuleId.CUT):
        preds = sorted(_goal_predicates(goal))
        candidates: list[Formula] = [Eq(u, v) for u in terms for v in terms]
        for pred, arity in preds:
            for args in itertools.product(terms, repeat=arity):
                candidates.append(Atom(pred, tuple(args)))
        ante_parts = _split_parts(ante, _first_occurrence_subsets(ante))
        succ_parts = _split_parts(succ, _first_occurrence_subsets(succ))
        for a in candidates:
            for a1, a_in, a_out in ante_parts:
                for s1, s_in, s_out in succ_parts:
                    out.append((
                        RuleInstance(RuleId.CUT, cut_formula=a, split=(a1, s1)),
                        [pool.sequent(a_in, s_in + (a,)), pool.sequent((a,) + a_out, s_out)],
                    ))

    return out


def applicable_instances(goal: Sequent, spec: CalculusSpec, universe) -> list[RuleInstance]:
    """The instances of :func:`expansions`, without their premisses.

    Every returned instance satisfies ``premisses_of``; CNG/CUT context splits
    with multiset-equal premisses are collapsed to their first occurrence.
    """
    return [inst for inst, _ in expansions(goal, spec, universe)]


def _goal_predicates(goal: Sequent) -> set[tuple[str, int]]:
    return {
        (g.pred, len(g.args))
        for f in goal.all_formulas()
        for g in atomic_parts(f)
        if isinstance(g, Atom)
    }


# ---------------------------------------------------------------------------
# Presets


def _spec(rules: tuple[RuleId, ...], flags: tuple[Flag, ...] = (), base: str = "none",
          precedence: Precedence = PREC_NONE) -> CalculusSpec:
    return CalculusSpec(base, frozenset(rules), frozenset(flags), precedence)


PRESETS: dict[str, CalculusSpec] = {
    # the natural structural-rule-free system and its variants
    "R12r": _spec((RuleId.REFAX, RuleId.REP1R, RuleId.REP2R)),
    "R12r_eqr": _spec((RuleId.REFAX, RuleId.REP1R, RuleId.REP2R), (Flag.RIGHT_HAND_ONLY,)),
    "R12rl": _spec((RuleId.REFAX, RuleId.REP1L, RuleId.REP2L, RuleId.REP1R, RuleId.REP2R)),
    # scope-restricted replacement
    "R_scope": _spec(
        (RuleId.REFAX, RuleId.REP1L, RuleId.REP2L, RuleId.REP1R, RuleId.REP2R),
        (Flag.CONTEXT_EQ_ONLY, Flag.CONTEXT_NONEQ_ONLY),
    ),
    "R_scope_eqr": _spec(
        (RuleId.REFAX, RuleId.REP1L, RuleId.REP2L, RuleId.REP1R, RuleId.REP2R),
        (Flag.CONTEXT_EQ_ONLY, Flag.CONTEXT_NONEQ_ONLY, Flag.RIGHT_HAND_ONLY),
    ),
    # single-orientation systems
    "R1rl": _spec((RuleId.REFAX, RuleId.REP1L, RuleId.REP1R)),
    "R2rl": _spec((RuleId.REFAX, RuleId.REP2L, RuleId.REP2R)),
    "R1rlPlus": _spec((RuleId.REFAX, RuleId.REP1LP, RuleId.REP1R)),
    "R2rlPlus": _spec((RuleId.REFAX, RuleId.REP2LP, RuleId.REP2R)),
    "R12rlPlus": _spec((RuleId.REFAX, RuleId.REP1LP, RuleId.REP2LP, RuleId.REP1R, RuleId.REP2R)),
    "R12prec_rlPlus": _spec(
        (RuleId.REFAX, RuleId.REP1LP, RuleId.REP2LP, RuleId.REP1R, RuleId.REP2R),
        (Flag.ORIENTED,),
        precedence=PREC_HEIGHT,
    ),
    # left-reflexivity systems
    "RefRep": _spec((RuleId.REFL, RuleId.REP)),
    "RefRep2L": _spec((RuleId.REFL, RuleId.REP2L)),
    # counterexample systems
    "S1": _spec((RuleId.REFAX, RuleId.LC, RuleId.REP2LP, RuleId.REP1R)),
    "S2": _spec((RuleId.REFAX, RuleId.LC, RuleId.REP1LP, RuleId.REP2R)),
    "EqCut": _spec((RuleId.REFAX, RuleId.EQ1, RuleId.EQ2, RuleId.CUT)),
    "EqCutFree": _spec((RuleId.REFAX, RuleId.EQ1, RuleId.EQ2)),
    "CngCut": _spec((RuleId.REFAX, RuleId.CNG, RuleId.CUT)),
    "CngOnly": _spec((RuleId.REFAX, RuleId.CNG)),
    "CngLCeq": _spec((RuleId.REFAX, RuleId.CNG, RuleId.LCEQ)),
    # logical bases (equality rules can be added with CalculusSpec.with_rules)
    "G3c": _spec((), base="c"),
    "G3i": _spec((), base="i"),
    "G3m": _spec((), base="m"),
    "G3cR12r": _spec((RuleId.REFAX, RuleId.REP1R, RuleId.REP2R), base="c"),
}


def resolve_preset(name: str) -> CalculusSpec:
    try:
        return PRESETS[name]
    except KeyError:
        raise CalculusError(f"unknown preset {name!r}; see `eqseq presets`") from None


def parse_spec(text: str) -> CalculusSpec:
    """Parse ``base=<none|m|i|c> rules=<csv> flags=<csv> prec=<none|height|@file>``."""
    base, rules, flags, prec = "none", frozenset(), frozenset(), PREC_NONE
    for part in text.split():
        if "=" not in part:
            raise CalculusError(f"malformed spec component {part!r}")
        key, value = part.split("=", 1)
        if key == "base":
            base = value
        elif key == "rules":
            names = [v for v in value.split(",") if v and v != "-"]
            unknown = [v for v in names if v not in RULE_BY_NAME]
            if unknown:
                raise CalculusError(f"unknown rule id(s) {unknown}")
            rules = frozenset(RULE_BY_NAME[v] for v in names)
        elif key == "flags":
            names = [v for v in value.split(",") if v and v != "-"]
            unknown = [v for v in names if v not in FLAG_BY_NAME]
            if unknown:
                raise CalculusError(f"unknown flag(s) {unknown}")
            flags = frozenset(FLAG_BY_NAME[v] for v in names)
        elif key == "prec":
            prec = parse_precedence(value)
        else:
            raise CalculusError(f"unknown spec key {key!r}")
    return CalculusSpec(base, rules, flags, prec)


def parse_precedence(text: str) -> Precedence:
    """``height``, ``none`` or ``@file`` (see :func:`load_precedence_file`)."""
    if text == "height":
        return PREC_HEIGHT
    if text == "none":
        return PREC_NONE
    if text.startswith("@"):
        return load_precedence_file(text[1:])
    raise CalculusError(f"unknown precedence {text!r} (use height, none or @file)")


def load_precedence_file(path: str) -> Precedence:
    """Explicit precedence: one ``t1 < t2`` pair per line, ``#`` comments."""
    from .parser import parse_term, read_text

    pairs: set[tuple[Term, Term]] = set()
    for line in read_text(path).split("\n"):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "<" not in line:
            raise CalculusError(f"malformed precedence line {line!r}")
        left, right = line.split("<", 1)
        pairs.add((parse_term(left.strip()), parse_term(right.strip())))
    return Precedence("explicit", frozenset(pairs))


def resolve_spec(text: str) -> CalculusSpec:
    """A preset name, or a full ``base=... rules=...`` spec string."""
    if "=" in text:
        return parse_spec(text)
    return resolve_preset(text)
