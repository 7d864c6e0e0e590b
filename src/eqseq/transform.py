"""Executable proof transformations: height-preserving weakening, succedent
projection, rule-equivalence translation, cut elimination, right-hand-side
normalization, replacement-scope restriction, orientation of replacement, and
semishortening.

Every operation is a pure derivation-to-derivation function whose output is
meant to be re-checked in its target calculus; the inductive rewrites assert
that their termination measures strictly decrease, so a transcription error
in a case table fails fast instead of looping.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Generator
from functools import partial

from .calculus import (
    CalculusError,
    CalculusSpec,
    PREC_NONE,
    PRESETS,
    Precedence,
    RULES,
    Replacement,
    RuleId,
    RuleInstance,
    leaf,
    premisses_of,
    repl_inst,
    resolve_spec,
)
from .checker import Derivation, check, node
from .syntax import (
    Eq,
    EqSeqError,
    Formula,
    Param,
    Path,
    Sequent,
    Term,
    formula_params,
    is_identity,
    paths_overlap,
    remove_at,
    replace_at,
    replace_formula,
    replace_leaf,
    replace_in_term,
    term_at,
)


class TransformError(EqSeqError):
    pass


class PreconditionError(TransformError):
    pass


class UntranslatableRuleError(TransformError):
    pass


class MultiOccurrenceError(TransformError):
    pass


class MeasureError(TransformError):
    """An inductive rewrite failed to decrease its termination measure."""


class TransformReport(namedtuple("TransformReport", "output target input_height output_height steps",
                                 defaults=((),))):
    __slots__ = ()
    output: Derivation
    target: CalculusSpec
    input_height: int
    output_height: int
    steps: tuple[str, ...]

    def lines(self) -> list[str]:
        return [
            f"target: {self.target.describe()}",
            f"input_height: {self.input_height}",
            f"output_height: {self.output_height}",
            f"steps: {' '.join(self.steps) or '-'}",
        ]


def make_report(input_d: Derivation, output_d: Derivation, target: CalculusSpec,
                steps: tuple[str, ...] = ()) -> TransformReport:
    rep = check(output_d, target)
    if not rep.valid:
        raise TransformError(f"transform output fails to check: {rep.first_error}")
    return TransformReport(output_d, target, input_d.height, output_d.height, steps)


# ---------------------------------------------------------------------------
# Walking derivations
#
# Every pass walks its derivation through _run, so a derivation of any height
# transforms without reaching Python's recursion limit.


def _run(walk, *args):
    """``walk(*args)``, where the generator function ``walk`` yields the
    arguments of each call it would make to itself and is sent that call's
    result.  Pending calls wait on a list and run in the order plain
    recursion would run them."""
    stack = [walk(*args)]
    result = None
    while stack:
        try:
            call = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(walk(*call))
            result = None
    return result


def _rebuild(d: Derivation, step) -> Derivation:
    """``d`` with every node replaced, children first, by ``step`` of that
    node over its rebuilt children."""

    def walk(n: Derivation) -> Generator[tuple, Derivation, Derivation]:
        children = []
        for c in n.children:
            children.append((yield (c,)))
        return step(Derivation(n.sequent, n.inst, tuple(children)))

    return _run(walk, d)


def _spine(d: Derivation) -> list[Derivation]:
    """The nodes from ``d`` down to a leaf through first children."""
    out = [d]
    while out[-1].children:
        out.append(out[-1].children[0])
    return out


# ---------------------------------------------------------------------------
# Positional canonicalization
#
# Derivations read from files may list premiss formulas in any order (the
# checker compares multisets).  The transformations below manipulate instance
# indices, so premiss order is set where a pass starts: each public entry
# renormalizes its input, after which every child's sequent tuple is exactly
# the premiss tuple computed by premisses_of.  Steps inside a pass do not
# renormalize again, and the nodes they build need not keep that order
# (_reorder_root reorders a root, not its children).  So a step that reads a
# child's formulas at its parent's indices (_cng_step's replacement cases)
# first puts that one child in premiss order with _reorder_root; the other
# steps read only each node's own indices, or compare sequents, whose
# equality is multiset equality.

def _remap_instance(inst: RuleInstance, amap: dict[int, int], smap: dict[int, int]) -> RuleInstance:
    maps = {"a": amap, "s": smap}
    sig = RULES[inst.rule]
    principal = tuple(maps[side][i] for side, i in zip(sig.principal, inst.principal))
    replacement = inst.replacement
    if replacement is not None:
        replacement = Replacement(
            None if replacement.eq_index is None else amap[replacement.eq_index],
            maps[sig.context_side][replacement.context_index],
            replacement.paths,
        )
    split = inst.split
    if split is not None:
        split = (tuple(sorted(amap[i] for i in split[0])), tuple(sorted(smap[j] for j in split[1])))
    return RuleInstance(
        inst.rule, principal, replacement, inst.witness, inst.eigen, inst.cut_formula, split
    )


def _permutation(old: tuple[Formula, ...], new: tuple[Formula, ...]) -> dict[int, int]:
    used: set[int] = set()
    out: dict[int, int] = {}
    for i, f in enumerate(old):
        for j, g in enumerate(new):
            if j not in used and f == g:
                out[i] = j
                used.add(j)
                break
        else:
            raise TransformError(f"sequents are not multiset-equal at {f}")
    return out


def renormalize(d: Derivation, spec: CalculusSpec) -> Derivation:
    """Reorder every node so children's sequent tuples equal the computed
    premiss tuples; instance indices are remapped accordingly."""

    def go(n: Derivation, want: Sequent) -> Generator[tuple, Derivation, Derivation]:
        n = _reorder_root(n, want)
        premisses = premisses_of(want, n.inst, spec)
        if len(premisses) != len(n.children):
            raise PreconditionError("input derivation is not valid in the given calculus")
        children = []
        for c, p in zip(n.children, premisses):
            children.append((yield c, p))
        return Derivation(want, n.inst, tuple(children))

    return _run(go, d, d.sequent)


# ---------------------------------------------------------------------------
# Height-preserving weakening (hp-admissibility of LW/RW)


def _rename_param_deriv(d: Derivation, old: str, new: str) -> Derivation:
    def fix(x):
        return None if x is None else replace_leaf(x, Param(old), Param(new))

    def step(n: Derivation) -> Derivation:
        inst = n.inst._replace(
            witness=fix(n.inst.witness),
            eigen=new if n.inst.eigen == old else n.inst.eigen,
            cut_formula=fix(n.inst.cut_formula),
        )
        seq = Sequent(tuple(map(fix, n.sequent.ante)), tuple(map(fix, n.sequent.succ)))
        return Derivation(seq, inst, n.children)

    return _rebuild(d, step)


def _refresh_eigens(d: Derivation, avoid: set[str]) -> Derivation:
    """Rename any eigenparameter clashing with ``avoid`` throughout its subtree."""
    if not any(n.inst.eigen in avoid for n in d.nodes()):
        return d
    taken = avoid.union(*(n.sequent.params() for n in d.nodes()))
    counter = [0]

    def fresh() -> str:
        while True:
            counter[0] += 1
            name = f"_e{counter[0]}"
            if name not in taken:
                taken.add(name)
                return name

    def go(n: Derivation) -> Generator[tuple, Derivation, Derivation]:
        if n.inst.eigen in avoid:
            n = _rename_param_deriv(n, n.inst.eigen, fresh())
        children = []
        for c in n.children:
            children.append((yield (c,)))
        return Derivation(n.sequent, n.inst, tuple(children))

    return _run(go, d)


def weaken_hp(d: Derivation, f: Formula, side: str, spec: CalculusSpec) -> Derivation:
    """Thread ``f`` through every node of ``d``: same height, valid in ``spec``.

    Eigenparameters of ``d`` occurring in ``f`` are renamed first.
    """
    if side not in ("ante", "succ"):
        raise PreconditionError(f"side must be ante or succ, got {side!r}")
    d = renormalize(d, spec)
    return weaken_hp_many(d, (f,), (), spec) if side == "ante" else weaken_hp_many(d, (), (f,), spec)


def _thread(
    d: Derivation, f: Formula, side: str, spec: CalculusSpec
) -> Generator[tuple, Derivation, Derivation]:
    seq = d.sequent
    new_seq = (
        Sequent(seq.ante + (f,), seq.succ) if side == "ante" else Sequent(seq.ante, seq.succ + (f,))
    )
    if not d.children:
        return Derivation(new_seq, d.inst, ())
    olds = premisses_of(seq, d.inst, spec)
    news = premisses_of(new_seq, d.inst, spec)
    children = []
    for old, new, child in zip(olds, news, d.children):
        if new == old:
            children.append(child)
        else:
            children.append((yield child, f, side, spec))
    return Derivation(new_seq, d.inst, tuple(children))


def weaken_hp_many(d: Derivation, ante, succ, spec: CalculusSpec) -> Derivation:
    """:func:`weaken_hp` of each formula of ``ante`` and then of ``succ``,
    without renormalizing: threading reads only each node's own indices, so
    ``d``'s nodes may list their premisses in any order."""
    for side, fs in (("ante", ante), ("succ", succ)):
        for f in fs:
            d = _run(_thread, _refresh_eigens(d, formula_params(f)), f, side, spec)
    return d


# ---------------------------------------------------------------------------
# Succedent projection (hp-admissibility of RC)

def project_succedent(d: Derivation, spec: CalculusSpec) -> tuple[Formula, Derivation]:
    """From a derivation of ``Γ |- Δ`` produce ``A`` in ``Δ`` with a derivation
    of ``Γ |- A`` of height at most the input height.

    Only the single-premiss equality systems plus CNG are in scope; a G3 base
    or a Cut node violates the precondition.  Following the principal trail,
    the height is preserved exactly whenever no inference gets skipped (in
    particular on single-succedent derivations).
    """
    if spec.base != "none":
        raise PreconditionError("precondition-violation: succedent projection needs base=none")
    if RuleId.CUT in spec.rules:
        raise PreconditionError("precondition-violation: projection does not support Cut")
    d = renormalize(d, spec)
    return _run(_proj, d, spec)


def _proj(
    d: Derivation, spec: CalculusSpec
) -> Generator[tuple, tuple[Formula, Derivation], tuple[Formula, Derivation]]:
    seq, inst = d.sequent, d.inst
    rule = inst.rule
    if rule is RuleId.INIT:
        i, j = inst.principal
        a = seq.succ[j]
        return a, node(Sequent(seq.ante, (a,)), leaf(RuleId.INIT, i, 0))
    if rule is RuleId.REFAX:
        (j,) = inst.principal
        a = seq.succ[j]
        return a, node(Sequent(seq.ante, (a,)), leaf(RuleId.REFAX, 0))
    if rule in (RuleId.RW, RuleId.RC):
        return (yield d.children[0], spec)

    sig = RULES[rule]
    if rule in (RuleId.REFL, RuleId.SYMM, RuleId.LW, RuleId.LC, RuleId.LCEQ) or sig.context_side == "a":
        a, sub = yield d.children[0], spec
        new_seq = Sequent(seq.ante, (a,))
        want = premisses_of(new_seq, inst, spec)[0]
        if want != sub.sequent:
            raise TransformError("projection lost the principal trail on an antecedent rule")
        return a, Derivation(new_seq, inst, (sub,))

    if sig.index and sig.context_side == "s":
        rep = inst.replacement
        input_formula = premisses_of(seq, inst, spec)[0].succ[rep.context_index]
        b, sub = yield d.children[0], spec
        if b != input_formula:
            if rule in (RuleId.EQ1, RuleId.EQ2):
                # the premiss lacks the operating equality; restore it
                sub = weaken_hp_many(sub, (seq.ante[rep.eq_index],), (), spec)
                sub = _reorder_root(sub, Sequent(seq.ante, (b,)))
            return b, sub
        out = seq.succ[rep.context_index]
        new_inst = RuleInstance(rule, replacement=Replacement(rep.eq_index, 0, rep.paths))
        return out, Derivation(Sequent(seq.ante, (out,)), new_inst, (sub,))

    if rule is RuleId.CNG:
        rep = inst.replacement
        out = seq.succ[rep.context_index]
        concl_term = term_at(out, rep.paths[0])
        input_formula = replace_at(out, set(rep.paths), concl_term, inst.witness)
        p1, p2 = premisses_of(seq, inst, spec)
        b2, sub2 = yield d.children[1], spec
        if b2 != input_formula:
            sub2 = weaken_hp_many(sub2, p1.ante, (), spec)
            return b2, _reorder_root(sub2, Sequent(seq.ante, (b2,)))
        b1, sub1 = yield d.children[0], spec
        if b1 != Eq(inst.witness, concl_term):
            sub1 = weaken_hp_many(sub1, p2.ante, (), spec)
            return b1, _reorder_root(sub1, Sequent(seq.ante, (b1,)))
        a1, _s1 = inst.split
        new_seq = Sequent(seq.ante, (out,))
        new_inst = RuleInstance(
            RuleId.CNG,
            replacement=Replacement(None, 0, rep.paths),
            witness=inst.witness,
            split=(a1, ()),
        )
        want1, want2 = premisses_of(new_seq, new_inst, spec)
        if want1 != sub1.sequent or want2 != sub2.sequent:
            raise TransformError("projection lost the principal trail on a CNG node")
        return out, Derivation(new_seq, new_inst, (sub1, sub2))

    raise PreconditionError(f"precondition-violation: cannot project past {rule.value}")


# ---------------------------------------------------------------------------
# Rule-equivalence translation
#
# Each foreign inference node is replaced by a template built from the target
# rules together with Cut, LC and LW (exactly the companions the basic
# equivalence result works over).  The small blocks below compose; they bottom
# out in native target rules only.

_LEFT_EQ_RULES = (RuleId.REP2L, RuleId.REP1L, RuleId.REP, RuleId.REPP, RuleId.REP2LP, RuleId.REP1LP)
_RIGHT_EQ_RULES = tuple(rule for rule, sig in RULES.items() if sig.index and sig.context_side == "s")


def _refax_node(seq: Sequent, j: int, tools: CalculusSpec) -> Derivation:
    """A derivation closing ``seq`` whose succ[j] is an identity t=t."""
    f = seq.succ[j]
    if not is_identity(f):
        raise TransformError(f"not an identity: {f}")
    if RuleId.REFAX in tools.rules:
        return node(seq, leaf(RuleId.REFAX, j))
    if RuleId.REFL in tools.rules:
        init = node(Sequent((f,) + seq.ante, seq.succ), leaf(RuleId.INIT, 0, j))
        return node(seq, RuleInstance(RuleId.REFL, witness=f.lhs), init)
    raise UntranslatableRuleError("target lacks both reflexivity rules")


def _refl_step(child: Derivation, t: Term, tools: CalculusSpec) -> Derivation:
    """From a derivation of ``t=t, Γ |- Δ`` conclude ``Γ |- Δ``."""
    e = Eq(t, t)
    if e not in child.sequent.ante:
        raise TransformError(f"{e} is not in the antecedent")
    i = child.sequent.ante.index(e)
    concl = Sequent(remove_at(child.sequent.ante, i), child.sequent.succ)
    if RuleId.REFL in tools.rules:
        return node(concl, RuleInstance(RuleId.REFL, witness=t), child)
    if RuleId.REFAX in tools.rules:
        ax = node(Sequent((), (e,)), leaf(RuleId.REFAX, 0))
        inst = RuleInstance(RuleId.CUT, cut_formula=e, split=((), ()))
        return node(concl, inst, ax, child)
    raise UntranslatableRuleError("target lacks both reflexivity rules")


def _lc_rule(f: Formula, tools: CalculusSpec) -> RuleId:
    """The left contraction of ``f``: ``lceq`` when ``tools`` has it and ``f``
    is an equality, ``lc`` otherwise."""
    return RuleId.LCEQ if RuleId.LCEQ in tools.rules and isinstance(f, Eq) else RuleId.LC


def _lw_node(child: Derivation, f: Formula) -> Derivation:
    seq = child.sequent
    concl = Sequent(seq.ante + (f,), seq.succ)
    return node(concl, RuleInstance(RuleId.LW, (len(seq.ante),)), child)


def _seq_symm(u: Term, v: Term, tools: CalculusSpec) -> Derivation | None:
    """A target-rules derivation of ``v=u |- u=v`` (None if no right-side or
    congruence rule is available)."""
    e = Eq(v, u)
    concl = Sequent((e,), (Eq(u, v),))
    for rule in _RIGHT_EQ_RULES:
        if rule in tools.rules:
            # index 1 rewrites u (the lhs) to v, index 2 rewrites v (the rhs) to u
            sig = RULES[rule]
            t = sig.terms(e)[1]
            prem = Sequent(concl.ante if sig.retention == "keep" else (), (Eq(t, t),))
            return node(concl, repl_inst(rule, 0, 0, [(sig.index - 1,)]), _refax_node(prem, 0, tools))
    if RuleId.CNG in tools.rules:
        init = node(Sequent(concl.ante, (e,)), leaf(RuleId.INIT, 0, 0))
        ax = _refax_node(Sequent((), (Eq(v, v),)), 0, tools)
        inst = RuleInstance(
            RuleId.CNG,
            replacement=Replacement(None, 0, ((0,),)),
            witness=v,
            split=((0,), ()),
        )
        return node(concl, inst, init, ax)
    return None


def _symm_step(child: Derivation, i: int, tools: CalculusSpec) -> Derivation:
    """From a derivation of ``Γ, e, Γ' |- Δ`` (e = l=r at antecedent index i)
    conclude the same sequent with e flipped to r=l."""
    seq = child.sequent
    e = seq.ante[i]
    if not isinstance(e, Eq):
        raise TransformError("symm step needs an equality")
    l, r = e.lhs, e.rhs
    flipped = Eq(r, l)
    concl = Sequent(replace_formula(seq.ante, i, flipped), seq.succ)
    blk = _seq_symm(l, r, tools)
    if blk is not None and _fragment_ok(blk, tools):
        inst = RuleInstance(RuleId.CUT, cut_formula=e, split=((i,), ()))
        return node(concl, inst, blk, child)
    # left-rule route: weaken an identity in, rewrite twice, drop the identity
    lefts = [partial(_symm_step_left, child, i, rule, tools) for rule in _LEFT_EQ_RULES if rule in tools.rules]
    return _first_fit(lefts, tools, "no symmetry template fits the target calculus")


def _symm_step_left(child: Derivation, i: int, rule: RuleId, tools: CalculusSpec) -> Derivation:
    seq = child.sequent
    e = seq.ante[i]
    l, r = e.lhs, e.rhs
    flipped = Eq(r, l)
    idx = RULES[rule].index
    strict = RULES[rule].retention == "strict"  # plus-rules keep equality contexts, like keep
    if strict:
        # e, t=t, Γ |- Δ  =>  e, flipped, Γ |- Δ  =>  t'=t', flipped, Γ |- Δ  => drop
        # index 1 works on l=l (forward l->r on its lhs), index 2 on r=r.
        t = l if idx == 1 else r
        ident = Eq(t, t)
        d1 = _lw_node(child, ident)
        k = len(seq.ante)  # identity position
        # step A: rewrite the identity into the flipped equality, operating e
        pathA = (0,) if idx == 1 else (1,)
        c2 = Sequent(replace_formula(d1.sequent.ante, k, flipped), seq.succ)
        d2 = node(c2, repl_inst(rule, i, k, [pathA]), d1)
        # step B: rewrite e into the identity, operating the flipped copy
        pathB = (1,) if idx == 1 else (0,)
        c3 = Sequent(replace_formula(c2.ante, i, ident), seq.succ)
        d3 = node(c3, repl_inst(rule, k, i, [pathB]), d2)
        target = Sequent(replace_formula(seq.ante, i, flipped), seq.succ)
        return _reorder_root(_refl_step(d3, t, tools), target)
    # non-strict route: weaken the identity and the flipped copy, one step
    t = r if idx == 2 else l
    ident = Eq(t, t)
    d1 = _lw_node(_lw_node(child, ident), flipped)
    k_ident = len(seq.ante)
    k_flip = len(seq.ante) + 1
    # the rule consumes e, keeping the identity as context
    pathA = (0,) if idx == 2 else (1,)
    c2 = Sequent(remove_at(d1.sequent.ante, i), seq.succ)
    d2 = node(c2, repl_inst(rule, k_flip - 1, k_ident - 1, [pathA]), d1)
    target = Sequent(replace_formula(seq.ante, i, flipped), seq.succ)
    return _reorder_root(_refl_step(d2, t, tools), target)


def _reorder_root(d: Derivation, want: Sequent) -> Derivation:
    """Present the root sequent in a chosen order (multiset-equal)."""
    if d.sequent.ante == want.ante and d.sequent.succ == want.succ:
        return d
    amap = _permutation(d.sequent.ante, want.ante)
    smap = _permutation(d.sequent.succ, want.succ)
    return Derivation(want, _remap_instance(d.inst, amap, smap), d.children)


def _emit_right_step(
    child: Derivation,
    concl: Sequent,
    idx: int,
    ei: int,
    j: int,
    paths: tuple[Path, ...],
    tools: CalculusSpec,
    keeps: bool = True,
) -> Derivation:
    """Derive ``concl`` from its premiss derivation ``child`` where the step is
    a succedent replacement (index ``idx``) with operating equality at ``ei``
    and context at succedent position ``j``.

    ``keeps=False`` encodes the =1/=2 shape whose premiss lacks the operating
    equality; the simulation then weakens it in first.
    """
    e = concl.ante[ei]
    inp = replace_at(concl.succ[j], set(paths), *RULES[_right_rule(idx)].terms(e))
    if not keeps:
        want = Sequent(remove_at(concl.ante, ei), replace_formula(concl.succ, j, inp))
        child = _reorder_root(child, want)
        child = _lw_node(child, e)
    child = _reorder_root(child, Sequent(concl.ante, replace_formula(concl.succ, j, inp)))
    native = RuleId.REP1R if idx == 1 else RuleId.REP2R
    eqrule = RuleId.EQ1 if idx == 1 else RuleId.EQ2
    other = RuleId.REP2R if idx == 1 else RuleId.REP1R

    def by_native() -> Derivation:
        return node(concl, repl_inst(native, ei, j, paths), child)

    def by_eqrule() -> Derivation:
        # the =-rule removes its operating equality backward; add a copy, contract
        mid = Sequent((e,) + concl.ante, concl.succ)
        stepped = node(mid, repl_inst(eqrule, 0, j, paths), child)
        return node(concl, RuleInstance(_lc_rule(e, tools), (ei,)), stepped)

    def by_flip() -> Derivation:
        d1 = _symm_step(child, ei, tools)
        mid = Sequent(d1.sequent.ante, concl.succ)
        d2 = node(mid, repl_inst(other, ei, j, paths), d1)
        return _reorder_root(_symm_step(d2, ei, tools), concl)

    candidates = []
    if native in tools.rules:
        candidates.append(by_native)
    if eqrule in tools.rules:
        candidates.append(by_eqrule)
    if other in tools.rules:
        candidates.append(by_flip)
    if RuleId.CNG in tools.rules:
        candidates.append(lambda: _right_step_via_cng(child, concl, idx, ei, j, paths, tools))
    for rule in _LEFT_EQ_RULES:
        if rule in tools.rules:
            candidates.append(partial(_right_step_via_left, child, concl, idx, ei, j, paths, rule, tools))
    return _first_fit(candidates, tools, "no template simulates a succedent replacement here")


def _right_step_via_cng(child, concl, idx, ei, j, paths, tools) -> Derivation:
    e = concl.ante[ei]
    prem_term = RULES[_right_rule(idx)].terms(e)[1]
    # premiss 1 proves  e |- prem_term = concl_term
    if idx == 1:
        p1 = node(Sequent((e,), (e,)), leaf(RuleId.INIT, 0, 0))
    else:
        p1 = _seq_symm(e.rhs, e.lhs, tools)
        if p1 is None:
            raise UntranslatableRuleError("congruence route needs a symmetry block")
    mid = Sequent((e,) + concl.ante, concl.succ)
    inst = RuleInstance(
        RuleId.CNG,
        replacement=Replacement(None, j, paths),
        witness=prem_term,
        split=((0,), ()),
    )
    stepped = node(mid, inst, p1, child)
    return node(concl, RuleInstance(_lc_rule(e, tools), (ei,)), stepped)


def _right_step_via_left(child, concl, idx, ei, j, paths, rule, tools) -> Derivation:
    """Cut against a bridge  e, P[in] |- P[out]  built from a left rule."""
    e = concl.ante[ei]
    out = concl.succ[j]
    inp = replace_at(out, set(paths), *RULES[_right_rule(idx)].terms(e))
    lidx = RULES[rule].index
    # build the bridge: op, inp |- out  where op is e, flipped if needed so the
    # available left index rewrites inp back to out
    need_flip = lidx == idx  # same index means wrong backward direction here
    op = Eq(e.rhs, e.lhs) if need_flip else e
    bridge_concl = Sequent((op, inp), (out,))
    if RULES[rule].keeps_context(inp):
        prem_ante = (op, inp, out)
        init = node(Sequent(prem_ante, (out,)), leaf(RuleId.INIT, 2, 0))
    else:
        prem_ante = (op, out)
        init = node(Sequent(prem_ante, (out,)), leaf(RuleId.INIT, 1, 0))
    bridge = node(bridge_concl, repl_inst(rule, 0, 1, paths), init)
    if need_flip:
        bridge = _reorder_root(_symm_step(bridge, 0, tools), Sequent((e, inp), (out,)))
    # cut on the input formula, then contract the doubled operating equality
    mid = Sequent(child.sequent.ante + (e,), concl.succ)
    inst = RuleInstance(
        RuleId.CUT,
        cut_formula=inp,
        split=(tuple(k for k in range(len(child.sequent.ante))), tuple(
            k for k in range(len(concl.succ)) if k != j
        )),
    )
    stepped = node(mid, inst, child, bridge)
    contract = RuleInstance(_lc_rule(e, tools), (ei,))
    return _reorder_root(node(Sequent(child.sequent.ante, concl.succ), contract, stepped), concl)


def _emit_left_step(
    child: Derivation,
    concl: Sequent,
    lidx: int,
    ei: int,
    i: int,
    paths: tuple[Path, ...],
    keeps: bool,
    tools: CalculusSpec,
) -> Derivation:
    """Derive ``concl`` from ``child`` where the step is an antecedent
    replacement: operating equality at ``ei``, context formula at ``i``,
    strict (``keeps=False``) or with the context formula retained."""
    e = concl.ante[ei]
    out = concl.ante[i]
    inp = replace_at(out, set(paths), *RULES[_plus_rule(lidx)].terms(e))
    prem_strict = Sequent(replace_formula(concl.ante, i, inp), concl.succ)
    prem_keep = Sequent(concl.ante[: i + 1] + (inp,) + concl.ante[i + 1 :], concl.succ)
    child = _reorder_root(child, prem_keep if keeps else prem_strict)

    ei_prem = ei if (not keeps or ei <= i) else ei + 1  # e's index in the premiss

    def attempt_left(rule: RuleId, flip: bool) -> Derivation:
        sub = child
        target = concl
        if flip:
            sub = _symm_step(sub, ei_prem, tools)
            target = Sequent(replace_formula(concl.ante, ei, Eq(e.rhs, e.lhs)), concl.succ)
        rule_keeps = RULES[rule].keeps_context(out)
        if keeps == rule_keeps:
            stepped = node(target, repl_inst(rule, ei, i, paths), sub)
        elif keeps and not rule_keeps:
            # source keeps the context formula, simulating rule is strict:
            # rewrite the retained input copy, then contract the doubled output
            mid = Sequent(
                target.ante[: i + 1] + (out,) + target.ante[i + 1 :], target.succ
            )
            op2 = ei if ei <= i else ei + 1
            stepped0 = node(mid, repl_inst(rule, op2, i + 1, paths), sub)
            stepped = node(target, RuleInstance(_lc_rule(out, tools), (i,)), stepped0)
        else:
            # source is strict, simulating rule keeps: weaken the output in first
            want = Sequent(
                replace_formula(
                    target.ante[: i + 1] + (inp,) + target.ante[i + 1 :], i, out
                ),
                target.succ,
            )
            sub2 = _reorder_root(_lw_node(sub, out), want)
            stepped = node(target, repl_inst(rule, ei, i, paths), sub2)
        if flip:
            stepped = _reorder_root(_symm_step(stepped, ei, tools), concl)
        return stepped

    # 1) a left rule of the matching backward direction (same index, no flip),
    # 2) then one of the other index with the operating equality flipped around it
    lefts = sorted((r for r in _LEFT_EQ_RULES if r in tools.rules), key=lambda r: RULES[r].index != lidx)
    out_d = _first_fit([partial(attempt_left, r, RULES[r].index != lidx) for r in lefts], tools, None)
    if out_d is not None:
        return out_d
    # 3) cut against a succedent-replacement bridge:  e, out |- inp
    bridge_idx = 2 if lidx == 1 else 1  # backward concl-term must be prem_term
    init = node(Sequent((e, out), (out,)), leaf(RuleId.INIT, 1, 0))
    bridge = _emit_right_step(init, Sequent((e, out), (inp,)), bridge_idx, 0, 0, paths, tools)
    n = len(concl.ante)
    lc = _lc_rule(e, tools)
    if not keeps:
        # cut doubles the operating equality; contract it
        mid = Sequent(concl.ante + (e,), concl.succ)
        cut = RuleInstance(RuleId.CUT, cut_formula=inp, split=((ei, i), ()))
        stepped = node(mid, cut, bridge, child)
        out_d = node(concl, RuleInstance(lc, (ei,)), stepped)
    else:
        # the retained context copy doubles as well; contract both
        mid2 = Sequent(concl.ante + (e, out), concl.succ)
        cut = RuleInstance(RuleId.CUT, cut_formula=inp, split=((n, n + 1), ()))
        stepped = node(mid2, cut, bridge, child)
        mid3 = Sequent(concl.ante + (e,), concl.succ)
        stepped = node(mid3, RuleInstance(_lc_rule(out, tools), (i,)), stepped)
        out_d = node(concl, RuleInstance(lc, (ei,)), stepped)
    if _fragment_ok(out_d, tools):
        return out_d
    raise UntranslatableRuleError("no left-rule template fits the target calculus")


def _fragment_ok(d: Derivation, tools: CalculusSpec) -> bool:
    """Validate a template fragment with a full ``check`` of its whole
    subtree: every node must be a legal inference of the target-plus calculus."""
    return check(d, tools).valid


def _first_fit(builds, tools: CalculusSpec, message: str | None) -> Derivation | None:
    """The first template of ``builds`` that builds and checks in ``tools``.
    If none does: UntranslatableRuleError(message), or None without a message."""
    for build in builds:
        try:
            out = build()
        except (CalculusError, TransformError):
            continue
        if _fragment_ok(out, tools):
            return out
    if message is None:
        return None
    raise UntranslatableRuleError(message)


def equivalence_translate(d: Derivation, frm, to) -> Derivation:
    """Re-express a derivation of one equality calculus in another, using the
    target rules plus Cut, LC and LW; the endsequent is preserved.

    Raises UntranslatableRuleError when some inference has no template into
    the target (e.g. logical rules into a pure equality calculus, or a
    restriction flag that rules every template out).
    """
    frm_spec = resolve_spec(frm) if isinstance(frm, str) else frm
    d = renormalize(d, frm_spec)
    out = _rebuild(d, partial(_translate, tools=translate_target(to)))
    return _reorder_root(out, d.sequent)


def translate_target(to) -> CalculusSpec:
    """The calculus :func:`equivalence_translate`'s output into ``to`` (a
    spec or its text) is checked in: ``to`` plus Cut, LC and LW."""
    to_spec = resolve_spec(to) if isinstance(to, str) else to
    return to_spec.with_rules(RuleId.CUT, RuleId.LC, RuleId.LW)


def _translate(d: Derivation, tools: CalculusSpec) -> Derivation:
    """One node of a translation, over its translated children."""
    seq, inst, children = d.sequent, d.inst, d.children
    rule = inst.rule
    # native (or native after an LCeq->LC downgrade)
    try:
        premisses_of(seq, inst, tools)
        return d
    except CalculusError:
        pass
    if rule is RuleId.LCEQ:
        return Derivation(seq, RuleInstance(RuleId.LC, inst.principal), children)
    if rule is RuleId.REFAX:
        return _refax_node(seq, inst.principal[0], tools)
    if rule is RuleId.REFL:
        return _reorder_root(_refl_step(children[0], inst.witness, tools), seq)
    if rule is RuleId.SYMM:
        (i,) = inst.principal
        return _reorder_root(_symm_step(children[0], i, tools), seq)
    if rule is RuleId.RW:
        (j,) = inst.principal
        return _reorder_root(weaken_hp_many(children[0], (), (seq.succ[j],), tools), seq)
    sig = RULES[rule]
    if sig.index and sig.context_side == "s":
        rep = inst.replacement
        keeps = sig.retention == "keep"
        return _reorder_root(
            _emit_right_step(
                children[0], seq, sig.index, rep.eq_index, rep.context_index, rep.paths, tools, keeps
            ),
            seq,
        )
    if sig.index:
        rep = inst.replacement
        keeps = sig.keeps_context(seq.ante[rep.context_index])
        return _reorder_root(
            _emit_left_step(
                children[0], seq, sig.index, rep.eq_index, rep.context_index, rep.paths, keeps, tools
            ),
            seq,
        )
    if rule is RuleId.CNG:
        return _reorder_root(_cng_via_cut(d, tools), seq)
    raise UntranslatableRuleError(f"untranslatable-rule: {rule.value}")


def _cng_via_cut(d: Derivation, tools: CalculusSpec) -> Derivation:
    """CNG simulated by weakening the operating equality into the second
    premiss, one succedent replacement, and a cut on the equality."""
    inst = d.inst
    rep = inst.replacement
    seq = d.sequent
    out = seq.succ[rep.context_index]
    concl_term = term_at(out, rep.paths[0])
    prem_term = inst.witness
    e = Eq(prem_term, concl_term)
    p1, p2 = premisses_of(seq, inst, PRESETS["CngLCeq"].with_rules(RuleId.CUT, RuleId.LW))
    d1, d2 = d.children
    d1 = _reorder_root(d1, p1)
    d2 = _reorder_root(d2, p2)
    # weaken e into premiss 2, rewrite there, cut e against premiss 1
    inp = replace_at(out, set(rep.paths), concl_term, prem_term)
    j2 = p2.succ.index(inp)
    d2w = _lw_node(d2, e)
    mid = Sequent(p2.ante + (e,), replace_formula(p2.succ, j2, out))
    stepped = _emit_right_step(d2w, mid, 1, len(p2.ante), j2, rep.paths, tools)
    cut = RuleInstance(
        RuleId.CUT,
        cut_formula=e,
        split=(tuple(range(len(p1.ante))), tuple(range(len(p1.succ) - 1))),
    )
    concl = Sequent(p1.ante + p2.ante, remove_at(p1.succ, len(p1.succ) - 1) + mid.succ)
    return node(concl, cut, d1, stepped)


# ---------------------------------------------------------------------------
# Cut elimination for the equality fragment (R12r + Cut)

_SPEC_IN = PRESETS["R12r"].with_rules(RuleId.CUT, RuleId.LC, RuleId.LCEQ)
_SPEC_CNG_CUT = CalculusSpec(
    "none", frozenset({RuleId.REFAX, RuleId.CNG, RuleId.CUT, RuleId.LC, RuleId.LCEQ})
)
_SPEC_CNG = CalculusSpec("none", frozenset({RuleId.REFAX, RuleId.CNG, RuleId.LC, RuleId.LCEQ}))
_SPEC_REP_LC = PRESETS["R12r"].with_rules(RuleId.LC, RuleId.LCEQ)


def cut_eliminate_pipeline(d: Derivation) -> Derivation:
    """Admissibility of Cut and LC, executed: translate replacement steps to
    congruence + contraction, eliminate cuts by the generalized multiset-cut
    induction, eliminate congruences by induction on their first premiss, then
    prune contractions.  Output is a cut- and contraction-free derivation of
    the same endsequent, which the kernel checks in the bare
    reflexivity+replacement calculus before it is returned."""
    rep = check(d, _SPEC_IN)
    if not rep.valid:
        raise PreconditionError(f"input-not-in-scope: {rep.first_error}")
    goal = d.sequent
    d = _rebuild(renormalize(d, _SPEC_IN), _rep_to_cng)
    d = _rebuild(d, _eliminate_cut)
    d = _rebuild(d, _eliminate_cng)
    d = _prune_lc(renormalize(d, _SPEC_REP_LC))
    if d.sequent != goal:
        raise TransformError("cut elimination changed the endsequent")
    rep = check(d, PRESETS["R12r"])
    if not rep.valid:
        raise TransformError(f"cut elimination output fails to check in R12r: {rep.first_error}")
    return d


def _rep_to_cng(d: Derivation) -> Derivation:
    if d.inst.rule in (RuleId.REP1R, RuleId.REP2R):
        rep = d.inst.replacement
        idx = RULES[d.inst.rule].index
        return _reorder_root(
            _right_step_via_cng(
                d.children[0], d.sequent, idx, rep.eq_index, rep.context_index, rep.paths,
                _SPEC_CNG_CUT,
            ),
            d.sequent,
        )
    return d


def _eliminate_cut(d: Derivation) -> Derivation:
    if d.inst.rule is RuleId.CUT:
        left, right = d.children
        out = _run(_gencut, left, right, d.inst.cut_formula, 1)
        return _reorder_root(out, d.sequent)
    return d


def _remove_n(fs: tuple[Formula, ...], f: Formula, n: int) -> tuple[Formula, ...]:
    out = list(fs)
    for _ in range(n):
        out.remove(f)
    return tuple(out)


def _gencut(dl: Derivation, dr: Derivation, a: Formula, n: int) -> Generator[tuple, Derivation, Derivation]:
    """The generalized cut  Γ|-Δ,A  +  Aⁿ,Λ|-Θ  =>  Γ,Λ|-Δ,Θ  eliminated by
    induction on the right derivation, inside {RefAx, LC, CNG}.  Each step
    reads only its own node's indices, so the nodes of ``dl`` and ``dr`` may
    list their premisses in any order."""
    if n == 0:
        return dr
    gamma = dl.sequent.ante
    delta = _remove_n(dl.sequent.succ, a, 1)
    lam = _remove_n(dr.sequent.ante, a, n)
    theta = dr.sequent.succ
    target = Sequent(gamma + lam, delta + theta)
    inst = dr.inst

    if inst.rule is RuleId.INIT:
        i, j = inst.principal
        f = dr.sequent.ante[i]
        if f == a:
            # the cut formula also sits in Θ: weaken the left derivation
            out = weaken_hp_many(dl, lam, _remove_n(theta, a, 1), _SPEC_CNG)
            return _reorder_root(out, target)
        ai = target.ante.index(f)
        sj = len(delta) + j
        return node(target, leaf(RuleId.INIT, ai, sj))

    if inst.rule is RuleId.REFAX:
        (j,) = inst.principal
        return node(target, leaf(RuleId.REFAX, len(delta) + j))

    if inst.rule in (RuleId.LC, RuleId.LCEQ):
        (i,) = inst.principal
        f = dr.sequent.ante[i]
        child = dr.children[0]
        if f == a:
            return (yield dl, child, a, n + 1)
        sub = yield dl, child, a, n
        k = target.ante.index(f, len(gamma)) if f in lam else target.ante.index(f)
        return node(target, RuleInstance(_lc_rule(f, _SPEC_CNG), (k,)), _reorder_root(sub, Sequent(
            target.ante[: k + 1] + (f,) + target.ante[k + 1 :], target.succ
        )))

    if inst.rule is RuleId.CNG:
        rep = inst.replacement
        out_f = dr.sequent.succ[rep.context_index]
        concl_term = term_at(out_f, rep.paths[0])
        e_op = Eq(inst.witness, concl_term)
        inp_f = replace_at(out_f, set(rep.paths), concl_term, inst.witness)
        p1, p2 = premisses_of(dr.sequent, inst, _SPEC_CNG)
        c1, c2 = dr.children
        n1 = min(sum(1 for g in p1.ante if g == a), n)
        n2 = n - n1
        if n2 > sum(1 for g in p2.ante if g == a):
            raise TransformError("generalized cut cannot distribute the cut copies")
        e1 = (yield dl, c1, a, n1) if n1 else c1
        e2 = (yield dl, c2, a, n2) if n2 else c2
        j1 = e1.sequent.succ.index(e_op)
        d1part = remove_at(e1.sequent.succ, j1)
        j2 = e2.sequent.succ.index(inp_f)
        concl = Sequent(
            e1.sequent.ante + e2.sequent.ante,
            d1part + replace_formula(e2.sequent.succ, j2, out_f),
        )
        new_inst = RuleInstance(
            RuleId.CNG,
            replacement=Replacement(None, len(d1part) + j2, rep.paths),
            witness=inst.witness,
            split=(tuple(range(len(e1.sequent.ante))), tuple(range(len(d1part)))),
        )
        built = node(concl, new_inst, e1, e2)
        if n1 and n2:
            built = _contract_ante_to(built, target.ante)
            built = _contract_succ_to(built, target.succ)
        return _reorder_root(built, target)

    raise TransformError(f"generalized cut hit an unexpected rule {inst.rule.value}")


def _contract_ante_to(d: Derivation, want: tuple[Formula, ...]) -> Derivation:
    from collections import Counter

    cur = d
    have = Counter(cur.sequent.ante)
    need = Counter(want)
    for f in list(have):
        while have[f] > need.get(f, 0):
            ante = cur.sequent.ante
            i = ante.index(f)
            concl = Sequent(remove_at(ante, i), cur.sequent.succ)
            k = concl.ante.index(f)
            # every stage of the cut-elimination pipeline has lceq
            cur = node(concl, RuleInstance(_lc_rule(f, _SPEC_IN), (k,)), cur)
            have[f] -= 1
    return cur


def _contract_succ_to(d: Derivation, want: tuple[Formula, ...]) -> Derivation:
    from collections import Counter

    if Counter(d.sequent.succ) == Counter(want):
        return d
    a0, proj = _run(_proj, d, _SPEC_CNG)
    if a0 not in want:
        raise TransformError("succedent contraction lost the projected formula")
    rest = list(want)
    rest.remove(a0)
    return weaken_hp_many(proj, (), rest, _SPEC_CNG)


def _eliminate_cng(d: Derivation) -> Derivation:
    if d.inst.rule is RuleId.CNG:
        rep = d.inst.replacement
        out_f = d.sequent.succ[rep.context_index]
        concl_term = term_at(out_f, rep.paths[0])
        c1, c2 = d.children
        built = _run(_cng_step, c1, c2, d.inst.witness, concl_term, out_f, rep.paths)
        return _reorder_root(built, d.sequent)
    return d


def _cng_step(
    d0: Derivation,
    d1: Derivation,
    r_term: Term,
    s_term: Term,
    out_f: Formula,
    paths: tuple[Path, ...],
) -> Generator[tuple, Derivation, Derivation]:
    """Eliminate one congruence inference by induction on the height of its
    first premiss (a derivation of  Γ' |- Δ, r=s  in {RefAx, Rep, LC}, whose
    nodes may list their premisses in any order).

    Returns a derivation of  Γ', Λ |- Δ, Θ'  where Θ' is d1's succedent with
    the rewritten formula replaced by ``out_f``."""
    e_op = Eq(r_term, s_term)
    j_e = d0.sequent.succ.index(e_op)
    delta = remove_at(d0.sequent.succ, j_e)
    inp_f = replace_at(out_f, set(paths), s_term, r_term)
    j2 = d1.sequent.succ.index(inp_f)
    theta_out = replace_formula(d1.sequent.succ, j2, out_f)
    target = Sequent(d0.sequent.ante + d1.sequent.ante, delta + theta_out)

    if r_term == s_term:
        out = weaken_hp_many(d1, d0.sequent.ante, delta, _SPEC_REP_LC)
        return _reorder_root(out, target)

    inst = d0.inst
    if inst.rule is RuleId.INIT:
        i, j = inst.principal
        if j != j_e:
            f = d0.sequent.ante[i]
            jj = j if j < j_e else j - 1
            return node(target, leaf(RuleId.INIT, target.ante.index(f), jj))
        # the initial sequent's succedent principal is the cut equality;
        # its antecedent copy survives: weaken d1 and replace by one step
        ew = weaken_hp_many(d1, d0.sequent.ante, delta, _SPEC_REP_LC)
        mid = Sequent(d1.sequent.ante + d0.sequent.ante, d1.sequent.succ + delta)
        ew = _reorder_root(ew, mid)
        jp = mid.succ.index(inp_f)
        concl = Sequent(mid.ante, replace_formula(mid.succ, jp, out_f))
        ei = concl.ante.index(e_op)
        built = node(concl, repl_inst(RuleId.REP1R, ei, jp, paths), ew)
        return _reorder_root(built, target)

    if inst.rule is RuleId.REFAX:
        (j,) = inst.principal
        if j == j_e:
            raise TransformError("identity cut equality should have been short-circuited")
        return node(target, leaf(RuleId.REFAX, j if j < j_e else j - 1))

    if inst.rule in (RuleId.LC, RuleId.LCEQ):
        (i,) = inst.principal
        f = d0.sequent.ante[i]
        child = d0.children[0]
        sub = yield child, d1, r_term, s_term, out_f, paths
        k = target.ante.index(f)
        prem = Sequent(target.ante[: k + 1] + (f,) + target.ante[k + 1 :], target.succ)
        return node(target, RuleInstance(_lc_rule(f, _SPEC_REP_LC), (k,)), _reorder_root(sub, prem))

    if inst.rule in (RuleId.REP1R, RuleId.REP2R):
        rep = inst.replacement
        # both cases read the child's succedent at d0's indices
        child = _reorder_root(d0.children[0], premisses_of(d0.sequent, inst, _SPEC_REP_LC)[0])
        if rep.context_index != j_e:
            # principal inside Δ: commute below the congruence
            sub = yield child, d1, r_term, s_term, out_f, paths
            d0_prem_f = child.sequent.succ[rep.context_index]
            jj = rep.context_index if rep.context_index < j_e else rep.context_index - 1
            prem = Sequent(target.ante, replace_formula(target.succ, jj, d0_prem_f))
            new_inst = repl_inst(inst.rule, rep.eq_index, jj, rep.paths)
            return node(target, new_inst, _reorder_root(sub, prem))
        # the last inference of d0 rewrote the cut equality r=s itself
        idx = RULES[inst.rule].index
        op2 = d0.sequent.ante[rep.eq_index]
        e_prev = child.sequent.succ[j_e]  # the rewritten equality r'=s'
        r_prev, s_prev = e_prev.lhs, e_prev.rhs
        lhs_rel = tuple(p[1:] for p in rep.paths if p[0] == 0)
        rhs_rel = tuple(p[1:] for p in rep.paths if p[0] == 1)
        # step 1+2: weaken the operating equality into d1, rewrite the r-slots
        ew = weaken_hp_many(d1, (op2,), (), _SPEC_REP_LC)
        g_f = replace_at(inp_f, set(paths), r_term, r_prev) if lhs_rel else inp_f
        opi = len(d1.sequent.ante)
        if lhs_rel:
            back = RuleId.REP2R if idx == 1 else RuleId.REP1R
            comp = tuple(pi + rel for pi in paths for rel in lhs_rel)
            mid = Sequent(ew.sequent.ante, replace_formula(ew.sequent.succ, j2, g_f))
            ew = node(mid, repl_inst(back, opi, j2, comp), ew)
        # step 3: the inductive congruence on the rewritten equality
        out_prev = replace_at(g_f, set(paths), r_prev, s_prev)
        sub = yield child, ew, r_prev, s_prev, out_prev, paths
        # step 4: rewrite the s-slots back
        if rhs_rel:
            cur = sub.sequent
            jq = cur.succ.index(out_prev)
            fwd = RuleId.REP1R if idx == 1 else RuleId.REP2R
            comp = tuple(pi + rel for pi in paths for rel in rhs_rel)
            ei2 = cur.ante.index(op2)
            concl4 = Sequent(cur.ante, replace_formula(cur.succ, jq, out_f))
            sub = node(concl4, repl_inst(fwd, ei2, jq, comp), sub)
        # step 5: contract the doubled operating equality
        return _reorder_root(_contract_ante_to(sub, target.ante), target)

    raise TransformError(f"congruence elimination hit an unexpected rule {inst.rule.value}")


def _prune_lc(d: Derivation) -> Derivation:
    """Remove contraction inferences from an R12r(+LC) derivation.

    The replacement rules never change the antecedent, so above a topmost
    contraction every sequent carries the duplicated formula; dropping one
    copy everywhere (and repointing instance indices) prunes the node."""

    def strip(i: int, nd: Derivation) -> Derivation:
        amap = {k: (k if k < i else k - 1) for k in range(len(nd.sequent.ante)) if k != i}
        survivor = i  # after removal, the twin copy sits at index i
        amap[i] = survivor if i < len(nd.sequent.ante) - 1 else i - 1
        smap = {k: k for k in range(len(nd.sequent.succ))}
        seq = Sequent(remove_at(nd.sequent.ante, i), nd.sequent.succ)
        inst = _remap_instance(nd.inst, amap, smap)
        return Derivation(seq, inst, nd.children)

    def step(nd: Derivation) -> Derivation:
        if nd.inst.rule in (RuleId.LC, RuleId.LCEQ):
            (i,) = nd.inst.principal
            # the premiss duplicates ante[i] right after position i
            pruned = _rebuild(nd.children[0], partial(strip, i))
            return _reorder_root(pruned, nd.sequent)
        return nd

    return _rebuild(d, step)


# ---------------------------------------------------------------------------
# Right-hand-side normalization (undesired-inference removal)


def _split_mixed_sides(d: Derivation, spec: CalculusSpec) -> Derivation:
    """Split a succedent replacement instance whose paths touch both sides of
    an equality context into two chained single-side instances."""
    inst = d.inst
    if inst.rule in (RuleId.REP1R, RuleId.REP2R) and inst.replacement is not None:
        rep = inst.replacement
        ctx = d.sequent.succ[rep.context_index]
        if isinstance(ctx, Eq):
            left = tuple(p for p in rep.paths if p[0] == 0)
            right = tuple(p for p in rep.paths if p[0] == 1)
            if left and right:
                mid_inst = repl_inst(inst.rule, rep.eq_index, rep.context_index, left)
                mid = premisses_of(d.sequent, mid_inst, spec)[0]
                inner = node(mid, repl_inst(inst.rule, rep.eq_index, rep.context_index, right), *d.children)
                return node(d.sequent, mid_inst, inner)
    return d


def right_normalize(d: Derivation) -> Derivation:
    """Restrict every equality-context rewrite in an R12r derivation of
    ``Γ |- p=q`` to the right-hand side.

    Removing the undesired (left-hand-side) inferences topmost-first always
    ends in one spine over the axiom ``Γ |- p=p``, built here from one walk
    of the input spine.  From the axiom up it holds each undesired
    inference, root-most first, as the other index's rewrite of the
    right-hand side; one ``rep1r`` for an initial-sequent leaf; and then the
    desired inferences in their order."""
    spec = PRESETS["R12r"]
    if len(d.sequent.succ) != 1 or not isinstance(d.sequent.succ[0], Eq):
        raise PreconditionError("precondition-violation: the endsequent must be a single equality")
    rep = check(d, spec)
    if not rep.valid:
        raise PreconditionError(f"precondition-violation: {rep.first_error}")
    d = _rebuild(renormalize(d, spec), partial(_split_mixed_sides, spec=spec))
    nodes = _spine(d)
    inner, top = nodes[:-1], nodes[-1]
    undesired = [any(p[0] == 0 for p in nd.inst.replacement.paths) for nd in inner]
    if not any(undesired):
        return d
    ante, lhs = d.sequent.ante, d.sequent.succ[0].lhs
    cur = node(Sequent(ante, (Eq(lhs, lhs),)), leaf(RuleId.REFAX, 0))
    for nd, bad in zip(inner, undesired):
        if bad:
            jrep = nd.inst.replacement
            opposite = RuleId.REP2R if nd.inst.rule is RuleId.REP1R else RuleId.REP1R
            paths = tuple((1,) + p[1:] for p in jrep.paths)
            concl = Sequent(ante, (Eq(lhs, nd.children[0].sequent.succ[0].lhs),))
            cur = node(concl, repl_inst(opposite, jrep.eq_index, 0, paths), cur)
    if top.inst.rule is RuleId.INIT:
        cur = node(
            Sequent(ante, (Eq(lhs, top.sequent.succ[0].rhs),)),
            repl_inst(RuleId.REP1R, top.inst.principal[0], 0, [(1,)]),
            cur,
        )
    for nd, bad in zip(reversed(inner), reversed(undesired)):
        if not bad:
            cur = node(Sequent(ante, (Eq(lhs, nd.sequent.succ[0].rhs),)), nd.inst, cur)
    if cur.sequent != d.sequent:
        raise TransformError("right normalization rebuilt the wrong sequent")
    return cur


# ---------------------------------------------------------------------------
# Limiting the scope of replacement


def scope_restrict(d: Derivation) -> Derivation:
    """Re-express an R12r derivation of ``Γ |- A`` in the calculus whose
    succedent replacements act only on equalities and whose antecedent
    replacements act only on non-equalities; same height, except one extra
    initial antecedent inference when the endsequent is not an equality."""
    spec = PRESETS["R12r"]
    if len(d.sequent.succ) != 1:
        raise PreconditionError("precondition-violation: endsequent must have a single formula")
    rep = check(d, spec)
    if not rep.valid:
        raise PreconditionError(f"precondition-violation: {rep.first_error}")
    d = renormalize(d, spec)
    if isinstance(d.sequent.succ[0], Eq):
        return d  # already within the equality-context fragment
    return _scope_go(d)


def _scope_go(d: Derivation) -> Derivation:
    """Every succedent replacement of the spine becomes, in reverse order, an
    antecedent replacement of the other index on the initial atom, and every
    succedent becomes the root's."""
    nodes = _spine(d)
    for nd in nodes:
        if nd.inst.rule not in (RuleId.INIT, RuleId.REP1R, RuleId.REP2R):
            raise PreconditionError(f"precondition-violation: unexpected rule {nd.inst.rule.value}")
    if len(nodes) == 1:
        return d
    ante = nodes[-1].sequent.ante
    i0, _ = nodes[-1].inst.principal
    out = d.sequent.succ[0]
    cur = node(Sequent(replace_formula(ante, i0, out), (out,)), leaf(RuleId.INIT, i0, 0))
    for nd, premiss in zip(nodes, nodes[1:]):
        # the initial atom, rewritten back to the succedent of nd's premiss
        fix_ante = replace_formula(ante, i0, premiss.sequent.succ[0])
        rep = nd.inst.replacement
        e_idx = fix_ante.index(nd.sequent.ante[rep.eq_index])
        if e_idx == i0:
            raise TransformError("operating equality collides with the initial atom")
        left_rule = RuleId.REP2L if nd.inst.rule is RuleId.REP1R else RuleId.REP1L
        cur = node(Sequent(fix_ante, (out,)), repl_inst(left_rule, e_idx, i0, rep.paths), cur)
    return cur


# ---------------------------------------------------------------------------
# Orientation for function-free sequents


class UnderivableGoalError(TransformError):
    def __init__(self, reason: str):
        super().__init__(f"underivable-goal: {reason}")
        self.reason = reason


def orient_function_free(goal: Sequent) -> Derivation:
    """Decide the function-free atomic goal and realize it with left-to-right
    index-2 replacement only, over initial and reflexivity leaves."""
    # here, not at the top: the other transforms run without loading search
    from .search import DecidedUnderivable, chain_to_derivation, decide_function_free

    plan = decide_function_free(goal)
    if isinstance(plan, DecidedUnderivable):
        raise UnderivableGoalError(plan.reason)
    return chain_to_derivation(plan)


# ---------------------------------------------------------------------------
# Single-occurrence normalization


def single_occurrence_normalize(d: Derivation, spec: CalculusSpec) -> Derivation:
    """Expand every replacement node of the Rep family into a chain of
    single-occurrence nodes with the same operating equality.

    =1/=2 and CNG nodes are left alone: their operating equality is not
    retained in the premiss, so no chain with the same operating exists."""
    return _rebuild(renormalize(d, spec), partial(_single_occurrences, spec=spec))


def _single_occurrences(d: Derivation, spec: CalculusSpec) -> Derivation:
    inst = d.inst
    rep = inst.replacement
    if (
        rep is None
        or len(rep.paths) <= 1
        or not RULES[inst.rule].index
        or inst.rule in (RuleId.EQ1, RuleId.EQ2)
    ):
        return d
    child = d.children[0]
    seq = d.sequent
    if inst.rule in (RuleId.REP1R, RuleId.REP2R) or not RULES[inst.rule].keeps_context(
        seq.ante[rep.context_index]
    ):
        # in-place rewrites chain directly, one path at a time
        cur_concl = seq
        nodes: list[tuple[Sequent, RuleInstance]] = []
        for p in rep.paths:
            one = repl_inst(inst.rule, rep.eq_index, rep.context_index, [p])
            nodes.append((cur_concl, one))
            cur_concl = premisses_of(cur_concl, one, spec)[0]
        built = child
        for concl, one in reversed(nodes):
            built = node(concl, one, built)
        return built
    # retained context: each step keeps the previous intermediate copy, so the
    # premiss grows; thread the intermediates into the child first
    ctx = seq.ante[rep.context_index]
    e = seq.ante[rep.eq_index]
    concl_term, prem_term = RULES[inst.rule].terms(e)
    inters: list[Formula] = []
    done: list[Path] = []
    for p in rep.paths[:-1]:
        done.append(p)
        inters.append(replace_at(ctx, set(done), concl_term, prem_term))
    grown = weaken_hp_many(child, inters, (), spec)
    cur_concl = seq
    built_nodes: list[tuple[Sequent, RuleInstance]] = []
    ctx_pos = rep.context_index
    eq_pos = rep.eq_index
    for p in rep.paths:
        one = repl_inst(inst.rule, eq_pos, ctx_pos, [p])
        built_nodes.append((cur_concl, one))
        cur_concl = premisses_of(cur_concl, one, spec)[0]
        if eq_pos > ctx_pos:
            eq_pos += 1  # the insertion shifts later antecedent positions
        ctx_pos = ctx_pos + 1  # the freshly added copy sits right after
    built = _reorder_root(grown, cur_concl)
    for concl, one in reversed(built_nodes):
        built = node(concl, one, built)
    return built


# ---------------------------------------------------------------------------
# Eliminating succedent replacements of one index (and semishortening)
#
# The engine removes a topmost "offending" succedent replacement J by
# induction on the last inference of the derivation of its premiss, following
# the admissibility case tables: base cases against initial/reflexivity
# leaves, commuting cases, and the two overlap cases that weaken a rewritten
# copy of an operating equality into the antecedent.


class _RightJob(namedtuple("_RightJob", "idx ei j path")):
    __slots__ = ()
    idx: int
    ei: int
    j: int
    path: Path


def _job_of(nd: Derivation) -> _RightJob:
    rep = nd.inst.replacement
    if len(rep.paths) != 1:
        raise MultiOccurrenceError("multi-occurrence-instance-present")
    return _RightJob(RULES[nd.inst.rule].index, rep.eq_index, rep.context_index, rep.paths[0])


def _right_rule(idx: int) -> RuleId:
    return RuleId.REP1R if idx == 1 else RuleId.REP2R


def _plus_rule(idx: int) -> RuleId:
    return RuleId.REP1LP if idx == 1 else RuleId.REP2LP


def _push_up(
    d0: Derivation, job: _RightJob, concl: Sequent, work: CalculusSpec
) -> Generator[tuple, Derivation, Derivation]:
    """Derivation of ``concl`` in the working calculus, given that ``concl``
    follows from ``d0``'s endsequent by the (excluded) succedent replacement
    ``job`` and ``d0`` itself is within the working calculus."""
    e = concl.ante[job.ei]
    u, v = RULES[_right_rule(job.idx)].terms(e)  # conclusion-side, premiss-side
    out = concl.succ[job.j]
    inp = replace_at(out, {job.path}, u, v)
    if inp == out:
        return d0
    if d0.sequent == concl:
        return d0
    rule = d0.inst.rule

    if rule is RuleId.INIT:
        i0, j0 = d0.inst.principal
        if j0 != job.j:
            return node(concl, leaf(RuleId.INIT, i0, j0))
        if is_identity(out):
            return node(concl, leaf(RuleId.REFAX, job.j))
        if i0 != job.ei:
            # rewrite the matching antecedent copy instead (the plus-rule
            # retains equality contexts, as the target calculus requires)
            lrule = _plus_rule(3 - job.idx)
            new_ante = replace_formula(concl.ante, i0, out)
            sub = node(Sequent(new_ante, concl.succ), leaf(RuleId.INIT, i0, job.j))
            return node(concl, repl_inst(lrule, job.ei, i0, [job.path]), sub)
        # the context equals the operating equality: two right steps suffice
        return _operating_context_case(job, concl, u, out)

    if rule is RuleId.REFAX:
        (j0,) = d0.inst.principal
        if j0 != job.j:
            return node(concl, leaf(RuleId.REFAX, j0))
        # inp is an identity t=t with v at job.path; out rewrites one side
        side = job.path[0]
        pi0 = job.path[1:]
        changed = out.lhs if side == 0 else out.rhs
        ax = node(Sequent(concl.ante, replace_formula(concl.succ, job.j, Eq(changed, changed))),
                  leaf(RuleId.REFAX, job.j))
        other_side = 1 - side
        back = _right_rule(2 if job.idx == 1 else 1)
        return node(concl, repl_inst(back, job.ei, job.j, [(other_side,) + pi0]), ax)

    d00 = d0.children[0]
    if d00.sequent == concl:
        # the excluded step undoes the inference below it
        return d00
    if rule in (RuleId.REP1R, RuleId.REP2R):
        krep = d0.inst.replacement
        kidx = RULES[rule].index
        e2 = d0.sequent.ante[krep.eq_index]
        uk, vk = RULES[rule].terms(e2)
        rho = krep.paths[0]
        if krep.context_index != job.j or (
            not paths_overlap(rho, job.path)
        ):
            # commute below the excluded step
            if krep.context_index == job.j:
                out2 = replace_at(d00.sequent.succ[job.j], {job.path}, v, u)
            else:
                out2 = out
            c2 = Sequent(d00.sequent.ante, replace_formula(d00.sequent.succ, job.j, out2))
            sub = yield d00, _RightJob(job.idx, job.ei, job.j, job.path), c2, work
            return node(concl, d0.inst, sub)
        if len(rho) <= len(job.path):
            # K wrote the subterm containing J's occurrence (rho <= path)
            tau = job.path[len(rho):]
            uk2 = replace_in_term(uk, tau, u)
            e2p = Eq(uk2, e2.rhs) if kidx == 2 else Eq(e2.lhs, uk2)
            ew = weaken_hp_many(d00, (e2p,), (), work)
            opi = len(d00.sequent.ante)
            c2 = Sequent(ew.sequent.ante, replace_formula(ew.sequent.succ, job.j, out))
            kp = node(c2, repl_inst(rule, opi, job.j, [rho]), ew)
            side = 0 if kidx == 2 else 1
            if krep.eq_index == job.ei:
                raise TransformError("overlap case with a shared operating equality")
            lrule = _plus_rule(2 if job.idx == 1 else 1)
            return node(concl, repl_inst(lrule, job.ei, krep.eq_index, [(side,) + tau]), kp)
        # J replaces a term containing K's occurrence (path < rho)
        tau = rho[len(job.path):]
        vp = replace_in_term(v, tau, vk)
        ejp = Eq(vp, e.rhs) if job.idx == 1 else Eq(e.lhs, vp)
        ew = weaken_hp_many(d00, (ejp,), (), work)
        opi = len(d00.sequent.ante)
        c2 = Sequent(ew.sequent.ante, replace_formula(ew.sequent.succ, job.j, out))
        sub = yield ew, _RightJob(job.idx, opi, job.j, job.path), c2, work
        side = 0 if job.idx == 1 else 1
        if krep.eq_index == job.ei:
            raise TransformError("overlap case with a shared operating equality")
        return node(concl, repl_inst(_plus_rule(kidx), krep.eq_index, job.ei, [(side,) + tau]), sub)

    if RULES[rule].context_side == "a":
        krep = d0.inst.replacement
        keeps = RULES[rule].keeps_context(d0.sequent.ante[krep.context_index])
        # the retained-copy insertion shifts later antecedent indices
        ei2 = job.ei + 1 if (keeps and job.ei > krep.context_index) else job.ei
        if not keeps and krep.context_index == job.ei:
            raise TransformError("a strict left inference rewrote the operating equality")
        c2 = Sequent(d00.sequent.ante, replace_formula(d00.sequent.succ, job.j, out))
        sub = yield d00, _RightJob(job.idx, ei2, job.j, job.path), c2, work
        return node(concl, d0.inst, sub)

    raise TransformError(f"unsupported inference above an excluded step: {rule.value}")


def _operating_context_case(job: _RightJob, concl: Sequent, u: Term, out: Eq) -> Derivation:
    """The initial sequent's principal pair is the operating equality itself;
    the conclusion is reached by two right steps of the other index over a
    reflexivity axiom.  ``u`` is the conclusion-side term of the excluded step."""
    side = 2 - job.idx  # J rewrote the rhs of out (index 1) or its lhs (index 2)
    if job.path[0] != side:
        where = ("left", "right")[side]
        raise TransformError(f"index-{job.idx} operating-context case expects a {where}-side path")
    w = (out.lhs, out.rhs)[side]
    pi0 = job.path[1:]
    ax = node(
        Sequent(concl.ante, replace_formula(concl.succ, job.j, Eq(w, w))),
        leaf(RuleId.REFAX, job.j),
    )
    mid = Sequent(concl.ante, replace_formula(concl.succ, job.j, Eq(u, w) if side else Eq(w, u)))
    back = _right_rule(3 - job.idx)
    n1 = node(mid, repl_inst(back, job.ei, job.j, [(1 - side,) + pi0]), ax)
    return node(concl, repl_inst(back, job.ei, job.j, [(1 - side,)]), n1)


def _offending(nd: Derivation, idx: int, prec: Precedence | None) -> bool:
    """Whether ``nd`` is an index-``idx`` succedent replacement to remove: any
    without a precedence, else an index-1 one that is not shortening or an
    index-2 one that is lengthening."""
    if nd.inst.rule is not _right_rule(idx):
        return False
    if prec is None:
        return True
    e = nd.sequent.ante[nd.inst.replacement.eq_index]
    return prec.lt(e.lhs, e.rhs) == (idx == 2)


def _eliminate_offending(d: Derivation, work: CalculusSpec, offending) -> Derivation:
    d = renormalize(d, work)

    def heights(nd: Derivation) -> list[int]:
        out = []
        for n2 in nd.nodes():
            if offending(n2):
                out.append(n2.height)
        return sorted(out, reverse=True)

    def process(nd: Derivation) -> Derivation:
        if offending(nd):
            built = _run(_push_up, nd.children[0], _job_of(nd), nd.sequent, work)
            return renormalize(_reorder_root(built, nd.sequent), work)
        return nd

    guard = 0
    while True:
        before = heights(d)
        if not before:
            return d
        guard += 1
        if guard > 10_000:
            raise MeasureError("offending-inference elimination failed to terminate")
        d = _rebuild(d, process)
        after = heights(d)
        if after and not _multiset_less(after, before):
            raise MeasureError("offending-inference measure failed to decrease")


def _multiset_less(new: list[int], old: list[int]) -> bool:
    """Dershowitz-Manna order on multisets of naturals (strict decrease)."""
    from collections import Counter

    cn, co = Counter(new), Counter(old)
    if cn == co:
        return False
    diff = max(h for h in set(cn) | set(co) if cn.get(h, 0) != co.get(h, 0))
    return cn.get(diff, 0) < co.get(diff, 0)


def eliminate_rep1r_plus(d: Derivation) -> Derivation:
    """Remove every index-1 succedent replacement from a derivation in the
    index-2 calculus with retained equality contexts; all replacement nodes
    must already be in single-occurrence mode."""
    return _eliminate_right(d, 1)


def eliminate_rep2r_plus(d: Derivation) -> Derivation:
    """The dual of :func:`eliminate_rep1r_plus`, with the indices exchanged."""
    return _eliminate_right(d, 2)


def _eliminate_right(d: Derivation, idx: int) -> Derivation:
    work = PRESETS["R2rlPlus" if idx == 1 else "R1rlPlus"].with_rules(_right_rule(idx))
    rep = check(d, work)
    if not rep.valid:
        raise PreconditionError(f"input-not-in-scope: {rep.first_error}")
    _require_single_occurrence(d)
    return _eliminate_offending(d, work, lambda nd: _offending(nd, idx, None))


def _require_single_occurrence(d: Derivation) -> None:
    for nd in d.nodes():
        rep = nd.inst.replacement
        if rep is not None and len(rep.paths) != 1:
            raise MultiOccurrenceError("multi-occurrence-instance-present")


def semishorten(d: Derivation, prec: Precedence) -> Derivation:
    """Rebuild an R12r derivation so that every index-2 replacement is
    nonlengthening and every index-1 replacement is shortening under the
    given antisymmetric term relation."""
    spec = PRESETS["R12r"]
    rep = check(d, spec)
    if not rep.valid:
        raise PreconditionError(f"input-not-in-scope: {rep.first_error}")
    d = single_occurrence_normalize(d, spec)
    return _eliminate_offending(
        d, PRESETS["R12rlPlus"], lambda nd: _offending(nd, 1, prec) or _offending(nd, 2, prec)
    )


def semishorten_target(prec: Precedence) -> CalculusSpec:
    """The calculus :func:`semishorten`'s output is checked in.  Under the
    empty precedence no index-1 replacement is shortening, so none remains
    and the output lies in ``R2rlPlus``; an oriented spec needs a precedence."""
    if prec == PREC_NONE:
        return PRESETS["R2rlPlus"]
    plus = PRESETS["R12prec_rlPlus"]
    return CalculusSpec(plus.base, plus.rules, plus.flags, prec)
