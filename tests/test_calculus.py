import itertools

import pytest

from corpus import EQUIVALENT_PRESETS, criterion_7_corpus
from eqseq.calculus import (
    CalculusError,
    CalculusSpec,
    EigenvariableError,
    Flag,
    LOGICAL_RULES,
    OrientationViolationError,
    PRESETS,
    PREC_HEIGHT,
    Precedence,
    RULES,
    RuleId,
    RuleInstance,
    RuleNotInCalculusError,
    Replacement,
    ShapeMismatchError,
    _FIELD_ATTR,
    _goal_predicates,
    _nonempty_nonoverlapping_subsets,
    _sorted_universe,
    _subsets,
    applicable_instances,
    expansions,
    leaf,
    leaf_expansions,
    parse_spec,
    premisses_of,
    repl_inst,
    resolve_preset,
    resolve_spec,
)
from eqseq.checker import check, node
from eqseq.parser import parse_sequent, parse_term, print_sequent
from eqseq.search import default_universe
from eqseq.syntax import Atom, Eq, Param, _top_terms, occurrences, subterms, term_height

R12r = PRESETS["R12r"]
S1 = PRESETS["S1"]


def seq(text):
    return parse_sequent(text)


def terms(*names):
    return [parse_term(n) for n in names]


def test_rep1r_display():
    # conclusion  r=s, G |- D, P(s)  has premiss  r=s, G |- D, P(r)
    concl = seq("r=s, Q(c) |- c=c, P(s)")
    inst = repl_inst(RuleId.REP1R, 0, 1, [(0,)])
    (prem,) = premisses_of(concl, inst, R12r)
    assert prem == seq("r=s, Q(c) |- c=c, P(r)")


def test_rep2r_rewrites_toward_the_left_side():
    concl = seq("b=a |- a=b")
    inst = repl_inst(RuleId.REP2R, 0, 0, [(1,)])
    (prem,) = premisses_of(concl, inst, R12r)
    assert prem == seq("b=a |- a=a")


def test_rep2lplus_retains_equality_contexts():
    concl = seq("s=r, P(s), d=d |- ")
    spec = PRESETS["R2rlPlus"]
    # non-equality context: strict
    inst = repl_inst(RuleId.REP2LP, 0, 1, [(0,)])
    (prem,) = premisses_of(concl, inst, spec)
    assert prem == seq("s=r, P(r), d=d |- ")
    # equality context: the rewritten copy is added, the context kept
    concl2 = seq("s=r, s=c |- ")
    inst2 = repl_inst(RuleId.REP2LP, 0, 1, [(0,)])
    (prem2,) = premisses_of(concl2, inst2, spec)
    assert prem2 == seq("s=r, s=c, r=c |- ")


@pytest.mark.parametrize(
    "rule, atom_premiss, eq_premiss",
    [
        ("rep1l", "a=b, P(a) |- Q", "a=b, c=a |- Q"),
        ("rep2l", "a=b, P(b) |- Q", "a=b, c=b |- Q"),
        ("repp", "a=b, P(b), P(a) |- Q", "a=b, c=b, c=a |- Q"),
        ("rep", "a=b, P(a), P(b) |- Q", "a=b, c=a, c=b |- Q"),
        ("rep1lp", "a=b, P(a) |- Q", "a=b, c=b, c=a |- Q"),
        ("rep2lp", "a=b, P(b) |- Q", "a=b, c=a, c=b |- Q"),
    ],
)
def test_antecedent_replacement_retention(rule, atom_premiss, eq_premiss):
    # index 1 rewrites b back to a, index 2 a back to b; a retained context
    # stays in place with its rewritten copy right after it
    rule = RuleId(rule)
    spec = CalculusSpec("none", frozenset({rule}))
    old = "b" if rule in (RuleId.REP1L, RuleId.REPP, RuleId.REP1LP) else "a"
    for ctx, path, want in ((f"P({old})", (0,), atom_premiss), (f"c={old}", (1,), eq_premiss)):
        (prem,) = premisses_of(seq(f"a=b, {ctx} |- Q"), repl_inst(rule, 0, 1, [path]), spec)
        assert (prem.ante, prem.succ) == (seq(want).ante, seq(want).succ), (rule, ctx)


def test_eq_rules_drop_their_operating_equality():
    concl = seq("a=f(a), a=f(a) |- a=f(f(a))")
    inst = repl_inst(RuleId.EQ1, 0, 0, [(1, 0)])
    (prem,) = premisses_of(concl, inst, PRESETS["EqCutFree"])
    assert prem == seq("a=f(a) |- a=f(a)")


def test_refl_and_refax():
    concl = seq("P(a) |- P(a)")
    inst = RuleInstance(RuleId.REFL, witness=parse_term("t"))
    (prem,) = premisses_of(concl, inst, PRESETS["RefRep"])
    assert prem == seq("t=t, P(a) |- P(a)")
    assert premisses_of(seq("Q(b) |- c=c, t=t"), leaf(RuleId.REFAX, 1), R12r) == []


def test_rule_not_in_calculus():
    with pytest.raises(CalculusError):
        premisses_of(seq("|- t=t"), leaf(RuleId.REFAX, 0), PRESETS["RefRep"])


def test_cut_split():
    concl = seq("a=b, P(c) |- Q(d)")
    inst = RuleInstance(
        RuleId.CUT, cut_formula=parse_formula_cached("P(a)"), split=((0,), ())
    )
    p1, p2 = premisses_of(concl, inst, PRESETS["EqCut"])
    assert p1 == seq("a=b |- P(a)")
    assert p2 == seq("P(a), P(c) |- Q(d)")


def parse_formula_cached(text):
    from eqseq.parser import parse_formula

    return parse_formula(text)


def test_cng_premisses():
    concl = seq("s=r |- r=s")
    inst = RuleInstance(
        RuleId.CNG,
        replacement=Replacement(None, 0, ((0,),)),
        witness=Param("s"),
        split=((0,), ()),
    )
    p1, p2 = premisses_of(concl, inst, PRESETS["CngCut"])
    assert p1 == seq("s=r |- s=r")
    assert p2 == seq("|- s=s")


def test_eigenvariable_condition():
    concl = seq("|- forall x. P(x)")
    spec = PRESETS["G3c"]
    ok = RuleInstance(RuleId.RFORALL, (0,), eigen="_e1")
    (prem,) = premisses_of(concl, ok, spec)
    assert print_sequent(prem) == "|- P(_e1)"
    concl2 = seq("Q(a) |- forall x. P(x)")
    with pytest.raises(EigenvariableError):
        premisses_of(concl2, RuleInstance(RuleId.RFORALL, (0,), eigen="a"), spec)


def test_orientation_flag():
    spec = CalculusSpec(
        "none",
        frozenset({RuleId.REFAX, RuleId.REP1R, RuleId.REP2R}),
        frozenset({Flag.ORIENTED}),
        PREC_HEIGHT,
    )
    # index 1 must be shortening: operating f(a)=a is not
    concl = seq("f(a)=a |- Q(a)")
    with pytest.raises(OrientationViolationError):
        premisses_of(concl, repl_inst(RuleId.REP1R, 0, 0, [(0,)]), spec)
    # index 2 on the same operating equality is nonlengthening
    concl2 = seq("f(a)=a |- Q(f(a))")
    (prem,) = premisses_of(concl2, repl_inst(RuleId.REP2R, 0, 0, [(0,)]), spec)
    assert prem == seq("f(a)=a |- Q(a)")
    # index 2 must be nonlengthening: operating a=f(a) is lengthening
    with pytest.raises(OrientationViolationError, match="index-2 instance on a = f\\(a\\) is lengthening"):
        premisses_of(seq("a=f(a) |- Q(a)"), repl_inst(RuleId.REP2R, 0, 0, [(0,)]), spec)


def test_right_hand_only_flag():
    spec = PRESETS["R12r_eqr"]
    concl = seq("a=b |- f(a)=c")
    with pytest.raises(CalculusError):
        premisses_of(concl, repl_inst(RuleId.REP2R, 0, 0, [(0, 0)]), spec)
    concl2 = seq("a=b |- c=f(a)")
    (prem,) = premisses_of(concl2, repl_inst(RuleId.REP2R, 0, 0, [(1, 0)]), spec)
    assert prem == seq("a=b |- c=f(b)")


def test_context_flags():
    scope = PRESETS["R_scope"]
    with pytest.raises(CalculusError):  # right rule on a non-equality context
        premisses_of(seq("a=b |- P(a)"), repl_inst(RuleId.REP2R, 0, 0, [(0,)]), scope)
    with pytest.raises(CalculusError):  # left rule on an equality context
        premisses_of(seq("a=b, a=c |- "), repl_inst(RuleId.REP2L, 0, 1, [(0,)]), scope)


def test_applicable_instances_spec_examples():
    spec = R12r
    goal = seq("|- t=t")
    insts = applicable_instances(goal, spec, terms("t"))
    assert leaf(RuleId.REFAX, 0) in insts

    goal2 = seq("a=c, b=c |- a=b")
    insts2 = applicable_instances(goal2, spec, terms("a", "b", "c"))
    wanted = repl_inst(RuleId.REP2R, 1, 0, [(1,)])  # premiss a=c, b=c |- a=c
    assert wanted in insts2
    # no instance uses the display the other way around
    assert all(i.rule is not RuleId.REP1R for i in insts2)


def test_s1_shape_closure_on_backward_instances():
    # every backward instance maps the counterexample shape into itself
    goal = seq("a=c, b=c, c=c |- a=b")
    from eqseq.search import _shape_s1

    assert _shape_s1(goal)
    for inst in applicable_instances(goal, S1, terms("a", "b", "c")):
        for prem in premisses_of(goal, inst, S1):
            assert _shape_s1(prem), (inst.rule, print_sequent(prem))


def test_generator_sound_and_complete_small():
    goal = seq("a=b, P(a) |- P(b)")
    spec = PRESETS["R12rl"]
    universe = terms("a", "b")
    insts = applicable_instances(goal, spec, universe)
    for inst in insts:
        premisses_of(goal, inst, spec)  # soundness: must not raise
    # brute-force completeness over replacement instances
    found = set(insts)
    for rule in (RuleId.REP1R, RuleId.REP2R, RuleId.REP1L, RuleId.REP2L):
        for ei, ctx, path0, path1 in itertools.product(range(2), range(2), range(2), range(2)):
            for paths in ([(path0,)], [(path0,), (path1,)]):
                inst = repl_inst(rule, ei, ctx, [tuple(p) for p in paths])
                try:
                    premisses_of(goal, inst, spec)
                except CalculusError:
                    continue
                assert inst in found, inst


def test_flag_monotonicity():
    goal = seq("a=b |- f(a)=f(a)")
    base = CalculusSpec("none", frozenset({RuleId.REFAX, RuleId.REP1R, RuleId.REP2R}))
    flagged = CalculusSpec(
        "none", base.rules, frozenset({Flag.SINGLE_OCCURRENCE, Flag.RIGHT_HAND_ONLY})
    )
    unrestricted = applicable_instances(goal, base, terms("a", "b"))
    restricted = applicable_instances(goal, flagged, terms("a", "b"))
    assert set(restricted) <= set(unrestricted)


def test_preset_table_contains_required_entries():
    for name in [
        "R12r", "R12r_eqr", "R12rl", "R_scope", "R_scope_eqr", "R1rl", "R2rl",
        "R1rlPlus", "R2rlPlus", "R12prec_rlPlus", "RefRep", "RefRep2L",
        "S1", "S2", "EqCut", "CngCut", "CngOnly", "CngLCeq",
    ]:
        assert name in PRESETS, name
    assert PRESETS["S1"].rules == frozenset(
        {RuleId.REFAX, RuleId.LC, RuleId.REP2LP, RuleId.REP1R}
    )


def test_spec_text_format():
    spec = parse_spec("base=none rules=refax,rep1r,rep2r flags=eqr prec=height")
    assert spec.rules == PRESETS["R12r"].rules
    assert Flag.RIGHT_HAND_ONLY in spec.flags
    assert spec.precedence.kind == "height"
    assert resolve_spec("R12r") == PRESETS["R12r"]
    with pytest.raises(CalculusError):
        parse_spec("base=none rules=nonsense")
    with pytest.raises(CalculusError):
        resolve_preset("NoSuchPreset")


def test_base_validation():
    with pytest.raises(CalculusError):
        CalculusSpec("none", frozenset({RuleId.LAND}))
    with pytest.raises(CalculusError):
        CalculusSpec("c", frozenset({RuleId.RIMPI}))
    with pytest.raises(CalculusError):
        Precedence("explicit", frozenset({(Param("a"), Param("b")), (Param("b"), Param("a"))}))


def _stray_field_cases():
    """(preset, goal, instance with a stray field, the same without it, children)"""
    a, b = Param("a"), Param("b")
    refl = RuleInstance(RuleId.REFL, (7,), witness=a)
    ident = node(seq("a = a |- a = a"), leaf(RuleId.INIT, 0, 0))
    yield "RefRep", "|- a = a", refl, refl._replace(principal=()), [ident]
    rep2r = RuleInstance(RuleId.REP2R, (0,), replacement=Replacement(0, 0, ((1,),)))
    ax = node(seq("b = a |- a = a"), leaf(RuleId.REFAX, 0))
    yield "R12r", "b = a |- a = b", rep2r, rep2r._replace(principal=()), [ax]
    cut = RuleInstance(RuleId.CUT, (0,), cut_formula=Eq(a, b), split=((0,), ()))
    init = node(seq("a = b |- a = b"), leaf(RuleId.INIT, 0, 0))
    yield "EqCut", "a = b |- a = b", cut, cut._replace(principal=()), [init, init]
    witnessed = RuleInstance(RuleId.INIT, (0, 0), witness=a)
    yield "R12r", "a = b |- a = b", witnessed, witnessed._replace(witness=None), []


@pytest.mark.parametrize(
    "name, goal, stray, clean, children", list(_stray_field_cases()), ids=["refl", "rep2r", "cut", "init"]
)
def test_premisses_of_rejects_fields_the_rule_does_not_take(name, goal, stray, clean, children):
    spec, goal = PRESETS[name], seq(goal)
    with pytest.raises(ShapeMismatchError):
        premisses_of(goal, stray, spec)
    assert not check(node(goal, stray, *children), spec).valid
    assert check(node(goal, clean, *children), spec).valid


G3C, G3I = CalculusSpec("c"), CalculusSpec("i")
RW_RC = CalculusSpec("none", frozenset({RuleId.RW, RuleId.RC}))

# (rule, spec, conclusion, accepted instance's principal and eigenparameter,
#  its premisses in order, a principal index at a formula the rule cannot take)
PREMISS_CASES = [
    (RuleId.LOR, G3C, "R(a), P(a) | Q(a), S(a) |- Q(a)", (1,), None,
     ["R(a), P(a), S(a) |- Q(a)", "R(a), Q(a), S(a) |- Q(a)"], (0,)),
    (RuleId.ROR, G3C, "R(a) |- S(a), P(a) | Q(a), T(a)", (1,), None,
     ["R(a) |- S(a), P(a), Q(a), T(a)"], (0,)),
    (RuleId.LIMP, G3C, "R(a), P(a) -> Q(a), S(a) |- T(a)", (1,), None,
     ["R(a), S(a) |- T(a), P(a)", "R(a), Q(a), S(a) |- T(a)"], (0,)),
    (RuleId.LIMPI, G3I, "R(a), P(a) -> Q(a), S(a) |- T(a)", (1,), None,
     ["R(a), P(a) -> Q(a), S(a) |- T(a), P(a)", "R(a), Q(a), S(a) |- T(a)"], (0,)),
    (RuleId.RFORALLI, G3I, "R(a) |- S(a), forall x. P(x), T(a)", (1,), "b",
     ["R(a) |- P(b)"], (0,)),
    (RuleId.LEXISTS, G3C, "R(a), exists x. P(x), S(a) |- T(a)", (1,), "b",
     ["R(a), P(b), S(a) |- T(a)"], (0,)),
    (RuleId.RW, RW_RC, "R(a) |- S(a), T(a), U(a)", (1,), None,
     ["R(a) |- S(a), U(a)"], (3,)),
    (RuleId.RC, RW_RC, "R(a) |- S(a), T(a), U(a)", (1,), None,
     ["R(a) |- S(a), T(a), T(a), U(a)"], (3,)),
]


@pytest.mark.parametrize(
    "rule, spec, concl, principal, eigen, premisses, wrong", PREMISS_CASES, ids=[c[0].value for c in PREMISS_CASES]
)
def test_premisses_in_order(rule, spec, concl, principal, eigen, premisses, wrong):
    got = premisses_of(seq(concl), RuleInstance(rule, principal, eigen=eigen), spec)
    # compared as ordered formula lists: sequent equality ignores order
    assert [(p.ante, p.succ) for p in got] == [(seq(p).ante, seq(p).succ) for p in premisses]
    with pytest.raises(ShapeMismatchError):
        premisses_of(seq(concl), RuleInstance(rule, wrong, eigen=eigen), spec)


def _spec_allowing(rule):
    specs = (CalculusSpec(base, frozenset({rule}) - LOGICAL_RULES) for base in ("none", "c", "i", "m"))
    return next(s for s in specs if s.allows(rule))


def _cng(paths, eq_index=None, witness=parse_term("a")):
    return RuleInstance(RuleId.CNG, (), Replacement(eq_index, 0, paths), witness, split=((), ()))


# (conclusion, an instance that its rule's branch of premisses_of rejects, the
#  error): one case for each rejection branch that no other test takes
REJECTIONS = [
    ("P(a) |-", leaf(RuleId.LBOT, 0), ShapeMismatchError),
    ("bot |- P(a)", leaf(RuleId.MINBOT, 0, 0), ShapeMismatchError),
    ("P(a) |- P(a)", RuleInstance(RuleId.CUT, split=((0,), ())), ShapeMismatchError),
    ("|- a = a", RuleInstance(RuleId.REFL), ShapeMismatchError),
    ("P(a) |- P(a)", leaf(RuleId.SYMM, 0), ShapeMismatchError),
    ("a = b |- P(b)", repl_inst(RuleId.REP1R, None, 0, [(0,)]), ShapeMismatchError),
    ("a = b |- P(b) & P(b)", repl_inst(RuleId.REP1R, 0, 0, [(0,)]), ShapeMismatchError),
    ("|- P(b)", _cng([(0,)], witness=None), ShapeMismatchError),
    ("a = b |- P(b)", _cng([(0,)], eq_index=0), ShapeMismatchError),
    ("|- P(b) & P(b)", _cng([(0,)]), ShapeMismatchError),
    ("|- P(b)", _cng([]), ShapeMismatchError),
    ("|- Q(b, c)", _cng([(0,), (1,)]), ShapeMismatchError),  # the paths hold two terms
    ("|- P(b)", _cng([(5,)]), ShapeMismatchError),  # the path does not resolve
]


@pytest.mark.parametrize("concl, inst, error", REJECTIONS, ids=[f"{c[1].rule.value}-{k}" for k, c in enumerate(REJECTIONS)])
def test_premisses_of_rejection_branches(concl, inst, error):
    with pytest.raises(error):
        premisses_of(seq(concl), inst, _spec_allowing(inst.rule))


def test_every_rule_has_a_premiss_computation():
    # premisses_of picks its branch by the rule alone, so an instance that
    # passes the checks every rule shares and meets its branch shows that no
    # instance of the rule reaches the final "no premiss computation" raise
    goal = seq("a = b |- a = b")
    values = {
        "witness": parse_term("a"),
        "eigen": "e",
        "cut_formula": Eq(Param("a"), Param("b")),
        "split": ((), ()),
    }
    for rule, sig in RULES.items():
        attrs = {_FIELD_ATTR[f]: values.get(_FIELD_ATTR[f]) for f in sig.fields}
        if "replacement" in attrs:
            attrs["replacement"] = Replacement(0 if "eq_index" in sig.fields else None, 0, ((0,),))
        inst = RuleInstance(rule, (0,) * len(sig.principal), **attrs)
        try:
            premisses_of(goal, inst, _spec_allowing(rule))
        except CalculusError as exc:
            assert not isinstance(exc, RuleNotInCalculusError), (rule, exc)


# ---------------------------------------------------------------------------
# The move generator


GENERATOR_SPECS = [PRESETS[name] for name in EQUIVALENT_PRESETS + ["CngCut", "EqCut", "S1", "S2"]] + [
    parse_spec("base=none rules=refax,rep1r,rep2r,rep1l,rep2l,cng flags=single"),
    parse_spec("base=none rules=refax,eq1,eq2,rep,repp,cut flags=eqr,ctx-noneq"),
]


def _occurrence_sets(ctx, frm):
    """The nonempty nonoverlapping sets of ``frm``'s occurrences in ``ctx``.  A
    non-atomic ``ctx`` has no term positions: it gets one made-up path, which
    the kernel must reject."""
    if isinstance(ctx, (Atom, Eq)):
        return _nonempty_nonoverlapping_subsets(occurrences(ctx, frm))
    return [((0,),)]


def _candidates(goal, spec, universe):
    """Every candidate instance in the generator's order, legal or not, with
    every context split."""
    terms_ = _sorted_universe(universe)
    ante, succ = goal.ante, goal.succ
    for i in range(len(ante)):
        for j in range(len(succ)):
            yield leaf(RuleId.INIT, i, j)
            yield leaf(RuleId.MINBOT, i, j)
    for j in range(len(succ)):
        yield leaf(RuleId.REFAX, j)
    for i in range(len(ante)):
        yield leaf(RuleId.LBOT, i)
    ante_rules = ["land", "lor", "limp", "limpi", "lw", "lc", "lceq", "symm"]
    for rule in [RuleId(r) for r in ante_rules]:
        for i in range(len(ante)):
            yield RuleInstance(rule, (i,))
    for rule in [RuleId(r) for r in ("rand", "ror", "rimp", "rimpi", "rw", "rc")]:
        for j in range(len(succ)):
            yield RuleInstance(rule, (j,))
    for i in range(len(ante)):
        for t in terms_:
            yield RuleInstance(RuleId.LFORALL, (i,), witness=t)
    for j in range(len(succ)):
        for t in terms_:
            yield RuleInstance(RuleId.REXISTS, (j,), witness=t)
    for rule in (RuleId.RFORALL, RuleId.RFORALLI):
        for j in range(len(succ)):
            yield RuleInstance(rule, (j,), eigen="_e1")
    for i in range(len(ante)):
        yield RuleInstance(RuleId.LEXISTS, (i,), eigen="_e1")
    for t in terms_:
        yield RuleInstance(RuleId.REFL, witness=t)
    for e, op in enumerate(ante):
        if not isinstance(op, Eq):
            continue
        for rule in [RuleId(r) for r in ("rep1r", "rep2r", "eq1", "eq2")]:
            frm = op.rhs if rule in (RuleId.REP1R, RuleId.EQ1) else op.lhs
            for j, ctx in enumerate(succ):
                for paths in _occurrence_sets(ctx, frm):
                    yield repl_inst(rule, e, j, paths)
        for rule in [RuleId(r) for r in ("rep1l", "rep2l", "rep", "repp", "rep1lp", "rep2lp")]:
            frm = op.rhs if rule in (RuleId.REP1L, RuleId.REPP, RuleId.REP1LP) else op.lhs
            for i, ctx in enumerate(ante):
                if i != e:
                    for paths in _occurrence_sets(ctx, frm):
                        yield repl_inst(rule, e, i, paths)
    for j, ctx in enumerate(succ):
        # a non-atomic context gets one made-up term, to go with _occurrence_sets' made-up path
        top = _top_terms(ctx) if isinstance(ctx, (Atom, Eq)) else terms_[:1]
        ctx_terms = sorted({t for s in top for t in subterms(s)}, key=lambda t: (term_height(t), str(t)))
        for s_term in ctx_terms:
            for paths in _occurrence_sets(ctx, s_term):
                for r_term in terms_:
                    for a1 in _subsets(len(ante)):
                        for s1 in _subsets(len(succ)):
                            yield RuleInstance(
                                RuleId.CNG, replacement=Replacement(None, j, paths), witness=r_term, split=(a1, s1)
                            )
    candidates = [Eq(u, v) for u in terms_ for v in terms_]
    for pred, arity in sorted(_goal_predicates(goal)):
        candidates += [Atom(pred, args) for args in itertools.product(terms_, repeat=arity)]
    for a in candidates:
        for a1 in _subsets(len(ante)):
            for s1 in _subsets(len(succ)):
                yield RuleInstance(RuleId.CUT, cut_formula=a, split=(a1, s1))


def _kernel_moves(goal, spec, universe):
    """The candidates ``premisses_of`` accepts, with their premisses, keeping
    the first of the splits of one instance whose premisses are
    multiset-equal; and how many splits were dropped that way."""
    kept, seen, dropped = [], set(), 0
    for inst in _candidates(goal, spec, universe):
        try:
            premisses = premisses_of(goal, inst, spec)
        except CalculusError:
            continue
        if inst.split is not None:
            key = (inst._replace(split=None), tuple(premisses))  # sequents hash as multisets
            if key in seen:
                dropped += 1
                continue
            seen.add(key)
        kept.append((inst, premisses))
    return kept, dropped


def _ordered(moves):
    return [(inst, [(p.ante, p.succ) for p in premisses]) for inst, premisses in moves]


def test_expansions_are_the_moves_the_kernel_accepts():
    several = [
        seq("a=b, P(a), a=b |- Q(b), P(b), a=b"),
        seq("f(a)=b, P(b) |- P(f(a)), a=a"),
        seq("a=b |- P(a) & Q(a), P(b)"),  # a non-atomic succedent context is no replacement context
    ]
    for goal in criterion_7_corpus() + several:
        universe = default_universe(goal, 1)
        for spec in GENERATOR_SPECS:
            want, _ = _kernel_moves(goal, spec, universe)
            # the same instances in the same order, each with the same
            # premisses, formulas in the same order
            assert _ordered(expansions(goal, spec, universe)) == _ordered(want), (spec.describe(), str(goal))


@pytest.mark.parametrize("text", ["a=b, a=b, P(a) |- P(b)", "a=b, P(a), a=b |- P(b), P(b)"])
@pytest.mark.parametrize("name", ["CngLCeq", "CngCut"])
def test_split_collapse_keeps_the_first_of_each_premiss_class(text, name):
    goal, spec = seq(text), PRESETS[name]
    universe = default_universe(goal, 1)
    want, dropped = _kernel_moves(goal, spec, universe)
    assert dropped > 0  # each dropped split repeats the premisses of an earlier one
    assert expansions(goal, spec, universe) == want


@pytest.mark.parametrize(
    "text, name",
    [(t, n) for t in ("a=c, b=c |- a=b", "P(a), a=b |- P(a), P(b), b=b", "|- t=t") for n in EQUIVALENT_PRESETS]
    + [("bot |- bot", "G3m"), ("P(a), bot |- P(a)", "G3i"), ("bot, bot |- Q(a) & bot", "G3c")],
)
def test_leaf_expansions_are_the_zero_premiss_prefix(text, name):
    goal, spec = seq(text), PRESETS[name]
    moves = expansions(goal, spec, default_universe(goal, 1))
    leaves = leaf_expansions(goal, spec)
    assert moves[: len(leaves)] == leaves
    assert all(premisses for _, premisses in moves[len(leaves) :])
    assert all(premisses == [] for _, premisses in leaves)
