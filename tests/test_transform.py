import argparse
import ast
import hashlib
import pathlib
import random

import pytest

from corpus import eq_spine, grow, valid_spine
from eqseq.calculus import (
    CalculusSpec,
    PRESETS,
    PREC_HEIGHT,
    PREC_NONE,
    RuleId,
    resolve_preset,
    resolve_spec,
)
from eqseq.checker import Derivation, check
from eqseq.parser import parse_derivation, parse_formula, parse_sequent, print_derivation
from eqseq.search import Proved, SearchLimits, prove
from eqseq.syntax import Eq, EqSeqError, Param, Sequent
import eqseq.transform as tf

R12r = PRESETS["R12r"]


def seq(text):
    return parse_sequent(text)


def proved(text, spec=R12r, depth=3):
    out = prove(seq(text), spec, SearchLimits(max_depth=depth))
    assert isinstance(out, Proved)
    return out.derivation


# -- height-preserving weakening


def test_weaken_refax_leaf():
    d = proved("|- t=t")
    w = tf.weaken_hp(d, parse_formula("Q(a)"), "ante", R12r)
    assert w.sequent == seq("Q(a) |- t=t")
    assert w.height == 0
    assert check(w, R12r).valid


def test_weaken_witness_derivation():
    d = proved("a=c, b=c |- a=b")
    w = tf.weaken_hp(d, parse_formula("c=c"), "ante", R12r)
    assert check(w, R12r).valid
    assert w.height == d.height == 1


def test_weaken_renames_captured_eigenparameter():
    spec = PRESETS["G3c"]
    d = parse_derivation(
        '(rforall [0;_e1] "forall y. P(y) |- forall x. P(x)"\n'
        '  (lforall [0;_e1] "forall y. P(y) |- P(_e1)"\n'
        '    (init [0;0] "P(_e1), forall y. P(y) |- P(_e1)")))'
    )
    assert check(d, spec).valid
    from eqseq.syntax import Atom, Param

    capturing = Atom("Q", (Param("_e1"),))
    w = tf.weaken_hp(d, capturing, "ante", spec)
    rep = check(w, spec)
    assert rep.valid
    assert w.height == d.height
    # the eigenparameter must have moved out of the way
    assert w.inst.eigen != "_e1"


def test_weaken_hp_on_random_corpus():
    rng = random.Random(3)
    extra = parse_formula("N(a)")
    for _ in range(40):
        d = grow(rng, R12r, depth=4)
        for side in ("ante", "succ"):
            w = tf.weaken_hp(d, extra, side, R12r)
            assert check(w, R12r).valid
            assert w.height == d.height


# -- succedent projection


def test_project_refax_leaf():
    d = parse_derivation('(refax [1] "Q(b) |- c=c, t=t")')
    a, p = tf.project_succedent(d, R12r)
    assert str(a) == "t = t"
    assert p.sequent == seq("Q(b) |- t=t")
    assert p.height == 0


def test_project_keeps_replacement_spine():
    d = proved("a=c, b=c |- a=b")
    a, p = tf.project_succedent(d, R12r)
    assert a == seq("|- a=b").succ[0]
    assert check(p, R12r).valid
    assert p.height == d.height


def test_project_realizes_right_contraction():
    d = parse_derivation(
        '(rep2r [0;1;1] "b=a |- a=b, a=b"\n  (refax [1] "b=a |- a=b, a=a"))'
    )
    assert check(d, R12r).valid
    a, p = tf.project_succedent(d, R12r)
    assert p.sequent == seq("b=a |- a=b")
    assert p.height == d.height == 1


def test_project_passes_right_weakening_and_contraction():
    spec = resolve_spec("base=none rules=refax,rw,rc,rep2r")
    d = parse_derivation(
        '(rc [1] "b=a |- P(b), a=b"\n'
        '  (rw [0] "b=a |- P(b), a=b, a=b"\n'
        '    (rep2r [0;1;1] "b=a |- a=b, a=b"\n'
        '      (refax [1] "b=a |- a=b, a=a"))))'
    )
    a, p = tf.project_succedent(d, spec)
    assert print_derivation(p) == '(rep2r [0;0;1] "b = a |- a = b"\n  (refax [0] "b = a |- a = a"))\n'
    assert a == p.sequent.succ[0] and check(p, spec).valid


def test_project_rejects_logical_bases_and_cut():
    with pytest.raises(tf.PreconditionError):
        tf.project_succedent(parse_derivation('(init [0;0] "P(a) |- P(a)")'), PRESETS["G3c"])
    with pytest.raises(tf.PreconditionError):
        tf.project_succedent(parse_derivation('(init [0;0] "P(a) |- P(a)")'), PRESETS["EqCut"])


def test_project_height_on_single_succedent_corpus():
    rng = random.Random(9)
    n = 0
    for _ in range(120):
        d = grow(rng, R12r, depth=4)
        if len(d.sequent.succ) != 1:
            continue
        a, p = tf.project_succedent(d, R12r)
        assert p.height == d.height
        assert (a,) == p.sequent.succ
        n += 1
    assert n >= 20


# -- equivalence translation


def test_translate_symm_case_templates():
    d = parse_derivation(
        '(symm [0] "s=r |- r=s"\n  (init [0;0] "r=s |- r=s"))'
    )
    src = CalculusSpec("none", frozenset({RuleId.SYMM, RuleId.REFAX}))
    # Case 1.1-style target: RefAx + Rep1R (+Cut)
    out = tf.equivalence_translate(d, src, "base=none rules=refax,rep1r")
    tools = resolve_preset("R12r").with_rules(RuleId.CUT, RuleId.LC, RuleId.LW)
    assert check(out, tools).valid
    assert out.rules_used() >= {RuleId.CUT, RuleId.REP1R}
    # Case 2.1-style target: RefL + Rep1L (+LW), no cut needed
    out2 = tf.equivalence_translate(d, src, "base=none rules=refl,rep1l")
    tools2 = CalculusSpec(
        "none", frozenset({RuleId.REFL, RuleId.REP1L, RuleId.CUT, RuleId.LC, RuleId.LW})
    )
    assert check(out2, tools2).valid
    assert RuleId.CUT not in out2.rules_used()
    assert out2.rules_used() >= {RuleId.LW, RuleId.REP1L, RuleId.REFL}


def test_translate_rep_to_strict_left():
    # a Rep inference is simulated with the strict rule plus contraction
    d = parse_derivation(
        '(rep [1;2;0] "Q(a), s = r, s = s |- Q(a)"\n'
        '  (lw [3] "Q(a), s = r, s = s, r = s |- Q(a)"\n'
        '    (lw [2] "Q(a), s = r, s = s |- Q(a)"\n'
        '      (lw [1] "Q(a), s = r |- Q(a)"\n'
        '        (init [0;0] "Q(a) |- Q(a)")))))'
    )
    src = CalculusSpec("none", frozenset({RuleId.REP, RuleId.LW, RuleId.REFL}))
    assert check(d, src).valid
    out = tf.equivalence_translate(d, src, "RefRep2L")
    tools = PRESETS["RefRep2L"].with_rules(RuleId.CUT, RuleId.LC, RuleId.LW)
    assert check(out, tools).valid
    assert out.sequent == d.sequent


def test_translate_refl_to_refax_by_cut():
    # a target without refl closes t = t by refax and cuts it in
    d = parse_derivation('(refl [a] "P(b) |- P(b)" (init [1;0] "a = a, P(b) |- P(b)"))')
    assert check(d, PRESETS["RefRep"]).valid
    out = tf.equivalence_translate(d, "RefRep", "R12r")
    assert print_derivation(out) == (
        '(cut [;;"a = a"] "P(b) |- P(b)"\n'
        '  (refax [0] "|- a = a")\n'
        '  (init [1;0] "a = a, P(b) |- P(b)"))\n'
    )
    assert check(out, R12r.with_rules(RuleId.CUT)).valid


def test_translate_matrix_on_random_corpora():
    rng = random.Random(23)
    presets = ["R12r", "R12rl", "R1rlPlus", "R2rlPlus", "RefRep", "RefRep2L", "CngLCeq"]
    for src_name in presets:
        src = resolve_preset(src_name)
        corpus = [grow(rng, src, depth=3) for _ in range(4)]
        for tgt_name in presets:
            if tgt_name == src_name:
                continue
            tgt = resolve_preset(tgt_name)
            tools = tgt.with_rules(RuleId.CUT, RuleId.LC, RuleId.LW)
            for d in corpus:
                out = tf.equivalence_translate(d, src, tgt)
                assert check(out, tools).valid, (src_name, tgt_name)
                assert out.sequent == d.sequent


def test_translate_rejects_logical_rules_into_equality_targets():
    d = parse_derivation(
        '(land [0] "P(a) & Q(a), R(c) |- P(a)"\n'
        '  (init [0;0] "P(a), Q(a), R(c) |- P(a)"))'
    )
    assert check(d, PRESETS["G3c"]).valid
    with pytest.raises(tf.UntranslatableRuleError):
        tf.equivalence_translate(d, PRESETS["G3c"], "R12r")


# -- cut elimination


def test_cut_eliminate_symm_template():
    d = parse_derivation(
        '(cut [0;;"r = s"] "s = r |- r = s"\n'
        '  (rep1r [0;0;0] "s = r |- r = s"\n'
        '    (refax [0] "s = r |- s = s"))\n'
        '  (init [0;0] "r = s |- r = s"))'
    )
    out = tf.cut_eliminate_pipeline(d)
    rep = check(out, R12r)
    assert rep.valid
    assert out.sequent == d.sequent
    assert RuleId.CUT not in out.rules_used() and RuleId.LC not in out.rules_used()
    # the direct proof of the same endsequent is one Rep2R inference
    direct = proved("s=r |- r=s")
    assert direct.height == 1


def test_cut_eliminate_degenerate_identity_cut():
    d = parse_derivation(
        '(cut [;;"t = t"] "Q(a) |- Q(a)"\n'
        '  (refax [0] "|- t = t")\n'
        '  (init [1;0] "t = t, Q(a) |- Q(a)"))'
    )
    out = tf.cut_eliminate_pipeline(d)
    assert check(out, R12r).valid
    assert out.sequent == d.sequent


def test_cut_eliminate_random_corpus():
    rng = random.Random(7)
    spec = R12r.with_rules(RuleId.CUT, RuleId.LC, RuleId.LCEQ)
    for _ in range(60):
        d = grow(rng, spec, depth=5, allow_cut=True)
        out = tf.cut_eliminate_pipeline(d)
        assert check(out, R12r).valid
        assert out.sequent == d.sequent
        assert not ({RuleId.CUT, RuleId.LC, RuleId.LCEQ} & out.rules_used())


# grown with funcs f and g, these reach the congruence elimination's cases for
# a first premiss ending in a contraction (seeds 5 and 323) and for one
# ending in a replacement of the congruence's equality on its right-hand side,
# which is rewritten back after the inductive step (seed 5)
_CNG_CASES = {
    5: (
        '(rep2r [0;1;0.0.0] "b = a, f(a) = a, P(a), P(f(b)) |- g(c) = g(c), P(f(f(b)))"\n'
        '  (rep2r [1;1;0.0] "b = a, f(a) = a, P(a), P(f(b)) |- g(c) = g(c), P(f(f(a)))"\n'
        '    (rep1r [0;1;0.0] "b = a, f(a) = a, P(a), P(f(b)) |- g(c) = g(c), P(f(a))"\n'
        '      (init [3;1] "b = a, f(a) = a, P(a), P(f(b)) |- g(c) = g(c), P(f(b))"))))\n'
    ),
    323: (
        '(rep2r [3;0;0] "g(g(b)) = g(b), P(b), P(a), c = f(f(b)), b = c, c = a, b = g(f(a)) |- c = g(f(a))"\n'
        '  (rep1r [3;0;0] "g(g(b)) = g(b), P(b), P(a), c = f(f(b)), b = c, c = a, b = g(f(a)) |- f(f(b)) = g(f(a))"\n'
        '    (rep1r [4;0;0] "g(g(b)) = g(b), P(b), P(a), c = f(f(b)), b = c, c = a, b = g(f(a)) |- c = g(f(a))"\n'
        '      (init [6;0] "g(g(b)) = g(b), P(b), P(a), c = f(f(b)), b = c, c = a, b = g(f(a)) |- b = g(f(a))"))))\n'
    ),
}


@pytest.mark.parametrize("seed", sorted(_CNG_CASES))
def test_cut_eliminate_congruence_cases_pinned(seed):
    rng = random.Random(seed)
    spec = R12r.with_rules(RuleId.CUT, RuleId.LC, RuleId.LCEQ)
    d = grow(rng, spec, depth=rng.randint(4, 14), funcs=("f", "g"), allow_cut=True)
    out = tf.cut_eliminate_pipeline(d)
    assert print_derivation(out) == _CNG_CASES[seed]
    assert out.sequent == d.sequent and check(out, R12r).valid


def _child_reversed(d):
    """``d`` over its one child with both sides listed in reverse, as a pass
    leaves a node whose parent it reordered with ``_reorder_root``."""
    (c,) = d.children
    flipped = tf._reorder_root(c, Sequent(c.sequent.ante[::-1], c.sequent.succ[::-1]))
    return Derivation(d.sequent, d.inst, (flipped,))


# a congruence's first premiss ending in a succedent replacement: of a formula
# of Δ, commuted below the congruence (above an initial sequent on a=b, one on
# a formula of Δ, and a reflexivity axiom), and of the congruence's own
# equality a=b; the step reads the replacement's premiss at its indices, so
# the output is the same whether that premiss lists its formulas in order or
# reversed
_CNG_REPLACEMENT_CASES = [
    (
        '(rep1r [0;0;0] "c=d, a=b |- Q(d), R(c), a=b"\n  (init [1;2] "c=d, a=b |- Q(c), R(c), a=b"))',
        '(rep1r [0;0;0] "c = d, a = b, P(a) |- Q(d), R(c), P(b)"\n'
        '  (rep1r [1;2;0] "c = d, a = b, P(a) |- Q(c), R(c), P(b)"\n'
        '    (init [0;0] "P(a), c = d, a = b |- P(a), Q(c), R(c)")))\n',
    ),
    (
        '(rep1r [0;0;0] "c=d, Q(c), a=b |- Q(d), R(c), a=b"\n  (init [1;0] "c=d, Q(c), a=b |- Q(c), R(c), a=b"))',
        '(rep1r [0;0;0] "c = d, Q(c), a = b, P(a) |- Q(d), R(c), P(b)"\n'
        '  (init [1;0] "c = d, Q(c), a = b, P(a) |- Q(c), R(c), P(b)"))\n',
    ),
    (
        '(rep1r [0;0;1] "c=d, a=b |- c=d, R(c), a=b"\n  (refax [0] "c=d, a=b |- c=c, R(c), a=b"))',
        '(rep1r [0;0;1] "c = d, a = b, P(a) |- c = d, R(c), P(b)"\n'
        '  (refax [0] "c = d, a = b, P(a) |- c = c, R(c), P(b)"))\n',
    ),
    (
        '(rep1r [0;1;0] "c=a, c=b |- Q(c), a=b"\n  (init [1;1] "c=a, c=b |- Q(c), c=b"))',
        '(lceq [0] "c = a, c = b, P(a) |- Q(c), P(b)"\n'
        '  (rep1r [1;1;0] "c = a, c = b, P(a), c = a |- Q(c), P(b)"\n'
        '    (rep2r [1;0;0] "P(a), c = a, c = a, c = b |- P(c), Q(c)"\n'
        '      (init [0;0] "P(a), c = a, c = a, c = b |- P(a), Q(c)"))))\n',
    ),
]


@pytest.mark.parametrize(
    "first, expected",
    _CNG_REPLACEMENT_CASES,
    ids=["commute-init-on-eq", "commute-init-in-delta", "commute-refax", "own-equality"],
)
def test_cng_step_replacement_cases_pinned(first, expected):
    d0 = parse_derivation(first)
    d1 = parse_derivation('(init [0;0] "P(a) |- P(a)")')
    for d in (d0, _child_reversed(d0)):
        out = tf._run(tf._cng_step, d, d1, Param("a"), Param("b"), parse_formula("P(b)"), ((0,),))
        assert print_derivation(out) == expected
        assert check(out, tf._SPEC_REP_LC).valid


def test_project_through_a_child_in_another_order():
    # the projection compares sequents, which are equal as multisets, so a
    # child listed otherwise than its premiss projects the same
    d = parse_derivation('(lc [0] "Q(a), R(a) |- Q(a), S(a)"\n  (init [0;0] "Q(a), Q(a), R(a) |- Q(a), S(a)"))')
    for x in (d, _child_reversed(d)):
        a, p = tf._run(tf._proj, x, tf._SPEC_CNG)
        assert a == parse_formula("Q(a)") and p.sequent == seq("Q(a), R(a) |- Q(a)")
        assert check(p, tf._SPEC_CNG).valid


def test_cut_eliminate_rejects_output_the_kernel_rejects(monkeypatch):
    # the pipeline's last check: same endsequent, but no R12r derivation
    monkeypatch.setattr(tf, "_prune_lc", lambda d: parse_derivation(f'(refax [0] "{d.sequent}")'))
    with pytest.raises(tf.TransformError, match="fails to check in R12r"):
        tf.cut_eliminate_pipeline(valid_spine(3))


def test_cut_eliminate_renormalizes_once_per_pass(monkeypatch):
    # premiss order is set where a pass starts, never again per node, so a
    # taller input takes no more calls
    calls = []
    renormalize = tf.renormalize
    monkeypatch.setattr(tf, "renormalize", lambda d, spec: calls.append(spec) or renormalize(d, spec))
    counts = []
    for n in (10, 60):
        calls.clear()
        tf.cut_eliminate_pipeline(valid_spine(n))
        counts.append(len(calls))
    assert counts[0] == counts[1]


# -- right-hand-side normalization


def test_right_normalize_identity_on_compliant_input():
    d = parse_derivation(
        '(rep2r [0;0;1] "b=a |- a=b"\n  (refax [0] "b=a |- a=a"))'
    )
    out = tf.right_normalize(d)
    assert out == tf.renormalize(d, R12r)


def test_right_normalize_single_undesired_inference():
    # rewrite the left-hand side of the succedent equality once
    d = parse_derivation(
        '(rep2r [0;0;0] "a=b, b=c |- a=c"\n  (init [1;0] "a=b, b=c |- b=c"))'
    )
    assert check(d, R12r).valid
    out = tf.right_normalize(d)
    rep = check(out, PRESETS["R12r_eqr"])
    assert rep.valid
    assert out.sequent == d.sequent


def test_right_normalize_random_corpus():
    rng = random.Random(13)
    n = 0
    for _ in range(200):
        d = grow(rng, R12r, depth=5)
        if len(d.sequent.succ) != 1 or not isinstance(d.sequent.succ[0], Eq):
            continue
        out = tf.right_normalize(d)
        assert check(out, PRESETS["R12r_eqr"]).valid
        assert out.sequent == d.sequent
        n += 1
    assert n >= 40


def test_right_normalize_precondition():
    with pytest.raises(tf.PreconditionError):
        tf.right_normalize(parse_derivation('(init [0;0] "P(a) |- P(a)")'))


# -- scope restriction


def test_scope_restrict_height_zero():
    d = parse_derivation('(init [0;0] "P(a) |- P(a)")')
    assert tf.scope_restrict(d) == d


def test_scope_restrict_inserts_initial_left_inference():
    d = parse_derivation(
        '(rep1r [0;0;0] "a=b, Q(a) |- Q(b)"\n  (init [1;0] "a=b, Q(a) |- Q(a)"))'
    )
    out = tf.scope_restrict(d)
    rep = check(out, PRESETS["R_scope"])
    assert rep.valid
    assert out.sequent == d.sequent
    assert out.height == d.height


def test_scope_restrict_random_corpus():
    rng = random.Random(17)
    n = 0
    for _ in range(200):
        d = grow(rng, R12r, depth=5)
        if len(d.sequent.succ) != 1:
            continue
        out = tf.scope_restrict(d)
        assert check(out, PRESETS["R_scope"]).valid
        assert out.sequent == d.sequent
        n += 1
    assert n >= 40


# -- orientation of function-free goals


def test_orient_function_free_examples():
    d = tf.orient_function_free(seq("b=a |- a=b"))
    assert d.height == 1 and d.inst.rule is RuleId.REP2R
    d2 = tf.orient_function_free(seq("a=c, b=c |- a=b"))
    assert check(d2, PRESETS["R2rl"]).valid and d2.height <= 3
    d3 = tf.orient_function_free(seq("P(a), a=b |- P(b)"))
    assert d3.height == 1 and d3.inst.rule is RuleId.REP2L
    with pytest.raises(tf.UnderivableGoalError):
        tf.orient_function_free(seq("a=b, c=d |- a=d"))


# -- single-occurrence normalization


def test_single_occurrence_splits_double_replacement():
    d = parse_derivation(
        '(rep2r [0;0;0,1] "a=b |- a=a"\n  (init [0;0] "a=b |- b=b"))'
    )
    # a=a obtained from b=b by rewriting both occurrences at once
    assert not check(d, R12r).valid  # b=b is not an axiom here: fix leaf below
    d = parse_derivation(
        '(rep2r [0;0;0,1] "a=b |- a=a"\n  (refax [0] "a=b |- b=b"))'
    )
    assert check(d, R12r).valid
    out = tf.single_occurrence_normalize(d, R12r)
    assert check(out, R12r).valid
    assert out.sequent == d.sequent
    assert out.height == d.height + 1
    for nd in out.nodes():
        if nd.inst.replacement is not None:
            assert len(nd.inst.replacement.paths) == 1


def test_single_occurrence_already_single_unchanged():
    d = parse_derivation('(rep2r [0;0;1] "b=a |- a=b"\n  (refax [0] "b=a |- a=a"))')
    out = tf.single_occurrence_normalize(d, R12r)
    assert out == tf.renormalize(d, R12r)


def test_single_occurrence_keeps_height_accounting_on_corpus():
    rng = random.Random(19)
    spec = PRESETS["R2rlPlus"]
    for _ in range(80):
        d = grow(rng, spec, depth=4)
        out = tf.single_occurrence_normalize(d, spec)
        assert check(out, spec).valid
        extra = sum(
            len(nd.inst.replacement.paths) - 1
            for nd in d.nodes()
            if nd.inst.replacement is not None
        )
        # each extra occurrence adds exactly one inference on the (single) spine
        assert out.height == d.height + extra
        assert out.sequent == d.sequent


def test_single_occurrence_splits_retained_context_replacement():
    # rep keeps its context formula: the intermediate copy is weakened into
    # the child first, then each step rewrites one occurrence
    spec = PRESETS["RefRep"]
    out = prove(seq("a = b, P(b, b) |- P(a, a)"), spec, SearchLimits())
    assert isinstance(out, Proved)
    d = out.derivation
    assert any(nd.inst.rule is RuleId.REP and len(nd.inst.replacement.paths) == 2 for nd in d.nodes())
    norm = tf.single_occurrence_normalize(d, spec)
    assert check(norm, spec).valid
    assert norm.sequent == d.sequent
    assert norm.height == d.height + 1
    reps = [nd for nd in norm.nodes() if nd.inst.rule is RuleId.REP]
    assert len(reps) == 3 and all(len(nd.inst.replacement.paths) == 1 for nd in reps)


# -- excluded-index elimination and semishortening


def test_eliminate_rep1r_base_cases_match_displays():
    # case 1.2: initial sequent with the rewritten formula on both sides
    d = parse_derivation(
        '(rep1r [0;0;0] "a=b, Q(a) |- Q(b)"\n  (init [1;0] "a=b, Q(a) |- Q(a)"))'
    )
    out = tf.eliminate_rep1r_plus(d)
    assert check(out, PRESETS["R2rlPlus"]).valid
    assert out.inst.rule is RuleId.REP2LP
    # case 1.3.1: the conclusion is a reflexivity axiom
    d2 = parse_derivation(
        '(rep1r [0;0;0] "a=b |- b=b"\n  (init [0;0] "a=b |- a=b"))'
    )
    out2 = tf.eliminate_rep1r_plus(d2)
    assert out2.inst.rule is RuleId.REFAX and out2.height == 0


def test_eliminate_rep1r_requires_single_occurrence():
    d = parse_derivation(
        '(rep1r [0;0;0,1.0] "a=b, Q(b, f(b)) |- Q(b, f(b))"\n'
        '  (init [1;0] "a=b, Q(b, f(b)) |- Q(a, f(a))"))'
    )
    if check(d, PRESETS["R2rlPlus"].with_rules(RuleId.REP1R)).valid:
        with pytest.raises(tf.MultiOccurrenceError):
            tf.eliminate_rep1r_plus(d)


def test_eliminate_rep1r_random_corpus():
    rng = random.Random(29)
    spec = PRESETS["R2rlPlus"].with_rules(RuleId.REP1R)
    for _ in range(80):
        d = tf.single_occurrence_normalize(grow(rng, spec, depth=5), spec)
        out = tf.eliminate_rep1r_plus(d)
        assert check(out, PRESETS["R2rlPlus"]).valid
        assert out.sequent == d.sequent
        assert RuleId.REP1R not in out.rules_used()


def test_eliminate_rep2r_dual():
    rng = random.Random(31)
    spec = PRESETS["R1rlPlus"].with_rules(RuleId.REP2R)
    for _ in range(40):
        d = tf.single_occurrence_normalize(grow(rng, spec, depth=4), spec)
        out = tf.eliminate_rep2r_plus(d)
        assert check(out, PRESETS["R1rlPlus"]).valid
        assert RuleId.REP2R not in out.rules_used()


def test_semishorten_empty_precedence_drops_index_one():
    rng = random.Random(37)
    for _ in range(40):
        d = grow(rng, R12r, depth=4)
        out = tf.semishorten(d, PREC_NONE)
        assert check(out, PRESETS["R2rlPlus"]).valid
        assert out.sequent == d.sequent
        used = out.rules_used()
        assert RuleId.REP1R not in used and RuleId.REP1LP not in used


def test_semishorten_height_precedence():
    rng = random.Random(41)
    target = tf.semishorten_target(PREC_HEIGHT)
    for _ in range(60):
        d = grow(rng, R12r, depth=4)
        out = tf.semishorten(d, PREC_HEIGHT)
        assert check(out, target).valid
        assert out.sequent == d.sequent


def test_semishorten_compliant_input_unchanged():
    d = parse_derivation(
        '(rep2r [0;0;1] "b=a |- a=b"\n  (refax [0] "b=a |- a=a"))'
    )
    out = tf.semishorten(d, PREC_HEIGHT)
    assert out == tf.renormalize(d, R12r)


def test_translate_equality_rules_to_congruence_system():
    # the =-rule step re-expressed over the congruence rule with contraction
    d = parse_derivation(
        '(eq1 [0;0;1.0] "a = f(a), a = f(a) |- a = f(f(a))"\n'
        '  (init [0;0] "a = f(a) |- a = f(a)"))'
    )
    src = PRESETS["EqCutFree"]
    assert check(d, src).valid
    out = tf.equivalence_translate(d, src, "CngCut")
    tools = PRESETS["CngCut"].with_rules(RuleId.LC, RuleId.LW)
    assert check(out, tools).valid
    assert out.sequent == d.sequent
    assert RuleId.CNG in out.rules_used()
    # and back: the congruence simulation of a replacement runs through cut
    d2 = parse_derivation(
        '(lceq [0] "a = b, Q(a) |- Q(b)"\n'
        '  (cng [0;;0;0;"a"] "a = b, a = b, Q(a) |- Q(b)"\n'
        '    (init [0;0] "a = b |- a = b")\n'
        '    (init [1;0] "a = b, Q(a) |- Q(a)")))'
    )
    src2 = PRESETS["CngLCeq"]
    assert check(d2, src2).valid
    out2 = tf.equivalence_translate(d2, src2, "EqCutFree")
    tools2 = PRESETS["EqCutFree"].with_rules(RuleId.CUT, RuleId.LC, RuleId.LW)
    assert check(out2, tools2).valid
    assert out2.sequent == d2.sequent


def test_rename_param_reaches_under_same_named_binder():
    # a parameter is free by construction: a binder of the same name does not
    # shadow it, and the bound variable itself is left alone
    from eqseq.calculus import RuleInstance
    from eqseq.checker import Derivation
    from eqseq.syntax import Atom, BoundVar, Forall, Param, Sequent

    g = Forall("x", Atom("P", (Param("x"), BoundVar("x"))))
    d = Derivation(Sequent((g,), ()), RuleInstance(RuleId.LW, (0,)))
    out = tf._rename_param_deriv(d, "x", "z")
    assert out.sequent.ante == (Forall("x", Atom("P", (Param("z"), BoundVar("x")))),)


def test_weaken_renames_eigenparameter_in_witness_and_cut_formula():
    spec = PRESETS["G3c"].with_rules(RuleId.CUT)
    d = parse_derivation(
        '(rforall [0;_e1] "forall y. P(y) |- forall x. P(x)"\n'
        '  (cut [0;;"P(_e1)"] "forall y. P(y) |- P(_e1)"\n'
        '    (lforall [0;_e1] "forall y. P(y) |- P(_e1)"\n'
        '      (init [0;0] "P(_e1), forall y. P(y) |- P(_e1)"))\n'
        '    (init [0;0] "P(_e1) |- P(_e1)")))'
    )
    assert check(d, spec).valid
    from eqseq.syntax import Atom, Param

    w = tf.weaken_hp(d, Atom("Q", (Param("_e1"),)), "ante", spec)
    assert check(w, spec).valid
    assert w.height == d.height
    fresh = Param(w.inst.eigen)
    assert fresh != Param("_e1")
    cut = w.children[0]
    assert cut.inst.cut_formula == Atom("P", (fresh,))
    assert cut.children[0].inst.witness == fresh


# -- pinned outputs of the CLI transform ops
#
# The goldens are hand transcriptions, so they do not pin what the transforms
# print.  These digests do: each covers one op's printed outputs (or error
# lines) on seeded random inputs plus a few hand-built ones, so a refactor
# that changes a single node of any output shows here.

_PIN_RANDOM = {
    # op: (calculus of the random inputs, further command-line args, how many)
    "cut-eliminate": (R12r.with_rules(RuleId.CUT, RuleId.LC, RuleId.LCEQ), {}, 100),
    "right-normalize": (R12r, {}, 100),
    "scope-restrict": (R12r, {}, 100),
    "eliminate-rep1r": (PRESETS["R2rlPlus"].with_rules(RuleId.REP1R), {}, 100),
    "eliminate-rep2r": (PRESETS["R1rlPlus"].with_rules(RuleId.REP2R), {}, 100),
    "single-occurrence": (PRESETS["R12rl"], {"preset": "R12rl"}, 100),
    "semishorten": (R12r, {}, 100),
    "project": (PRESETS["R12rl"], {"preset": "R12rl"}, 100),
}
# (source, target) pairs, ten random inputs each
_PIN_TRANSLATE = [
    ("R12r", "RefRep2L"),
    ("R12r", "EqCutFree"),
    ("R12rl", "R12r"),
    ("R12rl", "R1rlPlus"),
    ("R12rl", "R2rlPlus"),
    ("R12rl", "RefRep"),
    ("R12rl", "RefRep2L"),
    ("R1rl", "R2rl"),
    ("R1rlPlus", "R2rl"),
    ("R2rlPlus", "R1rl"),
    ("R2rlPlus", "R12r"),
    ("RefRep", "R12r"),
    ("RefRep", "RefRep2L"),
    ("RefRep2L", "R12rl"),
    ("CngLCeq", "R12r"),
    ("EqCutFree", "RefRep"),
]
_OPERATING_CONTEXT = {
    # the initial sequent's context is the operating equality, index 1 and 2
    1: '(rep1r [0;0;1.0] "a=f(a) |- a=f(f(a))"\n  (init [0;0] "a=f(a) |- a=f(a)"))',
    2: '(rep2r [0;0;0.0] "f(a)=a |- f(f(a))=a"\n  (init [0;0] "f(a)=a |- f(a)=a"))',
}
_SYMM = '(symm [0] "b=a |- a=b"\n  (init [0;0] "a=b |- a=b"))'
_REP = '(rep [0;1;0] "a=b, P(a) |- P(b)"\n  (init [2;0] "a=b, P(a), P(b) |- P(b)"))'
# tall spines: 300 nodes, 40 for cut elimination and 60 for a translation
# into a non-native target, whose costs grow faster than the height
_TALL = print_derivation(valid_spine(300))
_PIN_FIXED = {
    "cut-eliminate": [(print_derivation(valid_spine(40)), {})],
    "right-normalize": [(print_derivation(eq_spine([1 if k % 7 else 0 for k in range(299)])), {})],
    "eliminate-rep1r": [(_OPERATING_CONTEXT[1], {}), (_TALL, {})],
    "eliminate-rep2r": [(_OPERATING_CONTEXT[2], {}), (_TALL, {})],
    "single-occurrence": [(_TALL, {"preset": "R12rl"})],
    "semishorten": [(_TALL, {})],
    "project": [(_TALL, {"preset": "R12rl"})],
    "scope-restrict": [
        ('(rep1r [0;0;0] "a=b, P(a) |- P(b)"\n  (init [1;0] "a=b, P(a) |- P(a)"))', {}),
        ('(rep2r [0;0;0] "a=b, P(b) |- P(a)"\n  (init [1;0] "a=b, P(b) |- P(b)"))', {}),
        (_TALL, {}),
    ],
    # one symmetry block per succedent rule, then the left-rule routes
    "translate": [
        (_SYMM, {"source": "base=none rules=symm", "target": target})
        for target in (
            "R1rl", "R2rl", "EqCutFree", "base=none rules=refax,eq2", "CngOnly", "RefRep2L", "RefRep",
        )
    ]
    # a left rule that keeps its context, into strict, flipped and right-rule targets
    + [(_REP, {"source": "RefRep", "target": target}) for target in ("RefRep2L", "R1rl", "R12r")]
    + [
        (_TALL, {"source": "R12r", "target": "R12rl"}),
        (print_derivation(valid_spine(60)), {"source": "R12r", "target": "R1rl"}),
    ],
}
_PINNED = {
    "cut-eliminate": "182f48705b8925df31e311472d35ba7df5a5b826689811c8a324f402f8ece0af",
    "right-normalize": "17943c2ad62e04d9324028e913d4403c0401bb3934a75700e6a0ba3c671d06e5",
    "scope-restrict": "07a32d141f71c120c1a325cdd2a526da7b803199780c3f6fb052c37f291d3796",
    "eliminate-rep1r": "4c11cc56da632a21f87e863bba74d33585d4551ffdaacb8964fd7ea68b0c7030",
    "eliminate-rep2r": "3d272c5a9c4f0e710d164456b83d28b511c4ae3c603c25f4b183d5b8a0d33142",
    "single-occurrence": "3eda84ea3aeabfb8e22f54197193d06ef46c9fe7005f779aee107b186de456eb",
    "semishorten": "010f45501af5b9b2adbf8523e89212096660ad272b21b47d811f4e55b518621a",
    "project": "f5499e402e1d21e397f7569c801fd3c3fcd6f8cb7a7093f152576a45d947f9c1",
    "translate": "2b9f91ac69356134f42f7c22dae3e32fabf2be6c9d766466c21b093fd6dff272",
}


def _pin_runs(op):
    from eqseq.cli import _TRANSFORMS

    rng = random.Random(f"pin {op}")
    if op == "translate":
        jobs = [
            (grow(rng, resolve_preset(src), depth=5), {"source": src, "target": tgt})
            for src, tgt in _PIN_TRANSLATE
            for _ in range(10)
        ]
    else:
        spec, extra, n = _PIN_RANDOM[op]
        jobs = [(grow(rng, spec, depth=5, allow_cut=True), extra) for _ in range(n)]
    jobs += [(parse_derivation(text), extra) for text, extra in _PIN_FIXED.get(op, ())]
    transform, _before = _TRANSFORMS[op]
    out = []
    for d, extra in jobs:
        args = argparse.Namespace(
            **{"preset": None, "spec": None, "prec": None, "source": None, "target": None, **extra}
        )
        out.append(print_derivation(d))
        try:
            res, target = transform(d, args, {})
        except EqSeqError as exc:
            out.append(f"{type(exc).__name__}: {exc}\n")
        else:
            out.append(f"{target.describe()}\n{print_derivation(res)}")
    return "".join(out)


@pytest.mark.parametrize("op", sorted(_PINNED))
def test_transform_outputs_pinned(op):
    text = _pin_runs(op)
    assert hashlib.sha256(text.encode()).hexdigest() == _PINNED[op]


def _self_calls(path, names=None):
    """The functions in ``path`` (those in ``names``, or all) that call
    themselves by name or as ``self.name``."""
    tree = ast.parse(pathlib.Path(path).read_text(encoding="utf-8"))
    out = []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and (names is None or fn.name in names):
            called = set()
            for c in ast.walk(fn):
                if not isinstance(c, ast.Call):
                    continue
                if isinstance(c.func, ast.Name):
                    called.add(c.func.id)
                elif isinstance(c.func, ast.Attribute) and getattr(c.func.value, "id", None) == "self":
                    called.add(c.func.attr)
            if fn.name in called:
                out.append(fn.name)
    return out


def test_no_transform_function_calls_itself():
    # every walk goes through one explicit stack, transform._run; the term
    # walks loop over explicit stacks too
    import eqseq.parser
    import eqseq.syntax

    assert _self_calls(tf.__file__) == []
    assert _self_calls(eqseq.syntax.__file__, {"subterms", "occurrences", "replace_in_term"}) == []
    assert _self_calls(eqseq.parser.__file__, {"term"}) == []


def test_tall_spines_transform_without_recursion():
    # 3,000 nodes, far past the recursion limit; every op but cut elimination,
    # whose output grows too fast for a tall input (the CLI test re-checks them)
    from eqseq.cli import _TRANSFORMS

    tall = valid_spine(3_000)
    assert tf.renormalize(tall, R12r) == tall
    weak = tf.weaken_hp(tall, parse_formula("Q(a)"), "ante", R12r)
    assert weak.height == tall.height and check(weak, R12r).valid
    extra = {
        "single-occurrence": {"preset": "R12rl"},
        "project": {"preset": "R12rl"},
        "translate": {"source": "R12r", "target": "R12rl"},
    }
    for op, (transform, _before) in _TRANSFORMS.items():
        if op == "cut-eliminate":
            continue
        d = eq_spine([1 if k % 1000 else 0 for k in range(2_999)]) if op == "right-normalize" else tall
        args = argparse.Namespace(
            **{"preset": None, "spec": None, "prec": None, "source": None, "target": None, **extra.get(op, {})}
        )
        out, _target = transform(d, args, {})
        assert out.sequent == d.sequent and out.height <= d.height, op


def test_semishorten_target_is_the_oriented_preset():
    assert tf.semishorten_target(PREC_HEIGHT) == PRESETS["R12prec_rlPlus"]
    # no precedence: the index-2 half, as semishorten's output under it
    assert tf.semishorten_target(PREC_NONE) == PRESETS["R2rlPlus"]
