import itertools
import random
import re

import pytest

from corpus import EQUIVALENT_PRESETS, criterion_7_corpus, random_function_free_sequent
from eqseq.calculus import (
    PRESETS,
    CalculusSpec,
    MovePool,
    RuleId,
    _goal_predicates,
    applicable_instances,
    expansions,
    premisses_of,
)
from eqseq.checker import check, node
from eqseq.parser import parse_sequent, print_derivation
from eqseq.search import (
    COUNTERMODEL,
    DEFAULT_HOOKS,
    Chain,
    DecidedUnderivable,
    Exhausted,
    FunctionSymbolsPresentError,
    MalformedWitnessError,
    NonAtomicGoalError,
    Proved,
    S1_HOOK,
    S2_HOOK,
    SearchError,
    SearchLimits,
    Signature,
    WitnessPlan,
    bounded_search,
    chain_extract,
    chain_to_derivation,
    decide_function_free,
    default_universe,
    exact_decide,
    forward_conclusions,
    forward_pair_conclusions,
    prove,
    refuted_by_countermodel,
    saturate_forward,
    sequent_terms,
)
from eqseq.syntax import Eq, FunApp, Param, Sequent, closed_terms


def seq(text):
    return parse_sequent(text)


R12r = PRESETS["R12r"]
R2rl = PRESETS["R2rl"]


def test_prove_witness_sequent_minimal_height():
    out = prove(seq("a=c, b=c |- a=b"), R12r, SearchLimits(max_depth=3))
    assert isinstance(out, Proved)
    assert out.derivation.height == 1
    assert check(out.derivation, R12r).valid


def test_prove_reflexivity_leaf():
    out = prove(seq("|- t=t"), R12r, SearchLimits(max_depth=2))
    assert isinstance(out, Proved)
    assert out.derivation.inst.rule is RuleId.REFAX


def test_prove_cut_free_counterexample_exhausts():
    out = prove(seq("a=f(a) |- a=f(f(a))"), PRESETS["EqCutFree"], SearchLimits(max_depth=8, term_height=4))
    assert isinstance(out, Exhausted)
    assert not out.budget_exceeded


def test_budget_exceeded_reported():
    out = prove(
        seq("a=f(a) |- a=f(f(a))"),
        PRESETS["EqCutFree"],
        SearchLimits(max_depth=8, term_height=4, node_budget=3),
    )
    assert isinstance(out, Exhausted) and out.budget_exceeded


def test_s1_s2_hooks():
    assert prove(seq("a=c, b=c |- a=b"), PRESETS["S1"], SearchLimits()) == DecidedUnderivable("s1-shape")
    assert prove(seq("c=b, c=a |- a=b"), PRESETS["S2"], SearchLimits()) == DecidedUnderivable("s2-shape")
    # ... while both are provable with full repetition
    assert isinstance(prove(seq("a=c, b=c |- a=b"), R12r, SearchLimits(max_depth=2)), Proved)
    assert isinstance(prove(seq("c=b, c=a |- a=b"), R12r, SearchLimits(max_depth=2)), Proved)


def test_identity_hook_covers_cut_systems():
    out = prove(seq("f(a)=f(a) |- a=f(a)"), PRESETS["EqCut"], SearchLimits())
    assert out == DecidedUnderivable("identity-antecedent")
    out2 = prove(seq("t=t |- a=b"), PRESETS["CngCut"], SearchLimits())
    assert out2 == DecidedUnderivable("identity-antecedent")


def _closure_fixpoint(base, funcs, height_bound):
    """Every application of ``funcs`` to terms of ``base``, added until none
    is new: the reference for the level-by-level closure."""
    grown = True
    while grown:
        grown = False
        for sym, arity in funcs:
            for args in itertools.product(list(base), repeat=arity):
                t = FunApp(sym, args)
                if t.height <= height_bound and t not in base:
                    base.add(t)
                    grown = True
    return base


def test_default_universe_closure():
    uni = default_universe(seq("a=f(a) |- a=f(f(a))"), 3)
    names = sorted(str(t) for t in uni)
    assert names == ["a", "f(a)", "f(f(a))", "f(f(f(a)))"]
    # a binary symbol, and a constant applied to no argument
    for text, funcs, sizes in (
        ("f(a) = b |- g(b, b) = g(f(a), b)", [("f", 1), ("g", 2)], (8, 74)),
        ("P(c(), h(a, c())) |- P(a, a)", [("c", 0), ("h", 2)], (3, 11)),
    ):
        goal = seq(text)
        for height, size in enumerate(sizes, 1):
            uni = default_universe(goal, height)
            base = {t for t in sequent_terms(goal) if t.height <= height}
            assert len(uni) == size
            assert uni == _closure_fixpoint(base, funcs, height)
    assert len(default_universe(seq("f(a) = b |- g(b, b) = g(f(a), b)"), 3)) == 5_552


def test_search_walks_each_formula_once(monkeypatch):
    # the move pool keeps the terms of each formula: one search walks the
    # goal once for its universe, and each distinct formula once for its moves
    import eqseq.calculus
    import eqseq.search

    walked, universes = [], []
    monkeypatch.setattr(eqseq.calculus, "closed_terms", lambda f: walked.append(f) or closed_terms(f))
    monkeypatch.setattr(eqseq.search, "sequent_terms", lambda s: universes.append(s) or sequent_terms(s))
    out = bounded_search(seq("forall x. " * 50 + "P(x) |- P(a)"), PRESETS["G3cR12r"], SearchLimits())
    assert isinstance(out, Exhausted) and out.expansions > 100
    assert len(universes) == 1
    assert walked and len(walked) == len(set(walked))


def test_saturation_refax_only():
    sig = Signature(params=("a", "b"), max_ante=1, max_succ=1)
    res = saturate_forward(sig, PRESETS["R12r"].with_rules(without=(RuleId.REP1R, RuleId.REP2R)), SearchLimits(term_height=1))
    assert res.fixpoint
    for s in res.derived:
        ok_refax = any(isinstance(f, Eq) and f.lhs == f.rhs for f in s.succ)
        ok_init = any(f in s.ante for f in s.succ)
        assert ok_refax or ok_init


def test_saturation_excludes_the_counterexample():
    goal = seq("a=f(a) |- a=f(f(a))")
    sig = Signature.from_goal(goal, max_ante=1, max_succ=1)
    res = saturate_forward(sig, PRESETS["EqCutFree"], SearchLimits(term_height=4, node_budget=200_000))
    assert res.fixpoint
    assert goal not in res
    assert seq("a=f(a) |- a=f(a)") in res


def test_saturation_agrees_with_prove_on_small_pool():
    goal = seq("a=f(a) |- a=f(f(a))")
    sig = Signature.from_goal(goal, max_ante=1, max_succ=1)
    spec = PRESETS["EqCutFree"]
    res = saturate_forward(sig, spec, SearchLimits(term_height=2, node_budget=100_000))
    assert res.fixpoint
    lim = SearchLimits(max_depth=5, term_height=2)
    pool = sorted(
        (s for s in _pool(sig, 2)), key=str
    )
    for s in pool:
        outcome = prove(s, spec, lim)
        assert isinstance(outcome, Proved) == (s in res), str(s)


# every spec the forward oracle covers: the unflagged presets with base none,
# and the structural rules that no preset has
ORACLE_SPECS = {name: spec for name, spec in PRESETS.items() if spec.base == "none" and not spec.flags}
ORACLE_SPECS["symm-lw-rw-rc"] = CalculusSpec(rules=frozenset({RuleId.SYMM, RuleId.LW, RuleId.RW, RuleId.RC}))


def _random_pool_sequent(rng, atoms, max_ante=3):
    ante = rng.choices(atoms, k=rng.randint(0, max_ante))
    return Sequent(tuple(ante), tuple(rng.choices(atoms, k=rng.randint(1, 2))))


@pytest.mark.parametrize("name", ORACLE_SPECS)
def test_forward_steps_are_the_backward_instances(name):
    # rule by rule over one atom pool: each backward instance of a seeded
    # conclusion is a forward step from its premisses, and each forward step
    # from such a premiss has a backward instance with that premiss
    spec = ORACLE_SPECS[name]
    sig = Signature(params=("a", "b", "c"), funcs=(("f", 1),), preds=(("P", 1),))
    atoms, universe = sig.atom_pool(1), frozenset(sig.universe(1))
    single = spec.with_rules(without=(RuleId.CUT, RuleId.CNG))  # the rules of forward_conclusions
    rng, pool = random.Random(27), MovePool()
    premisses = []
    for k in range(150):
        c = _random_pool_sequent(rng, atoms)
        # the cut and cng instances are many: those of the first 15 conclusions
        for inst, ps in expansions(c, spec if k < 15 else single, universe):
            if len(ps) == 2:
                assert c in forward_pair_conclusions(*ps, spec), (str(c), inst)
            elif ps:
                assert c in forward_conclusions(ps[0], spec, atoms), (str(c), inst)
                if ps[0] not in premisses:
                    premisses.append(ps[0])
    for p in premisses[:40]:
        for c in set(forward_conclusions(p, spec, atoms)):
            assert any(ps == [p] for _, ps in expansions(c, single, universe, pool)), (str(p), str(c))
    if spec.rules & {RuleId.CUT, RuleId.CNG}:
        for _ in range(15):
            p1 = _random_pool_sequent(rng, atoms, max_ante=1)
            p2 = _random_pool_sequent(rng, atoms, max_ante=0)
            p2 = Sequent((rng.choice(p1.succ),), p2.succ)
            for c in set(forward_pair_conclusions(p1, p2, spec)):
                # backward cut formulas use only the conclusion's predicates
                if _goal_predicates(c) >= _goal_predicates(p1) | _goal_predicates(p2):
                    instances = expansions(c, spec, universe, pool)
                    assert any(ps == [p1, p2] for _, ps in instances), (str(p1), str(p2), str(c))


def test_saturation_keeps_the_counterexample_shapes_underivable():
    # S1 and S2 each derive the other's counterexample, never their own; the
    # retained copy of a context needs a third antecedent formula
    sig = Signature(params=("a", "b", "c"), max_ante=3, max_succ=1)
    s1, s2 = "a=c, b=c |- a=b", "c=a, c=b |- a=b"
    for name, hook, own, mirror in (("S1", S1_HOOK, s1, s2), ("S2", S2_HOOK, s2, s1)):
        res = saturate_forward(sig, PRESETS[name], SearchLimits(term_height=1))
        assert res.fixpoint and seq(own) not in res, name
        assert not [str(s) for s in res.derived if hook.matches(s)], name
        assert seq(mirror) in res and isinstance(prove(seq(mirror), PRESETS[name], SearchLimits(2)), Proved), name


@pytest.mark.parametrize("name", ["CngOnly", "CngCut", "EqCut", "CngLCeq"])
def test_saturation_with_pair_rules_derives_the_valid_pool_sequents(name):
    # complete on function-free atomic sequents: the pool sequents derived
    # are the ones no countermodel refutes
    sig = Signature(params=("a", "b", "c"), max_ante=1, max_succ=1)
    res = saturate_forward(sig, PRESETS[name], SearchLimits(term_height=1))
    pool = _pool(sig, 1)
    assert res.fixpoint and len(pool) == 100
    assert res.derived == {s for s in pool if not refuted_by_countermodel(s)}
    assert len(res.derived) == 42


def test_saturation_reports_a_stop_at_the_node_budget():
    sig = Signature(params=("a", "b"), max_ante=1, max_succ=1)
    res = saturate_forward(sig, R12r, SearchLimits(term_height=1, node_budget=3))
    assert not res.fixpoint and res.expansions == 4


def test_saturation_refuses_what_its_rules_do_not_check():
    sig = Signature(params=("a", "b"), max_ante=1, max_succ=1)
    with pytest.raises(SearchError, match="base=none"):
        saturate_forward(sig, PRESETS["G3cR12r"], SearchLimits(term_height=1))
    with pytest.raises(SearchError, match="ctx-eq, ctx-noneq, eqr"):
        saturate_forward(sig, PRESETS["R_scope_eqr"], SearchLimits(term_height=1))
    with pytest.raises(SearchError, match="oriented"):
        saturate_forward(sig, PRESETS["R12prec_rlPlus"], SearchLimits(term_height=1))


def _pool(sig, height):
    from eqseq.search import _pool_sequents

    return _pool_sequents(sig, sig.atom_pool(height))


def test_decide_examples():
    plan = decide_function_free(seq("a=c, b=c |- a=b"))
    assert isinstance(plan, WitnessPlan)
    assert [str(e) for e, _fwd in plan.chains[0].links] == ["a = c", "b = c"]

    plan2 = decide_function_free(seq("a=b, P(a) |- P(b)"))
    assert isinstance(plan2, WitnessPlan)
    assert plan2.witness_index == 1
    assert len(plan2.chains) == 1 and len(plan2.chains[0]) == 1

    out = decide_function_free(seq("a=b, c=d |- a=d"))
    assert isinstance(out, DecidedUnderivable)


def test_decide_validates_preconditions():
    with pytest.raises(FunctionSymbolsPresentError):
        decide_function_free(seq("a=f(a) |- a=a"))
    with pytest.raises(NonAtomicGoalError):
        decide_function_free(seq("a=b |- P(a) & P(b)"))
    with pytest.raises(NonAtomicGoalError):
        decide_function_free(seq("a=b |- a=b, b=a"))


def test_chain_extract():
    gamma = seq("b=a |- ").ante
    chain = chain_extract(gamma, Param("a"), Param("b"))
    assert chain is not None and len(chain) == 1 and chain.links[0][1] is False
    assert chain_extract((), Param("a"), Param("a")) == Chain(Param("a"), Param("a"), ())
    assert chain_extract(gamma, Param("a"), Param("c")) is None


def test_chain_to_derivation_lemma_shapes():
    # one flipped link: a single index-2 right inference over a reflexivity axiom
    plan = decide_function_free(seq("b=a |- a=b"))
    d = chain_to_derivation(plan)
    assert check(d, R2rl).valid and d.height == 1
    assert d.inst.rule is RuleId.REP2R

    plan2 = decide_function_free(seq("a=b, P(a) |- P(b)"))
    d2 = chain_to_derivation(plan2)
    assert check(d2, R2rl).valid and d2.height == 1
    assert d2.inst.rule is RuleId.REP2L


def test_chain_to_derivation_shared_links():
    goal = seq("P(x, y), x=c, y=c, c=b |- P(b, b)")
    plan = decide_function_free(goal)
    d = chain_to_derivation(plan)
    assert check(d, R2rl).valid
    assert d.sequent == goal


def _chain_goal(links, carry, forward):
    """``bench/gen.py``'s chain goal ``q0 = q1, ..., q(n-1) = qn |- q0 = qn``
    (or carrying ``Q(q0)`` to ``Q(qn)``), with link i stored as
    ``qi = q(i+1)`` when ``forward(i)`` and reversed otherwise."""
    names = [f"q{k}" for k in range(links + 1)]
    ante = [f"{x}={y}" if forward(i) else f"{y}={x}" for i, (x, y) in enumerate(zip(names, names[1:]))]
    if carry:
        return seq(", ".join(ante + [f"Q({names[0]})"]) + f" |- Q({names[-1]})")
    return seq(", ".join(ante) + f" |- {names[0]}={names[-1]}")


CHAIN_SHAPES = {
    "forward": lambda i: True,
    "reversed": lambda i: False,
    "alternating": lambda i: i % 2 == 0,
}


@pytest.mark.parametrize("carry", [False, True], ids=["eq", "atom"])
@pytest.mark.parametrize("shape", sorted(CHAIN_SHAPES))
@pytest.mark.parametrize("links", range(1, 31))
def test_chain_to_derivation_height_at_most_the_links(links, shape, carry):
    goal = _chain_goal(links, carry, CHAIN_SHAPES[shape])
    plan = decide_function_free(goal)
    assert sum(len(c) for c in plan.chains) == links
    d = chain_to_derivation(plan)
    assert check(d, R2rl).valid and d.sequent == goal
    assert d.height <= links


def test_chain_to_derivation_height_bound_on_random_goals():
    rng = random.Random(2024)
    for _ in range(300):
        goal = random_function_free_sequent(rng, n_params=6, n_eqs=4, n_atoms=3)
        plan = decide_function_free(goal)
        if isinstance(plan, DecidedUnderivable):
            continue
        n = sum(len(c) for c in plan.chains)
        d = chain_to_derivation(plan)
        assert check(d, R2rl).valid and d.sequent == goal, str(goal)
        assert d.height <= (n if len(plan.chains) == 1 else 2 * n + 1), str(goal)


def test_chain_to_derivation_rejects_malformed_plans(monkeypatch):
    goal = seq("b=a, b=c |- a=c")
    b_a, b_c = goal.ante
    # a chain may not pass through a term twice
    looping = Chain(Param("a"), Param("c"), ((b_a, False), (b_a, True), (b_a, False), (b_c, True)))
    with pytest.raises(MalformedWitnessError, match="visits a term twice"):
        chain_to_derivation(WitnessPlan(goal, None, (looping,)))
    # a witness the kernel rejects is not returned
    import eqseq.search as search_mod
    from eqseq.checker import CheckReport

    monkeypatch.setattr(search_mod, "check", lambda d, spec: CheckReport(False, d.height))
    with pytest.raises(MalformedWitnessError):
        chain_to_derivation(decide_function_free(goal))


def _malformed_plans():
    """(message, plan) for each check of ``_validate_plan`` but the loop one."""
    eq_goal, atom_goal = seq("b=a, b=c |- a=c"), seq("a=b, P(b) |- P(a)")
    b_a, b_c = eq_goal.ante
    a, b, c = Param("a"), Param("b"), Param("c")
    a_a = Eq(a, a)
    a_to_c = Chain(a, c, ((b_a, False), (b_c, True)))
    b_to_a = Chain(b, a, ((atom_goal.ante[0], False),))
    return [
        ("equality goal needs exactly one chain", WitnessPlan(eq_goal, None, (a_to_c, a_to_c))),
        ("chain endpoints do not match the goal", WitnessPlan(eq_goal, None, (Chain(c, a, ()),))),
        ("witness index given for an equality goal", WitnessPlan(eq_goal, 0, (a_to_c,))),
        ("witness index out of range", WitnessPlan(atom_goal, 2, (b_to_a,))),
        ("witness atom does not match the goal", WitnessPlan(atom_goal, 0, (b_to_a,))),
        ("one chain per argument required", WitnessPlan(atom_goal, 1, ())),
        ("chain endpoints do not match", WitnessPlan(atom_goal, 1, (Chain(a, b, ()),))),
        (f"link {a_a} not in the antecedent", WitnessPlan(eq_goal, None, (Chain(a, c, ((a_a, True),)),))),
        ("chain links do not connect", WitnessPlan(eq_goal, None, (Chain(a, c, ((b_c, True),)),))),
        ("chain does not reach its endpoint", WitnessPlan(eq_goal, None, (Chain(a, c, ((b_a, False),)),))),
    ]


@pytest.mark.parametrize("message, plan", _malformed_plans(), ids=[m for m, _ in _malformed_plans()])
def test_chain_to_derivation_names_each_malformation(message, plan):
    with pytest.raises(MalformedWitnessError, match=f"^malformed-witness: {re.escape(message)}$"):
        chain_to_derivation(plan)


def test_exact_decide_matches_decision_procedure():
    rng = random.Random(5)
    for _ in range(40):
        goal = random_function_free_sequent(rng, n_params=4, n_eqs=3, n_atoms=2)
        verdict = decide_function_free(goal)
        exact = exact_decide(goal, R12r, SearchLimits(node_budget=20_000))
        assert exact.decided
        assert exact.derivable == isinstance(verdict, WitnessPlan), str(goal)


def test_exact_decide_marks_a_derivable_goal_before_its_space_is_explored():
    # closed by init: marked on expansion, the rest of its 1,152 states unexplored
    goal = seq("p0 = p1, p0 = p1, p0 = p0, p0 = p0, Q(p1), R(p0, p0), Q(p0) |- R(p0, p0)")
    assert exact_decide(goal, R2rl, SearchLimits(node_budget=50_000)) == (True, True, 1)
    # their spaces are larger than the budget
    for text, name in [("a=c, b=c |- a=b", "R12rlPlus"), ("b=a |- a=b", "RefRep")]:
        exact = exact_decide(seq(text), PRESETS[name], SearchLimits(node_budget=2000))
        assert exact.decided and exact.derivable, (text, name)


@pytest.mark.parametrize(
    "name, at_least", [("R12rl", 18), ("R2rl", 18), ("CngLCeq", 15), ("RefRep", 11), ("RefRep2L", 11)]
)
def test_exact_decide_on_criterion_7_agrees_with_the_decision_procedure(name, at_least):
    decided = 0
    for goal in criterion_7_corpus():
        exact = exact_decide(goal, PRESETS[name], SearchLimits(term_height=1, node_budget=60))
        if exact.decided:
            decided += 1
            assert exact.derivable == isinstance(decide_function_free(goal), WitnessPlan), str(goal)
        else:
            assert exact == (False, False, 61)  # stopped at the first state over the budget
    assert decided >= at_least


def test_proved_derivations_always_check():
    rng = random.Random(6)
    for _ in range(25):
        goal = random_function_free_sequent(rng, n_params=4, n_eqs=3, n_atoms=2)
        out = prove(goal, R12r, SearchLimits(max_depth=4, term_height=1))
        if isinstance(out, Proved):
            assert check(out.derivation, R12r).valid
            assert out.derivation.sequent == goal


def test_countermodel_refutes_exactly_the_invalid_function_free_goals():
    rng = random.Random(7)
    for _ in range(40):
        goal = random_function_free_sequent(rng, n_params=4, n_eqs=3, n_atoms=2)
        invalid = isinstance(decide_function_free(goal), DecidedUnderivable)
        assert refuted_by_countermodel(goal) == invalid, str(goal)
        out = prove(goal, R12r, SearchLimits(max_depth=4, term_height=1))
        if invalid:
            assert out == DecidedUnderivable(COUNTERMODEL), str(goal)
        else:
            assert not isinstance(out, DecidedUnderivable), str(goal)


@pytest.mark.parametrize(
    "text, refuted",
    [
        ("a = b |- a = c, P(a)", True),  # no succedent formula follows
        ("a = b, P(b) |- a = c, P(a)", False),
        ("a = b |-", True),  # an atomic antecedent is satisfiable
        ("P(a) |- Q(a)", True),
        ("|- a = b", True),
        ("|- a = a", False),
        ("a = f(b) |- a = b", False),  # function symbols: nothing claimed
        ("bot |- a = b", False),  # not atomic: nothing claimed
    ],
)
def test_countermodel_scope(text, refuted):
    assert refuted_by_countermodel(seq(text)) is refuted


def test_prove_refutes_before_the_search():
    goal, lim = seq("p3 = p0, p2 = p3 |- p0 = p1"), SearchLimits(4, 1)
    assert prove(goal, R12r, lim) == DecidedUnderivable(COUNTERMODEL)
    out = bounded_search(goal, R12r, lim)
    assert isinstance(out, Exhausted) and not out.budget_exceeded
    # shape hooks still answer first
    assert prove(seq("a=c, b=c |- a=b"), PRESETS["S1"], lim) == DecidedUnderivable("s1-shape")


def _reference_prove(goal, spec, lim, hooks=DEFAULT_HOOKS):
    """The search loop without a move table: every node recomputes its
    instances with ``applicable_instances`` and their premisses with
    ``premisses_of``, whatever its depth."""
    active = [h for h in hooks if h.covers(spec)]
    for h in active:
        if h.matches(goal):
            return DecidedUnderivable(h.name)
    universe = lim.universe if lim.universe is not None else default_universe(goal, lim.term_height)
    proved = {}
    used, budget_hit = 0, False

    def search(s, depth, failed):
        nonlocal used, budget_hit
        if s in proved and proved[s].height <= depth:
            return proved[s]
        if failed.get(s, -1) >= depth:
            return None
        used += 1
        if used > lim.node_budget:
            budget_hit = True
            return None
        for h in active:
            if h.matches(s):
                failed[s] = lim.max_depth
                return None
        for inst in applicable_instances(s, spec, universe | sequent_terms(s)):
            premisses = premisses_of(s, inst, spec)
            if premisses and depth <= 0:
                continue
            children = []
            for p in premisses:
                sub = search(p, depth - 1, failed)
                if sub is None:
                    break
                children.append(sub)
            else:
                proved[s] = node(s, inst, *children)
                return proved[s]
            if budget_hit:
                return None
        failed[s] = max(failed.get(s, -1), depth)
        return None

    memo_peak = 0
    for bound in range(lim.max_depth + 1):
        failed = {}
        found = search(goal, bound, failed)
        memo_peak = max(memo_peak, len(failed) + len(proved))
        if found is not None:
            return Proved(found)
        if budget_hit:
            break
    return Exhausted(expansions=used, memo_size=memo_peak, budget_exceeded=budget_hit)


def _assert_same_search(goal, spec, lim):
    want, got = _reference_prove(goal, spec, lim), bounded_search(goal, spec, lim)
    assert type(got) is type(want), str(goal)
    if isinstance(want, Proved):
        assert print_derivation(got.derivation) == print_derivation(want.derivation), str(goal)
    else:
        assert got == want, str(goal)  # Exhausted: expansions, memo_size, budget_exceeded
    return got


@pytest.mark.parametrize("name", EQUIVALENT_PRESETS)
def test_prove_matches_the_tableless_search(name):
    # CngLCeq's two large exhausted searches are cut by the budget here
    budget = 400 if name == "CngLCeq" else 60_000
    lim = SearchLimits(max_depth=4, term_height=1, node_budget=budget)
    for goal in criterion_7_corpus():
        _assert_same_search(goal, PRESETS[name], lim)


@pytest.mark.parametrize(
    "text, name, depth, height",
    [
        ("a = f(a) |- a = f(f(a))", "EqCutFree", 8, 4),
        ("a = f(a), a = f(a) |- a = f(f(a))", "EqCutFree", 3, 4),
        ("a = c, b = c |- a = b", "S1", 4, 1),
        ("c = b, c = a |- a = b", "S2", 4, 1),
        ("a = b, P(a) |- P(b)", "CngCut", 2, 1),
        ("a = b, a = b, P(a) |- P(b)", "CngLCeq", 2, 1),
        # a sequent proved higher up must not serve where less depth is left
        ("p0 = p2, Q(p2) |- p1 = p0", "CngLCeq", 4, 1),
    ],
)
def test_prove_matches_the_tableless_search_on_witnesses(text, name, depth, height):
    _assert_same_search(seq(text), PRESETS[name], SearchLimits(depth, height))


@pytest.mark.parametrize("name, budget", [("R12rlPlus", 60), ("CngLCeq", 150)])
def test_prove_matches_the_tableless_search_when_the_budget_runs_out(name, budget):
    goal = seq("p3 = p0, p2 = p3 |- p0 = p1")
    out = _assert_same_search(goal, PRESETS[name], SearchLimits(4, 1, node_budget=budget))
    assert isinstance(out, Exhausted) and out.budget_exceeded
