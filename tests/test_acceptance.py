"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""
import pathlib
import random
import time

from corpus import EQUIVALENT_PRESETS, criterion_7_corpus, grow, random_function_free_sequent
from eqseq.calculus import (
    PRESETS,
    PREC_HEIGHT,
    RuleId,
    applicable_instances,
    premisses_of,
    resolve_spec,
)
from eqseq.checker import check
from eqseq.parser import parse_derivation, parse_formula, parse_sequent
from eqseq.search import (
    DecidedUnderivable,
    Exhausted,
    Proved,
    SearchLimits,
    Signature,
    WitnessPlan,
    decide_function_free,
    exact_decide,
    prove,
    saturate_forward,
    _shape_s1,
    _shape_s2,
)
from eqseq.syntax import Eq, Param, Sequent, is_identity
import eqseq.transform as tf

GOLDEN = pathlib.Path(__file__).parent / "golden"
R12r = PRESETS["R12r"]


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def seq(text):
    return parse_sequent(text)


def test_criterion_1_golden_derivations():
    t0 = time.monotonic()
    files = sorted(GOLDEN.glob("*.drv"))
    bad = []
    for path in files:
        text = path.read_text(encoding="utf-8")
        spec_line = next(l for l in text.splitlines() if l.startswith("# check:"))
        spec = resolve_spec(spec_line.split(":", 1)[1].strip())
        rep = check(parse_derivation(text), spec)
        if not rep.valid:
            bad.append((path.name, str(rep.first_error)))
    elapsed = time.monotonic() - t0
    ok = len(files) >= 20 and not bad and elapsed < 1.0
    _report(
        1,
        "golden derivations",
        ok,
        f"{len(files) - len(bad)}/{len(files)} valid in {elapsed:.2f}s (need >=20, <1s){bad or ''}",
    )


def test_criterion_2_necessity_of_repetition():
    t0 = time.monotonic()
    spec = PRESETS["EqCutFree"]
    out = prove(seq("a=f(a) |- a=f(f(a))"), spec, SearchLimits(max_depth=8, term_height=4))
    exhausted = isinstance(out, Exhausted) and not out.budget_exceeded
    expanded = prove(
        seq("a=f(a), a=f(a) |- a=f(f(a))"), spec, SearchLimits(max_depth=3, term_height=4)
    )
    one_step = isinstance(expanded, Proved) and expanded.derivation.height == 1
    # identity propagation over the full saturation pool at term height <= 3
    sig = Signature(params=("a",), funcs=(("f", 1),), max_ante=2, max_succ=1)
    res = saturate_forward(sig, spec, SearchLimits(term_height=3, node_budget=500_000))
    propagated = res.fixpoint
    for s in res.derived:
        if s.ante and all(is_identity(f) for f in s.ante):
            for f in s.succ:
                if isinstance(f, Eq) and not is_identity(f):
                    propagated = False
    elapsed = time.monotonic() - t0
    ok = exhausted and one_step and propagated and elapsed < 30
    _report(
        2,
        "necessity of repetition",
        ok,
        f"cut-free exhausted={exhausted}, expanded height-1={one_step}, "
        f"identity propagation={propagated}, pool={res.pool_size}, {elapsed:.1f}s (<30s)",
    )


def _random_s1_shape(rng):
    a, b, c = Param("a"), Param("b"), Param("c")
    pool = [Eq(a, c), Eq(b, c), Eq(c, c)]
    ante = tuple(rng.choice(pool) for _ in range(rng.randint(0, 4)))
    return Sequent(ante, (Eq(a, b),))


def _random_s2_shape(rng):
    a, b, c = Param("a"), Param("b"), Param("c")
    pool = [Eq(c, a), Eq(c, b), Eq(c, c)]
    ante = tuple(rng.choice(pool) for _ in range(rng.randint(0, 4)))
    return Sequent(ante, (Eq(a, b),))


def test_criterion_3_counterexample_shapes():
    rng = random.Random(99)
    universe = [Param("a"), Param("b"), Param("c")]
    closed = True
    leaf_free = True
    for make, shape, preset in (
        (_random_s1_shape, _shape_s1, PRESETS["S1"]),
        (_random_s2_shape, _shape_s2, PRESETS["S2"]),
    ):
        for _ in range(60):
            goal = make(rng)
            assert shape(goal)
            for inst in applicable_instances(goal, preset, universe):
                premisses = premisses_of(goal, inst, preset)
                if not premisses:
                    leaf_free = False
                if not all(shape(p) for p in premisses):
                    closed = False
    s1_under = prove(seq("a=c, b=c |- a=b"), PRESETS["S1"], SearchLimits()) == DecidedUnderivable(
        "s1-shape"
    )
    s2_under = prove(seq("c=b, c=a |- a=b"), PRESETS["S2"], SearchLimits()) == DecidedUnderivable(
        "s2-shape"
    )
    p1 = prove(seq("a=c, b=c |- a=b"), R12r, SearchLimits(max_depth=2))
    p2 = prove(seq("c=b, c=a |- a=b"), R12r, SearchLimits(max_depth=2))
    both_prove = isinstance(p1, Proved) and isinstance(p2, Proved)
    ok = closed and leaf_free and s1_under and s2_under and both_prove
    _report(
        3,
        "counterexample shape closure",
        ok,
        f"closure={closed}, no-leaf={leaf_free}, decided-underivable={s1_under and s2_under}, "
        f"derivable-with-repetition={both_prove}",
    )


def test_criterion_4_function_free_equivalence():
    t0 = time.monotonic()
    rng = random.Random(2024)
    n = 500
    disagreements = inconclusive = derivable_count = 0
    for _ in range(n):
        goal = random_function_free_sequent(rng, n_params=6, n_eqs=4, n_atoms=3)
        verdict = decide_function_free(goal)
        derivable = isinstance(verdict, WitnessPlan)
        sig = Signature.from_goal(goal, fixed_ante=True)
        oracle = saturate_forward(sig, R12r, SearchLimits(term_height=1, node_budget=100_000))
        if not oracle.fixpoint or (goal in oracle) != derivable:
            disagreements += 1
            continue
        if derivable:
            derivable_count += 1
            witness = tf.orient_function_free(goal)
            if not check(witness, PRESETS["R2rl"]).valid or witness.sequent != goal:
                disagreements += 1
        exact = exact_decide(goal, PRESETS["R2rl"], SearchLimits(node_budget=50_000))
        if not exact.decided:
            inconclusive += 1
        elif exact.derivable != derivable:
            disagreements += 1
    elapsed = time.monotonic() - t0
    ok = disagreements == 0 and inconclusive == 0 and elapsed < 120
    _report(
        4,
        "function-free equivalence",
        ok,
        f"{n} sequents ({derivable_count} derivable), disagreements={disagreements}, "
        f"inconclusive={inconclusive}, {elapsed:.1f}s (<120s)",
    )


def test_criterion_5_transform_round_trips():
    t0 = time.monotonic()
    rng = random.Random(55)
    failures = []

    def run(name, count, make, op, target, forbidden=()):
        done = 0
        while done < count:
            d = make()
            if d is None:
                continue
            try:
                out = op(d)
            except Exception as exc:  # pragma: no cover - report as failure
                failures.append((name, f"{type(exc).__name__}: {exc}"))
                done += 1
                continue
            rep = check(out, target)
            if not rep.valid:
                failures.append((name, str(rep.first_error)))
            elif out.sequent != d.sequent:
                failures.append((name, "endsequent changed"))
            elif set(forbidden) & out.rules_used():
                failures.append((name, "forbidden rule in output"))
            done += 1
        return done

    cut_spec = R12r.with_rules(RuleId.CUT, RuleId.LC, RuleId.LCEQ)
    total = 0
    total += run(
        "cut_eliminate", 200, lambda: grow(rng, cut_spec, depth=5, allow_cut=True),
        tf.cut_eliminate_pipeline, R12r, forbidden=(RuleId.CUT, RuleId.LC, RuleId.LCEQ),
    )

    def eq_goal():
        d = grow(rng, R12r, depth=5)
        if len(d.sequent.succ) == 1 and isinstance(d.sequent.succ[0], Eq):
            return d
        return None

    total += run("right_normalize", 200, eq_goal, tf.right_normalize, PRESETS["R12r_eqr"])

    def single_succ():
        d = grow(rng, R12r, depth=5)
        return d if len(d.sequent.succ) == 1 else None

    total += run("scope_restrict", 200, single_succ, tf.scope_restrict, PRESETS["R_scope"])

    mix = PRESETS["R2rlPlus"].with_rules(RuleId.REP1R)
    total += run(
        "eliminate_rep1r", 200,
        lambda: tf.single_occurrence_normalize(grow(rng, mix, depth=5), mix),
        tf.eliminate_rep1r_plus, PRESETS["R2rlPlus"], forbidden=(RuleId.REP1R,),
    )
    total += run(
        "semishorten", 200, lambda: grow(rng, R12r, depth=5),
        lambda d: tf.semishorten(d, PREC_HEIGHT), tf.semishorten_target(PREC_HEIGHT),
    )
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 300
    _report(
        5,
        "transform round-trips",
        ok,
        f"{total - len(failures)}/{total} derivations, {elapsed:.1f}s (<300s) {failures[:3]}",
    )


def test_criterion_6_height_preservation():
    rng = random.Random(66)
    extra = parse_formula("N(d)")
    weaken_exact = project_exact = True
    corpus = []
    for path in sorted(GOLDEN.glob("*.drv")):
        text = path.read_text(encoding="utf-8")
        spec_line = next(l for l in text.splitlines() if l.startswith("# check:"))
        corpus.append((parse_derivation(text), resolve_spec(spec_line.split(":", 1)[1].strip())))
    projected = 0
    for _ in range(120):
        corpus.append((grow(rng, R12r, depth=4), R12r))
    for d, spec in corpus:
        for side in ("ante", "succ"):
            w = tf.weaken_hp(d, extra, side, spec)
            if w.height != d.height or not check(w, spec).valid:
                weaken_exact = False
        if (
            spec.base == "none"
            and RuleId.CUT not in spec.rules
            and len(d.sequent.succ) == 1
        ):
            try:
                _a, p = tf.project_succedent(d, spec)
            except tf.PreconditionError:
                continue
            projected += 1
            if p.height != d.height or not check(p, spec).valid:
                project_exact = False
    ok = weaken_exact and project_exact and projected >= 60
    _report(
        6,
        "height-preserving admissibility",
        ok,
        f"weaken exact={weaken_exact}, projection exact={project_exact} "
        f"on {projected} single-succedent derivations",
    )


def test_criterion_7_preset_equivalence_matrix():
    t0 = time.monotonic()
    corpus = criterion_7_corpus()
    lim = SearchLimits(max_depth=4, term_height=1, node_budget=60_000)
    outcomes = {}
    for name in EQUIVALENT_PRESETS:
        spec = resolve_spec(name)
        outcomes[name] = [prove(goal, spec, lim) for goal in corpus]
    disagreements = []
    inconclusive = 0
    for i, a in enumerate(EQUIVALENT_PRESETS):
        for b in EQUIVALENT_PRESETS[i + 1 :]:
            for k, goal in enumerate(corpus):
                oa, ob = outcomes[a][k], outcomes[b][k]
                pa, pb = isinstance(oa, Proved), isinstance(ob, Proved)
                ua, ub = isinstance(oa, DecidedUnderivable), isinstance(ob, DecidedUnderivable)
                if (pa and ub) or (pb and ua):
                    disagreements.append((a, b, str(goal)))
                elif isinstance(oa, Exhausted) or isinstance(ob, Exhausted):
                    inconclusive += 1
    elapsed = time.monotonic() - t0
    ok = not disagreements
    pairs = len(EQUIVALENT_PRESETS) * (len(EQUIVALENT_PRESETS) - 1) // 2
    _report(
        7,
        "preset equivalence matrix",
        ok,
        f"{pairs} pairs x {len(corpus)} sequents: 0 confirmed disagreements expected, "
        f"got {len(disagreements)}; inconclusive={inconclusive} (permitted), {elapsed:.1f}s"
        + (f" {disagreements[:3]}" if disagreements else ""),
    )
