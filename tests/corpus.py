"""Random forward generation of derivations and sequents for tests.

Derivations are grown from axiom leaves by applying rules forward; every
growth step is validated against premisses_of, so the corpora are
checker-valid by construction.
"""
from __future__ import annotations

import random
import re

from eqseq.calculus import (
    CalculusSpec,
    RuleId,
    RuleInstance,
    leaf,
    repl_inst,
)
from eqseq.checker import Derivation, check, node
from eqseq.parser import parse_sequent
from eqseq.syntax import (
    Atom,
    Eq,
    Formula,
    FunApp,
    Param,
    Sequent,
    is_atomic,
    occurrences,
    paths_overlap,
    remove_at,
    replace_at,
    replace_formula,
)

PARAMS = tuple(Param(x) for x in "abc")


def valid_spine(n):
    """An R12r derivation of ``n`` nodes and height n-1: rep2r and rep1r
    steps alternate above the initial sequent ``a=b, P(b) |- P(b)``."""
    p_a = parse_sequent("a=b, P(b) |- P(a)")
    p_b = parse_sequent("a=b, P(b) |- P(b)")
    d = node(p_b, leaf(RuleId.INIT, 1, 0))
    for k in range(n - 1):
        # rep2r reads P(a) back as P(b), rep1r reads P(b) back as P(a)
        rule, concl = (RuleId.REP1R, p_b) if k % 2 else (RuleId.REP2R, p_a)
        d = node(concl, repl_inst(rule, 0, 0, [(0,)]), d)
    return d


def eq_spine(sides):
    """An R12r derivation of ``a=b |- x=y`` with one single-occurrence
    succedent replacement per entry of ``sides`` (0 rewrites the lhs, 1 the
    rhs), listed leafward first, above the axiom ``a=b |- b=b``."""
    seqs = {(x, y): parse_sequent(f"a=b |- {x}={y}") for x in "ab" for y in "ab"}
    state = ["b", "b"]
    d = node(seqs["b", "b"], leaf(RuleId.REFAX, 0))
    for side in sides:
        # rep2r reads a back as b, rep1r reads b back as a
        rule = RuleId.REP2R if state[side] == "b" else RuleId.REP1R
        state[side] = "a" if state[side] == "b" else "b"
        d = node(seqs[tuple(state)], repl_inst(rule, 0, 0, [(side,)]), d)
    return d


def random_term(rng: random.Random, funcs=("f",), max_height: int = 2):
    if max_height == 0 or rng.random() < 0.55:
        return rng.choice(PARAMS)
    return FunApp(rng.choice(funcs), (random_term(rng, funcs, max_height - 1),))


def random_atomic(rng: random.Random, preds=("P",), funcs=("f",), max_height: int = 2) -> Formula:
    if rng.random() < 0.6:
        return Eq(random_term(rng, funcs, max_height), random_term(rng, funcs, max_height))
    return Atom(rng.choice(preds), (random_term(rng, funcs, max_height),))


def random_leaf(rng: random.Random, spec: CalculusSpec, funcs=("f",), max_height=2) -> Derivation:
    side = [random_atomic(rng, funcs=funcs, max_height=max_height) for _ in range(rng.randint(0, 2))]
    if RuleId.REFAX in spec.rules and rng.random() < 0.5:
        t = random_term(rng, funcs, max_height)
        succ = tuple(side[:1]) + (Eq(t, t),)
        ante = tuple(side[1:])
        seq = Sequent(ante, succ)
        return node(seq, leaf(RuleId.REFAX, len(succ) - 1))
    p = random_atomic(rng, funcs=funcs, max_height=max_height)
    ante = (p,) + tuple(side[:1])
    succ = tuple(side[1:]) + (p,)
    return node(Sequent(ante, succ), leaf(RuleId.INIT, 0, len(succ) - 1))


def _choose_paths(rng: random.Random, ctx: Formula, frm) -> tuple | None:
    occ = occurrences(ctx, frm)
    rng.shuffle(occ)
    chosen = []
    for p in occ:
        if all(not paths_overlap(p, q) for q in chosen):
            chosen.append(p)
            if rng.random() < 0.6:
                break
    return tuple(sorted(chosen)) or None


def _forward_right(rng, d: Derivation, rule: RuleId, spec) -> Derivation | None:
    seq = d.sequent
    eqs = [(i, f) for i, f in enumerate(seq.ante) if isinstance(f, Eq)]
    if not eqs or not seq.succ:
        return None
    ei, e = rng.choice(eqs)
    idx = 1 if rule in (RuleId.REP1R, RuleId.EQ1) else 2
    frm, to = (e.lhs, e.rhs) if idx == 1 else (e.rhs, e.lhs)  # forward direction
    cands = [(j, f) for j, f in enumerate(seq.succ) if is_atomic(f)]
    rng.shuffle(cands)
    for j, ctx in cands:
        paths = _choose_paths(rng, ctx, frm)
        if not paths:
            continue
        new = replace_at(ctx, set(paths), frm, to)
        if rule in (RuleId.EQ1, RuleId.EQ2):
            concl = Sequent((e,) + seq.ante, replace_formula(seq.succ, j, new))
            inst = repl_inst(rule, 0, j, paths)
        else:
            concl = Sequent(seq.ante, replace_formula(seq.succ, j, new))
            inst = repl_inst(rule, ei, j, paths)
        return node(concl, inst, d)
    return None


def _forward_left(rng, d: Derivation, rule: RuleId, spec) -> Derivation | None:
    from eqseq.calculus import RULES

    seq = d.sequent
    lidx, retention = RULES[rule].index, RULES[rule].retention
    eqs = [(i, f) for i, f in enumerate(seq.ante) if isinstance(f, Eq)]
    if not eqs:
        return None
    ei, e = rng.choice(eqs)
    frm, to = (e.lhs, e.rhs) if lidx == 1 else (e.rhs, e.lhs)
    cands = [(i, f) for i, f in enumerate(seq.ante) if i != ei and is_atomic(f)]
    rng.shuffle(cands)
    for i, ctx in cands:
        keeps = retention == "keep" or (retention == "plus" and isinstance(ctx, Eq))
        paths = _choose_paths(rng, ctx, frm)
        if not paths:
            continue
        new = replace_at(ctx, set(paths), frm, to)
        if keeps:
            # forward: the premiss holds both the input (ctx) and the output;
            # grow only when the output formula is already present elsewhere
            spots = [k for k, g in enumerate(seq.ante) if k not in (ei, i) and g == new]
            if not spots:
                continue
            concl = Sequent(remove_at(seq.ante, i), seq.succ)
            k = spots[0]
            k2 = k if k < i else k - 1
            ei2 = ei if ei < i else ei - 1
            inst = repl_inst(rule, ei2, k2, paths)
            # instance rewrites the retained copy; the removed ctx was the input
            return node(concl, inst, d)
        concl = Sequent(replace_formula(seq.ante, i, new), seq.succ)
        inst = repl_inst(rule, ei, i, paths)
        return node(concl, inst, d)
    return None


def _forward_lc(rng, d: Derivation, rule: RuleId) -> Derivation | None:
    seq = d.sequent
    cands = [
        (i, f)
        for i, f in enumerate(seq.ante)
        if seq.ante.count(f) >= 2 and (rule is RuleId.LC or isinstance(f, Eq))
    ]
    if not cands:
        return None
    i, f = rng.choice(cands)
    concl = Sequent(remove_at(seq.ante, i), seq.succ)
    k = concl.ante.index(f)
    return node(concl, RuleInstance(rule, (k,)), d)


def _forward_lw(rng, d: Derivation, funcs, max_height) -> Derivation:
    f = random_atomic(rng, funcs=funcs, max_height=max_height)
    seq = d.sequent
    concl = Sequent(seq.ante + (f,), seq.succ)
    return node(concl, RuleInstance(RuleId.LW, (len(seq.ante),)), d)


def _forward_cut(rng, d1: Derivation, spec, funcs, max_height) -> Derivation | None:
    if not d1.sequent.succ:
        return None
    j = rng.randrange(len(d1.sequent.succ))
    a = d1.sequent.succ[j]
    if not is_atomic(a):
        return None
    # grow a right branch whose antecedent keeps the cut formula
    base_ante = (a, random_atomic(rng, funcs=funcs, max_height=max_height))
    p = random_atomic(rng, funcs=funcs, max_height=max_height)
    d2 = node(Sequent(base_ante + (p,), (p,)), leaf(RuleId.INIT, 2, 0))
    # only the succedent replacement rules of ``spec``; with both, the draws
    # are those of a choice between the two
    rules = tuple(r for r in (RuleId.REP1R, RuleId.REP2R) if r in spec.rules)
    for _ in range(rng.randint(0, 2) if rules else 0):
        nxt = _forward_right(rng, d2, rng.choice(rules), spec)
        if nxt is not None:
            d2 = nxt
    seq1, seq2 = d1.sequent, d2.sequent
    i2 = seq2.ante.index(a)
    concl = Sequent(seq1.ante + remove_at(seq2.ante, i2), remove_at(seq1.succ, j) + seq2.succ)
    inst = RuleInstance(
        RuleId.CUT,
        cut_formula=a,
        split=(tuple(range(len(seq1.ante))), tuple(range(len(seq1.succ) - 1))),
    )
    return node(concl, inst, d1, d2)


def grow(
    rng: random.Random,
    spec: CalculusSpec,
    depth: int,
    funcs=("f",),
    max_height: int = 2,
    allow_cut: bool = False,
) -> Derivation:
    """A random derivation of at most ``depth`` inferences, valid in ``spec``
    (checked on exit)."""
    d = random_leaf(rng, spec, funcs, max_height)
    moves = []
    for rule in (RuleId.REP1R, RuleId.REP2R, RuleId.EQ1, RuleId.EQ2):
        if rule in spec.rules:
            moves.append(("right", rule))
    for rule in (RuleId.REP1L, RuleId.REP2L, RuleId.REP, RuleId.REPP, RuleId.REP1LP, RuleId.REP2LP):
        if rule in spec.rules:
            moves.append(("left", rule))
    for rule in (RuleId.LC, RuleId.LCEQ):
        if rule in spec.rules:
            moves.append(("lc", rule))
    if RuleId.LW in spec.rules:
        moves.append(("lw", None))
    for _ in range(depth):
        if allow_cut and RuleId.CUT in spec.rules and rng.random() < 0.25:
            nxt = _forward_cut(rng, d, spec, funcs, max_height)
            if nxt is not None:
                d = nxt
                continue
        if not moves:
            break
        kind, rule = rng.choice(moves)
        if kind == "right":
            nxt = _forward_right(rng, d, rule, spec)
        elif kind == "left":
            nxt = _forward_left(rng, d, rule, spec)
        elif kind == "lc":
            nxt = _forward_lc(rng, d, rule)
        else:
            nxt = _forward_lw(rng, d, funcs, max_height)
        if nxt is not None:
            d = nxt
    rep = check(d, spec)
    assert rep.valid, f"corpus generator produced an invalid derivation: {rep.first_error}"
    return d


def random_function_free_sequent(rng: random.Random, n_params=6, n_eqs=4, n_atoms=3) -> Sequent:
    params = [Param(f"p{k}") for k in range(rng.randint(2, n_params))]
    ante = []
    for _ in range(rng.randint(0, n_eqs)):
        ante.append(Eq(rng.choice(params), rng.choice(params)))
    for _ in range(rng.randint(0, n_atoms)):
        arity = rng.randint(1, 2)
        ante.append(Atom("Q" if arity == 1 else "R", tuple(rng.choice(params) for _ in range(arity))))
    if rng.random() < 0.5 or not any(isinstance(f, Atom) for f in ante):
        goal = Eq(rng.choice(params), rng.choice(params))
    else:
        atoms = [f for f in ante if isinstance(f, Atom)]
        base = rng.choice(atoms)
        goal = Atom(base.pred, tuple(rng.choice(params) for _ in base.args))
    return Sequent(tuple(ante), (goal,))


# Presets equivalent on function-free goals (the last two by the orientation
# theorem), and the goals criterion 7 compares them on.
EQUIVALENT_PRESETS = [
    "R12r",
    "R12r_eqr",
    "R12rl",
    "R_scope",
    "R_scope_eqr",
    "R1rlPlus",
    "R2rlPlus",
    "R12rlPlus",
    "R12prec_rlPlus",
    "RefRep",
    "RefRep2L",
    "CngLCeq",
    "R1rl",
    "R2rl",
]


def criterion_7_corpus() -> list[Sequent]:
    rng = random.Random(77)
    witnesses = ("a=c, b=c |- a=b", "c=b, c=a |- a=b", "b=a |- a=b", "|- t=t")
    corpus = [parse_sequent(text) for text in witnesses]
    while len(corpus) < 18:
        corpus.append(random_function_free_sequent(rng, n_params=4, n_eqs=3, n_atoms=1))
    return corpus


# text spliced into inputs by mutate_text
SNIPPETS = [
    "(", ")", ",", "&", "|", "->", "|-", "=", "forall x. ", "exists y. ", "bot", "f(", "a", "P(", "0", "7",
    ";", "[", "]", '"', "_e1", "\u00e9", "\n",
]


def mutate_text(rng, text):
    """``text`` with one or two seeded edits: a character deleted, a snippet
    inserted, a slice repeated, or an index or a parameter changed in place
    (which keeps more inputs parsable)."""
    for _ in range(rng.randint(1, 2)):
        k = rng.randrange(len(text) + 1)
        edit = rng.randrange(5)
        if edit == 0:
            text = text[:k] + text[k + 1 :]
        elif edit == 1:
            text = text[:k] + rng.choice(SNIPPETS) + text[k:]
        elif edit == 2:
            text = text[:k] + text[k : k + rng.randint(1, 12)] + text[k:]
        else:
            spots = [m.start() for m in re.finditer(r"[0-9]" if edit == 3 else r"\b[a-e]\b", text)]
            if spots:
                k = rng.choice(spots)
                text = text[:k] + rng.choice("0123" if edit == 3 else "abcde") + text[k + 1 :]
    return text
