"""Seeded benchmark inputs, written as text in eqseq's file formats.

Derivations are grown forward from axiom leaves; each growth step applies a
rule premiss-to-conclusion, so the result is valid by construction.  Goals
are function-free sequents, equality chains and the paper's witness
sequents.  The expected verdicts come from this file alone (construction, a
union-find congruence check, hand-written expectations), never from the
package under test, and the module imports nothing from the package or from
the test suite, so a later code or test edit cannot change the inputs.

Terms are parameter names (``str``) or ``(symbol, args)`` pairs; formulas
are ``("=", lhs, rhs)`` or ``(predicate, args)``.
"""
from __future__ import annotations

import random

PARAMS = ("a", "b", "c")

# rule sets of the presets the generator grows in (independent of the
# package's preset table on purpose)
PRESET_RULES = {
    "R12r": ("refax", "rep1r", "rep2r"),
    "R12rl": ("refax", "rep1l", "rep2l", "rep1r", "rep2r"),
    "R1rlPlus": ("refax", "rep1lp", "rep1r"),
    "R2rlPlus": ("refax", "rep2lp", "rep2r"),
    "RefRep": ("refl", "rep"),
    "RefRep2L": ("refl", "rep2l"),
    "CngLCeq": ("refax", "cng", "lceq"),
}

RIGHT_INDEX = {"rep1r": 1, "rep2r": 2}
LEFT_RULES = {  # rule -> (index, retention)
    "rep1l": (1, "strict"),
    "rep2l": (2, "strict"),
    "repp": (1, "keep"),
    "rep": (2, "keep"),
    "rep1lp": (1, "plus"),
    "rep2lp": (2, "plus"),
}


def spec_text(rules) -> str:
    return "base=none rules=" + ",".join(rules)


# ---------------------------------------------------------------------------
# Syntax


def is_eq(f) -> bool:
    return f[0] == "="


def tops(f) -> tuple:
    return f[1:] if is_eq(f) else f[1]


def with_tops(f, ts):
    return ("=", ts[0], ts[1]) if is_eq(f) else (f[0], tuple(ts))


def term_str(t) -> str:
    if isinstance(t, str):
        return t
    return f"{t[0]}({', '.join(term_str(a) for a in t[1])})"


def fml_str(f) -> str:
    if is_eq(f):
        return f"{term_str(f[1])} = {term_str(f[2])}"
    return f"{f[0]}({', '.join(term_str(a) for a in f[1])})"


def seq_str(ante, succ) -> str:
    left = ", ".join(fml_str(f) for f in ante)
    right = ", ".join(fml_str(f) for f in succ)
    if left and right:
        return f"{left} |- {right}"
    if left:
        return f"{left} |-"
    return f"|- {right}" if right else "|-"


def _term_occ(t, target, prefix, acc) -> None:
    if t == target:
        acc.append(prefix)
    if not isinstance(t, str):
        for i, a in enumerate(t[1]):
            _term_occ(a, target, prefix + (i,), acc)


def occurrences(f, t) -> list:
    acc: list = []
    for i, top in enumerate(tops(f)):
        _term_occ(top, t, (i,), acc)
    return acc


def overlap(p, q) -> bool:
    n = min(len(p), len(q))
    return p[:n] == q[:n]


def _replace_term(t, rel, to):
    if not rel:
        return to
    args = list(t[1])
    args[rel[0]] = _replace_term(args[rel[0]], rel[1:], to)
    return (t[0], tuple(args))


def replace(f, paths, to):
    ts = list(tops(f))
    for p in paths:
        ts[p[0]] = _replace_term(ts[p[0]], p[1:], to)
    return with_tops(f, ts)


def remove_at(fs: tuple, i: int) -> tuple:
    return fs[:i] + fs[i + 1 :]


def paths_str(paths) -> str:
    return ",".join(".".join(str(k) for k in p) for p in paths)


# ---------------------------------------------------------------------------
# Derivations: (rule, args, ante, succ, children)


def drv_text(d, depth: int = 0) -> str:
    rule, args, ante, succ, children = d
    head = f'{"  " * depth}({rule} [{args}] "{seq_str(ante, succ)}"'
    if not children:
        return head + ")"
    return "\n".join([head] + [drv_text(c, depth + 1) for c in children]) + ")"


def random_term(rng, max_height: int = 2):
    if max_height == 0 or rng.random() < 0.55:
        return rng.choice(PARAMS)
    return ("f", (random_term(rng, max_height - 1),))


def random_atomic(rng):
    if rng.random() < 0.6:
        return ("=", random_term(rng), random_term(rng))
    return ("P", (random_term(rng),))


def random_leaf(rng, rules):
    side = [random_atomic(rng) for _ in range(rng.randint(0, 2))]
    if "refax" in rules and rng.random() < 0.5:
        t = random_term(rng)
        succ = tuple(side[:1]) + (("=", t, t),)
        return ("refax", str(len(succ) - 1), tuple(side[1:]), succ, ())
    p = random_atomic(rng)
    succ = tuple(side[1:]) + (p,)
    return ("init", f"0;{len(succ) - 1}", (p,) + tuple(side[:1]), succ, ())


def _choose_paths(rng, ctx, frm):
    occ = occurrences(ctx, frm)
    rng.shuffle(occ)
    chosen: list = []
    for p in occ:
        if all(not overlap(p, q) for q in chosen):
            chosen.append(p)
            if rng.random() < 0.6:
                break
    return tuple(sorted(chosen))


def _forward_terms(index: int, e):
    # premiss-side and conclusion-side terms read forward
    return (e[1], e[2]) if index == 1 else (e[2], e[1])


def _forward_right(rng, d, rule):
    _r, _a, ante, succ, _c = d
    eqs = [(i, f) for i, f in enumerate(ante) if is_eq(f)]
    if not eqs or not succ:
        return None
    ei, e = rng.choice(eqs)
    frm, to = _forward_terms(RIGHT_INDEX[rule], e)
    cands = list(enumerate(succ))
    rng.shuffle(cands)
    for j, ctx in cands:
        paths = _choose_paths(rng, ctx, frm)
        if paths:
            new_succ = succ[:j] + (replace(ctx, paths, to),) + succ[j + 1 :]
            return (rule, f"{ei};{j};{paths_str(paths)}", ante, new_succ, (d,))
    return None


def _forward_left(rng, d, rule):
    _r, _a, ante, succ, _c = d
    index, retention = LEFT_RULES[rule]
    eqs = [(i, f) for i, f in enumerate(ante) if is_eq(f)]
    if not eqs:
        return None
    ei, e = rng.choice(eqs)
    frm, to = _forward_terms(index, e)
    cands = [(i, f) for i, f in enumerate(ante) if i != ei]
    rng.shuffle(cands)
    for i, ctx in cands:
        paths = _choose_paths(rng, ctx, frm)
        if not paths:
            continue
        new = replace(ctx, paths, to)
        if retention == "keep" or (retention == "plus" and is_eq(ctx)):
            # the premiss holds the input and the rewritten copy; the
            # conclusion drops the input
            spots = [k for k, g in enumerate(ante) if k not in (ei, i) and g == new]
            if not spots:
                continue
            k2 = spots[0] if spots[0] < i else spots[0] - 1
            ei2 = ei if ei < i else ei - 1
            return (rule, f"{ei2};{k2};{paths_str(paths)}", remove_at(ante, i), succ, (d,))
        new_ante = ante[:i] + (new,) + ante[i + 1 :]
        return (rule, f"{ei};{i};{paths_str(paths)}", new_ante, succ, (d,))
    return None


def _forward_lc(rng, d, rule):
    _r, _a, ante, succ, _c = d
    cands = [f for f in ante if ante.count(f) >= 2 and (rule == "lc" or is_eq(f))]
    if not cands:
        return None
    f = rng.choice(cands)
    concl = remove_at(ante, ante.index(f))
    return (rule, str(concl.index(f)), concl, succ, (d,))


def _forward_refl(rng, d):
    _r, _a, ante, succ, _c = d
    ids = [i for i, f in enumerate(ante) if is_eq(f) and f[1] == f[2]]
    if not ids:
        return None
    i = rng.choice(ids)
    return ("refl", term_str(ante[i][1]), remove_at(ante, i), succ, (d,))


def _forward_cut(rng, d1):
    _r, _a, ante1, succ1, _c = d1
    if not succ1:
        return None
    j = rng.randrange(len(succ1))
    a = succ1[j]
    p = random_atomic(rng)
    # a right branch whose antecedent keeps the cut formula
    d2 = ("init", "2;0", (a, random_atomic(rng), p), (p,), ())
    for _ in range(rng.randint(0, 2)):
        nxt = _forward_right(rng, d2, rng.choice(("rep1r", "rep2r")))
        if nxt is not None:
            d2 = nxt
    ante2, succ2 = d2[2], d2[3]
    ante = ante1 + remove_at(ante2, ante2.index(a))
    succ = remove_at(succ1, j) + succ2
    args = (
        f"{','.join(map(str, range(len(ante1))))};"
        f"{','.join(map(str, range(len(succ1) - 1)))};\"{fml_str(a)}\""
    )
    return ("cut", args, ante, succ, (d1, d2))


def grow(rng, rules, depth: int, allow_cut: bool = False):
    """A derivation of at most ``depth`` inferences, valid in the calculus
    whose rules are ``rules`` (plus the initial sequents)."""
    d = random_leaf(rng, rules)
    moves = [r for r in rules if r in RIGHT_INDEX or r in LEFT_RULES or r in ("lc", "lceq", "refl")]
    for _ in range(depth):
        if allow_cut and "cut" in rules and rng.random() < 0.25:
            nxt = _forward_cut(rng, d)
            if nxt is not None:
                d = nxt
                continue
        if not moves:
            break
        rule = rng.choice(moves)
        if rule in RIGHT_INDEX:
            nxt = _forward_right(rng, d, rule)
        elif rule in LEFT_RULES:
            nxt = _forward_left(rng, d, rule)
        elif rule == "refl":
            nxt = _forward_refl(rng, d)
        else:
            nxt = _forward_lc(rng, d, rule)
        if nxt is not None:
            d = nxt
    return d


MUTANT = ("Zmut", ("zmut",))


def mutate(d):
    """An invalid copy of a derivation with at least one inference: its first
    premiss gains a formula that no rule instance of the root can produce."""
    rule, args, ante, succ, children = d
    c = children[0]
    bad = (c[0], c[1], c[2] + (MUTANT,), c[3], c[4])
    return (rule, args, ante, succ, (bad,) + children[1:])


# ---------------------------------------------------------------------------
# Function-free goals and their reference verdicts


def function_free_goal(rng, n_params: int = 6, n_eqs: int = 4, n_atoms: int = 3):
    params = [f"p{k}" for k in range(rng.randint(2, n_params))]
    ante = [("=", rng.choice(params), rng.choice(params)) for _ in range(rng.randint(0, n_eqs))]
    for _ in range(rng.randint(0, n_atoms)):
        arity = rng.randint(1, 2)
        ante.append(("Q" if arity == 1 else "R", tuple(rng.choice(params) for _ in range(arity))))
    atoms = [f for f in ante if not is_eq(f)]
    if rng.random() < 0.5 or not atoms:
        goal = ("=", rng.choice(params), rng.choice(params))
    else:
        base = rng.choice(atoms)
        goal = (base[0], tuple(rng.choice(params) for _ in base[1]))
    return tuple(ante), (goal,)


def chain_goal(links: int, carry: bool):
    """The chain ``q0 = q1, q1 = q2, ..., q(n-1) = qn`` proving ``q0 = qn``,
    or with ``carry`` carrying ``Q(q0)`` to ``Q(qn)``."""
    names = [f"q{k}" for k in range(links + 1)]
    ante = tuple(("=", x, y) for x, y in zip(names, names[1:]))
    if not carry:
        return ante, (("=", names[0], names[-1]),)
    return ante + (("Q", (names[0],)),), (("Q", (names[-1],)),)


def congruent(ante, succ) -> bool:
    """Reference verdict for a function-free atomic goal: derivable iff the
    goal follows from the antecedent equalities by congruence."""
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent.setdefault(parent[x], parent[x])
            x = parent[x]
        return x

    for f in ante:
        if is_eq(f):
            parent[find(f[1])] = find(f[2])
    (goal,) = succ
    if is_eq(goal):
        return find(goal[1]) == find(goal[2])
    return any(
        not is_eq(f)
        and f[0] == goal[0]
        and len(f[1]) == len(goal[1])
        and all(find(x) == find(y) for x, y in zip(f[1], goal[1]))
        for f in ante
    )


def shape_goal(rng, kind: str):
    """A goal of the S1 (``a=c, b=c |- a=b``) or S2 (``c=a, c=b |- a=b``)
    counterexample shape: underivable in the calculus of the same name."""
    pool = [("=", "a", "c"), ("=", "b", "c")] if kind == "S1" else [("=", "c", "a"), ("=", "c", "b")]
    pool.append(("=", "c", "c"))
    ante = tuple(rng.choice(pool) for _ in range(rng.randint(1, 4)))
    return ante, (("=", "a", "b"),)


# the paper's witness sequents with hand-written expectations:
# (goal, preset, depth, term height, derivable in the preset, minimal proof height)
WITNESSES = (
    # a cut-free equality calculus without repetition cannot reuse a=f(a)
    ("a = f(a) |- a = f(f(a))", "EqCutFree", 8, 4, False, None),
    # doubling the premiss makes it a one-step proof
    ("a = f(a), a = f(a) |- a = f(f(a))", "EqCutFree", 3, 4, True, 1),
    # the counterexample systems' own witnesses are closed under their rules
    ("a = c, b = c |- a = b", "S1", 4, 1, False, None),
    ("c = b, c = a |- a = b", "S2", 4, 1, False, None),
)
