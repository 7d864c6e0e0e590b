"""Bounded backward proof search, forward saturation, and the exact decision
procedure for function-free atomic sequents via congruence chains.

The forward rules here run premiss to conclusion and call neither
:func:`eqseq.calculus.premisses_of` nor :func:`eqseq.calculus.expansions`:
the replacement step takes only each rule's index, retention and side from
``RULES`` and applies them itself.  So saturation, which covers the unflagged
specs with base ``none``, can serve as a brute-force oracle against both the
backward search and the chain decision procedure.
"""
from __future__ import annotations

import itertools
from collections import Counter, deque, namedtuple

from .calculus import (
    CalculusSpec,
    MovePool,
    PRESETS,
    RULES,
    RuleId,
    RuleInstance,
    _goal_predicates,
    _nonempty_nonoverlapping_subsets,
    _sorted_universe,
    expansions,
    leaf,
    leaf_expansions,
    premisses_of,
    repl_inst,
)
from .checker import Derivation, check, node
from .syntax import (
    Atom,
    Eq,
    EqSeqError,
    Formula,
    FunApp,
    Param,
    Record,
    Sequent,
    Term,
    _set,
    _top_terms,
    closed_terms,
    formula_has_function_symbols,
    is_atomic,
    is_identity,
    occurrences,
    remove_at,
    replace_at,
    replace_formula,
    subterms,
)


class SearchError(EqSeqError):
    pass


class FunctionSymbolsPresentError(SearchError):
    pass


class NonAtomicGoalError(SearchError):
    pass


class MalformedWitnessError(SearchError):
    pass


# ---------------------------------------------------------------------------
# Limits, outcomes


class SearchLimits(Record):
    _fields = ("max_depth", "term_height", "universe", "node_budget")

    def __init__(
        self,
        max_depth: int = 6,
        term_height: int = 3,
        universe: frozenset[Term] | None = None,
        node_budget: int = 100_000,
    ) -> None:
        if max_depth <= 0 or term_height <= 0 or node_budget <= 0:
            raise SearchError("all search bounds must be positive")
        if universe is not None:
            for t in _sorted_universe(universe):
                if not subterms(t) <= universe:
                    raise SearchError(f"universe is not closed under subterms at {t}")
        _set(self, "max_depth", max_depth)
        _set(self, "term_height", term_height)
        _set(self, "universe", universe)
        _set(self, "node_budget", node_budget)


class Proved(namedtuple("Proved", "derivation")):
    __slots__ = ()
    derivation: Derivation


class Exhausted(namedtuple("Exhausted", "expansions memo_size budget_exceeded", defaults=(False,))):
    __slots__ = ()
    expansions: int
    memo_size: int
    budget_exceeded: bool


class DecidedUnderivable(namedtuple("DecidedUnderivable", "reason")):
    __slots__ = ()
    reason: str


SearchOutcome = Proved | Exhausted | DecidedUnderivable


def sequent_terms(goal: Sequent) -> set[Term]:
    """All closed subterm occurrences in the sequent, binders included."""
    return set().union(*map(closed_terms, goal.all_formulas()))


def default_universe(goal: Sequent, height_bound: int) -> frozenset[Term]:
    """The goal's parameters closed under its function symbols up to the
    given term height, which holds every closed subterm of the goal up to it."""
    terms = sequent_terms(goal)
    funcs = {t.sym: len(t.args) for t in terms if isinstance(t, FunApp)}
    return frozenset(_close_under({t for t in terms if isinstance(t, Param)}, funcs.items(), height_bound))


def _close_under(params: set[Term], funcs, height_bound: int) -> list[Term]:
    """Every term over ``params`` and the ``(symbol, arity)`` pairs ``funcs``
    up to the given term height, each built once, level by level: a term of
    height k has its first argument of height k - 1 at some position i, the
    arguments before i below height k - 1 and those after it below height k.
    """
    funcs = dict(funcs).items()
    levels = [list(params)]
    for k in range(1, height_bound + 1):
        lower, top = [t for level in levels[:-1] for t in level], levels[-1]
        level = [FunApp(sym, ()) for sym, arity in funcs if not arity and k == 1]
        for sym, arity in funcs:
            for i in range(arity):
                args = itertools.product(*[lower] * i, top, *[lower + top] * (arity - 1 - i))
                level += [FunApp(sym, a) for a in args]
        levels.append(level)
    return [t for level in levels for t in level]


# ---------------------------------------------------------------------------
# Shape-invariant hooks (registered closure predicates)


class ShapeHook(namedtuple("ShapeHook", "name covered_rules matches")):
    """A set of sequents closed under backward rule application in the covered
    calculi and containing no axiom, hence consisting of underivable sequents:
    every instance whose conclusion is in the set has some premiss in it."""

    __slots__ = ()
    name: str
    covered_rules: frozenset[RuleId]
    matches: "callable"

    def covers(self, spec: CalculusSpec) -> bool:
        return spec.base == "none" and spec.rules <= self.covered_rules


def _two_param_eq_succ(seq: Sequent) -> tuple[str, str] | None:
    if len(seq.succ) != 1 or not isinstance(seq.succ[0], Eq):
        return None
    e = seq.succ[0]
    if not isinstance(e.lhs, Param) or not isinstance(e.rhs, Param) or e.lhs == e.rhs:
        return None
    return e.lhs.name, e.rhs.name


def _shape_hub(seq: Sequent, hub: int) -> bool:
    """``a=c, ..., b=c, ..., c=c, ... |- a=b`` (``hub`` 1) or its mirror
    ``c=a, ..., c=b, ..., c=c, ... |- a=b`` (``hub`` 0), for distinct
    parameters a, b, c: c sits on side ``hub`` of every antecedent equality."""
    named = _two_param_eq_succ(seq)
    if named is None:
        return False
    ends = []
    for f in seq.ante:
        if not isinstance(f, Eq) or not isinstance(f.lhs, Param) or not isinstance(f.rhs, Param):
            return False
        x, y = f.lhs.name, f.rhs.name
        if x != y and (x, y)[1 - hub] not in named:
            return False
        ends.append((x, y))
    if not ends:
        return True
    return any(
        all(e[hub] == c and e[1 - hub] in (*named, c) for e in ends)
        for c in {e[hub] for e in ends} - set(named)
    )


def _shape_s1(seq: Sequent) -> bool:
    return _shape_hub(seq, 1)


def _shape_s2(seq: Sequent) -> bool:
    return _shape_hub(seq, 0)


def _shape_identity_pool(seq: Sequent) -> bool:
    # all antecedent formulas are identities, no succedent formula is one
    return all(is_identity(f) for f in seq.ante) and not any(is_identity(f) for f in seq.succ)


S1_HOOK = ShapeHook(
    "s1-shape",
    frozenset({RuleId.REFAX, RuleId.LC, RuleId.LCEQ, RuleId.LW, RuleId.REP2LP, RuleId.REP, RuleId.REP1R}),
    _shape_s1,
)
S2_HOOK = ShapeHook(
    "s2-shape",
    frozenset({RuleId.REFAX, RuleId.LC, RuleId.LCEQ, RuleId.LW, RuleId.REP1LP, RuleId.REPP, RuleId.REP2R}),
    _shape_s2,
)
IDENTITY_HOOK = ShapeHook(
    "identity-antecedent",
    frozenset(
        {
            RuleId.REFAX,
            RuleId.EQ1,
            RuleId.EQ2,
            RuleId.CNG,
            RuleId.CUT,
            RuleId.LC,
            RuleId.LCEQ,
            RuleId.LW,
            RuleId.RW,
            RuleId.RC,
        }
    ),
    _shape_identity_pool,
)

DEFAULT_HOOKS: tuple[ShapeHook, ...] = (S1_HOOK, S2_HOOK, IDENTITY_HOOK)


# ---------------------------------------------------------------------------
# Backward search


def prove(goal: Sequent, spec: CalculusSpec, lim: SearchLimits = SearchLimits()) -> SearchOutcome:
    """:func:`bounded_search`, except that a function-free atomic goal with a
    countermodel (:func:`refuted_by_countermodel`) comes back
    ``DecidedUnderivable(COUNTERMODEL)`` without a search, unless a shape
    hook decides it first."""
    if refuted_by_countermodel(goal) and not any(h.covers(spec) and h.matches(goal) for h in DEFAULT_HOOKS):
        return DecidedUnderivable(COUNTERMODEL)
    return bounded_search(goal, spec, lim)


def bounded_search(goal: Sequent, spec: CalculusSpec, lim: SearchLimits = SearchLimits()) -> SearchOutcome:
    """Depth-bounded backward search.

    ``Proved`` outcomes carry a derivation that the checker validates;
    ``Exhausted`` means no proof exists within the limits (nothing is claimed
    beyond them).  Registered shape hooks let structurally closed goals come
    back ``DecidedUnderivable`` without exhausting the bounds.
    """
    active_hooks = tuple(h for h in DEFAULT_HOOKS if h.covers(spec))
    for h in active_hooks:
        if h.matches(goal):
            return DecidedUnderivable(h.name)
    universe = lim.universe if lim.universe is not None else default_universe(goal, lim.term_height)
    # memos by multiset: pooled sequents equal as multisets share a number
    proved: dict[int, Derivation] = {}
    # moves of each expanded sequent, shared by all deepening bounds
    move_table: dict[int, list[tuple[RuleInstance, list[Sequent]]]] = {}
    pool = MovePool()  # premisses, one object per ordered sequent, and the terms of the moves
    goal = pool.share(goal)
    multiset = pool.multiset
    budget_hit = False
    used = memo_peak = 0

    def search(seq: Sequent, mset: int, depth: int, failed: dict[int, int]) -> Derivation | None:
        """Expand ``seq``; the caller found no memoized answer for it at ``depth``."""
        nonlocal budget_hit, used
        used += 1
        if used > lim.node_budget:
            budget_hit = True
            return None
        for h in active_hooks:
            if h.matches(seq):
                failed[mset] = lim.max_depth
                return None
        # instance indices are positions, so moves belong to the ordered
        # sequent: one object per ordered sequent, as premisses are pooled
        moves = move_table.get(id(seq))
        if moves is None:
            if depth <= 0:  # only a leaf rule can close it
                moves = leaf_expansions(seq, spec)
            else:
                moves = move_table[id(seq)] = expansions(seq, spec, universe, pool)
        for inst, premisses in moves:
            if premisses and depth <= 0:
                break  # the leaf instances come first
            children: list[Derivation] = []
            for p in premisses:
                p_mset = multiset(p)
                sub = proved.get(p_mset)
                if sub is None or sub.height >= depth:  # no proof of height <= depth - 1
                    if failed.get(p_mset, -1) >= depth - 1:
                        break
                    sub = search(p, p_mset, depth - 1, failed)
                    if sub is None:
                        break
                children.append(sub)
            else:
                d = node(seq, inst, *children)
                proved[mset] = d
                return d
            if budget_hit:
                return None
        if failed.get(mset, -1) < depth:
            failed[mset] = depth
        return None

    # iterative deepening: the first success is a minimal-height proof
    for bound in range(lim.max_depth + 1):
        failed: dict[int, int] = {}
        found = search(goal, multiset(goal), bound, failed)
        memo_peak = max(memo_peak, len(failed) + len(proved))
        if found is not None:
            return Proved(found)
        if budget_hit:
            break
    return Exhausted(expansions=used, memo_size=memo_peak, budget_exceeded=budget_hit)


# ---------------------------------------------------------------------------
# Forward rule application (independent of premisses_of)


def _rewrites(f: Formula, frm: Term, to: Term) -> list[Formula]:
    """``f`` with each nonempty set of nonoverlapping occurrences of ``frm``
    replaced by ``to``; none when ``f`` is not atomic."""
    occ = occurrences(f, frm) if is_atomic(f) else []
    return [replace_at(f, set(paths), frm, to) for paths in _nonempty_nonoverlapping_subsets(occ)]


def _forward_replacements(seq: Sequent, rule: RuleId, atom_pool: list[Formula]) -> list[Sequent]:
    """Conclusions of one forward step of the replacement rule ``rule`` from
    the premiss ``seq``: in one context formula on the rule's side, some
    occurrences of the premiss-side term go back to the conclusion-side term
    (``RuleSig.terms``).  A strict succedent rule (=1/=2) takes its operating
    equality from the atom pool and adds it to the antecedent; the others
    take it from the premiss.  An antecedent rule that keeps its context
    (``RuleSig.keeps_context``) drops the rewritten copy instead, when the
    context it came from is in the premiss too."""
    sig = RULES[rule]
    ante, succ = seq.ante, seq.succ
    intro = sig.context_side == "s" and sig.retention == "strict"
    out: list[Sequent] = []
    for e, op in enumerate(atom_pool if intro else ante):
        if not isinstance(op, Eq):
            continue
        to, frm = sig.terms(op)  # conclusion side, premiss side
        if sig.context_side == "s":
            new_ante = (op,) + ante if intro else ante
            for j, f in enumerate(succ):
                out += [Sequent(new_ante, replace_formula(succ, j, c)) for c in _rewrites(f, frm, to)]
        else:
            for i, f in enumerate(ante):
                if i == e:
                    continue
                for c in _rewrites(f, frm, to):
                    if not sig.keeps_context(c):
                        out.append(Sequent(replace_formula(ante, i, c), succ))
                    elif any(g == c for k, g in enumerate(ante) if k not in (e, i)):
                        out.append(Sequent(remove_at(ante, i), succ))
    return out


def forward_conclusions(
    seq: Sequent, spec: CalculusSpec, atom_pool: list[Formula]
) -> list[Sequent]:
    """All conclusions obtainable from ``seq`` by one forward application of a
    single-premiss rule of the (equality-fragment) calculus."""
    out: list[Sequent] = []
    rules = spec.rules
    if RuleId.REFL in rules:
        for i, f in enumerate(seq.ante):
            if is_identity(f):
                out.append(Sequent(remove_at(seq.ante, i), seq.succ))
    if RuleId.SYMM in rules:
        for i, f in enumerate(seq.ante):
            if isinstance(f, Eq):
                out.append(Sequent(replace_formula(seq.ante, i, Eq(f.rhs, f.lhs)), seq.succ))
    for rule, sig in RULES.items():
        if sig.index and rule in rules:
            out += _forward_replacements(seq, rule, atom_pool)
    if RuleId.LW in rules:
        for f in atom_pool:
            out.append(Sequent((f,) + seq.ante, seq.succ))
    if RuleId.RW in rules:
        for f in atom_pool:
            out.append(Sequent(seq.ante, seq.succ + (f,)))
    for rule in (RuleId.LC, RuleId.LCEQ):
        if rule in rules:
            counts = Counter(seq.ante)
            for f, n in counts.items():
                if n >= 2 and (rule is RuleId.LC or isinstance(f, Eq)):
                    out.append(Sequent(remove_at(seq.ante, seq.ante.index(f)), seq.succ))
    if RuleId.RC in rules:
        counts = Counter(seq.succ)
        for f, n in counts.items():
            if n >= 2:
                out.append(Sequent(seq.ante, remove_at(seq.succ, seq.succ.index(f))))
    return out


def forward_pair_conclusions(p1: Sequent, p2: Sequent, spec: CalculusSpec) -> list[Sequent]:
    """Cut and congruence conclusions with ``p1`` as first premiss."""
    out: list[Sequent] = []
    if RuleId.CUT in spec.rules:
        for j, a in enumerate(p1.succ):
            if a in p2.ante:
                i = p2.ante.index(a)
                out.append(Sequent(p1.ante + remove_at(p2.ante, i), remove_at(p1.succ, j) + p2.succ))
    if RuleId.CNG in spec.rules:
        for j, e in enumerate(p1.succ):
            if not isinstance(e, Eq):
                continue
            for k, ctx in enumerate(p2.succ):
                for new in _rewrites(ctx, e.lhs, e.rhs):
                    succ = remove_at(p1.succ, j) + replace_formula(p2.succ, k, new)
                    out.append(Sequent(p1.ante + p2.ante, succ))
    return out


# ---------------------------------------------------------------------------
# Saturation


class Signature(namedtuple(
    "Signature", "params funcs preds max_ante max_succ fixed_ante", defaults=((), (), 2, 1, None)
)):
    """Finite pool description for forward saturation.

    With ``fixed_ante`` set, the pool is the family of sequents with exactly
    that antecedent and a single succedent formula drawn from the atom pool
    (adequate for calculi whose rules never touch the antecedent).  Otherwise
    the pool is every sequent over the atom pool within the size caps.
    """

    __slots__ = ()
    params: tuple[str, ...]
    funcs: tuple[tuple[str, int], ...]
    preds: tuple[tuple[str, int], ...]
    max_ante: int
    max_succ: int
    fixed_ante: tuple[Formula, ...] | None

    @staticmethod
    def from_goal(goal: Sequent, fixed_ante: bool = False, max_ante: int = 2, max_succ: int = 1) -> "Signature":
        terms = sequent_terms(goal)
        return Signature(
            tuple(sorted(t.name for t in terms if isinstance(t, Param))),
            tuple(sorted({t.sym: len(t.args) for t in terms if isinstance(t, FunApp)}.items())),
            tuple(sorted(_goal_predicates(goal))),
            max_ante=max_ante,
            max_succ=max_succ,
            fixed_ante=goal.ante if fixed_ante else None,
        )

    def universe(self, height_bound: int) -> list[Term]:
        return _sorted_universe(_close_under({Param(p) for p in self.params}, self.funcs, height_bound))

    def atom_pool(self, height_bound: int) -> list[Formula]:
        terms = self.universe(height_bound)
        pool: list[Formula] = [Eq(u, v) for u in terms for v in terms]
        for pred, arity in self.preds:
            for args in itertools.product(terms, repeat=arity):
                pool.append(Atom(pred, tuple(args)))
        return pool


class SaturationResult(Record):
    _fields = ("derived", "fixpoint", "expansions", "pool_size")

    def __init__(self, derived: frozenset[Sequent], fixpoint: bool, expansions: int, pool_size: int) -> None:
        _set(self, "derived", derived)
        _set(self, "fixpoint", fixpoint)
        _set(self, "expansions", expansions)
        _set(self, "pool_size", pool_size)

    def __contains__(self, seq: Sequent) -> bool:
        return seq in self.derived


def _pool_sequents(sig: Signature, atom_pool: list[Formula]) -> list[Sequent]:
    if sig.fixed_ante is not None:
        return [Sequent(sig.fixed_ante, (c,)) for c in atom_pool]
    out: list[Sequent] = []
    for na in range(sig.max_ante + 1):
        for ante in itertools.combinations_with_replacement(atom_pool, na):
            for ns in range(sig.max_succ + 1):
                for succ in itertools.combinations_with_replacement(atom_pool, ns):
                    out.append(Sequent(tuple(ante), tuple(succ)))
    return out


def _axioms(seq: Sequent, spec: CalculusSpec) -> bool:
    for f in seq.succ:
        if is_atomic(f) and f in seq.ante:
            return True
        if RuleId.REFAX in spec.rules and is_identity(f):
            return True
    return False


def saturate_forward(sig: Signature, spec: CalculusSpec, lim: SearchLimits) -> SaturationResult:
    """Forward closure of the finite pool under the calculus rules.

    Requires ``spec.base == "none"`` and no flags, as the forward rules
    apply no flag or orientation check.  Stops at the fixpoint or when the
    node budget is exhausted (reported via ``fixpoint=False``).
    """
    if spec.base != "none":
        raise SearchError("saturation is defined for the equality fragment (base=none)")
    if spec.flags:
        raise SearchError(f"saturation applies no flags, got {', '.join(sorted(map(str, spec.flags)))}")
    atom_pool = sig.atom_pool(lim.term_height)
    pool = _pool_sequents(sig, atom_pool)
    in_pool = set(pool)
    derived: set[Sequent] = {s for s in pool if _axioms(s, spec)}
    queue: deque[Sequent] = deque(sorted(derived, key=str))
    expansions = 0
    two_premiss = RuleId.CUT in spec.rules or RuleId.CNG in spec.rules

    def push(c: Sequent) -> None:
        if c in in_pool and c not in derived:
            derived.add(c)
            queue.append(c)

    fixpoint = True
    while queue:
        seq = queue.popleft()
        expansions += 1
        if expansions > lim.node_budget:
            fixpoint = False
            break
        for c in forward_conclusions(seq, spec, atom_pool):
            push(c)
        if two_premiss:
            for other in list(derived):
                for c in forward_pair_conclusions(seq, other, spec):
                    push(c)
                for c in forward_pair_conclusions(other, seq, spec):
                    push(c)
    return SaturationResult(frozenset(derived), fixpoint, expansions, len(pool))


# ---------------------------------------------------------------------------
# Exact decision by finite-state exploration

class ExactResult(namedtuple("ExactResult", "decided derivable states")):
    __slots__ = ()
    decided: bool
    derivable: bool
    states: int


def exact_decide(goal: Sequent, spec: CalculusSpec, lim: SearchLimits) -> ExactResult:
    """Exact derivability on finite backward state spaces, in one breadth-first
    pass over the backward-reachable sequents (complete relative to the
    universe bound).  Each move waits on its unmarked premisses; a move with
    none left marks its conclusion, and the mark propagates to the moves
    waiting on it (Dowling & Gallier 1984).  So the goal is derivable once
    marked, even in a space larger than the budget, and underivable when the
    frontier empties first.  ``decided`` is False when the budget was hit
    before either, and then nothing is claimed."""
    universe = lim.universe if lim.universe is not None else default_universe(goal, lim.term_height)
    pool = MovePool()
    goal = pool.share(goal)
    multiset = pool.multiset
    # (conclusion, its unmarked premisses) of each move, by the multiset numbers it waits on
    waiting: dict[int, list[tuple[int, set[int]]]] = {}
    marked: set[int] = set()
    queued = {multiset(goal)}  # each multiset enters the frontier once
    frontier = deque([goal])
    states = 0
    while frontier and multiset(goal) not in marked:
        seq = frontier.popleft()
        mset = multiset(seq)
        states += 1
        if states > lim.node_budget:
            return ExactResult(False, False, states)
        newly = []
        for _, premisses in expansions(seq, spec, universe, pool):
            unmarked = {multiset(p) for p in premisses} - marked
            if not unmarked:
                newly.append(mset)
                break
            for p in unmarked:
                waiting.setdefault(p, []).append((mset, unmarked))
            for p in premisses:
                if multiset(p) not in queued:
                    queued.add(multiset(p))
                    frontier.append(p)
        while newly:
            mset = newly.pop()
            if mset not in marked:
                marked.add(mset)
                for conclusion, unmarked in waiting.pop(mset, ()):
                    unmarked.discard(mset)
                    if not unmarked:
                        newly.append(conclusion)
    return ExactResult(True, multiset(goal) in marked, states)


# ---------------------------------------------------------------------------
# Function-free decision procedure (congruence chains)


class Chain(Record):
    """Equalities from the antecedent arrangeable as a path from ``start`` to
    ``end``; each link keeps its stored orientation (``True`` when traversed
    left to right)."""

    _fields = ("start", "end", "links")

    def __init__(self, start: Term, end: Term, links: tuple[tuple[Eq, bool], ...] = ()) -> None:
        _set(self, "start", start)
        _set(self, "end", end)
        _set(self, "links", links)

    def __len__(self) -> int:
        return len(self.links)


class WitnessPlan(namedtuple("WitnessPlan", "goal witness_index chains")):
    """Output of the decision procedure for a derivable goal: the matching
    antecedent atom (absent for equality goals) and one chain per argument."""

    __slots__ = ()
    goal: Sequent
    witness_index: int | None
    chains: tuple[Chain, ...]


def _validate_function_free(goal: Sequent) -> None:
    if len(goal.succ) != 1 or not is_atomic(goal.succ[0]):
        raise NonAtomicGoalError("non-atomic-goal: succedent must be a single atom or equality")
    for f in goal.all_formulas():
        if not is_atomic(f):
            raise NonAtomicGoalError(f"non-atomic-goal: {f}")
        if formula_has_function_symbols(f):
            raise FunctionSymbolsPresentError(f"function-symbols-present: {f}")


def _equality_graph(ante: tuple[Formula, ...]) -> dict[str, list[tuple[str, Eq, bool]]]:
    graph: dict[str, list[tuple[str, Eq, bool]]] = {}
    for f in ante:
        if isinstance(f, Eq):
            u, v = f.lhs, f.rhs
            if isinstance(u, Param) and isinstance(v, Param):
                graph.setdefault(u.name, []).append((v.name, f, True))
                graph.setdefault(v.name, []).append((u.name, f, False))
    return graph


def chain_extract(ante, a: Term, b: Term) -> Chain | None:
    """Shortest chain of antecedent equalities connecting ``a`` and ``b``.

    The empty chain connects any term with itself.  Links keep the stored
    orientation.  Returns None when the terms are not connected.
    """
    if not isinstance(a, Param) or not isinstance(b, Param):
        raise FunctionSymbolsPresentError("chain endpoints must be parameters")
    if a == b:
        return Chain(a, b, ())
    graph = _equality_graph(tuple(ante))
    prev: dict[str, tuple[str, Eq, bool]] = {}
    seen = {a.name}
    queue = deque([a.name])
    while queue:
        x = queue.popleft()
        for (y, e, fwd) in graph.get(x, []):
            if y in seen:
                continue
            seen.add(y)
            prev[y] = (x, e, fwd)
            if y == b.name:
                links: list[tuple[Eq, bool]] = []
                cur = y
                while cur != a.name:
                    x0, e0, fwd0 = prev[cur]
                    links.append((e0, fwd0))
                    cur = x0
                return Chain(a, b, tuple(reversed(links)))
            queue.append(y)
    return None


def decide_function_free(goal: Sequent) -> WitnessPlan | DecidedUnderivable:
    """Exact derivability for function-free atomic sequents.

    For an equality goal, derivable iff a chain of antecedent equalities
    joins the endpoints; for a predicate goal, derivable iff some antecedent
    atom with the same predicate is joined to it argumentwise by chains.
    The chains found are the witness plan.
    """
    _validate_function_free(goal)
    target = goal.succ[0]
    if isinstance(target, Eq):
        chain = chain_extract(goal.ante, target.lhs, target.rhs)
        if chain is not None:
            return WitnessPlan(goal, None, (chain,))
        return DecidedUnderivable("no chain connects the equated terms")
    for i, f in enumerate(goal.ante):
        if isinstance(f, Atom) and f.pred == target.pred and len(f.args) == len(target.args):
            chains = []
            for x, y in zip(f.args, target.args):
                chain = chain_extract(goal.ante, x, y)
                if chain is None:
                    break
                chains.append(chain)
            else:
                return WitnessPlan(goal, i, tuple(chains))
    return DecidedUnderivable("no antecedent atom matches argumentwise up to congruence")


COUNTERMODEL = "countermodel"


def refuted_by_countermodel(goal: Sequent) -> bool:
    """Whether a function-free atomic sequent is invalid.

    The parameters modulo the congruence that the antecedent equalities
    generate, with exactly the antecedent atoms true, form a model of the
    antecedent; the sequent is invalid when that model makes no succedent
    formula true, which :func:`decide_function_free` tests one formula at a
    time.  Every rule of every calculus here is sound, so an invalid sequent
    is underivable in all of them.  A sequent with any other formula or term
    is never refuted.
    """
    for f in goal.all_formulas():
        if not is_atomic(f) or not all(isinstance(t, Param) for t in _top_terms(f)):
            return False
    return all(
        isinstance(decide_function_free(Sequent(goal.ante, (f,))), DecidedUnderivable)
        for f in goal.succ
    )


def chain_to_derivation(plan: WitnessPlan) -> Derivation:
    """Realize a witness plan in ``R2rl`` (index-2 replacement over ``init``
    and ``refax`` leaves), consuming the plan's chains link by link.

    Each step removes one link of the chain from the left slot (succedent
    lhs, or the witness's argument k) to the right slot (succedent rhs or
    argument k): a first link ``x0 = x1`` moves the left slot to x1; else a
    last link ``xn = x(n-1)`` moves the right slot to x(n-1); else a strict
    rep2l on the first link ``x1 = x0`` rewrites x1 to x0 in the second.
    Later chains are extracted again, as such a fold may rewrite their
    links.  The kernel checks the result.
    """
    _validate_plan(plan)
    spec = PRESETS["R2rl"]
    steps: list[tuple[Sequent, RuleInstance]] = []
    cur = plan.goal

    def step(rule: RuleId, ctx: int, path: tuple[int, ...], op: Eq) -> None:
        nonlocal cur
        inst = repl_inst(rule, cur.ante.index(op), ctx, [path])
        steps.append((cur, inst))
        cur = premisses_of(cur, inst, spec)[0]

    w = plan.witness_index
    for k, chain in enumerate(plan.chains):
        if k:
            chain = chain_extract(cur.ante, chain.start, chain.end)
        left = (RuleId.REP2R, 0, (0,)) if w is None else (RuleId.REP2L, w, (k,))
        right = (RuleId.REP2R, 0, (1,) if w is None else (k,))
        links = list(chain.links)
        while links and not (is_identity(cur.succ[0]) or cur.succ[0] in cur.ante):
            (first, first_fwd), (last, last_fwd) = links[0], links[-1]
            if first_fwd:
                step(*left, first)
                del links[0]
            elif not last_fwd:
                step(*right, last)
                del links[-1]
            else:
                second, fwd = links[1]
                at = cur.ante.index(second)
                step(RuleId.REP2L, at, (0,) if fwd else (1,), first)
                links[:2] = [(cur.ante[at], fwd)]
    tgt = cur.succ[0]
    d = node(cur, leaf(RuleId.REFAX, 0) if is_identity(tgt) else leaf(RuleId.INIT, cur.ante.index(tgt), 0))
    for seq, inst in reversed(steps):
        d = node(seq, inst, d)
    report = check(d, spec)
    if not report.valid:
        raise MalformedWitnessError(f"malformed-witness: {report.first_error}")
    return d


def _validate_plan(plan: WitnessPlan) -> None:
    goal = plan.goal
    _validate_function_free(goal)
    target = goal.succ[0]
    if plan.witness_index is None:
        if not isinstance(target, Eq) or len(plan.chains) != 1:
            raise MalformedWitnessError("malformed-witness: equality goal needs exactly one chain")
        chain = plan.chains[0]
        if chain.start != target.lhs or chain.end != target.rhs:
            raise MalformedWitnessError("malformed-witness: chain endpoints do not match the goal")
    else:
        if not isinstance(target, Atom):
            raise MalformedWitnessError("malformed-witness: witness index given for an equality goal")
        if not (0 <= plan.witness_index < len(goal.ante)):
            raise MalformedWitnessError("malformed-witness: witness index out of range")
        w = goal.ante[plan.witness_index]
        if not isinstance(w, Atom) or w.pred != target.pred or len(w.args) != len(target.args):
            raise MalformedWitnessError("malformed-witness: witness atom does not match the goal")
        if len(plan.chains) != len(target.args):
            raise MalformedWitnessError("malformed-witness: one chain per argument required")
        for chain, x, y in zip(plan.chains, w.args, target.args):
            if chain.start != x or chain.end != y:
                raise MalformedWitnessError("malformed-witness: chain endpoints do not match")
    for chain in plan.chains:
        path = [chain.start]
        for (e, fwd) in chain.links:
            if e not in goal.ante:
                raise MalformedWitnessError(f"malformed-witness: link {e} not in the antecedent")
            src, dst = (e.lhs, e.rhs) if fwd else (e.rhs, e.lhs)
            if src != path[-1]:
                raise MalformedWitnessError("malformed-witness: chain links do not connect")
            path.append(dst)
        if path[-1] != chain.end:
            raise MalformedWitnessError("malformed-witness: chain does not reach its endpoint")
        if len(set(path)) != len(path):
            raise MalformedWitnessError("malformed-witness: chain visits a term twice")
