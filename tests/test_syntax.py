import gc

import pytest
from hypothesis import given, strategies as st

from eqseq.syntax import (
    BOT,
    And,
    Atom,
    Bottom,
    BoundVar,
    Eq,
    Exists,
    Forall,
    Formula,
    FunApp,
    Imp,
    Or,
    Param,
    PathError,
    Sequent,
    Term,
    is_identity,
    occurrences,
    replace_at,
    substitute,
    term_height,
)

a, b, c = Param("a"), Param("b"), Param("c")


def f(*args):
    return FunApp("f", tuple(args))


def test_substitute_equality():
    assert substitute(Eq(BoundVar("x"), b), "x", a) == Eq(a, b)


def test_substitute_all_occurrences():
    g = Atom("P", (BoundVar("x"), BoundVar("x")))
    assert substitute(g, "x", f(a)) == Atom("P", (f(a), f(a)))


def test_substitute_under_other_binder():
    g = Forall("y", Atom("P", (BoundVar("x"), BoundVar("y"))))
    assert substitute(g, "x", a) == Forall("y", Atom("P", (a, BoundVar("y"))))


def test_substitute_shadowed_binder_untouched():
    g = Forall("x", Atom("P", (BoundVar("x"),)))
    assert substitute(g, "x", a) == g


def test_substitute_rejects_bound_variables_in_replacement():
    with pytest.raises(Exception):
        substitute(Eq(BoundVar("x"), b), "x", BoundVar("y"))


def test_replace_leaf_on_terms_and_formulas():
    from eqseq.syntax import SyntaxInvariantError, replace_leaf

    x = BoundVar("x")
    assert replace_leaf(f(a, x), a, b) == f(b, x)
    assert replace_leaf(f(a, x), x, c) == f(a, c)
    g = Forall("x", Imp(BOT, Atom("P", (a, x))))
    assert replace_leaf(g, x, c) == g  # the binder of x is left whole
    assert replace_leaf(Exists("y", g), a, c) == Exists("y", Forall("x", Imp(BOT, Atom("P", (c, x)))))
    with pytest.raises(SyntaxInvariantError):
        replace_leaf(Formula(), a, b)


def test_occurrences_nested():
    assert occurrences(Eq(a, f(a)), a) == [(0,), (1, 0)]
    assert occurrences(Eq(a, b), c) == []
    assert occurrences(Atom("P", (f(f(a)),)), f(a)) == [(0, 0)]


def test_replace_at_examples():
    assert replace_at(Eq(a, f(a)), {(1, 0)}, a, f(a)) == Eq(a, f(f(a)))
    assert replace_at(Eq(a, c), {(1,)}, c, b) == Eq(a, b)
    r = Param("r")
    assert replace_at(Atom("P", (r,)), {(0,)}, r, r) == Atom("P", (r,))


def test_replace_at_rejects_empty_and_overlapping():
    with pytest.raises(PathError):
        replace_at(Eq(a, b), set(), a, b)
    with pytest.raises(PathError):
        replace_at(Eq(f(a), b), {(0,), (0, 0)}, f(a), b)
    with pytest.raises(PathError):
        replace_at(Eq(a, b), {(0,)}, b, c)


terms = st.recursive(
    st.sampled_from([a, b, c]),
    lambda sub: st.builds(lambda x: f(x), sub),
    max_leaves=4,
)
atomics = st.one_of(
    st.builds(Eq, terms, terms),
    st.builds(lambda t: Atom("P", (t,)), terms),
    st.builds(lambda s, t: Atom("R", (s, t)), terms, terms),
)


@given(atomics, terms)
def test_occurrences_complete(g, t):
    # replacing every reported occurrence by a fresh parameter removes them all
    occ = occurrences(g, t)
    keep = [p for p in occ if all(not (q != p and q == p[: len(q)]) for q in occ)]
    if not keep:
        return
    out = replace_at(g, set(keep), t, Param("zfresh"))
    assert occurrences(out, t) == []


@given(atomics, terms, terms)
def test_replace_round_trip(g, t, s):
    occ = occurrences(g, t)
    keep = [p for p in occ if all(not (q != p and q == p[: len(q)]) for q in occ)]
    if not keep or s == t:
        return
    forward = replace_at(g, set(keep), t, s)
    if occurrences(g, s):
        return  # pre-existing copies of s would be picked up by the way back
    assert replace_at(forward, set(keep), s, t) == g


def test_sequent_multiset_semantics():
    s1 = Sequent((Eq(a, b), Eq(b, c)), (Eq(a, c),))
    s2 = Sequent((Eq(b, c), Eq(a, b)), (Eq(a, c),))
    s3 = Sequent((Eq(a, b), Eq(a, b), Eq(b, c)), (Eq(a, c),))
    assert s1 == s2
    assert hash(s1) == hash(s2)
    assert s1 != s3


def test_equal_structures_are_one_object():
    from eqseq.parser import parse_formula, parse_term

    g = FunApp("g", (b,))
    assert parse_term("f(a, g(b))") is FunApp("f", (Param("a"), g))
    assert parse_formula("P(f(a)) & a = g(b)") is And(Atom("P", (f(a),)), Eq(a, g))
    assert parse_formula("forall x. P(x) -> bot") is Forall("x", Imp(Atom("P", (BoundVar("x"),)), BOT))
    assert Param("a") is not BoundVar("a")
    assert Bottom() is BOT
    for cls in (Param, BoundVar, FunApp, Atom, Eq, Bottom, And, Or, Imp, Forall, Exists, Term, Formula):
        assert (cls.__eq__, cls.__hash__) == (object.__eq__, object.__hash__), cls


_symbols = st.sampled_from([("f", 1), ("g", 2), ("h", 0)])
closed_terms = st.recursive(
    st.sampled_from(["a", "b"]).map(Param),
    lambda sub: _symbols.flatmap(
        lambda sym: st.tuples(*[sub] * sym[1]).map(lambda args: FunApp(sym[0], args))
    ),
    max_leaves=8,
)


def _reference_height(t):
    return 1 + max(map(_reference_height, t.args), default=0) if isinstance(t, FunApp) else 0


@given(closed_terms, closed_terms)
def test_interned_terms_are_equal_exactly_when_printed_alike(t1, t2):
    assert (t1 is t2) == (str(t1) == str(t2))
    assert term_height(t1) == _reference_height(t1)


def test_intern_table_releases_unreferenced_nodes():
    from eqseq import syntax

    gc.collect()
    before = len(syntax._table)
    t = Param("released")
    for _ in range(999):
        t = FunApp("released", (t,))
    assert len(syntax._table) == before + 1000
    # past the recursion limit: height, bound-variable test and printing do not recurse
    assert (term_height(t), syntax.term_has_bound(t)) == (999, False)
    assert str(t) == "released(" * 999 + "released" + ")" * 999
    del t
    gc.collect()
    assert len(syntax._table) == before


# recursive reference versions of the term walks, which loop over explicit stacks

def _reference_subterms(t):
    return {t}.union(*map(_reference_subterms, t.args)) if isinstance(t, FunApp) else {t}


def _reference_occurrences(t, target, prefix=()):
    here = [prefix] if t == target else []
    for i, arg in enumerate(t.args if isinstance(t, FunApp) else ()):
        here += _reference_occurrences(arg, target, prefix + (i,))
    return here


def _reference_replace_in_term(t, rel, to):
    if not rel:
        return to
    args = list(t.args)
    args[rel[0]] = _reference_replace_in_term(args[rel[0]], rel[1:], to)
    return FunApp(t.sym, tuple(args))


def _reference_replace_leaf(t, old, new):
    """The recursive ``replace_leaf`` that :func:`eqseq.syntax.map_leaves` replaced."""
    if isinstance(t, FunApp):
        return FunApp(t.sym, tuple(_reference_replace_leaf(x, old, new) for x in t.args))
    if isinstance(t, Atom):
        return Atom(t.pred, tuple(_reference_replace_leaf(x, old, new) for x in t.args))
    if isinstance(t, Eq):
        return Eq(_reference_replace_leaf(t.lhs, old, new), _reference_replace_leaf(t.rhs, old, new))
    if isinstance(t, (And, Or, Imp)):
        return type(t)(_reference_replace_leaf(t.left, old, new), _reference_replace_leaf(t.right, old, new))
    if isinstance(t, (Forall, Exists)):
        if isinstance(old, BoundVar) and t.var == old.name:
            return t
        return type(t)(t.var, _reference_replace_leaf(t.body, old, new))
    return new if t == old else t


_leaves = st.sampled_from([Param("a"), Param("b"), BoundVar("x")])
tall_terms = st.deferred(
    lambda: st.one_of(
        _leaves,
        st.builds(
            lambda sym, args: FunApp(sym, tuple(args)), st.sampled_from(["f", "g"]), st.lists(tall_terms, max_size=3)
        ),
    )
).filter(lambda t: term_height(t) <= 6)


@given(tall_terms, tall_terms, _leaves, tall_terms)
def test_term_walks_agree_with_recursive_references(t, s, leaf, to):
    from eqseq.syntax import replace_in_term, replace_leaf, subterms

    assert subterms(t) == _reference_subterms(t)
    assert occurrences(Eq(t, s), t) == _reference_occurrences(t, t, (0,)) + _reference_occurrences(s, t, (1,))
    for sub in _reference_subterms(s):
        assert occurrences(Eq(t, s), sub) == _reference_occurrences(t, sub, (0,)) + _reference_occurrences(s, sub, (1,))
    for path in _reference_occurrences(t, leaf):
        assert replace_in_term(t, path, to) == _reference_replace_in_term(t, path, to)
    assert replace_leaf(t, leaf, to) == _reference_replace_leaf(t, leaf, to)


def test_identity_and_height():
    assert is_identity(Eq(f(a), f(a)))
    assert not is_identity(Eq(a, b))
    assert term_height(a) == 0
    assert term_height(f(f(a))) == 2


@given(atomics, terms)
def test_substitute_composes_through_fresh_parameter(g, t):
    # abstract one occurrence into a bound variable, then substitute in two hops
    from eqseq.syntax import replace_leaf

    occ = occurrences(g, Param("a"))
    if not occ:
        return
    abstracted = replace_at(g, {occ[0]}, Param("a"), BoundVar("x"))
    via_fresh = replace_leaf(substitute(abstracted, "x", Param("zfresh")), Param("zfresh"), t)
    assert via_fresh == substitute(abstracted, "x", t)


def test_collectors_agree_on_every_connective():
    # And, Or, Imp, bot and both quantifiers; the only function symbol sits
    # under a binder, so its term is not closed
    from eqseq.calculus import _goal_predicates
    from eqseq.search import sequent_terms
    from eqseq.syntax import formula_has_function_symbols, formula_params

    x, y = BoundVar("x"), BoundVar("y")
    d, e = Param("d"), Param("e")
    g = Forall("x", Exists("y", Imp(
        Or(And(Atom("P", (a,)), Eq(b, c)), Imp(BOT, Atom("Q", (d,)))),
        Atom("R", (f(x), y, e)),
    )))
    assert formula_params(g) == {"a", "b", "c", "d", "e"}
    assert formula_has_function_symbols(g)
    assert not formula_has_function_symbols(Imp(Atom("P", (a,)), Eq(b, c)))
    assert sequent_terms(Sequent((g,), (Eq(a, a),))) == {a, b, c, d, e}
    assert _goal_predicates(Sequent((g,), ())) == {("P", 1), ("Q", 1), ("R", 3)}


# ---------------------------------------------------------------------------
# Values: repr, hash and immutability

_NODE_FIELDS = {
    Param: ("name",), BoundVar: ("name",), FunApp: ("sym", "args"), Atom: ("pred", "args"), Eq: ("lhs", "rhs"),
    Bottom: (), And: ("left", "right"), Or: ("left", "right"), Imp: ("left", "right"),
    Forall: ("var", "body"), Exists: ("var", "body"),
}


def _reference_repr(x):
    """The frozen-dataclass ``repr`` of a node, written recursively."""
    if type(x) is tuple:
        inner = ", ".join(map(_reference_repr, x))
        return f"({inner},)" if len(x) == 1 else f"({inner})"
    if type(x) in _NODE_FIELDS:
        fields = ", ".join(f"{name}={_reference_repr(getattr(x, name))}" for name in _NODE_FIELDS[type(x)])
        return f"{type(x).__name__}({fields})"
    return repr(x)


formulas = st.recursive(
    st.one_of(
        st.just(BOT),
        st.builds(Eq, tall_terms, tall_terms),
        st.builds(lambda ts: Atom("P", tuple(ts)), st.lists(tall_terms, max_size=2)),
    ),
    lambda sub: st.one_of(
        st.builds(lambda cls, l, r: cls(l, r), st.sampled_from([And, Or, Imp]), sub, sub),
        st.builds(lambda cls, body: cls("x", body), st.sampled_from([Forall, Exists]), sub),
    ),
    max_leaves=6,
)


@given(st.one_of(tall_terms, formulas))
def test_repr_agrees_with_recursive_reference(x):
    assert repr(x) == _reference_repr(x)


def _reference_print_formula(f, prec=0):
    """The recursive printer that ``Formula.__str__`` replaced."""
    if isinstance(f, Atom):
        return f"{f.pred}({', '.join(str(a) for a in f.args)})" if f.args else f.pred
    if isinstance(f, Eq):
        return f"{f.lhs} = {f.rhs}"
    if isinstance(f, Bottom):
        return "bot"
    if isinstance(f, Imp):
        s = f"{_reference_print_formula(f.left, 1)} -> {_reference_print_formula(f.right, 0)}"
        return f"({s})" if prec > 0 else s
    if isinstance(f, Or):
        s = f"{_reference_print_formula(f.left, 2)} | {_reference_print_formula(f.right, 1)}"
        return f"({s})" if prec > 1 else s
    if isinstance(f, And):
        s = f"{_reference_print_formula(f.left, 3)} & {_reference_print_formula(f.right, 2)}"
        return f"({s})" if prec > 2 else s
    s = f"{'forall' if isinstance(f, Forall) else 'exists'} {f.var}. {_reference_print_formula(f.body, 0)}"
    return f"({s})" if prec > 0 else s


def _reference_print_sequent(s):
    left = ", ".join(_reference_print_formula(f) for f in s.ante)
    right = ", ".join(_reference_print_formula(f) for f in s.succ)
    if left and right:
        return f"{left} |- {right}"
    return f"{left} |-" if left else f"|- {right}" if right else "|-"


_bound_leaves = [BoundVar("x"), BoundVar("y"), BoundVar("a"), BoundVar("a'")]
_open_terms = st.one_of(tall_terms, st.sampled_from(_bound_leaves))
binder_formulas = st.recursive(
    st.one_of(
        st.just(BOT),
        st.builds(Eq, _open_terms, _open_terms),
        st.builds(lambda ts: Atom("P", tuple(ts)), st.lists(_open_terms, max_size=2)),
    ),
    lambda sub: st.one_of(
        st.builds(lambda cls, l, r: cls(l, r), st.sampled_from([And, Or, Imp]), sub, sub),
        st.builds(
            lambda cls, var, body: cls(var, body),
            st.sampled_from([Forall, Exists]),
            st.sampled_from([v.name for v in _bound_leaves]),
            sub,
        ),
    ),
    max_leaves=8,
)


@given(binder_formulas, st.lists(binder_formulas, max_size=3), st.lists(binder_formulas, max_size=3))
def test_one_printer_agrees_with_recursive_reference(f, ante, succ):
    from eqseq.parser import print_formula, print_sequent

    assert str(f) == print_formula(f) == _reference_print_formula(f)
    s = Sequent(tuple(ante), tuple(succ))
    assert str(s) == print_sequent(s) == _reference_print_sequent(s)


@given(binder_formulas, _open_terms)
def test_formula_map_agrees_with_recursive_reference(g, to):
    from eqseq.syntax import replace_leaf

    for leaf in (Param("a"), Param("b"), *_bound_leaves):
        assert replace_leaf(g, leaf, to) == _reference_replace_leaf(g, leaf, to)


def test_formula_walks_of_a_deep_formula():
    # 10,000 connectives and quantifiers, far past the recursion limit
    from eqseq.parser import parse_formula
    from eqseq.syntax import replace_leaf

    deep = Atom("P", (a,))
    for k in range(10_000):
        deep = (And(deep, BOT), Or(BOT, deep), Imp(deep, BOT), Forall("x", deep), Exists("y", deep))[k % 5]
    text = str(deep)
    assert parse_formula(text) == deep
    assert str(replace_leaf(deep, a, b)) == text.replace("P(a)", "P(b)")


def test_repr_of_a_deep_term():
    t = a
    for _ in range(10_000):
        t = f(t)
    assert repr(t) == "FunApp(sym='f', args=(" * 10_000 + "Param(name='a')" + ",))" * 10_000


# one value per class, printed as frozen dataclasses printed them
FIXED_REPRS = {
    'Param': "Param(name='a')",
    'BoundVar': "BoundVar(name='x')",
    'FunApp': "FunApp(sym='g', args=(FunApp(sym='f', args=(Param(name='a'),)), BoundVar(name='x')))",
    'Atom': "Atom(pred='P', args=(Param(name='a'),))",
    'Eq': "Eq(lhs=Param(name='a'), rhs=FunApp(sym='f', args=(Param(name='a'),)))",
    'Bottom': 'Bottom()',
    'And': "And(left=Eq(lhs=Param(name='a'), rhs=FunApp(sym='f', args=(Param(name='a'),))), right=Bottom())",
    'Or': "Or(left=Bottom(), right=Eq(lhs=Param(name='a'), rhs=FunApp(sym='f', args=(Param(name='a'),))))",
    'Imp': "Imp(left=Eq(lhs=Param(name='a'), rhs=FunApp(sym='f', args=(Param(name='a'),))), right=Eq(lhs=Param(name='a'), rhs=FunApp(sym='f', args=(Param(name='a'),))))",
    'Forall': "Forall(var='x', body=Atom(pred='P', args=(BoundVar(name='x'),)))",
    'Exists': "Exists(var='x', body=Eq(lhs=BoundVar(name='x'), rhs=Param(name='a')))",
    'Sequent': "Sequent(ante=(Eq(lhs=Param(name='a'), rhs=FunApp(sym='f', args=(Param(name='a'),))), Atom(pred='P', args=())), succ=(Atom(pred='Q', args=(Param(name='a'), Param(name='b'))),))",
    'Precedence': "Precedence(kind='explicit', pairs=frozenset({(Param(name='a'), Param(name='b'))}))",
    'CalculusSpec': "CalculusSpec(base='none', rules=frozenset({<RuleId.REFAX: 'refax'>}), flags=frozenset(), precedence=Precedence(kind='none', pairs=frozenset()))",
    'Replacement': 'Replacement(eq_index=None, context_index=1, paths=((0,), (1, 0)))',
    'RuleInstance': "RuleInstance(rule=<RuleId.CUT: 'cut'>, principal=(), replacement=None, witness=None, eigen=None, cut_formula=Eq(lhs=Param(name='a'), rhs=FunApp(sym='f', args=(Param(name='a'),))), split=((0,), ()))",
    'RuleSig': "RuleSig(principal='', fields=('eq_index', 'context_index', 'paths'), index=1, retention='plus', context_side='a')",
    'Derivation': "Derivation(sequent=Sequent(ante=(Eq(lhs=Param(name='a'), rhs=FunApp(sym='f', args=(Param(name='a'),))), Atom(pred='P', args=())), succ=(Atom(pred='Q', args=(Param(name='a'), Param(name='b'))),)), inst=RuleInstance(rule=<RuleId.REP2R: 'rep2r'>, principal=(), replacement=Replacement(eq_index=0, context_index=0, paths=((0,), (1,))), witness=None, eigen=None, cut_formula=None, split=None), children=(Derivation(sequent=Sequent(ante=(Eq(lhs=Param(name='a'), rhs=FunApp(sym='f', args=(Param(name='a'),))), Atom(pred='P', args=())), succ=(Atom(pred='Q', args=(Param(name='a'), Param(name='b'))),)), inst=RuleInstance(rule=<RuleId.INIT: 'init'>, principal=(1, 0), replacement=None, witness=None, eigen=None, cut_formula=None, split=None), children=()),))",
    'CheckFailure': "CheckFailure(node_path=(0, 1), message='bad')",
    'CheckReport': "CheckReport(valid=False, height=1, rule_counts={<RuleId.INIT: 'init'>: 2}, first_error=CheckFailure(node_path=(), message='bad'))",
    'SourceSpan': 'SourceSpan(start=0, end=3, line=1, column=1)',
    'SearchLimits': "SearchLimits(max_depth=6, term_height=3, universe=frozenset({Param(name='a')}), node_budget=100000)",
    'Proved': "Proved(derivation=Derivation(sequent=Sequent(ante=(Eq(lhs=Param(name='a'), rhs=FunApp(sym='f', args=(Param(name='a'),))), Atom(pred='P', args=())), succ=(Atom(pred='Q', args=(Param(name='a'), Param(name='b'))),)), inst=RuleInstance(rule=<RuleId.INIT: 'init'>, principal=(1, 0), replacement=None, witness=None, eigen=None, cut_formula=None, split=None), children=()))",
    'Exhausted': 'Exhausted(expansions=3, memo_size=4, budget_exceeded=False)',
    'DecidedUnderivable': "DecidedUnderivable(reason='countermodel')",
    'ShapeHook': "ShapeHook(name='h', covered_rules=frozenset({<RuleId.LW: 'lw'>}), matches=<built-in function len>)",
    'Signature': "Signature(params=('a',), funcs=(), preds=(), max_ante=2, max_succ=1, fixed_ante=(Eq(lhs=Param(name='a'), rhs=FunApp(sym='f', args=(Param(name='a'),))),))",
    'SaturationResult': "SaturationResult(derived=frozenset({Sequent(ante=(Eq(lhs=Param(name='a'), rhs=FunApp(sym='f', args=(Param(name='a'),))), Atom(pred='P', args=())), succ=(Atom(pred='Q', args=(Param(name='a'), Param(name='b'))),))}), fixpoint=True, expansions=2, pool_size=5)",
    'ExactResult': 'ExactResult(decided=True, derivable=False, states=7)',
    'Chain': "Chain(start=Param(name='a'), end=Param(name='b'), links=((Eq(lhs=Param(name='a'), rhs=Param(name='b')), True),))",
    'WitnessPlan': "WitnessPlan(goal=Sequent(ante=(Eq(lhs=Param(name='a'), rhs=FunApp(sym='f', args=(Param(name='a'),))), Atom(pred='P', args=())), succ=(Atom(pred='Q', args=(Param(name='a'), Param(name='b'))),)), witness_index=None, chains=(Chain(start=Param(name='a'), end=Param(name='a'), links=()),))",
    'TransformReport': "TransformReport(output=Derivation(sequent=Sequent(ante=(Eq(lhs=Param(name='a'), rhs=FunApp(sym='f', args=(Param(name='a'),))), Atom(pred='P', args=())), succ=(Atom(pred='Q', args=(Param(name='a'), Param(name='b'))),)), inst=RuleInstance(rule=<RuleId.REP2R: 'rep2r'>, principal=(), replacement=Replacement(eq_index=0, context_index=0, paths=((0,), (1,))), witness=None, eigen=None, cut_formula=None, split=None), children=(Derivation(sequent=Sequent(ante=(Eq(lhs=Param(name='a'), rhs=FunApp(sym='f', args=(Param(name='a'),))), Atom(pred='P', args=())), succ=(Atom(pred='Q', args=(Param(name='a'), Param(name='b'))),)), inst=RuleInstance(rule=<RuleId.INIT: 'init'>, principal=(1, 0), replacement=None, witness=None, eigen=None, cut_formula=None, split=None), children=()),)), target=CalculusSpec(base='none', rules=frozenset({<RuleId.REFAX: 'refax'>}), flags=frozenset(), precedence=Precedence(kind='none', pairs=frozenset())), input_height=1, output_height=1, steps=())",
    '_RightJob': '_RightJob(idx=1, ei=0, j=0, path=(1,))',
}


def _fixed_values():
    from eqseq.calculus import CalculusSpec, Precedence, RULES, Replacement, RuleId, RuleInstance
    from eqseq.checker import CheckFailure, CheckReport, Derivation
    from eqseq.parser import SourceSpan
    from eqseq.search import (
        Chain, DecidedUnderivable, ExactResult, Exhausted, Proved, SaturationResult, SearchLimits, ShapeHook,
        Signature, WitnessPlan,
    )
    from eqseq.transform import TransformReport, _RightJob

    x = BoundVar("x")
    fa = f(a)
    e = Eq(a, fa)
    s = Sequent((e, Atom("P", ())), (Atom("Q", (a, b)),))
    inst = RuleInstance(RuleId.REP2R, replacement=Replacement(0, 0, ((1,), (0,))))
    d = Derivation(s, inst, (Derivation(s, RuleInstance(RuleId.INIT, (1, 0))),))
    spec = CalculusSpec("none", frozenset({RuleId.REFAX}))
    return {
        "Param": a, "BoundVar": x, "FunApp": FunApp("g", (fa, x)), "Atom": Atom("P", (a,)), "Eq": e,
        "Bottom": BOT, "And": And(e, BOT), "Or": Or(BOT, e), "Imp": Imp(e, e),
        "Forall": Forall("x", Atom("P", (x,))), "Exists": Exists("x", Eq(x, a)),
        "Sequent": s,
        "Precedence": Precedence("explicit", frozenset({(a, b)})),
        "CalculusSpec": spec,
        "Replacement": Replacement(None, 1, [(1, 0), (0,), (1, 0)]),
        "RuleInstance": RuleInstance(RuleId.CUT, cut_formula=e, split=((0,), ())),
        "RuleSig": RULES[RuleId.REP1LP],
        "Derivation": d,
        "CheckFailure": CheckFailure((0, 1), "bad"),
        "CheckReport": CheckReport(False, 1, {RuleId.INIT: 2}, CheckFailure((), "bad")),
        "SourceSpan": SourceSpan(0, 3, 1, 1),
        "SearchLimits": SearchLimits(universe=frozenset({a})),
        "Proved": Proved(Derivation(s, RuleInstance(RuleId.INIT, (1, 0)))),
        "Exhausted": Exhausted(3, 4),
        "DecidedUnderivable": DecidedUnderivable("countermodel"),
        "ShapeHook": ShapeHook("h", frozenset({RuleId.LW}), len),
        "Signature": Signature(("a",), fixed_ante=(e,)),
        "SaturationResult": SaturationResult(frozenset({s}), True, 2, 5),
        "ExactResult": ExactResult(True, False, 7),
        "Chain": Chain(a, b, ((Eq(a, b), True),)),
        "WitnessPlan": WitnessPlan(s, None, (Chain(a, a),)),
        "TransformReport": TransformReport(d, spec, 1, 1),
        "_RightJob": _RightJob(1, 0, 0, (1,)),
    }


def test_fixed_reprs():
    values = _fixed_values()
    assert list(values) == list(FIXED_REPRS)
    for name, value in values.items():
        assert type(value).__name__ == name
        assert repr(value) == FIXED_REPRS[name], name


def test_values_are_immutable_and_hash_by_fields():
    for name, value in _fixed_values().items():
        field = value._fields[0] if value._fields else "anything"
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        if isinstance(value, (Term, Formula, Sequent)) or name in ("Derivation", "CheckReport"):
            continue  # identity, multiset and tree hashes; a dict field is unhashable
        assert hash(value) == hash(tuple(getattr(value, k) for k in value._fields)), name
