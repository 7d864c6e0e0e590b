import pathlib
import re

import pytest
from hypothesis import given, settings, strategies as st

from eqseq.parser import (
    ArityConflictError,
    ParseError,
    parse_derivation,
    parse_formula,
    parse_sequent,
    print_derivation,
    print_formula,
    print_sequent,
)
from eqseq.calculus import RULES, Replacement, RuleId, RuleInstance
from eqseq.checker import Derivation
from eqseq.syntax import And, Atom, BoundVar, Eq, Forall, FunApp, Imp, Or, Param, Sequent, map_leaves

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_formula_examples():
    assert parse_formula("a = f(a)") == Eq(Param("a"), FunApp("f", (Param("a"),)))
    p = Atom("P", (Param("a"),))
    assert parse_formula("P(a) -> P(a)") == Imp(p, p)
    forall = parse_formula("forall x. x = x")
    assert isinstance(forall, Forall)
    assert print_formula(forall) == "forall x. x = x"


def test_precedence_and_associativity():
    got = parse_formula("P & Q | R -> S")
    assert got == Imp(Or(And(Atom("P", ()), Atom("Q", ())), Atom("R", ())), Atom("S", ()))
    right = parse_formula("P -> Q -> R")
    assert right == Imp(Atom("P", ()), Imp(Atom("Q", ()), Atom("R", ())))


def test_quantifier_scope_maximal():
    got = parse_formula("forall x. P(x) & Q")
    assert isinstance(got, Forall)
    assert isinstance(got.body, And)


def test_binder_renamed_apart_from_parameters():
    got = parse_formula("(forall a. P(a)) & Q(a)")
    assert isinstance(got.left, Forall)
    assert got.left.var != "a"
    assert got.right == Atom("Q", (Param("a"),))


def test_renamed_binder_captures_no_variable():
    # the fresh name skips a name bound inside the body; disjoint scopes may
    # reuse one
    got = parse_formula("P(a) & forall a. forall a'. Q(a, a')")
    assert print_formula(got) == "P(a) & (forall a''. forall a'. Q(a'', a'))"
    got = parse_formula("P(a) & (forall a. Q(a)) & (forall a'. Q(a'))")
    assert print_formula(got) == "P(a) & (forall a'. Q(a')) & (forall a'. Q(a'))"


def _reference_rename_binders_apart(f):
    """The recursive renaming that the parser's one formula map replaced."""
    from eqseq.syntax import Exists, formula_params

    params = formula_params(f)

    def binders(g):
        if isinstance(g, (And, Or, Imp)):
            return binders(g.left) | binders(g.right)
        if isinstance(g, (Forall, Exists)):
            return {g.var} | binders(g.body)
        return set()

    def replace(g, old, new):  # a bound variable, where it is free
        if isinstance(g, (And, Or, Imp)):
            return type(g)(replace(g.left, old, new), replace(g.right, old, new))
        if isinstance(g, (Forall, Exists)):
            return g if g.var == old.name else type(g)(g.var, replace(g.body, old, new))
        return map_leaves(g, {old: new})  # an atomic formula

    def walk(g, renaming):
        if isinstance(g, (And, Or, Imp)):
            return type(g)(walk(g.left, renaming), walk(g.right, renaming))
        if isinstance(g, (Forall, Exists)):
            var, body = g.var, g.body
            if var in params:
                taken = params | set(renaming.values()) | binders(body)
                while var in taken:
                    var += "'"
                body = replace(body, BoundVar(g.var), BoundVar(var))
            return type(g)(var, walk(body, {**renaming, g.var: var}))
        return g

    return walk(f, {})


# quantifiers over names that collide with parameters and with each other
_names = ["a", "a'", "a''"]
_open_formulas = st.recursive(
    st.builds(
        lambda args: Atom("Q", tuple(args)),
        st.lists(st.sampled_from([Param("a"), Param("a'"), *map(BoundVar, _names)]), min_size=1, max_size=3),
    ),
    lambda sub: st.one_of(
        st.builds(lambda cls, l, r: cls(l, r), st.sampled_from([And, Or, Imp]), sub, sub),
        st.builds(Forall, st.sampled_from(_names), sub),
    ),
    max_leaves=8,
)


@settings(max_examples=300)
@given(_open_formulas)
def test_binder_renaming_agrees_with_recursive_reference(f):
    from eqseq.parser import _rename_binders_apart

    assert _rename_binders_apart(f) == _reference_rename_binders_apart(f)


def test_sequent_examples():
    s = parse_sequent("a=c, b=c |- a=b")
    assert len(s.ante) == 2 and len(s.succ) == 1
    s2 = parse_sequent("|- t = t")
    assert s2.ante == () and s2.succ == (Eq(Param("t"), Param("t")),)
    s3 = parse_sequent("P(a), P(a) |- P(a)")
    assert s3.ante.count(Atom("P", (Param("a"),))) == 2


def test_empty_sides():
    assert parse_sequent("P(a) |-").succ == ()
    assert parse_sequent("|-") == parse_sequent(" |- ")


def test_comments_ignored():
    s = parse_sequent("a = b |- a = b  # transitivity base")
    assert len(s.ante) == 1


def test_parse_errors_carry_spans():
    with pytest.raises(ParseError) as err:
        parse_formula("P(a -> b)")
    assert err.value.span.line == 1
    assert 0 <= err.value.span.start <= err.value.span.end


def test_arity_conflict():
    with pytest.raises(ArityConflictError):
        parse_formula("f(a) = f(a, b)")


def test_derivation_arity_conflict_keeps_its_class():
    # inside a node's sequent: the class survives the "in sequent" wrapper
    with pytest.raises(ArityConflictError) as err:
        parse_derivation('(land [0] "P(a), P(a, b) |- Q")')
    assert str(err.value) == (
        "in sequent 'P(a), P(a, b) |- Q': arity-conflict: predicate P used with 2 args, earlier 1"
        " at line 1, column 11"
    )
    # inside a quoted cut formula, against the arity its parent's sequent set
    with pytest.raises(ArityConflictError) as err:
        parse_derivation('(land [0] "P(a) |- Q" (cut [0;;"P(a, b)"] "P(a) |- Q"))')
    assert err.value.message == "arity-conflict: predicate P used with 2 args, earlier 1"


def test_reserved_eigenparameter_names():
    with pytest.raises(ParseError):
        parse_sequent("_e1 = a |- a = a")


def test_derivation_leaf_round_trip():
    text = '(init [0;0] "P(a) |- P(a)")\n'
    d = parse_derivation(text)
    assert d.children == ()
    assert print_derivation(d) == text


def test_derivation_unknown_rule():
    with pytest.raises(ParseError):
        parse_derivation('(frobnicate [0] "P(a) |- P(a)")')


def test_derivation_malformed_args():
    with pytest.raises(ParseError):
        parse_derivation('(rep2r [0;0;] "a = b |- a = a" (init [0;0] "a = b |- a = b"))')


_a, _b = Param("a"), Param("b")
_fa = FunApp("f", (_a,))

# One instance of every rule with its exact `.drv` argument text.
INSTANCE_ARGS = [
    (RuleInstance(RuleId.INIT, (1, 0)), "1;0"),
    (RuleInstance(RuleId.MINBOT, (0, 2)), "0;2"),
    (RuleInstance(RuleId.REFAX, (2,)), "2"),
    (RuleInstance(RuleId.LBOT, (1,)), "1"),
    (RuleInstance(RuleId.LAND, (0,)), "0"),
    (RuleInstance(RuleId.RAND, (1,)), "1"),
    (RuleInstance(RuleId.LOR, (2,)), "2"),
    (RuleInstance(RuleId.ROR, (0,)), "0"),
    (RuleInstance(RuleId.LIMP, (1,)), "1"),
    (RuleInstance(RuleId.RIMP, (0,)), "0"),
    (RuleInstance(RuleId.LIMPI, (3,)), "3"),
    (RuleInstance(RuleId.RIMPI, (1,)), "1"),
    (RuleInstance(RuleId.LFORALL, (1,), witness=_fa), "1;f(a)"),
    (RuleInstance(RuleId.RFORALL, (0,), eigen="_e1"), "0;_e1"),
    (RuleInstance(RuleId.RFORALLI, (2,), eigen="_e3"), "2;_e3"),
    (RuleInstance(RuleId.LEXISTS, (1,), eigen="_e2"), "1;_e2"),
    (RuleInstance(RuleId.REXISTS, (0,), witness=FunApp("g", (_a, _b))), "0;g(a, b)"),
    (RuleInstance(RuleId.LW, (2,)), "2"),
    (RuleInstance(RuleId.RW, (0,)), "0"),
    (RuleInstance(RuleId.LC, (1,)), "1"),
    (RuleInstance(RuleId.RC, (2,)), "2"),
    (RuleInstance(RuleId.LCEQ, (0,)), "0"),
    (
        RuleInstance(RuleId.CUT, cut_formula=Forall("x", Imp(Atom("P", (BoundVar("x"),)), Atom("Q", ()))),
                     split=((0, 2), (1,))),
        '0,2;1;"forall x. P(x) -> Q"',
    ),
    (RuleInstance(RuleId.REFL, witness=_fa), "f(a)"),
    (RuleInstance(RuleId.EQ1, replacement=Replacement(1, 0, ((0,),))), "1;0;0"),
    (RuleInstance(RuleId.EQ2, replacement=Replacement(0, 1, ((1, 0),))), "0;1;1.0"),
    (RuleInstance(RuleId.REP1R, replacement=Replacement(0, 1, ((0,),))), "0;1;0"),
    (RuleInstance(RuleId.REP2R, replacement=Replacement(2, 0, ((1,), (0, 1)))), "2;0;0.1,1"),
    (RuleInstance(RuleId.REP1L, replacement=Replacement(0, 2, ((1,),))), "0;2;1"),
    (RuleInstance(RuleId.REP2L, replacement=Replacement(1, 0, ((0,), (1,)))), "1;0;0,1"),
    (RuleInstance(RuleId.REP, replacement=Replacement(2, 1, ((0, 0),))), "2;1;0.0"),
    (RuleInstance(RuleId.REPP, replacement=Replacement(1, 2, ((1,),))), "1;2;1"),
    (RuleInstance(RuleId.REP1LP, replacement=Replacement(0, 1, ((0,),))), "0;1;0"),
    (RuleInstance(RuleId.REP2LP, replacement=Replacement(1, 0, ((1, 1),))), "1;0;1.1"),
    (
        RuleInstance(RuleId.CNG, replacement=Replacement(None, 1, ((1, 0), (0,))), witness=_fa,
                     split=((0,), ())),
        '0;;1;0,1.0;"f(a)"',
    ),
    (RuleInstance(RuleId.SYMM, (1,)), "1"),
]


@pytest.mark.parametrize("inst, args", INSTANCE_ARGS, ids=[i.rule.value for i, _ in INSTANCE_ARGS])
def test_instance_args_text(inst, args):
    text = f'({inst.rule.value} [{args}] "|-")\n'
    assert print_derivation(Derivation(Sequent((), ()), inst)) == text
    assert parse_derivation(text).inst == inst


def test_instance_args_cover_every_rule():
    assert sorted(inst.rule.value for inst, _ in INSTANCE_ARGS) == sorted(r.value for r in RuleId)
    assert sorted(r.value for r in RULES) == sorted(r.value for r in RuleId)


@pytest.mark.parametrize(
    "text, message, span",
    [
        ('(rep2r [0;0;] "a = b |- a = a")', "malformed instance args: empty path list", (1, 6, 1, 2)),
        ('(cng [;;0;;"a"] "|-")', "malformed instance args: empty path list", (1, 4, 1, 2)),
        ('(rep2r [0;0] "|-")', "expected ';', found ']'", (11, 12, 1, 12)),
        ('(cut [0;1;P] "|-")', "expected a quoted string, found 'P'", (10, 11, 1, 11)),
        ('(cut [0;1;"P("] "|-")', "unexpected end of input", (13, 13, 1, 14)),
        ('(lforall [0;P] "|-")', "expected a term, found 'P'", (12, 13, 1, 13)),
        ('(rforall [0;3] "|-")', "expected a name, found '3'", (12, 13, 1, 13)),
        ('(init [0] "|-")', "expected ';', found ']'", (8, 9, 1, 9)),
        ('(refl [] "|-")', "expected a term, found ']'", (7, 8, 1, 8)),
        ('(land [x] "|-")', "expected an index, found 'x'", (7, 8, 1, 8)),
        ('(land [0;1] "|-")', "expected ']', found ';'", (8, 9, 1, 9)),
        # an error inside a quoted argument is placed in the file
        (
            '(land [0] "P(a) |- Q"\n  (land [0] "P(a) |- Q"\n    (cut [0;;"P(a b)"] "P(a) |- Q")))',
            "expected ')', found 'b'",
            (64, 65, 3, 19),
        ),
        ('(cng [0;0;0;;"a b"] "|-")', "trailing input 'b'", (16, 17, 1, 17)),
    ],
)
def test_instance_arg_errors(text, message, span):
    with pytest.raises(ParseError) as err:
        parse_derivation(text)
    s = err.value.span
    assert (err.value.message, (s.start, s.end, s.line, s.column)) == (message, span)


def test_golden_corpus_round_trip():
    files = sorted(GOLDEN.glob("*.drv"))
    assert len(files) >= 20
    for path in files:
        text = path.read_text(encoding="utf-8")
        d = parse_derivation(text)
        body = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))
        assert print_derivation(d) == body, path.name
        assert parse_derivation(print_derivation(d)) == d, path.name


_terms = st.recursive(
    st.sampled_from([Param("a"), Param("b"), Param("t")]),
    lambda sub: st.builds(lambda x: FunApp("f", (x,)), sub),
    max_leaves=3,
)
_formulas = st.recursive(
    st.one_of(
        st.builds(Eq, _terms, _terms),
        st.builds(lambda t: Atom("P", (t,)), _terms),
        st.just(Atom("Q", ())),
    ),
    lambda sub: st.one_of(
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Imp, sub, sub),
    ),
    max_leaves=6,
)


@given(_formulas)
def test_print_parse_identity(f):
    assert parse_formula(print_formula(f)) == f


@given(st.lists(_formulas, max_size=3), st.lists(_formulas, max_size=3))
def test_sequent_print_parse_identity(ante, succ):
    from eqseq.syntax import Sequent

    s = Sequent(tuple(ante), tuple(succ))
    back = parse_sequent(print_sequent(s))
    assert back.ante == s.ante and back.succ == s.succ


def test_random_derivations_round_trip():
    import random

    from corpus import grow
    from eqseq.calculus import PRESETS, RuleId

    rng = random.Random(47)
    spec = PRESETS["R12rl"].with_rules(RuleId.CUT, RuleId.LC, RuleId.LW)
    for _ in range(40):
        d = grow(rng, spec, depth=5, allow_cut=True)
        text = print_derivation(d)
        assert parse_derivation(text) == d
        assert print_derivation(parse_derivation(text)) == text


# -- the one-pass lexer against the character-by-character reference


def _lex(tokens_of, text):
    try:
        return tokens_of(text)
    except ParseError as exc:
        return ("error", exc.message, exc.span)


def _regex_tokens(text):
    from eqseq.parser import _Lexer

    lexer = _Lexer(text)
    return [(kind, tok, lexer.span(start, end)) for kind, tok, start, end in lexer.tokens]


_LEXER_PIECES = [
    "a", "P", "f", "x1", "_e", "'", "+", "forall", " ", "  ", "\n", "\t", "\r", "#", "# c\n",
    '"', '"a, b |- c"', "|-", "->", "|", "-", "(", ")", ",", "=", "&", ".", "[", "]", ";",
    "0", "12", "é", "ä", "²", "Ⅷ", "٣", "\xa0",
]


@settings(max_examples=400)
@given(st.lists(st.one_of(st.sampled_from(_LEXER_PIECES), st.characters()), max_size=40))
def test_lexer_matches_character_reference(pieces):
    from lexer_reference import reference_tokens

    text = "".join(pieces)
    assert _lex(_regex_tokens, text) == _lex(reference_tokens, text)


@pytest.mark.parametrize(
    "text",
    ['a # "b" c\n"d # e" f', '"x\ny" z', "12²3 ²a é1", "a |-> b -|", "P(a) #", '"open'],
)
def test_lexer_matches_character_reference_on(text):
    from lexer_reference import reference_tokens

    assert _lex(_regex_tokens, text) == _lex(reference_tokens, text)


def test_lexer_classes_every_character_like_the_reference():
    from lexer_reference import reference_tokens

    codes = [*range(0x3000), *range(0x3000, 0x110000, 89)]
    for c in (chr(k) for k in codes if not 0xD800 <= k < 0xE000):
        text = f"a{c}1{c} 1{c}(23{c}\n{c}b # {c}"
        assert _lex(_regex_tokens, text) == _lex(reference_tokens, text), repr(c)


def test_lexer_matches_reference_on_golden_files():
    from lexer_reference import reference_tokens

    for path in sorted(GOLDEN.glob("*.drv")):
        text = path.read_text(encoding="utf-8")
        tokens = reference_tokens(text)
        assert _regex_tokens(text) == tokens, path.name
        for kind, string, _ in tokens:
            if kind == "string":
                assert _regex_tokens(string) == reference_tokens(string), path.name


def test_non_ascii_tokens():
    assert parse_sequent("é = b |- P(é)").succ == (Atom("P", (Param("é"),)),)
    with pytest.raises(ParseError) as err:
        parse_formula("a = ²")
    assert err.value.message == "expected a term, found '²'"
    with pytest.raises(ParseError) as err:
        parse_formula("a =\n Ⅷ")
    assert err.value.message == "unexpected character 'Ⅷ'"
    assert (err.value.span.line, err.value.span.column) == (2, 2)



@pytest.mark.parametrize(
    "text, message, span",
    [
        ('(init [²;0] "P |- P")', "expected an index, found '²'", (7, 8, 1, 8)),
        ('(init [٠;0] "P |- P")', "expected an index, found '٠'", (7, 8, 1, 8)),
        ('(init [0;1²] "P |- P")', "expected an index, found '1²'", (9, 11, 1, 10)),
        ('(rep2r [²;0;0] "a = b |- a = a")', "expected an index, found '²'", (8, 9, 1, 9)),
        ('(rep2r [0;0;0.²] "a = b |- a = a")', "expected an index, found '²'", (14, 15, 1, 15)),
        ('(rep2r [0;0;0,²] "a = b |- a = a")', "expected an index, found '²'", (14, 15, 1, 15)),
    ],
)
def test_non_decimal_digit_index(text, message, span):
    # '²' is a digit to ``str.isdigit`` but not an int, and '٠' an int the
    # printer never writes: a parse error at either
    from drv_reference import reference_derivation

    for read in (parse_derivation, reference_derivation):
        with pytest.raises(ParseError) as err:
            read(text)
        s = err.value.span
        assert (err.value.message, (s.start, s.end, s.line, s.column)) == (message, span), read


# -- the per-file formula table

_SEQUENT_FORMULAS = [
    "P(a)", "P(a, b)", "P ( a )", "Q", "f(a) = b", "f(a, b) = a", "a = a", "P(f(a))", "bot",
    "forall x. P(x)", "P(x)", "P(a) & Q", "(P(a))", "P(a) -> Q", "P(a", "a", "", "a = b # c",
    "_e1 = a", "P(a))",
]


def _drv_text(sequents):
    lines = []
    for depth, (ante, succ) in enumerate(sequents):
        rule = "init [0;0]" if depth == len(sequents) - 1 else "land [0]"
        lines.append(f'{"  " * depth}({rule} "{", ".join(ante)} |- {", ".join(succ)}"')
    return "\n".join(lines) + ")" * len(sequents) + "\n"


def _parsed(text):
    try:
        return parse_derivation(text)
    except ParseError as exc:
        return (type(exc), exc.message, exc.span)


_sides = st.lists(st.sampled_from(_SEQUENT_FORMULAS), max_size=3)


@given(st.lists(st.tuples(_sides, _sides), min_size=1, max_size=5))
def test_formula_table_changes_no_result(sequents):
    from unittest import mock

    from eqseq.parser import _DerivationParser

    text = _drv_text(sequents)
    # with the split turned off, every sequent is read by tokens, without the table
    with mock.patch.object(_DerivationParser, "_sequent", lambda self, text: None):
        want = _parsed(text)
    assert _parsed(text) == want


def test_formula_table_shares_repeated_formulas():
    d = parse_derivation('(land [0] "P(a), R(a, f(b)) |- P(a)"\n  (init [0;0] "P(a), R(a, f(b)) |- R(a, f(b))"))\n')
    assert d.sequent.ante[0] is d.sequent.succ[0] is d.children[0].sequent.ante[0]
    assert d.sequent.ante[1] is d.children[0].sequent.ante[1] is d.children[0].sequent.succ[0]
    with pytest.raises(ParseError) as err:
        parse_derivation('(land [0] "P(a), f(a) = b |- P(a)"\n  (init [0;0] "P(a, b), f(a) = b |- P(a)"))\n')
    assert "arity-conflict: predicate P used with 2 args, earlier 1" in err.value.message


# -- the head-match derivation reader against the token-level reference


def _read(parse, text):
    """The derivation and its printed text, or the error's class, message and span."""
    try:
        d = parse(text)
    except ParseError as exc:
        return type(exc), exc.message, exc.span
    return d, print_derivation(d)


def _reshape(rng, text):
    """``text`` with one edit the head match does not cover, or covers
    differently: a comment, a ``#`` in a string, or other blanks."""
    edit = rng.randrange(5)
    if edit == 0:  # a comment where a blank was, holding a quote or a paren
        spots = [m.start() for m in re.finditer(r"[ \n]", text)] or [0]
        k = rng.choice(spots)
        return text[:k] + rng.choice([' # a "note (', " #)", "#"]) + "\n" + text[k:]
    if edit == 1:  # a ``#`` inside a sequent or quoted-argument string
        spots = [m.start() + 1 for m in re.finditer(r'"[^"]', text)] or [0]
        k = rng.choice(spots)
        return text[:k] + rng.choice(["#", "# x", "#)"]) + text[k:]
    if edit == 2:  # each blank run becomes another one
        return re.sub(r"[ \t\r\n]+", lambda m: rng.choice([" ", "\t", "\r\n", "  \n\t", ""]) if rng.random() < 0.3 else m[0], text)
    if edit == 3:  # blanks around the separators of args, paths and formulas
        return re.sub(r"[;,.]", lambda m: rng.choice(["", " ", "\n"]) + m[0] + rng.choice(["", " ", "\t"]), text)
    # every blank run around a paren, bracket or quote goes
    return re.sub(r'[ \t\r\n]*([()\[\]"])[ \t\r\n]*', r"\1", text) if rng.random() < 0.5 else text.replace(" ", "   ")


def _differential_inputs():
    import random

    from corpus import grow, mutate_text
    from eqseq.calculus import PRESETS, RuleId

    texts = [path.read_text(encoding="utf-8") for path in sorted(GOLDEN.glob("*.drv"))]
    rng = random.Random(24)
    spec = PRESETS["R12rl"].with_rules(RuleId.CUT, RuleId.LC, RuleId.LW)
    texts += [print_derivation(grow(rng, spec, depth=rng.randint(1, 8), allow_cut=True)) for _ in range(40)]
    # index args that split like their tokens, and ones that only seem to
    odd = ["0;0;1,", "0;0;,1", "0;0;1..0", "0;0;1_0", " 0 ;0;\n1 . 0 , 1", "0;0", "0;0;1;2", "0;;1", "0;0;", "0 0;0;1", "00;0;1.0.0"]
    for args in odd:
        for leaf in ("0;0", " 1 ;0", "0;", "0,1;0", "0_1;0", "1;0 "):
            texts.append(f'(rep2r [{args}] "a = b |- P(a)"\n  (init [{leaf}] "a = b |- P(b)"))\n')
    whole = list(texts)
    for k in range(600):
        text = whole[k % len(whole)]
        texts.append(mutate_text(rng, text) if k % 2 else _reshape(rng, text))
        if k % 5 == 0:
            texts.append(_reshape(rng, mutate_text(rng, text)))
    return texts


def test_derivation_reader_matches_token_reference():
    from drv_reference import reference_derivation

    read = errors = 0
    for text in _differential_inputs():
        want = _read(reference_derivation, text)
        got = _read(parse_derivation, text)
        assert got == want, text
        errors += isinstance(want[0], type)
        read += not isinstance(want[0], type)
    # both outcomes are exercised
    assert read > 200 and errors > 200, (read, errors)


def test_derivation_reader_lexes_each_text_once():
    # one lexer for the file, then one per distinct formula text and per
    # distinct quoted-argument text, each read the first time it appears
    from unittest import mock

    from eqseq import parser

    made = []
    real_init = parser._Lexer.__init__

    def counting_init(self, *args, **kw):
        made.append(args[0])
        real_init(self, *args, **kw)

    for path in sorted(GOLDEN.glob("*.drv")):
        text = path.read_text(encoding="utf-8")
        made.clear()
        with mock.patch.object(parser._Lexer, "__init__", counting_init):
            d = parse_derivation(text)
        nodes, formulas = [d], set()
        while nodes:
            n = nodes.pop()
            nodes += n.children
            formulas |= {print_formula(f) for f in n.sequent.all_formulas()}
        quoted = set(re.findall(r'"([^"]*)"', "".join(re.findall(r"\[[^\]]*\]", text))))
        assert len(made) <= 1 + len(formulas) + len(quoted), (path.name, made)
