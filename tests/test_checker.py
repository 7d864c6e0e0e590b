import pathlib
import random

from corpus import grow, valid_spine
from eqseq.calculus import PRESETS, RuleId, leaf, repl_inst, resolve_spec
from eqseq.checker import check, node, stats
from eqseq.parser import parse_derivation, parse_sequent, print_derivation

GOLDEN = pathlib.Path(__file__).parent / "golden"


def load(name):
    return parse_derivation((GOLDEN / f"{name}.drv").read_text(encoding="utf-8"))


def test_symm_template_checks_in_its_calculus():
    d = load("symm_case_1_1")
    rep = check(d, resolve_spec("base=none rules=refax,rep1r,cut"))
    assert rep.valid and rep.height == 2
    assert rep.rule_counts[RuleId.CUT] == 1


def test_expansion_step_valid_and_rule_sensitive():
    d = load("expansion_necessity")
    assert check(d, PRESETS["EqCutFree"]).valid
    rep = check(d, PRESETS["R12r"])  # eq1 is not a rule of that calculus
    assert not rep.valid
    assert "rule-not-in-calculus" in rep.first_error.message


def test_check_reports_first_error_path():
    good = load("s1_witness")
    bad = node(good.sequent, repl_inst(RuleId.REP2R, 0, 0, [(1,)]), good.children[0])
    rep = check(bad, PRESETS["R12r"])
    assert not rep.valid
    assert rep.first_error.node_path == ()


def test_premiss_multiset_matching_is_exact():
    # a missing context formula in the premiss must be rejected
    concl = parse_sequent("a=b, Q(c) |- P(b)")
    prem_wrong = parse_sequent("a=b |- P(a)")
    d = node(concl, repl_inst(RuleId.REP1R, 0, 0, [(0,)]), node(prem_wrong, leaf(RuleId.INIT, 0, 0)))
    rep = check(d, PRESETS["R12r"])
    assert not rep.valid


def test_child_order_is_multiset_insensitive():
    text = '(rep2r [1;0;1] "a = c, b = c |- a = b"\n  (init [1;0] "b = c, a = c |- a = c"))'
    d = parse_derivation(text)
    assert check(d, PRESETS["R12r"]).valid


def test_tall_derivation_walks_without_recursion():
    # a 10,000-node spine is far past the interpreter's recursion limit
    seq = parse_sequent("a=b |- P(a)")
    d = node(seq, leaf(RuleId.REFAX, 0))
    for _ in range(9_999):
        d = node(seq, repl_inst(RuleId.REP2R, 0, 0, [(0,)]), d)
    nodes = list(d.nodes())
    assert len(nodes) == 10_000 and nodes[0] is d and nodes[-1].inst.rule is RuleId.REFAX
    assert d.height == 9_999 and nodes[1].height == 9_998
    assert d.rules_used() == {RuleId.REP2R, RuleId.REFAX}
    # a valid spine of as many nodes checks, prints, parses back and hashes
    tall = valid_spine(10_000)
    rep = check(tall, PRESETS["R12r"])
    assert rep.valid and rep.height == 9_999
    assert rep.rule_counts == {RuleId.REP2R: 5_000, RuleId.REP1R: 4_999, RuleId.INIT: 1}
    text = print_derivation(tall)
    # indentation stops at a fixed depth: two spaces a level would print 100 MB
    assert len(text) < 5_000_000
    back = parse_derivation(text)
    assert back == tall and back is not tall
    assert hash(back) == hash(tall)


def test_nodes_in_preorder():
    d = load("symm_case_2_1")
    expected = []

    def preorder(n):
        expected.append(n)
        for c in n.children:
            preorder(c)

    preorder(d)
    assert [id(n) for n in d.nodes()] == [id(n) for n in expected]


def test_stats():
    d = load("symm_case_2_1")
    rep = stats(d)
    assert rep.height == 4
    assert rep.rule_counts[RuleId.REP1L] == 2
    assert rep.rule_counts[RuleId.LW] == 1
    leaf_only = load("rep_elim_case_1_3_1")
    assert stats(leaf_only).height == 0


def test_monotone_in_rules():
    d = load("s1_witness")
    small = PRESETS["R12r"]
    big = small.with_rules(RuleId.CUT, RuleId.LC, RuleId.EQ1)
    assert check(d, small).valid
    assert check(d, big).valid


def test_golden_corpus_all_valid():
    for path in sorted(GOLDEN.glob("*.drv")):
        text = path.read_text(encoding="utf-8")
        spec_line = next(l for l in text.splitlines() if l.startswith("# check:"))
        spec = resolve_spec(spec_line.split(":", 1)[1].strip())
        rep = check(parse_derivation(text), spec)
        assert rep.valid, (path.name, str(rep.first_error))


def test_g3c_propositional_derivation():
    d = parse_derivation(
        '(rimp [0] "|- P(a) & Q(b) -> Q(b)"\n'
        '  (land [0] "P(a) & Q(b) |- Q(b)"\n'
        '    (init [1;0] "P(a), Q(b) |- Q(b)")))'
    )
    assert check(d, PRESETS["G3c"]).valid
    rep = check(d, PRESETS["G3i"])  # rimp is the classical rule
    assert not rep.valid


def test_g3i_and_g3m_implication_rules():
    d = parse_derivation(
        '(rimpi [0] "R(c) |- P(a) -> P(a)"\n'
        '  (init [0;0] "P(a), R(c) |- P(a)"))'
    )
    assert check(d, PRESETS["G3i"]).valid
    assert check(d, PRESETS["G3m"]).valid
    assert not check(d, PRESETS["G3c"]).valid


def test_bottom_leaves_per_base():
    c_leaf = parse_derivation('(lbot [0] "bot, P(a) |- Q(b)")')
    assert check(c_leaf, PRESETS["G3c"]).valid
    assert check(c_leaf, PRESETS["G3i"]).valid
    assert not check(c_leaf, PRESETS["G3m"]).valid
    m_leaf = parse_derivation('(minbot [0;0] "bot, P(a) |- bot")')
    assert check(m_leaf, PRESETS["G3m"]).valid
    assert not check(m_leaf, PRESETS["G3c"]).valid


def test_quantifier_round_trip_and_checking():
    text = (
        '(rexists [0;f(a)] "P(f(a)) |- exists x. P(x)"\n'
        '  (init [0;1] "P(f(a)) |- exists x. P(x), P(f(a))"))\n'
    )
    d = parse_derivation(text)
    assert check(d, PRESETS["G3c"]).valid
    from eqseq.parser import print_derivation

    assert print_derivation(d) == text


def test_grown_cuts_use_only_the_specs_succedent_rules():
    spec = PRESETS["R1rlPlus"].with_rules(RuleId.CUT, RuleId.LC, RuleId.LW)
    rng = random.Random(3)
    grown = [grow(rng, spec, depth=6, allow_cut=True) for _ in range(60)]
    used = set().union(*(d.rules_used() for d in grown))
    assert RuleId.CUT in used and RuleId.REP1R in used and RuleId.REP2R not in used
