import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

from corpus import eq_spine, mutate_text, valid_spine
from eqseq.cli import _TRANSFORMS, run
from eqseq.checker import check
from eqseq.parser import parse_derivation, parse_sequent, print_derivation, print_sequent
from eqseq.calculus import PRESETS, RuleId


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _strip_timing(text):
    return re.sub(r"^time_ms: \d+$", "time_ms: X", text, flags=re.M)


def test_prove_writes_checkable_drv(tmp_path, capsys):
    out_file = tmp_path / "w.drv"
    code, out, _ = invoke(
        capsys, "prove", "a=c, b=c |- a=b", "--preset", "R12r", "--depth", "3", "-o", str(out_file)
    )
    assert code == 0
    assert "result: proved" in out and "height: 1" in out
    d = parse_derivation(out_file.read_text())
    assert check(d, PRESETS["R12r"]).valid


def test_prove_exhaustion_exit_code(capsys):
    code, out, _ = invoke(
        capsys, "prove", "a=f(a) |- a=f(f(a))", "--preset", "EqCutFree",
        "--depth", "8", "--term-height", "4",
    )
    assert code == 1
    assert "result: exhausted" in out


def test_prove_underivable_via_countermodel(capsys):
    code, out, _ = invoke(capsys, "prove", "a=b |- a=c", "--preset", "R12r")
    assert code == 1
    assert "result: underivable" in out and "reason: countermodel" in out


def test_prove_underivable_via_hook(capsys):
    code, out, _ = invoke(capsys, "prove", "a=c, b=c |- a=b", "--preset", "S1")
    assert code == 1
    assert "result: underivable" in out


def test_check_valid_and_invalid(tmp_path, capsys):
    drv = tmp_path / "d.drv"
    drv.write_text('(rep2r [1;0;1] "a = c, b = c |- a = b"\n  (init [0;0] "a = c, b = c |- a = c"))\n')
    code, out, _ = invoke(capsys, "check", str(drv), "--preset", "R12r")
    assert code == 0 and "result: valid" in out
    code, out, _ = invoke(capsys, "check", str(drv), "--preset", "EqCutFree")
    assert code == 1 and "result: invalid" in out


def test_check_spec_string(tmp_path, capsys):
    drv = tmp_path / "d.drv"
    drv.write_text('(refax [0] "|- t = t")\n')
    code, out, _ = invoke(capsys, "check", str(drv), "--spec", "base=none rules=refax")
    assert code == 0


def test_decide_and_witness(tmp_path, capsys):
    out_file = tmp_path / "o.drv"
    code, out, _ = invoke(capsys, "decide", "P(a), a=b |- P(b)", "-o", str(out_file))
    assert code == 0
    d = parse_derivation(out_file.read_text())
    assert check(d, PRESETS["R2rl"]).valid
    code, out, _ = invoke(capsys, "decide", "a=b, c=d |- a=d")
    assert code == 1


def test_decide_witness_for_a_30_link_chain(tmp_path, capsys):
    names = [f"q{k}" for k in range(31)]
    goal = ", ".join(f"{x}={y}" for x, y in zip(names, names[1:])) + " |- q0=q30"
    out_file = tmp_path / "chain.drv"
    code, out, _ = invoke(capsys, "decide", goal, "-o", str(out_file))
    assert code == 0 and "height: 29" in out
    assert check(parse_derivation(out_file.read_text()), PRESETS["R2rl"]).valid


def test_transform_command(tmp_path, capsys):
    drv = tmp_path / "symm.drv"
    drv.write_text(
        '(cut [0;;"r = s"] "s = r |- r = s"\n'
        '  (rep1r [0;0;0] "s = r |- r = s"\n'
        '    (refax [0] "s = r |- s = s"))\n'
        '  (init [0;0] "r = s |- r = s"))\n'
    )
    out_file = tmp_path / "cutfree.drv"
    code, out, _ = invoke(capsys, "transform", str(drv), "cut-eliminate", "-o", str(out_file))
    assert code == 0
    d = parse_derivation(out_file.read_text())
    assert check(d, PRESETS["R12r"]).valid
    assert RuleId.CUT not in d.rules_used()


def test_compare_equivalent_presets(tmp_path, capsys):
    corpus = tmp_path / "c.seq"
    corpus.write_text("a=c, b=c |- a=b\nb=a |- a=b\n|- t=t\na=b, c=d |- a=d\n")
    code, out, _ = invoke(capsys, "compare", str(corpus), "R12r", "R12rl", "--depth", "4")
    assert code == 0
    assert "disagree: 0" in out


def test_compare_flags_disagreement(tmp_path, capsys):
    corpus = tmp_path / "c.seq"
    corpus.write_text("a=c, b=c |- a=b\n")
    code, out, _ = invoke(capsys, "compare", str(corpus), "R12r", "S1", "--depth", "3")
    assert code == 1
    assert "disagree: 1" in out and "DISAGREE" in out


def test_presets_listing(capsys):
    code, out, _ = invoke(capsys, "presets")
    assert code == 0
    assert "R12r" in out and "S1" in out


def test_json_mode(capsys):
    code, out, _ = invoke(capsys, "prove", "|- t=t", "--preset", "R12r", "--json")
    assert code == 0
    payload = json.loads(out.splitlines()[-1])
    assert payload["result"] == "proved" and payload["height"] == 0


def test_usage_and_parse_errors_exit_2(tmp_path, capsys):
    code, _, err = invoke(capsys, "prove", "a=b |-")  # no preset
    assert code == 2
    code, _, err = invoke(capsys, "prove", "a=b |- ((", "--preset", "R12r")
    assert code == 2
    code, _, err = invoke(capsys, "check", str(tmp_path / "missing.drv"), "--preset", "R12r")
    assert code == 2


def test_uncaught_exception_exits_2_with_one_line(capsys, monkeypatch):
    import eqseq.cli

    def broken(*args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(eqseq.search, "prove", broken)
    code, out, err = invoke(capsys, "prove", "a=b |- a=b", "--preset", "R12r")
    assert (code, out, err) == (2, "", "error: RuntimeError: boom second line\n")


@pytest.mark.parametrize("preset", ["R12r", "R12rl"])
def test_prove_binary_symbol_goal_at_default_term_height(preset, capsys):
    # the universe of this goal has 5,552 terms at the default term height
    goal = "f(a) = b |- g(b, b) = g(f(a), b)"
    code, out, err = invoke(capsys, "prove", "--preset", preset, "--depth", "2", goal)
    assert (code, err) == (0, "")
    assert "result: proved" in out


@pytest.mark.parametrize("height", [300, 10_000])
def test_prove_deep_term(height, tmp_path, capsys):
    # every term walk is a loop: parse, prove, print, check and transform
    # a term far past the recursion limit
    deep = "f(" * height + "a" + ")" * height
    drv = tmp_path / "deep.drv"
    code, out, err = invoke(capsys, "prove", f"{deep} = b |- b = {deep}", "--preset", "R12r", "-o", str(drv))
    assert (code, err) == (0, "")
    assert "result: proved" in out and "height: 1" in out
    if height < 10_000:
        return
    code, out, err = invoke(capsys, "check", str(drv), "--preset", "R12r")
    assert (code, err) == (0, "")
    assert "result: valid" in out
    code, out, err = invoke(capsys, "transform", str(drv), "right-normalize")
    assert (code, err) == (0, "")
    assert "result: transformed" in out


_DEEP = 10_000
# (goal, provable): each connective and quantifier nested 10,000 deep, on
# either side of |-
DEEP_GOALS = {
    "parens-left": ("(" * _DEEP + "P(a)" + ")" * _DEEP + " |- P(a)", True),
    "parens-right": ("P(a) |- " + "(" * _DEEP + "P(a)" + ")" * _DEEP, True),
    "and-left": (" & ".join(["P(a)"] * _DEEP) + " |- P(a)", True),
    "and-right": ("P(a) |- " + " & ".join(["P(a)"] * _DEEP), False),
    "or-left": (" | ".join(["P(a)"] * _DEEP) + " |- P(a)", False),
    "or-right": ("P(a) |- " + " | ".join(["P(a)"] * _DEEP), True),
    "imp-left": (" -> ".join(["P(a)"] * _DEEP) + " |- P(a)", False),
    "imp-right": ("|- " + " -> ".join(["P(a)"] * _DEEP), False),
    "forall-left": ("forall x. " * _DEEP + "P(x) |- P(a)", False),
    "forall-right": ("P(a) |- " + "forall x. " * _DEEP + "P(x)", False),
    "exists-left": ("exists x. " * _DEEP + "P(x) |- P(a)", False),
    "exists-right": ("P(a) |- " + "exists x. " * _DEEP + "P(x)", False),
}


@pytest.mark.parametrize("name", DEEP_GOALS)
def test_prove_deep_formula(name, tmp_path, capsys):
    # every formula walk is a loop: parse, print, rename, prove and check a
    # formula far past the recursion limit
    goal, provable = DEEP_GOALS[name]
    seq = parse_sequent(goal)
    assert parse_sequent(print_sequent(seq)) == seq
    drv = tmp_path / "deep.drv"
    code, out, err = invoke(capsys, "prove", goal, "--preset", "G3cR12r", "--depth", "2", "-o", str(drv))
    assert (code, err) == (0 if provable else 1, "")
    if provable:
        code, out, err = invoke(capsys, "check", str(drv), "--preset", "G3cR12r")
        assert (code, err) == (0, "")
        assert "result: valid" in out


def test_reports_print_compound_formulas(tmp_path, capsys):
    # kernel and search errors print formulas as the parser reads them
    code, out, err = invoke(capsys, "decide", "P(a) & Q(a) |- P(a)")
    assert (code, out, err) == (2, "", "error: non-atomic-goal: P(a) & Q(a)\n")
    drv = tmp_path / "land.drv"
    drv.write_text('(land [0] "P(a) & Q(a) |- P(a)"\n  (init [0;0] "P(a) & Q(a), Q(a) |- P(a)"))\n')
    code, out, err = invoke(capsys, "check", str(drv), "--preset", "G3cR12r")
    assert (code, err) == (1, "")
    assert (
        "error: at node root: premiss 0 of land should be 'P(a), Q(a) |- P(a)', "
        "found 'P(a) & Q(a), Q(a) |- P(a)'\n"
    ) in out



def test_check_non_decimal_digit_index_is_a_parse_error(tmp_path, capsys):
    drv = tmp_path / "sup.drv"
    for digit in "²٠":
        drv.write_text(f'(init [{digit};0] "P |- P")\n', encoding="utf-8")
        code, out, err = invoke(capsys, "check", str(drv), "--preset", "G3c")
        assert (code, out, err) == (2, "", f"error: expected an index, found '{digit}' at line 1, column 8\n")

_DEFECT = re.compile(r"^error: [A-Z]\w*: ", re.M)  # cli.run's line for an uncaught exception


# the options each transform op needs
TRANSFORM_ARGS = {
    "single-occurrence": ["--preset", "R12rl"],
    "project": ["--preset", "R12rl"],
    "translate": ["--source", "R12r", "--target", "R12rl"],
}


def test_mutated_inputs_get_a_verdict_or_a_message(tmp_path, capsys):
    # seeded mutations of the goldens and of sequents, deep ones included,
    # through check, transform and prove: every run ends in a verdict or an
    # error message, never in cli.run's defect line
    rng = random.Random(2026)
    runs = []
    goldens = sorted((pathlib.Path(__file__).parent / "golden").glob("*.drv"))
    for k in range(120):
        path = goldens[k % len(goldens)]
        text = path.read_text(encoding="utf-8")
        spec = re.search(r"^# check: (.*)$", text, re.M).group(1)
        drv = tmp_path / f"m{k}.drv"
        drv.write_text(mutate_text(rng, text), encoding="utf-8")
        runs.append(["check", str(drv), "--spec" if "=" in spec else "--preset", spec])
        if k % 3 == 0:
            op = rng.choice(sorted(_TRANSFORMS))
            runs.append(["transform", str(drv), op, *TRANSFORM_ARGS.get(op, [])])
    sequents = [
        "a = c, b = c |- a = b",
        "P(a), a = b |- P(b)",
        "forall x. P(x) |- exists y. P(y)",
        "P(a) & Q(b) -> R(a) | bot |- Q(b)",
        "f(a) = b |- g(b, b) = g(f(a), b)",
        "(" * 2_000 + "P(a)" + ")" * 2_000 + " |- P(a)",
        "forall x. " * 2_000 + "P(x) |- P(a)",
        " & ".join(["P(a)"] * 2_000) + " |- P(a)",
        "P(a) |- " + " -> ".join(["P(a)"] * 2_000),
    ]
    # small bounds keep the runs short: CngCut's cut and congruence moves
    # enumerate every universe term, and at the default term height a goal
    # with a binary function symbol has 5,552 of them
    bounds = ["--depth", "2", "--term-height", "2"]
    for k in range(90):
        goal = sequents[k % len(sequents)]
        runs.append(["prove", mutate_text(rng, goal), "--preset", rng.choice(["R12r", "G3cR12r", "G3i", "CngCut"]), *bounds])
    defects = []
    for argv in runs:
        code, out, err = invoke(capsys, *argv)
        if code not in (0, 1, 2) or _DEFECT.search(err):
            defects.append((argv, code, err))
    assert defects == []


def test_check_deep_derivation_file(tmp_path, capsys):
    # 5,000 levels, far past the recursion limit: a verdict, never exit 2
    drv = tmp_path / "deep.drv"
    drv.write_text(print_derivation(valid_spine(5_000)))
    code, out, err = invoke(capsys, "check", str(drv), "--preset", "R12r")
    assert (code, err) == (0, "")
    assert "result: valid" in out and "height: 4999" in out


def test_transform_deep_derivation_file(tmp_path, capsys):
    # 3,000 levels: every op but cut-eliminate gives a verdict, never exit 2
    drv = tmp_path / "deep.drv"
    drv.write_text(print_derivation(valid_spine(3_000)))
    eq_drv = tmp_path / "deep_eq.drv"
    eq_drv.write_text(print_derivation(eq_spine([1 if k % 1000 else 0 for k in range(2_999)])))
    # an lhs rewrite at every 7th node: 428 undesired inferences, which
    # right-normalize removes in one pass
    eq7_drv = tmp_path / "deep_eq7.drv"
    eq7_drv.write_text(print_derivation(eq_spine([0 if k % 7 == 6 else 1 for k in range(2_999)])))
    for op in sorted(_TRANSFORMS):
        if op == "cut-eliminate":
            continue
        for path in (eq_drv, eq7_drv) if op == "right-normalize" else (drv,):
            code, _, err = invoke(capsys, "transform", str(path), op, *TRANSFORM_ARGS.get(op, []))
            assert code in (0, 1) and err == "", (op, path.name, code, err)


def test_unknown_precedence_exits_2(tmp_path, capsys):
    drv = tmp_path / "d.drv"
    drv.write_text('(refax [0] "|- t = t")\n')
    code, _, err = invoke(capsys, "transform", str(drv), "semishorten", "--prec", "depth")
    assert (code, err) == (2, "error: unknown precedence 'depth' (use height, none or @file)\n")
    code, _, err = invoke(capsys, "check", str(drv), "--spec", "base=none rules=refax prec=depth")
    assert (code, err) == (2, "error: unknown precedence 'depth' (use height, none or @file)\n")


def _cli_env():
    import eqseq

    src = str(pathlib.Path(eqseq.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_universe_closure_error_names_a_fixed_term(tmp_path):
    # the first unclosed term in the universe's sorted order, whatever the hash layout
    universe = tmp_path / "u.txt"
    universe.write_text("f(a)\ng(b)\nh(c)\nk(d)\n")
    argv = ["prove", "--preset", "R12r", "a = b |- b = a", "--universe-file", str(universe)]
    for seed in range(1, 5):
        proc = subprocess.run(
            [sys.executable, "-m", "eqseq.cli", *argv],
            capture_output=True, text=True, env={**_cli_env(), "PYTHONHASHSEED": str(seed)},
        )
        assert (proc.returncode, proc.stderr) == (2, "error: universe is not closed under subterms at f(a)\n")


def test_reports_deterministic_modulo_timing(capsys):
    _, out1, _ = invoke(capsys, "prove", "a=c, b=c |- a=b", "--preset", "R12r")
    _, out2, _ = invoke(capsys, "prove", "a=c, b=c |- a=b", "--preset", "R12r")
    assert _strip_timing(out1) == _strip_timing(out2)


def test_config_file_defaults(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "eqseq.toml"
    cfg.write_text('preset = "R12r"\ndepth = 4\n')
    monkeypatch.chdir(tmp_path)
    code, out, _ = invoke(capsys, "prove", "b=a |- a=b")
    assert code == 0
    assert "result: proved" in out


def test_missing_config_file_named_on_the_command_line_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = invoke(capsys, "--config", "nope.toml", "prove", "a=b |- b=a", "--preset", "R12r")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "nope.toml" in err and err.count("\n") == 1
    # no ./eqseq.toml is no error
    code, out, err = invoke(capsys, "prove", "a=b |- b=a", "--preset", "R12r")
    assert (code, err) == (0, "") and "result: proved" in out


@pytest.mark.parametrize("key", ["depth", "term_height", "budget"])
def test_non_integer_config_value_is_a_usage_error(key, tmp_path, capsys):
    cfg = tmp_path / "bad.toml"
    cfg.write_text(f"preset = R12r\n{key} = x\n")
    code, out, err = invoke(capsys, "--config", str(cfg), "prove", "a=b |- b=a")
    assert (code, out) == (2, "")
    assert err == f"error: config value {key} = 'x' is not an integer\n"


@pytest.mark.parametrize("kind", ["directory", "not UTF-8"])
def test_unreadable_file_is_one_error_line_naming_it(kind, tmp_path, capsys):
    # an OSError or undecodable bytes in any file the command line names: exit
    # 2 with one error line, never cli.run's defect line
    bad = tmp_path / "bad"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b'\xff\xfe(refax [0] "|- t = t")\n')
    drv = tmp_path / "ok.drv"
    drv.write_text('(refax [0] "|- t = t")\n')
    goal = ["a=b |- b=a", "--preset", "R12r"]
    argvs = [
        ["check", str(bad), "--preset", "R12r"],
        ["transform", str(bad), "cut-eliminate"],
        ["compare", str(bad), "R12r", "R12rl"],
        ["--config", str(bad), "presets"],
        ["prove", *goal, "--universe-file", str(bad)],
        ["transform", str(drv), "semishorten", "--prec", f"@{bad}"],
    ]
    if kind == "directory":
        argvs += [
            ["prove", *goal, "-o", str(bad)],
            ["decide", "a=b |- b=a", "-o", str(bad)],
            ["transform", str(drv), "right-normalize", "-o", str(bad)],
        ]
    for argv in argvs:
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, ""), (argv, out)
        assert not _DEFECT.search(err) and err.count("\n") == 1 and str(bad) in err, (argv, err)


def test_semishorten_with_explicit_precedence_file(tmp_path, capsys):
    prec = tmp_path / "prec.txt"
    prec.write_text("a < b   # a is smaller\nc < b\n")
    drv = tmp_path / "d.drv"
    # index-2 inference with operating a=b: lengthening under a < b
    drv.write_text('(rep2r [0;0;0] "a = b, Q(b) |- Q(a)"\n  (init [1;0] "a = b, Q(b) |- Q(b)"))\n')
    out_file = tmp_path / "out.drv"
    code, out, _ = invoke(
        capsys, "transform", str(drv), "semishorten", "--prec", f"@{prec}", "-o", str(out_file)
    )
    assert code == 0
    d = parse_derivation(out_file.read_text())
    from eqseq.transform import semishorten_target
    from eqseq.calculus import load_precedence_file

    target = semishorten_target(load_precedence_file(str(prec)))
    assert check(d, target).valid


def test_semishorten_empty_precedence(tmp_path, capsys):
    drv = tmp_path / "t.drv"
    code, _, _ = invoke(capsys, "prove", "--preset", "R12r", "a = b, P(a) |- P(b)", "-o", str(drv))
    assert code == 0
    out_file = tmp_path / "out.drv"
    code, out, err = invoke(
        capsys, "transform", str(drv), "semishorten", "--prec", "none", "-o", str(out_file)
    )
    assert (code, err) == (0, "")
    assert "target: base=none rules=refax,rep2lp,rep2r flags=- prec=none" in out
    assert check(parse_derivation(out_file.read_text()), PRESETS["R2rlPlus"]).valid


def test_spec_string_with_precedence_file(tmp_path, capsys):
    prec = tmp_path / "prec.txt"
    prec.write_text("a < f(a)\n")
    drv = tmp_path / "d.drv"
    drv.write_text('(refax [0] "|- t = t")\n')
    code, out, _ = invoke(
        capsys, "check", str(drv), "--spec",
        f"base=none rules=refax,rep1r,rep2r flags=oriented prec=@{prec}",
    )
    assert code == 0


GOLDEN = pathlib.Path(__file__).parent / "golden" / "chain_lemma_a_n1.drv"

# runs one command in a fresh interpreter, then prints its exit code and the
# lazily loaded modules whose bodies ran, and on a last line which of
# ``dataclasses`` and ``inspect`` got loaded
_RUN_AND_LIST_LOADED = """
import sys
from eqseq.cli import run
code = run(sys.argv[1:])
probes = {"eqseq.search": "prove", "eqseq.transform": "cut_eliminate_pipeline"}
ran = [m for m, name in probes.items() if name in object.__getattribute__(sys.modules[m], "__dict__")]
print(code, *ran)
print("loaded:", *[m for m in ("dataclasses", "inspect") if m in sys.modules])
"""


@pytest.mark.parametrize(
    "argv, ran",
    [
        (["check", str(GOLDEN), "--preset", "R2rl"], []),
        (["prove", "a=c, b=c |- a=b", "--preset", "R12r", "--depth", "3"], ["eqseq.search"]),
        (["transform", str(GOLDEN), "single-occurrence", "--preset", "R12rl"], ["eqseq.transform"]),
    ],
)
def test_commands_load_only_the_modules_they_run(argv, ran):
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_LOADED, *argv], capture_output=True, text=True, env=_cli_env()
    )
    assert proc.returncode == 0, proc.stderr
    *_, status, loaded = proc.stdout.splitlines()
    assert status.split() == ["0", *ran]
    assert loaded == "loaded:"


def test_every_public_name_resolves():
    import eqseq
    import eqseq.search
    import eqseq.transform

    for name in eqseq.__all__:
        assert getattr(eqseq, name) is not None, name
    assert eqseq.prove is eqseq.search.prove
    assert eqseq.TransformReport is eqseq.transform.TransformReport
    with pytest.raises(AttributeError):
        eqseq.no_such_name
