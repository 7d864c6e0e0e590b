"""``build_parser`` asks for the terminal's width once and hands it to every
help formatter.  Its help and usage text must be what argparse's own
formatter prints, which asks for the width each time.  Wrapping differs
across Python versions, so the text is compared, never pinned.

``build_parser(argv)`` builds only the parser of the command that ``argv``
names.  Its texts, and what ``cli.run`` prints and returns, must be those of
the whole tree that ``build_parser()`` builds.

Runs under pytest, or on an interpreter without pytest as
``PYTHONPATH=src python tests/test_cli_help.py``, which also proves a goal and
checks the written proof.
"""
import argparse
import contextlib
import io
import os
import pathlib
import re
import sys
import tempfile

import eqseq.cli

_COLUMNS = (50, 200)


def _parsers(top):
    (sub,) = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
    return [top, *sub.choices.values()]


def _texts(parser):
    return parser.format_help(), parser.format_usage()


def _assert_help_as_argparse_prints_it():
    """For the parser and each command's parser, under the current COLUMNS;
    the parser's own help text."""
    top = eqseq.cli.build_parser()
    parsers = _parsers(top)
    assert len(parsers) == 7
    sized = [_texts(p) for p in parsers]
    for p in parsers:
        p.formatter_class = argparse.HelpFormatter
    for p, texts in zip(parsers, sized):
        assert texts == _texts(p), (os.environ["COLUMNS"], p.prog)
    return sized[0][0]


def test_help_as_argparse_prints_it(monkeypatch):
    helps = []
    for columns in _COLUMNS:
        monkeypatch.setenv("COLUMNS", str(columns))
        helps.append(_assert_help_as_argparse_prints_it())
    # the width took effect: the narrow help wraps where the wide one does not
    assert helps[0].count("\n") > helps[1].count("\n")


def test_build_parser_returns_a_new_parser():
    assert eqseq.cli.build_parser() is not eqseq.cli.build_parser()
    for name in eqseq.cli._COMMANDS:
        assert eqseq.cli.build_parser([name]) is not eqseq.cli.build_parser([name])


def _assert_one_command_parser_as_in_the_whole_tree():
    """For each command, under the current COLUMNS: ``build_parser([name, ...])``
    is that command's parser alone, with the whole tree's prog, help and usage
    text.  An unrecognized argument is reported by the whole tree itself."""
    _, *whole = _parsers(eqseq.cli.build_parser())
    assert len(whole) == len(eqseq.cli._COMMANDS)
    for name, p in zip(eqseq.cli._COMMANDS, whole):
        one = eqseq.cli.build_parser([name, "--json"])
        assert not any(isinstance(a, argparse._SubParsersAction) for a in one._actions), name
        assert (one.prog, _texts(one)) == (p.prog, _texts(p)), (os.environ["COLUMNS"], name)


def test_one_command_parser_as_in_the_whole_tree(monkeypatch):
    for columns in _COLUMNS:
        monkeypatch.setenv("COLUMNS", str(columns))
        _assert_one_command_parser_as_in_the_whole_tree()


def _run(argv):
    """Exit code, stdout without the time, and stderr of ``cli.run(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = eqseq.cli.run(argv)
    return code, re.sub(r"^time_ms: \d+$", "time_ms: X", out.getvalue(), flags=re.M), err.getvalue()


def _argvs(tmp):
    """One valid line per command, then help and usage errors."""
    tmp = pathlib.Path(tmp)
    (tmp / "symm.drv").write_text(
        '(cut [0;;"r = s"] "s = r |- r = s"\n'
        '  (rep1r [0;0;0] "s = r |- r = s"\n'
        '    (refax [0] "s = r |- s = s"))\n'
        '  (init [0;0] "r = s |- r = s"))\n'
    )
    (tmp / "c.seq").write_text("a=c, b=c |- a=b\nb=a |- a=b\n")
    (tmp / "eqseq.toml").write_text("preset = R12r\ndepth = 3\n")
    drv, corpus, cfg = (str(tmp / f) for f in ("symm.drv", "c.seq", "eqseq.toml"))
    return [
        ["check", drv, "--spec", "base=none rules=init,refax,cut,rep1r"],
        ["prove", "a=c, b=c |- a=b", "--preset", "R12r", "--depth", "3"],
        ["decide", "a=c, b=c |- a=b"],
        ["transform", drv, "cut-eliminate"],
        ["compare", corpus, "R12r", "R12rl", "--depth", "3"],
        ["presets"],
        *([name, "-h"] for name in eqseq.cli._COMMANDS),
        ["check"],
        ["compare", corpus, "R12r"],
        ["transform", drv, "bogus-op"],
        ["prove", "a=b |- a=b", "--preset", "R12r", "--bogus"],
        ["presets", "extra"],
        ["check", drv, "--config", cfg],
        ["presets", "--", "x"],
        ["check", drv, "--pre", "R12r"],
        ["prove", "a=b |- a=b", "--depth", "x"],
        ["prove", "--json"],
        ["transform", drv, "cut-eliminate", "-h"],
        ["--config", cfg, "prove", "b=a |- a=b"],
        ["--config", cfg],
        ["bogus"],
        ["-h"],
        [],
    ]


def _assert_runs_as_with_the_whole_tree(tmp):
    """Under the current COLUMNS, ``cli.run`` prints and returns what it does
    when ``build_parser`` ignores argv and builds the whole tree."""
    build = eqseq.cli.build_parser
    for argv in _argvs(tmp):
        one = _run(argv)
        eqseq.cli.build_parser = lambda argv=None: build()
        try:
            assert one == _run(argv), (os.environ["COLUMNS"], argv)
        finally:
            eqseq.cli.build_parser = build


def test_runs_as_with_the_whole_tree(tmp_path, monkeypatch):
    for columns in _COLUMNS:
        monkeypatch.setenv("COLUMNS", str(columns))
        _assert_runs_as_with_the_whole_tree(tmp_path)


def _smoke():
    """``prove`` writes a proof that ``check`` accepts, both through ``cli.run``."""
    with tempfile.TemporaryDirectory() as tmp:
        drv = str(pathlib.Path(tmp) / "w.drv")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            proved = eqseq.cli.run(["prove", "a=c, b=c |- a=b", "--preset", "R12r", "-o", drv])
            checked = eqseq.cli.run(["check", drv, "--preset", "R12r"])
    assert (proved, checked) == (0, 0), out.getvalue()
    assert "result: proved" in out.getvalue() and "result: valid" in out.getvalue()


if __name__ == "__main__":
    test_build_parser_returns_a_new_parser()
    with tempfile.TemporaryDirectory() as tmp:
        for columns in _COLUMNS:
            os.environ["COLUMNS"] = str(columns)
            _assert_help_as_argparse_prints_it()
            _assert_one_command_parser_as_in_the_whole_tree()
            _assert_runs_as_with_the_whole_tree(tmp)
    _smoke()
    print(
        f"Python {sys.version.split()[0]}: help text matches at COLUMNS {_COLUMNS}, one-command parsers and "
        "runs match the whole tree, every build is a new parser; prove and check pass"
    )
