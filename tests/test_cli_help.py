"""``build_parser`` asks for the terminal's width once and hands it to every
help formatter.  Its help and usage text must be what argparse's own
formatter prints, which asks for the width each time.  Wrapping differs
across Python versions, so the text is compared, never pinned.

Runs under pytest, or on an interpreter without pytest as
``PYTHONPATH=src python tests/test_cli_help.py``, which also proves a goal and
checks the written proof.
"""
import argparse
import contextlib
import io
import os
import pathlib
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
    for columns in _COLUMNS:
        os.environ["COLUMNS"] = str(columns)
        _assert_help_as_argparse_prints_it()
    _smoke()
    print(f"Python {sys.version.split()[0]}: help text matches at COLUMNS {_COLUMNS}; prove and check pass")
