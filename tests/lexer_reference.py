"""The character-by-character lexer that ``eqseq.parser`` used before its
one-regex pass: the reference the lexer differential test compares with.

``reference_tokens(text)`` returns ``(kind, text, SourceSpan)`` per token,
or raises the ``ParseError`` the old lexer raised.
"""
from __future__ import annotations

import re

from eqseq.parser import ParseError, SourceSpan

_BLANKS = re.compile(r"[ \t\r\n]+")


class _ReferenceLexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens: list[tuple[str, str, SourceSpan]] = []
        self._run()

    def _span(self, start: int, startline: int, startcol: int) -> SourceSpan:
        return SourceSpan(start, self.pos, startline, startcol)

    def _error(self, msg: str) -> ParseError:
        return ParseError(msg, SourceSpan(self.pos, self.pos + 1, self.line, self.col))

    def _advance(self, n: int) -> None:
        for _ in range(n):
            if self.pos < len(self.text) and self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def _run(self) -> None:
        text = self.text
        while self.pos < len(text):
            c = text[self.pos]
            if c in " \t\r\n":
                end = _BLANKS.match(text, self.pos).end()
                newline = text.rfind("\n", self.pos, end)
                if newline < 0:
                    self.col += end - self.pos
                else:
                    self.line += text.count("\n", self.pos, end)
                    self.col = end - newline
                self.pos = end
                continue
            if c == "#":
                while self.pos < len(text) and text[self.pos] != "\n":
                    self._advance(1)
                continue
            start, sl, sc = self.pos, self.line, self.col
            if c == '"':
                self._advance(1)
                buf = []
                while self.pos < len(text) and text[self.pos] != '"':
                    buf.append(text[self.pos])
                    self._advance(1)
                if self.pos >= len(text):
                    raise self._error("unterminated string")
                self._advance(1)
                self.tokens.append(("string", "".join(buf), self._span(start, sl, sc)))
                continue
            two = text[self.pos : self.pos + 2]
            if two in ("|-", "->"):
                self._advance(2)
                self.tokens.append(("punct", two, self._span(start, sl, sc)))
                continue
            if c in "(),=&|.[];":
                self._advance(1)
                self.tokens.append(("punct", c, self._span(start, sl, sc)))
                continue
            if c.isdigit():
                while self.pos < len(text) and text[self.pos].isdigit():
                    self._advance(1)
                self.tokens.append(("int", text[start : self.pos], self._span(start, sl, sc)))
                continue
            if c.isalpha() or c == "_":
                while self.pos < len(text) and (text[self.pos].isalnum() or text[self.pos] in "_'+"):
                    self._advance(1)
                self.tokens.append(("ident", text[start : self.pos], self._span(start, sl, sc)))
                continue
            raise self._error(f"unexpected character {c!r}")


def reference_tokens(text: str) -> list[tuple[str, str, SourceSpan]]:
    return _ReferenceLexer(text).tokens
