"""Text syntax for terms, formulas, sequents, calculus specs and derivations.

Grammar summary:
  atoms        ``P(t, ...)`` or bare ``P`` (uppercase-initial predicate names)
  equality     ``t = s``      (binds tighter than the connectives)
  falsum       ``bot``
  connectives  ``&`` ``|`` ``->``   right-associative, precedence & > | > ->
  quantifiers  ``forall x. A`` / ``exists x. A``  (scope extends maximally right)
  sequents     ``A1, ..., Am |- B1, ..., Bn``     (either side may be empty)
  comments     ``#`` to end of line

Lowercase-initial identifiers are parameters, bound variables (when a binder
of that name encloses them) or function symbols (when applied).  Identifiers
may not begin with ``_``; that prefix is reserved for generated
eigenparameters.  Derivation files use a parenthesized tree format
``(rule [args] "sequent" child*)`` for which print/parse round-trips exactly.
"""
from __future__ import annotations

import re
from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache

from .syntax import (
    And,
    Atom,
    BOT,
    BoundVar,
    Eq,
    EqSeqError,
    Exists,
    Formula,
    Forall,
    FunApp,
    Imp,
    Or,
    Param,
    Path,
    Sequent,
    Term,
    _BINARY,
    formula_params,
    map_leaves,
)


class SourceSpan(namedtuple("SourceSpan", "start end line column")):
    __slots__ = ()
    start: int
    end: int
    line: int
    column: int


class ParseError(EqSeqError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} at line {span.line}, column {span.column}")
        self.message = message
        self.span = span


class ArityConflictError(ParseError):
    pass


# A token is ``(kind, text, start, end)``: kind is "ident", "punct", "string"
# or "int"; a string's text is its contents without the quotes.
_Token = tuple[str, str, int, int]

# One pass of one regex reads the tokens; blanks and comments match to be
# skipped.  ``str.isdigit`` and ``str.isalpha`` decide what a token is, and
# no regex class matches them beyond ASCII: any other character falls to
# ``other`` and is classed with them.  An ASCII digit run goes there too when
# a non-ASCII character follows it, which ``isdigit`` may accept into the
# run.  ``\w`` is exactly ``isalnum`` or ``_``.
# A leading ``_`` marks a generated eigenparameter; the reserved-name check
# rejects it in user-facing input.
_TOKEN = re.compile(
    r"""(?P<blank>[ \t\r\n]+)
      | (?P<comment>\#[^\n]*)
      | (?P<string>"[^"]*")
      | (?P<punct>\|-|->|[(),=&|.\[\];])
      | (?P<int>[0-9]+(?![0-9]|[^\x00-\x7f]))
      | (?P<ident>[A-Za-z_][\w'+]*)
      | (?P<other>.)""",
    re.S | re.X,
)
_IDENT_TAIL = re.compile(r"[\w'+]*")
_NEWLINE = re.compile(r"\n")


class _Lexer:
    """The tokens of ``text``: all of them at once, or, when ``lazy``, those
    :meth:`lex` is asked for."""

    def __init__(self, text: str, lazy: bool = False):
        self.text = text
        self.pos = 0  # where lexing goes on
        self._newlines: list[int] | None = None
        self.tokens: list[_Token] = []
        if not lazy:
            self.lex(len(text) + 1)

    def span(self, start: int, end: int) -> SourceSpan:
        """``start``..``end`` with the line and column of ``start``, found by
        bisection in an index of the newlines built on the first request."""
        if self._newlines is None:
            self._newlines = [m.start() for m in _NEWLINE.finditer(self.text)]
        k = bisect_left(self._newlines, start)
        return SourceSpan(start, end, k + 1, start - (self._newlines[k - 1] if k else -1))

    def lex(self, want: int) -> bool:
        """Reads on from ``pos`` until ``tokens`` holds ``want`` tokens or the
        text ends; whether it holds them."""
        text, tokens, match = self.text, self.tokens, _TOKEN.match
        pos, n = self.pos, len(text)
        while pos < n and len(tokens) < want:
            m = match(text, pos)
            kind, end = m.lastgroup, m.end()
            if kind == "blank" or kind == "comment":
                pos = end
                continue
            if kind == "string":
                tokens.append((kind, text[pos + 1 : end - 1], pos, end))
                pos = end
                continue
            if kind == "other":
                kind, end = self._other(pos)
            tokens.append((kind, text[pos:end], pos, end))
            pos = end
        self.pos = pos
        return len(tokens) >= want

    def _other(self, pos: int) -> tuple[str, int]:
        """Kind and end of the token at a character the regex leaves to
        ``str`` methods."""
        text = self.text
        c = text[pos]
        if c.isdigit():
            end = pos + 1
            while end < len(text) and text[end].isdigit():
                end += 1
            return "int", end
        if c.isalpha():
            return "ident", _IDENT_TAIL.match(text, pos + 1).end()
        if c == '"':
            raise ParseError("unterminated string", self.span(len(text), len(text) + 1))
        raise ParseError(f"unexpected character {c!r}", self.span(pos, pos + 1))


# each binary connective's text -> how strongly it binds and its class, as printed
_CONNECTIVES = {text.strip(): (own, cls) for cls, (text, own, _, _) in _BINARY.items()}


class _Parser:
    """Parser over the token stream; terms and formulas are read by loops.

    A single parser instance tracks function/predicate arities, so arity
    consistency is enforced across one parse call (e.g. a whole ``.drv`` file);
    the sub-parsers of one ``.drv`` file share them.
    """

    def __init__(self, text: str, lazy: bool = False):
        self.text = text
        self.lexer = _Lexer(text, lazy)
        self.tokens = self.lexer.tokens
        self.i = 0
        self.fun_arity: dict[str, int] = {}
        self.pred_arity: dict[str, int] = {}

    # -- token plumbing

    def _span(self, tok: _Token) -> SourceSpan:
        return self.lexer.span(tok[2], tok[3])

    def _eof_span(self) -> SourceSpan:
        if self.tokens:
            last = self._span(self.tokens[-1])
            return SourceSpan(last.end, last.end, last.line, last.column)
        return SourceSpan(0, 0, 1, 1)

    def peek(self) -> _Token | None:
        if self.i < len(self.tokens) or self.lexer.lex(self.i + 1):
            return self.tokens[self.i]
        return None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self._eof_span())
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok[1] != text or tok[0] not in ("punct", "ident"):
            raise ParseError(f"expected {text!r}, found {tok[1]!r}", self._span(tok))
        return tok

    def at(self, text: str) -> bool:
        return (self.i < len(self.tokens) or self.lexer.lex(self.i + 1)) and self.tokens[self.i][1] == text

    def done(self) -> bool:
        return self.peek() is None

    def items(self, read, sep: str = ",") -> list:
        """``read()``, and again after each ``sep``."""
        out = [read()]
        while self.at(sep):
            self.expect(sep)
            out.append(read())
        return out

    def require_done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", self._span(tok))

    # -- arity bookkeeping

    def _check_fun(self, tok: _Token, arity: int) -> None:
        seen = self.fun_arity.setdefault(tok[1], arity)
        if seen != arity:
            raise ArityConflictError(
                f"arity-conflict: function {tok[1]} used with {arity} args, earlier {seen}",
                self._span(tok),
            )

    def _check_pred(self, tok: _Token, arity: int) -> None:
        seen = self.pred_arity.setdefault(tok[1], arity)
        if seen != arity:
            raise ArityConflictError(
                f"arity-conflict: predicate {tok[1]} used with {arity} args, earlier {seen}",
                self._span(tok),
            )

    # -- terms

    def term(self, bound: frozenset[str]) -> Term:
        # the open applications, innermost last, each with the arguments read
        # so far: a tall term would pass the recursion limit
        open_apps: list[tuple[_Token, list[Term]]] = []
        while True:
            tok = self.next()
            kind, name = tok[0], tok[1]
            if kind != "ident" or not (name[0].islower() or name[0] == "_"):
                raise ParseError(f"expected a term, found {name!r}", self._span(tok))
            if self.at("("):
                self.expect("(")
                if not self.at(")"):
                    open_apps.append((tok, []))
                    continue
                self.expect(")")
                self._check_fun(tok, 0)
                t = FunApp(name, ())
            else:
                t = BoundVar(name) if name in bound else Param(name)
            while open_apps:
                fun, args = open_apps[-1]
                args.append(t)
                if self.at(","):
                    self.expect(",")
                    break
                self.expect(")")
                self._check_fun(fun, len(args))
                open_apps.pop()
                t = FunApp(fun[1], tuple(args))
            else:
                return t

    # -- formulas

    def formula(self, bound: frozenset[str] = frozenset()) -> Formula:
        """One formula, read by a loop over a stack of open frames: ``None``
        for a ``(``, or ``(strength, class, first field, bound names
        outside)`` for a connective and its left operand or a quantifier
        (strength -1) and its variable.  A connective closes the open ones
        that bind more strongly (right associativity: not its equals); a
        quantifier stays open until its formula ends (maximal scope)."""
        frames: list = []
        while True:
            tok = self.peek()
            if tok is None:
                raise ParseError("expected a formula", self._eof_span())
            kind, text = tok[0], tok[1]
            if text == "(":
                self.expect("(")
                frames.append(None)
                continue
            if kind == "ident" and (text == "forall" or text == "exists"):
                self.i += 1
                var = self.next()
                if var[0] != "ident" or not var[1][0].islower():
                    raise ParseError("expected a bound variable name", self._span(var))
                self.expect(".")
                frames.append((-1, Forall if text == "forall" else Exists, var[1], bound))
                bound = bound | {var[1]}
                continue
            f = self._atomic(tok, bound)
            while True:
                text = self.tokens[self.i][1] if self.i < len(self.tokens) else None
                if text in _CONNECTIVES:
                    strength, cls = _CONNECTIVES[text]
                    while frames and frames[-1] is not None and frames[-1][0] > strength:
                        _, tighter, left, _ = frames.pop()
                        f = tighter(left, f)
                    self.expect(text)
                    frames.append((strength, cls, f, bound))
                    break
                # the formula ends here, or an open ``(`` ends with ``)``
                while frames and frames[-1] is not None:
                    _, cls, first, bound = frames.pop()
                    f = cls(first, f)
                if not frames:
                    return f
                self.expect(")")
                frames.pop()

    def _atomic(self, tok: _Token, bound: frozenset[str]) -> Formula:
        """``bot``, an atom or an equality, which starts at ``tok``."""
        kind, text = tok[0], tok[1]
        if kind == "ident" and text == "bot":
            self.i += 1
            return BOT
        if kind == "ident" and text[0].isupper():
            self.i += 1
            args: list[Term] = []
            if self.at("("):
                self.expect("(")
                args = self.items(lambda: self.term(bound))
                self.expect(")")
            self._check_pred(tok, len(args))
            return Atom(text, tuple(args))
        # must be an equality
        lhs = self.term(bound)
        self.expect("=")
        rhs = self.term(bound)
        return Eq(lhs, rhs)

    # -- sequents

    def parse_sequent_body(self) -> Sequent:
        ante = () if self.at("|-") else self.items(self.formula)
        self.expect("|-")
        succ = () if self.done() or self.at(")") else self.items(self.formula)
        return Sequent(tuple(ante), tuple(succ))


def _rename_binders_apart(f: Formula) -> Formula:
    """Rename quantifier variables that collide with parameter names.  A
    colliding binder takes its name with primes appended until it is no
    parameter, no enclosing binder and no binder inside its body, so the
    renaming captures no variable."""
    params = formula_params(f)
    below: dict[Formula, frozenset[str]] = {}  # the binder names inside each formula walked

    def binders(g: Formula) -> frozenset[str]:  # children first, each formula once
        stack = [g]
        while stack:
            h = stack[-1]
            quantifier = isinstance(h, (Forall, Exists))
            parts = (h.body,) if quantifier else (h.left, h.right) if isinstance(h, (And, Or, Imp)) else ()
            todo = [p for p in parts if p not in below]
            if not todo:
                stack.pop()
                below[h] = frozenset({h.var} if quantifier else ()).union(*[below[p] for p in parts])
            stack += todo
        return below[g]

    # ``image`` maps the variable of each enclosing binder to its new one
    def rename(q: Forall | Exists, image: dict[BoundVar, BoundVar]) -> str:
        var = q.var
        if var in params:
            taken = params | {v.name for v in image.values()} | binders(q.body)
            while var in taken:
                var += "'"
        return var

    return map_leaves(f, {}, rename)


def _parse_all(text: str, read):
    """``read`` of a parser over ``text``, which must consume all of it; no
    identifier in ``text`` may take the eigenparameters' prefix ``_``."""
    p = _Parser(text)
    for tok in p.tokens:
        if tok[0] == "ident" and tok[1].startswith("_"):
            raise ParseError(
                f"identifier {tok[1]!r} is reserved for generated eigenparameters", p._span(tok)
            )
    out = read(p)
    p.require_done()
    return out


def parse_term(text: str) -> Term:
    return _parse_all(text, lambda p: p.term(frozenset()))


def parse_formula(text: str) -> Formula:
    return _rename_binders_apart(_parse_all(text, _Parser.formula))


def parse_sequent(text: str) -> Sequent:
    s = _parse_all(text, _Parser.parse_sequent_body)
    if "forall" not in text and "exists" not in text:
        return s  # no binder to rename
    return Sequent(tuple(map(_rename_binders_apart, s.ante)), tuple(map(_rename_binders_apart, s.succ)))


def read_text(path: str) -> str:
    """The text of the UTF-8 file at ``path``; other bytes are an error naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise EqSeqError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Printers (canonical form; parse of the output reproduces the value)

# the one formula and sequent printer is the values' own ``str``
print_formula = Formula.__str__
print_sequent = Sequent.__str__


def print_path(p: Path) -> str:
    return ".".join(str(i) for i in p)


# ---------------------------------------------------------------------------
# Derivation files: (rule [instance-args] "sequent" child*)

from .calculus import RULE_BY_NAME, RULES, Replacement, RuleId, RuleInstance  # noqa: E402
from .checker import Derivation  # noqa: E402


def _csv(indices) -> str:
    return ",".join(str(i) for i in indices)


def format_instance_args(inst: RuleInstance) -> str:
    """The principal indices of ``inst`` and then the fields of its rule's
    signature (:data:`eqseq.calculus.RULES`), separated by ``;``."""
    parts = [str(i) for i in inst.principal]
    for field in RULES[inst.rule].fields:
        if field == "split":
            a1, s1 = inst.split or ((), ())
            parts += [_csv(a1), _csv(s1)]
        elif field == "cut_formula":
            parts.append(f'"{print_formula(inst.cut_formula)}"')
        elif field == "quoted_witness":
            parts.append(f'"{inst.witness}"')
        elif field == "paths":
            parts.append(",".join(print_path(p) for p in inst.replacement.paths))
        elif field in ("eq_index", "context_index"):
            parts.append(str(getattr(inst.replacement, field)))
        else:  # witness, eigen
            parts.append(str(getattr(inst, field)))
    return ";".join(parts)


# Indentation stops growing here, so a tall derivation prints in linear size.
_MAX_INDENT = 32


def print_derivation(d: Derivation) -> str:
    """One node per line, indented two spaces a level up to
    :data:`_MAX_INDENT` levels; a node's ``)`` closes its last line, so a
    leaf's line ends with one ``)`` for every node that the leaf finishes.
    Each distinct formula is printed once."""
    lines = []
    show = lru_cache(maxsize=None)(str)
    # (node, depth, how many enclosing nodes close after it), over an explicit
    # stack: a tall derivation would pass the recursion limit
    stack = [(d, 0, 0)]
    while stack:
        n, depth, closes = stack.pop()
        pad = "  " * min(depth, _MAX_INDENT)
        head = f'{pad}({n.inst.rule.value} [{format_instance_args(n.inst)}] "{print_sequent(n.sequent, show)}"'
        if not n.children:
            lines.append(head + ")" * (closes + 1))
            continue
        lines.append(head)
        last = len(n.children) - 1
        for k in range(last, -1, -1):
            stack.append((n.children[k], depth + 1, closes + 1 if k == last else 0))
    return "\n".join(lines) + "\n"


# ``(rule [args] "sequent"`` of one node and the ``)`` after it, where the
# args hold no ``#`` outside their strings and the sequent holds none.  Each
# repeat of ``_SKIP`` takes one blank or a whole comment: a miss backtracks linearly.
_SKIP = r"(?:[ \t\r\n]|\#[^\n]*(?![^\n]))*"
_NODE_HEAD = re.compile(
    rf'{_SKIP}\({_SKIP}([A-Za-z][\w\'+]*){_SKIP}\[((?:[^\]"#]|"[^"]*")*)\]{_SKIP}"([^"#]*)"((?:{_SKIP}\))*)'
)
_INDICES = re.compile(r"[0-9;,. \t\r\n]*")


class _DerivationParser(_Parser):
    """Reads a ``.drv`` file head by head: one match of :data:`_NODE_HEAD`
    per node, whose instance args and sequent formulas are looked up in
    per-file tables by their text.  A text seen first, a head the match does
    not cover and every error are read by tokens, which the lexer reads on
    demand from the same offset."""

    def __init__(self, text: str):
        super().__init__(text, lazy=True)
        self.formulas: dict[str, Formula] = {}  # the text of a sequent's formula -> it
        self.instances: dict[tuple[str, str], RuleInstance] = {}  # (rule, args) -> instance

    def _sub(self, text: str) -> _Parser:
        sub = _Parser(text)
        sub.fun_arity = self.fun_arity
        sub.pred_arity = self.pred_arity
        return sub

    def _take(self, kind: str, what: str) -> _Token:
        """The next token, which must be of ``kind``."""
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {what}, found {tok[1]!r}", self._span(tok))
        return tok

    def _int(self) -> int:
        tok = self._take("int", "an index")
        if not tok[1].isascii():  # an isdigit token: ASCII digits, not '²' or '٠'
            raise ParseError(f"expected an index, found {tok[1]!r}", self._span(tok))
        return int(tok[1])

    def _index_csv(self) -> tuple[int, ...]:
        return () if self.at(";") or self.at("]") else tuple(self.items(self._int))

    def _path(self) -> Path:
        return tuple(self.items(self._int, "."))

    def _paths_csv(self) -> tuple[Path, ...]:
        return () if self.at(";") or self.at("]") else tuple(self.items(self._path))

    def _quoted(self, read):
        """``read`` of a parser over the next quoted string, sharing this one's
        arities, which must consume the whole string.  An error inside keeps
        its class and message and gets its span in this parser's text."""
        string = self._take("string", "a quoted string")
        sub = self._sub(string[1])
        try:
            out = read(sub)
            sub.require_done()
        except ParseError as exc:
            start = string[2] + 1  # the string's first character
            span = self.lexer.span(start + exc.span.start, start + exc.span.end)
            raise type(exc)(exc.message, span) from exc
        return out

    def instance_args(self, rule: RuleId, rule_tok: _Token) -> RuleInstance:
        """The ``[...]`` arguments in the order :func:`format_instance_args`
        prints them."""
        sig = RULES[rule]
        self.expect("[")
        principal: list[int] = []
        got: dict = {}
        for k, field in enumerate(("principal",) * len(sig.principal) + sig.fields):
            if k:
                self.expect(";")
            if field == "principal":
                principal.append(self._int())
            elif field == "split":
                a1 = self._index_csv()
                self.expect(";")
                got[field] = (a1, self._index_csv())
            elif field == "cut_formula":
                got[field] = _rename_binders_apart(self._quoted(_Parser.formula))
            elif field == "quoted_witness":
                got["witness"] = self._quoted(lambda sub: sub.term(frozenset()))
            elif field == "witness":
                got[field] = self.term(frozenset())
            elif field == "eigen":
                got[field] = self._take("ident", "a name")[1]
            elif field == "paths":
                got[field] = self._paths_csv()
            else:  # eq_index, context_index
                got[field] = self._int()
        if "paths" in got and not got["paths"]:
            raise ParseError("malformed instance args: empty path list", self._span(rule_tok))
        self.expect("]")
        replacement = Replacement(got.get("eq_index"), got["context_index"], got["paths"]) if "paths" in got else None
        return RuleInstance(
            rule,
            tuple(principal),
            replacement,
            got.get("witness"),
            got.get("eigen"),
            got.get("cut_formula"),
            got.get("split"),
        )

    @staticmethod
    def _index_args(rule: RuleId, body: str) -> RuleInstance | None:
        """The instance of ``[body]`` when ``rule`` takes only indices and
        paths and ``body`` holds only them, blanks and ``;,.``, read by
        splitting it where its tokens split; None otherwise."""
        sig = RULES[rule]
        parts = body.split(";")
        if len(parts) != len(sig.principal) + len(sig.fields) or not _INDICES.fullmatch(body):
            return None
        try:
            if not sig.fields:
                return RuleInstance(rule, tuple(map(int, parts)))
            if sig.fields == ("eq_index", "context_index", "paths"):
                paths = tuple(tuple(map(int, path.split("."))) for path in parts[2].split(","))
                return RuleInstance(rule, (), Replacement(int(parts[0]), int(parts[1]), paths))
        except ValueError:  # a part that is not one index
            pass
        return None

    def node(self) -> Derivation:
        # the open nodes, innermost last, each with the children read so far:
        # a tall derivation would pass the recursion limit
        open_nodes: list[tuple[Sequent, RuleInstance, list[Derivation]]] = []
        while True:
            seq, inst, closes = self._node_head(len(open_nodes) + 1)
            open_nodes.append((seq, inst, []))
            for _ in range(closes):
                seq, inst, children = open_nodes.pop()
                done = Derivation(seq, inst, tuple(children))
                if not open_nodes:
                    return done
                open_nodes[-1][2].append(done)

    def _node_head(self, depth: int) -> tuple[Sequent, RuleInstance, int]:
        """``(rule [args] "sequent"`` of one node and the ``)`` after it, at
        most ``depth`` of them, with their count."""
        i = self.i
        start = self.tokens[i][2] if i < len(self.tokens) else self.lexer.pos
        m = _NODE_HEAD.match(self.text, start)
        if m and m[1] in RULE_BY_NAME:
            key = m.group(1, 2)
            inst = self.instances.get(key) or self._index_args(RULE_BY_NAME[m[1]], m[2])
            if inst is None:  # read by tokens from the ``[`` on
                self.lexer.pos = m.start(2) - 1
                del self.tokens[i:]
                inst = self.instance_args(RULE_BY_NAME[m[1]], ("ident", m[1], m.start(1), m.end(1)))
            self.instances[key] = inst
            seq = self._sequent(m[3])
            closes = m[4].count(")")
            if seq is not None and closes <= depth:
                # the last token read stands in for all, for ``_eof_span``
                end = self.lexer.pos = m.end()
                self.tokens[i:] = [("punct", ")", end - 1, end) if closes else ("string", m[3], m.start(3) - 1, end)]
                self.i = i + 1
                return seq, inst, closes
            self.i, self.lexer.pos = i, start
            del self.tokens[i:]
        self.expect("(")
        tok = self.next()
        if tok[0] != "ident" or tok[1] not in RULE_BY_NAME:
            raise ParseError(f"unknown rule id {tok[1]!r}", self._span(tok))
        rule = RULE_BY_NAME[tok[1]]
        inst = self.instance_args(rule, tok)
        string = self._take("string", "a quoted string")
        sub = self._sub(string[1])
        try:
            seq = sub.parse_sequent_body()
            sub.require_done()
        except ParseError as exc:  # an arity conflict stays one
            raise type(exc)(f"in sequent {string[1]!r}: {exc.message}", self._span(string)) from exc
        closes = 0
        while closes < depth and self.at(")"):
            self.expect(")")
            closes += 1
        return seq, inst, closes

    def _sequent(self, text: str) -> Sequent | None:
        """The sequent of a string without ``#``, split where its tokens
        split (at ``|-``, and at ``,`` outside parentheses), each formula
        looked up in ``formulas`` or read and entered; None where the split
        or a reading fails."""
        halves = text.split("|-")
        sides = []
        for half in halves if len(halves) == 2 else ():
            pieces, depth = [], 0
            for chunk in half.split(","):
                pieces.append(pieces.pop() + "," + chunk if depth else chunk)
                depth += chunk.count("(") - chunk.count(")")
            keys = [piece.strip(" \t\r\n") for piece in pieces]
            side = []
            for key in keys if keys != [""] else ():  # else an empty side
                f = self.formulas.get(key)
                if f is None:
                    try:
                        sub = self._sub(key)
                        f = sub.formula()
                        sub.require_done()
                    except ParseError:
                        return None
                    self.formulas[key] = f
                side.append(f)
            sides.append(tuple(side))
        return Sequent(*sides) if sides else None


def parse_derivation(text: str) -> Derivation:
    p = _DerivationParser(text)
    try:
        d = p.node()
        p.require_done()
    except ParseError:
        # a lexing error anywhere in the file is the file's error, wherever
        # the parse stopped
        p.lexer.lex(len(text) + 1)
        raise
    return d
