"""The token-level ``.drv`` reader that ``eqseq.parser`` used before its
head-match reader: the reference the derivation differential test compares
with.

``reference_derivation(text)`` returns the ``Derivation`` of ``text``, or
raises the ``ParseError`` the old reader raised.  It lexes the whole file
first, then reads every node head token by token.
"""
from __future__ import annotations

from eqseq.calculus import RULE_BY_NAME, RULES, Replacement, RuleId, RuleInstance
from eqseq.checker import Derivation
from eqseq.parser import ParseError, _Parser, _rename_binders_apart
from eqseq.syntax import Sequent


class _ReferenceParser(_Parser):
    """``_Parser`` with the per-file formula table, entered by text."""

    def __init__(self, text):
        super().__init__(text)
        self.formulas = {}

    def parse_sequent_body(self):
        ante = () if self.at("|-") else self.items(self._sequent_formula)
        self.expect("|-")
        succ = () if self.done() or self.at(")") else self.items(self._sequent_formula)
        return Sequent(tuple(ante), tuple(succ))

    def _sequent_formula(self):
        tokens, i = self.tokens, self.i
        j, depth = i, 0
        while j < len(tokens):
            kind, text = tokens[j][0], tokens[j][1]
            if kind == "punct":
                if text == "(":
                    depth += 1
                elif text == ")":
                    depth -= 1
                elif depth == 0 and (text == "," or text == "|-"):
                    break
            j += 1
        if j == i:
            return self.formula()
        key = self.text[tokens[i][2] : tokens[j - 1][3]]
        f = self.formulas.get(key)
        if f is not None:
            self.i = j
            return f
        f = self.formula()
        if self.i == j:
            self.formulas[key] = f
        return f


class _ReferenceDerivationParser(_ReferenceParser):
    def _sub(self, text):
        sub = _ReferenceParser(text)
        sub.fun_arity = self.fun_arity
        sub.pred_arity = self.pred_arity
        sub.formulas = self.formulas
        return sub

    def _take(self, kind, what):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {what}, found {tok[1]!r}", self._span(tok))
        return tok

    def _int(self):
        tok = self._take("int", "an index")
        if not tok[1].isascii():  # an isdigit token: ASCII digits, not '²' or '٠'
            raise ParseError(f"expected an index, found {tok[1]!r}", self._span(tok))
        return int(tok[1])

    def _index_csv(self):
        return () if self.at(";") or self.at("]") else tuple(self.items(self._int))

    def _path(self):
        return tuple(self.items(self._int, "."))

    def _paths_csv(self):
        return () if self.at(";") or self.at("]") else tuple(self.items(self._path))

    def _quoted(self, read):
        string = self._take("string", "a quoted string")
        sub = self._sub(string[1])
        try:
            out = read(sub)
            sub.require_done()
        except ParseError as exc:
            start = string[2] + 1
            span = self.lexer.span(start + exc.span.start, start + exc.span.end)
            raise type(exc)(exc.message, span) from exc
        return out

    def instance_args(self, rule: RuleId, rule_tok) -> RuleInstance:
        sig = RULES[rule]
        self.expect("[")
        principal = []
        got = {}
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
            else:
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

    def node(self) -> Derivation:
        open_nodes = []
        while True:
            open_nodes.append((*self._node_head(), []))
            while self.at(")"):
                self.expect(")")
                seq, inst, children = open_nodes.pop()
                done = Derivation(seq, inst, tuple(children))
                if not open_nodes:
                    return done
                open_nodes[-1][2].append(done)

    def _node_head(self):
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
        except ParseError as exc:
            raise type(exc)(f"in sequent {string[1]!r}: {exc.message}", self._span(string)) from exc
        return seq, inst


def reference_derivation(text: str) -> Derivation:
    p = _ReferenceDerivationParser(text)
    d = p.node()
    p.require_done()
    return d
