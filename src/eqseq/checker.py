"""Kernel: verify derivations against a calculus and report statistics."""
from __future__ import annotations

from collections import Counter, namedtuple
from functools import cached_property

from .calculus import CalculusError, CalculusSpec, RuleId, RuleInstance, premisses_of
from .syntax import Record, Sequent, _set


class Derivation(Record):
    """A finite tree of sequents, each labeled by one explicit rule instance."""

    _fields = ("sequent", "inst", "children")

    def __init__(self, sequent: Sequent, inst: RuleInstance, children: tuple["Derivation", ...] = ()) -> None:
        _set(self, "sequent", sequent)
        _set(self, "inst", inst)
        _set(self, "children", children)

    @cached_property
    def height(self) -> int:
        return self._bottom_up("height", lambda d: max((c.height + 1 for c in d.children), default=0))

    def _bottom_up(self, key: str, compute):
        """``compute(d)`` cached in ``d.__dict__[key]`` for every node ``d`` of
        this tree that lacks it, children first, over an explicit stack that
        stops at cached nodes: a tall derivation would pass the recursion limit."""
        stack = [] if key in self.__dict__ else [self]
        while stack:
            d = stack[-1]
            todo = [c for c in d.children if key not in c.__dict__]
            stack += todo
            if not todo:
                stack.pop()
                d.__dict__[key] = compute(d)
        return self.__dict__[key]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if a.sequent != b.sequent or a.inst != b.inst or len(a.children) != len(b.children):
                return False
            pairs += zip(a.children, b.children)
        return True

    def __hash__(self) -> int:
        # each node's hash is that of (sequent, instance, children), whose
        # children hash from their cached values
        return self._bottom_up("_hash", lambda d: hash((d.sequent, d.inst, d.children)))

    def nodes(self):
        """Every node, in preorder."""
        stack = [self]
        while stack:
            d = stack.pop()
            yield d
            stack += reversed(d.children)

    def rules_used(self) -> set[RuleId]:
        return {n.inst.rule for n in self.nodes()}


class CheckFailure(namedtuple("CheckFailure", "node_path message")):
    __slots__ = ()
    node_path: tuple[int, ...]
    message: str

    def __str__(self) -> str:
        where = ".".join(str(i) for i in self.node_path) or "root"
        return f"at node {where}: {self.message}"


class CheckReport(Record):
    _fields = ("valid", "height", "rule_counts", "first_error")

    def __init__(
        self,
        valid: bool,
        height: int,
        rule_counts: dict[RuleId, int] | None = None,
        first_error: CheckFailure | None = None,
    ) -> None:
        _set(self, "valid", valid)
        _set(self, "height", height)
        _set(self, "rule_counts", {} if rule_counts is None else rule_counts)
        _set(self, "first_error", first_error)


def stats(d: Derivation) -> CheckReport:
    """Height and rule-usage counts only; never fails."""
    counts: Counter[RuleId] = Counter()
    for node in d.nodes():
        counts[node.inst.rule] += 1
    return CheckReport(valid=True, height=d.height, rule_counts=dict(counts))


def check(d: Derivation, spec: CalculusSpec) -> CheckReport:
    """Verify ``d`` node by node against ``spec``.

    A node is correct when ``premisses_of`` accepts its instance and the
    children's sequents equal the computed premisses as multisets, in order.
    Failures are reported (with the path of the first offending node), never
    raised.
    """
    counts: Counter[RuleId] = Counter()
    first_error: CheckFailure | None = None

    # preorder over an explicit stack; a node's path is kept as a chain of
    # (parent's chain, child number) links and spelled out only on an error
    stack: list[tuple[Derivation, tuple | None]] = [(d, None)]
    while stack:
        node, link = stack.pop()
        counts[node.inst.rule] += 1
        if first_error is None:
            message = _node_error(node, spec)
            if message is not None:
                first_error = CheckFailure(_path_of(link), message)
        children = node.children
        for k in range(len(children) - 1, -1, -1):
            stack.append((children[k], (link, k)))
    return CheckReport(
        valid=first_error is None,
        height=d.height,
        rule_counts=dict(counts),
        first_error=first_error,
    )


def _node_error(node: Derivation, spec: CalculusSpec) -> str | None:
    """Why ``node`` is not a correct inference in ``spec``, or None."""
    try:
        expected = premisses_of(node.sequent, node.inst, spec)
    except CalculusError as exc:
        return str(exc)
    if len(expected) != len(node.children):
        return f"{node.inst.rule.value} needs {len(expected)} premiss(es), found {len(node.children)}"
    for k, (want, child) in enumerate(zip(expected, node.children)):
        if want != child.sequent:
            return f"premiss {k} of {node.inst.rule.value} should be '{want}', found '{child.sequent}'"
    return None


def _path_of(link: tuple | None) -> tuple[int, ...]:
    path: list[int] = []
    while link is not None:
        link, k = link
        path.append(k)
    return tuple(reversed(path))


def node(sequent: Sequent, inst: RuleInstance, *children: Derivation) -> Derivation:
    return Derivation(sequent, inst, tuple(children))
