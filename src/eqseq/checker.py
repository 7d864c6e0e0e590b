"""Kernel: verify derivations against a calculus and report statistics."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from .calculus import CalculusError, CalculusSpec, RuleId, RuleInstance, premisses_of
from .syntax import Sequent


@dataclass(frozen=True, eq=False)
class Derivation:
    """A finite tree of sequents, each labeled by one explicit rule instance."""

    sequent: Sequent
    inst: RuleInstance
    children: tuple["Derivation", ...] = ()

    @cached_property
    def height(self) -> int:
        # children first, over an explicit stack that stops at cached heights:
        # a tall derivation would pass the recursion limit
        stack = [self]
        while stack:
            d = stack[-1]
            todo = [c for c in d.children if "height" not in c.__dict__]
            stack += todo
            if not todo:
                stack.pop()
                d.__dict__["height"] = 1 + max(c.height for c in d.children) if d.children else 0
        return self.__dict__["height"]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Derivation):
            return NotImplemented
        return (
            self.sequent == other.sequent
            and self.inst == other.inst
            and self.children == other.children
        )

    def __hash__(self) -> int:
        return hash((self.sequent, self.inst, self.children))

    def nodes(self):
        """Every node, in preorder."""
        stack = [self]
        while stack:
            d = stack.pop()
            yield d
            stack += reversed(d.children)

    def rules_used(self) -> set[RuleId]:
        return {n.inst.rule for n in self.nodes()}


@dataclass(frozen=True)
class CheckFailure:
    node_path: tuple[int, ...]
    message: str

    def __str__(self) -> str:
        where = ".".join(str(i) for i in self.node_path) or "root"
        return f"at node {where}: {self.message}"


@dataclass(frozen=True)
class CheckReport:
    valid: bool
    height: int
    rule_counts: dict[RuleId, int] = field(default_factory=dict)
    first_error: CheckFailure | None = None

    def lines(self) -> list[str]:
        out = [f"valid: {'yes' if self.valid else 'no'}", f"height: {self.height}"]
        counts = " ".join(f"{r.value}={n}" for r, n in sorted(self.rule_counts.items()))
        out.append(f"counts: {counts}")
        if self.first_error is not None:
            out.append(f"error: {self.first_error}")
        return out


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

    def walk(node: Derivation, path: tuple[int, ...]) -> None:
        nonlocal first_error
        counts[node.inst.rule] += 1
        if first_error is None:
            try:
                expected = premisses_of(node.sequent, node.inst, spec)
            except CalculusError as exc:
                first_error = CheckFailure(path, str(exc))
                expected = None
            if expected is not None:
                if len(expected) != len(node.children):
                    first_error = CheckFailure(
                        path,
                        f"{node.inst.rule.value} needs {len(expected)} premiss(es), "
                        f"found {len(node.children)}",
                    )
                else:
                    for k, (want, child) in enumerate(zip(expected, node.children)):
                        if want != child.sequent:
                            first_error = CheckFailure(
                                path,
                                f"premiss {k} of {node.inst.rule.value} should be "
                                f"'{want}', found '{child.sequent}'",
                            )
                            break
        for k, child in enumerate(node.children):
            walk(child, path + (k,))

    walk(d, ())
    return CheckReport(
        valid=first_error is None,
        height=d.height,
        rule_counts=dict(counts),
        first_error=first_error,
    )


def node(sequent: Sequent, inst: RuleInstance, *children: Derivation) -> Derivation:
    return Derivation(sequent, inst, tuple(children))
