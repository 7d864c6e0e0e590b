"""Tracer for the traced benchmark pass.

It wraps public functions of each ``eqseq`` module, in the defining module
and under every name another ``eqseq`` module imported them by (for example
``eqseq.search.premisses_of``), plus ``Sequent.__hash__``/``__eq__``.
Wrappers only time and count: arguments, results and exceptions pass
through unchanged.  Boundary calls record spans (name, start, end, parent)
kept in memory; hot inner functions are aggregated as counts plus busy
time.  Self time is a call's duration minus the time its traced callees
took.
"""
from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


class Stat:
    __slots__ = ("calls", "busy", "self", "depth", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0  # outermost calls only, so recursion is not counted twice
        self.self = 0.0
        self.depth = 0
        self.extra: Counter = Counter()


def count_nodes(d) -> int:
    n, stack = 0, [d]
    while stack:
        n += 1
        stack.extend(stack.pop().children)
    return n


def _parse_bytes(st, args, result):
    if args and isinstance(args[0], str):
        st.extra["bytes"] += len(args[0])


def _instances(st, args, result):
    st.extra["instances"] += len(result)


def _nodes_checked(st, args, result):
    st.extra["nodes"] += sum(result.rule_counts.values())


def _outcome(st, args, result):
    st.extra[type(result).__name__] += 1


def _growth(st, args, result):
    if st.depth == 0:  # outermost call: output nodes over input nodes
        out = result[1] if isinstance(result, tuple) else result
        st.extra["in"] += count_nodes(args[0]) if hasattr(args[0], "children") else 1
        st.extra["out"] += count_nodes(out)


TRANSFORMS = (
    "cut_eliminate_pipeline", "right_normalize", "scope_restrict", "eliminate_rep1r_plus",
    "eliminate_rep2r_plus", "single_occurrence_normalize", "semishorten",
    "equivalence_translate", "project_succedent", "orient_function_free",
)

# (module, function, group, records spans, result hook)
PROBES = [
    ("cli", "run", "cli.run", True, None),
    *(("parser", f, "parser.parse", True, _parse_bytes)
      for f in ("parse_derivation", "parse_sequent", "parse_term", "parse_formula")),
    *(("parser", f, "parser.print", False, None)
      for f in ("print_derivation", "print_sequent", "print_formula")),
    ("calculus", "premisses_of", "calculus.premisses_of", False, None),
    ("calculus", "applicable_instances", "calculus.applicable_instances", False, _instances),
    ("checker", "check", "checker.check", True, _nodes_checked),
    ("search", "prove", "search.prove", True, _outcome),
    ("search", "decide_function_free", "search.decide", True, None),
    *(("transform", f, f"transform.{f}", True, _growth) for f in TRANSFORMS),
]


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.frames: list[list[float]] = []  # callee time per active call
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.open_spans: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, group: str, span: bool, hook):
        st = self.stats[group]
        frames, spans, open_spans = self.frames, self.spans, self.open_spans
        inside = self.stats
        rejection = sys.modules["eqseq.calculus"].CalculusError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st.calls += 1
            if group == "calculus.premisses_of":
                if inside["calculus.applicable_instances"].depth:
                    st.extra["in_instances"] += 1
            elif group == "calculus.applicable_instances" and inside["search.prove"].depth:
                st.extra["in_prove"] += 1
            frame = [0.0]
            frames.append(frame)
            if span:
                sid = len(spans)
                spans.append(None)
                parent = open_spans[-1] if open_spans else None
                open_spans.append(sid)
            st.depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except rejection:
                if group == "calculus.premisses_of":
                    st.extra["rejected"] += 1
                raise
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                st.depth -= 1
                frames.pop()
                st.self += dur - frame[0]
                if frames:
                    frames[-1][0] += dur
                if st.depth == 0:
                    st.busy += dur
                if span:
                    open_spans.pop()
                    spans[sid] = (sid, fn.__name__, t0, t1, parent)
            if hook is not None:
                hook(st, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace each probed function, and each Sequent method, in place."""
        mods = {k: v for k, v in sys.modules.items() if k == "eqseq" or k.startswith("eqseq.")}
        for mod_name, fn_name, group, span, hook in PROBES:
            orig = getattr(mods[f"eqseq.{mod_name}"], fn_name)
            wrapped = self._wrap(orig, group, span, hook)
            for mod in mods.values():
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, name, orig))
                        setattr(mod, name, wrapped)
        seq_cls = mods["eqseq.syntax"].Sequent
        for meth, group in (("__hash__", "syntax.sequent_hash"), ("__eq__", "syntax.sequent_eq")):
            orig = seq_cls.__dict__[meth]
            self._undo.append((seq_cls, meth, orig))
            setattr(seq_cls, meth, self._wrap(orig, group, False, None))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1, "parent": parent}) + "\n")

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``."""
        s = self.stats

        def ratio(a, b):
            return a / b if b else 0.0

        prem, inst, prove = s["calculus.premisses_of"], s["calculus.applicable_instances"], s["search.prove"]
        out = {
            "cli.run.calls": (s["cli.run"].calls, "count"),
            "cli.run.self_s": (s["cli.run"].self, "s"),
            "parser.parse.calls": (s["parser.parse"].calls, "count"),
            "parser.parse.busy_s": (s["parser.parse"].busy, "s"),
            "parser.parse.bytes_per_s": (ratio(s["parser.parse"].extra["bytes"], s["parser.parse"].busy), "B/s"),
            "parser.print.busy_s": (s["parser.print"].busy, "s"),
            "syntax.sequent_hash.calls": (s["syntax.sequent_hash"].calls, "count"),
            "syntax.sequent_eq.calls": (s["syntax.sequent_eq"].calls, "count"),
            "syntax.sequent_key.busy_s": (s["syntax.sequent_hash"].busy + s["syntax.sequent_eq"].busy, "s"),
            "calculus.premisses_of.calls": (prem.calls, "count"),
            "calculus.premisses_of.busy_s": (prem.busy, "s"),
            "calculus.premisses_of.rejected": (prem.extra["rejected"], "count"),
            "calculus.applicable_instances.calls": (inst.calls, "count"),
            "calculus.applicable_instances.self_s": (inst.self, "s"),
            "calculus.applicable_instances.instances": (inst.extra["instances"], "count"),
            "calculus.instance_accept_ratio": (ratio(inst.extra["instances"], prem.extra["in_instances"]), "1"),
            "checker.check.calls": (s["checker.check"].calls, "count"),
            "checker.check.busy_s": (s["checker.check"].busy, "s"),
            "checker.check.nodes": (s["checker.check"].extra["nodes"], "count"),
            "search.prove.calls": (prove.calls, "count"),
            "search.prove.self_s": (prove.self, "s"),
            "search.prove.moves_per_call": (ratio(inst.extra["in_prove"], prove.calls), "1"),
            "search.outcome.proved": (prove.extra["Proved"], "count"),
            "search.outcome.underivable": (prove.extra["DecidedUnderivable"], "count"),
            "search.outcome.exhausted": (prove.extra["Exhausted"], "count"),
            "search.decide.busy_s": (s["search.decide"].busy, "s"),
        }
        for fn in TRANSFORMS:
            t = s[f"transform.{fn}"]
            out[f"transform.{fn}.calls"] = (t.calls, "count")
            out[f"transform.{fn}.busy_s"] = (t.busy, "s")
            out[f"transform.{fn}.node_growth"] = (ratio(t.extra["out"], t.extra["in"]), "1")
        return out
