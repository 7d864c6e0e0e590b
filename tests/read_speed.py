"""How long reading a ``.drv`` file takes against checking what was read,
and how long reading a goal takes.

Prints, for the golden files and for a seeded corpus of grown derivations,
the in-process milliseconds of ``parse_derivation`` over every file and of
``check`` over every parsed derivation, and their ratio.  Each figure is the
median of interleaved rounds (parse all, then check all).  A last line gives
the median microseconds of ``parse_sequent`` on the equality chain goals of 2
to 30 links that the benchmark's ``rewrite`` workload decides.  There is no
threshold: the report is for reading, and the exit status is 0.

Run from the repository root:

    PYTHONPATH=src python tests/read_speed.py
"""
from __future__ import annotations

import pathlib
import random
import re
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from corpus import grow  # noqa: E402
from eqseq.calculus import PRESETS, RuleId, resolve_spec  # noqa: E402
from eqseq.checker import check  # noqa: E402
from eqseq.parser import parse_derivation, parse_sequent, print_derivation  # noqa: E402

GOLDEN = pathlib.Path(__file__).parent / "golden"
ROUNDS = 7
SEED = 1
GROWN = 300  # how many grown derivations


def goldens() -> list[tuple[str, object]]:
    out = []
    for path in sorted(GOLDEN.glob("*.drv")):
        text = path.read_text(encoding="utf-8")
        out.append((text, resolve_spec(re.search(r"^# check: (.*)$", text, re.M).group(1))))
    return out


def grown(seed: int, count: int) -> list[tuple[str, object]]:
    rng = random.Random(seed)
    spec = PRESETS["R12rl"].with_rules(RuleId.CUT, RuleId.LC, RuleId.LW)
    return [(print_derivation(grow(rng, spec, depth=rng.randint(1, 12), allow_cut=True)), spec) for _ in range(count)]


def measure(files: list[tuple[str, object]], rounds: int) -> tuple[float, float]:
    """Median milliseconds to parse every file and to check every result."""
    parse_ms, check_ms = [], []
    for _ in range(rounds):
        t0 = time.perf_counter()
        parsed = [(parse_derivation(text), spec) for text, spec in files]
        t1 = time.perf_counter()
        for d, spec in parsed:
            check(d, spec)
        t2 = time.perf_counter()
        parse_ms.append((t1 - t0) * 1e3)
        check_ms.append((t2 - t1) * 1e3)
    return statistics.median(parse_ms), statistics.median(check_ms)


def chain_goals() -> list[str]:
    """``q0 = q1, ..., q(n-1) = qn |- q0 = qn`` and the goal carrying
    ``Q(q0)`` to ``Q(qn)``, for n from 2 to 30."""
    goals = []
    for links in range(2, 31):
        chain = ", ".join(f"q{k} = q{k + 1}" for k in range(links))
        goals += [f"{chain} |- q0 = q{links}", f"{chain}, Q(q0) |- Q(q{links})"]
    return goals


def main() -> None:
    corpora = {"golden": goldens(), f"grown (seed {SEED})": grown(SEED, GROWN)}
    for name, files in corpora.items():
        parse_ms, check_ms = measure(files, ROUNDS)
        size = sum(len(text.encode("utf-8")) for text, _ in files)
        print(
            f"{name}: {len(files)} files, {size} bytes, median of {ROUNDS} rounds: "
            f"parse {parse_ms:.2f} ms, check {check_ms:.2f} ms, parse/check {parse_ms / check_ms:.2f}"
        )
    goals, goal_us = chain_goals(), []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for goal in goals:
            parse_sequent(goal)
        goal_us.append((time.perf_counter() - t0) / len(goals) * 1e6)
    print(
        f"chain goals: {len(goals)} of 2 to 30 links, median of {ROUNDS} rounds: "
        f"parse_sequent {statistics.median(goal_us):.1f} us a goal"
    )


if __name__ == "__main__":
    main()
