"""How long reading a ``.drv`` file takes against checking what was read.

Prints, for the golden files and for a seeded corpus of grown derivations,
the in-process milliseconds of ``parse_derivation`` over every file and of
``check`` over every parsed derivation, and their ratio.  Each figure is the
median of interleaved rounds (parse all, then check all).  There is no
threshold: the report is for reading, and the exit status is 0.

Run from the repository root:

    PYTHONPATH=src python tests/read_speed.py [--rounds 7] [--seed 1] [--grown 300]
"""
from __future__ import annotations

import argparse
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
from eqseq.parser import parse_derivation, print_derivation  # noqa: E402

GOLDEN = pathlib.Path(__file__).parent / "golden"


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


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--rounds", type=int, default=7)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--grown", type=int, default=300, help="how many grown derivations")
    args = ap.parse_args()
    corpora = {"golden": goldens(), f"grown (seed {args.seed})": grown(args.seed, args.grown)}
    for name, files in corpora.items():
        parse_ms, check_ms = measure(files, args.rounds)
        size = sum(len(text.encode("utf-8")) for text, _ in files)
        print(
            f"{name}: {len(files)} files, {size} bytes, median of {args.rounds} rounds: "
            f"parse {parse_ms:.2f} ms, check {check_ms:.2f} ms, parse/check {parse_ms / check_ms:.2f}"
        )


if __name__ == "__main__":
    main()
