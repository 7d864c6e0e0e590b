"""How the slowest transforms grow with the height of their input.

Prints the in-process seconds of ``cut_eliminate_pipeline`` and of
``equivalence_translate`` from ``R12r`` into ``RefRep2L`` on ``valid_spine``
inputs of 50, 100 and 200 nodes, each the median of three rounds.  There is
no threshold: the report is for reading, and the exit status is 0.

Run from the repository root:

    PYTHONPATH=src python tests/transform_speed.py
"""
from __future__ import annotations

import gc
import pathlib
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from corpus import valid_spine  # noqa: E402
from eqseq.transform import cut_eliminate_pipeline, equivalence_translate  # noqa: E402

ROUNDS = 3
SIZES = (50, 100, 200)
TRANSFORMS = {
    "cut_eliminate_pipeline": cut_eliminate_pipeline,
    "equivalence_translate R12r -> RefRep2L": lambda d: equivalence_translate(d, "R12r", "RefRep2L"),
}


def seconds(transform, d) -> float:
    """Median seconds of ``transform(d)`` over ``ROUNDS`` runs, each started
    with no garbage left by the one before."""
    times = []
    for _ in range(ROUNDS):
        gc.collect()
        t0 = time.perf_counter()
        transform(d)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> None:
    for name, transform in TRANSFORMS.items():
        times = [(n, seconds(transform, valid_spine(n))) for n in SIZES]
        row = ", ".join(f"{n} nodes {s:.2f} s" for n, s in times)
        print(f"{name}, median of {ROUNDS} rounds: {row}")


if __name__ == "__main__":
    main()
