"""eqseq benchmark: the ``check``, ``rewrite`` and ``search`` workloads run
through ``eqseq.cli.run`` in-process, one operation at a time (a closed
loop with one client).

    python3 bench/run.py --workload check --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --runs 3 --out results.json
    python3 bench/run.py --compare base.json new.json

One run builds the workload's inputs from ``--seed`` and measures them under
each of the fixed string-hash layouts in ``HASH_SEEDS``, one after another,
each in a process of its own that repeats whole passes over the operation
list for its share of ``--seconds``.  An operation's time is the median of
all its executions, each scaled to a reference host speed by the probes
taken before and after it; set-up time is the median of rounds run in fresh
interpreters between the layouts.  Every result is checked against a
reference that does not come from the code under test.

The last line of output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``attempted`` counts the workload's distinct
operations and ``failed`` those that failed in any execution, so both depend
only on the seed and the code.  ``metrics`` holds the end-to-end metrics of
BENCHMARK.json, or with ``--trace 1`` its per-layer metrics, taken from one
extra pass under the tracer in ``tracer.py``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import pathlib
import random
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# String hashing decides dict and set layouts, which moved operation times by
# 5-15% between otherwise identical runs, and decides the shape of some
# outputs (which chain witnesses hit the recursion limit, for one).  Every run
# measures the same layouts and pools their samples, so a run's figures,
# outputs and failures depend only on the seed and the code.
HASH_SEEDS = (1, 2, 3, 4)
SETUP_ROUNDS_PER_LAYOUT = 3
# About the time of reference_task() on a 2-vCPU VM in its faster state.
# Measured times are scaled by REFERENCE_S / (the task's time at that moment),
# so that they read as times on that VM at that speed.
REFERENCE_S = 0.00075
# On a shared VM the host's speed moved by up to 2x within a minute, and
# operation times moved with it.  Probing it after every PROBE_EVERY_S of
# operation time cut the pass-to-pass variation of scaled times to about a
# quarter; probing only between passes halved it.
PROBE_EVERY_S = 0.015
_PROBE_DOC = {"nodes": [{"rule": f"r{i}", "args": [i, i + 1, "x" * (i % 7)], "sub": {"k": i}} for i in range(60)]}


def reference_task() -> float:
    """Host speed probe: the time of fixed standard-library work like a
    command's own (build an argparse parser and parse a command line, a JSON
    round trip, string formatting).  It uses nothing from eqseq, so the code
    under test does not move it; of the probes tried it tracked the
    operations' times best.  The garbage collector is off meanwhile, so the
    heap the operations left behind does not move it either."""
    gc.disable()
    try:
        t0 = perf_counter()
        ap = argparse.ArgumentParser(prog="probe")
        sub = ap.add_subparsers(dest="cmd")
        for name in ("a", "b", "c"):
            sp = sub.add_parser(name)
            sp.add_argument("file")
            sp.add_argument("--x", type=int, default=3)
            sp.add_argument("-o")
        ap.parse_args(["b", "f.txt", "--x", "5", "-o", "out"])
        json.loads(json.dumps(_PROBE_DOC))
        "\n".join(f"{k}: {v!r}" for k, v in enumerate(range(200)))
        return perf_counter() - t0
    finally:
        gc.enable()


def host_speed() -> float:
    """The median of five probes."""
    return statistics.median(reference_task() for _ in range(5))


def import_package():
    """Import the package and make sure it is the checkout's copy."""
    cli = importlib.import_module("eqseq.cli")
    if not pathlib.Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"eqseq was imported from {cli.__file__}, not from {SRC}")


def _child(args: list[str], layout: int, timeout: float) -> str:
    """Run this script in a fresh interpreter under one hash layout; return
    the last line of its output."""
    cmd = [sys.executable, str(BENCH / "run.py"), *args, "--layout", str(layout)]
    env = {**os.environ, "PYTHONHASHSEED": str(layout)}
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(args)} under layout {layout} failed: {proc.stderr.strip()[-800:]}")
    return lines[-1]


def work_dir(workload: str, seed: int) -> pathlib.Path:
    """Where a run keeps its inputs and outputs: the same paths under every
    layout, as they appear in the reports.  The files are created once per
    run and then overwritten, because creating a file cost ten times as much
    as overwriting one here, and varied with the filesystem, not the code."""
    return pathlib.Path(".bench_work") / f"{workload}-seed{seed}"


def setup_round(workload: str, seed: int) -> None:
    """One set-up round, run in a process of its own: import plus input
    generation.  Prints the round's time, scaled to the reference speed, as
    the last line."""
    import workloads

    before = host_speed()
    t0 = perf_counter()
    import_package()
    workloads.BUILDERS[workload](random.Random(seed), work_dir(workload, seed))
    elapsed = perf_counter() - t0
    after = host_speed()
    print(repr(elapsed * 2 * REFERENCE_S / (before + after)))


def time_setup(workload: str, seed: int, layout: int) -> float:
    """Time of one set-up round in a fresh interpreter, as a user's process
    pays it: no module is loaded yet and nothing is warm."""
    return float(_child(["--setup-round", "--workload", workload, "--seed", str(seed)], layout, 120))


def report_digest(stdout: str, code, escaped) -> str:
    kept = "\n".join(line for line in stdout.splitlines() if not line.startswith("time_ms:"))
    tail = f"exception={escaped.split(':', 1)[0]}" if escaped else f"exit={code}"
    return hashlib.sha256(f"{kept}\n{tail}".encode()).hexdigest()


def run_pass(ops, probes: list[float]) -> list[tuple]:
    """Execute every operation once; only the ``cli.run`` call is timed.
    The host speed is probed after every ``PROBE_EVERY_S`` of operation time
    and at the end, and each execution gets the scale of the two probes
    around it.  ``probes`` holds the last probe taken and gets the new ones."""
    cli = sys.modules["eqseq.cli"]
    out: list[list] = []
    since, pending = 0.0, 0
    for k, op in enumerate(ops):
        if op.out and os.path.exists(op.out):
            os.remove(op.out)
        buf = io.StringIO()
        code = escaped = None
        t0 = perf_counter()
        try:
            with redirect_stdout(buf), redirect_stderr(io.StringIO()):
                code = cli.run(op.argv)
        except Exception as exc:  # an escaped exception is a failed operation
            escaped = f"{type(exc).__name__}: {str(exc)[:200]}"
        dt = perf_counter() - t0
        out.append([dt, code, escaped, buf.getvalue(), None])
        since += dt
        if since >= PROBE_EVERY_S or k == len(ops) - 1:
            probes.append(reference_task())
            scale = 2 * REFERENCE_S / (probes[-2] + probes[-1])
            for row in out[pending:]:
                row[4] = scale
            since, pending = 0.0, len(out)
    return [tuple(row) for row in out]


class Tally:
    """Classifies one layout's executions against the references and keeps
    the numbers.  ``known`` maps an execution's report and output, hashed, to
    the verdict already given on them, here or under an earlier layout, so
    each distinct result is verified once."""

    def __init__(self, ops, known: dict):
        self.ops, self.known = ops, known
        self.first: list[str] = []  # per op: digest of the first execution's report
        self.keys: list[str] = []  # per op: hash of the first execution's report and output
        self.times: list[list[float]] = [[] for _ in ops]  # scaled
        self.raw: list[list[float]] = [[] for _ in ops]
        self.problem: list = [None] * len(ops)
        self.decided = [0] * len(ops)
        self.report_changes = 0
        self.pass_times: list[float] = []

    def add_pass(self, results) -> None:
        self.pass_times.append(sum(r[0] for r in results))
        for k, (op, (dt, code, escaped, stdout, scale)) in enumerate(zip(self.ops, results)):
            digest = report_digest(stdout, code, escaped)
            output = pathlib.Path(op.out).read_bytes() if op.out and os.path.exists(op.out) else None
            key = hashlib.sha256(f"{k} {digest} {output is not None} ".encode() + (output or b"")).hexdigest()
            if key not in self.known:
                self.known[key] = [("exception", escaped), 0] if escaped else list(op.verify(code, stdout))
            problem, decided = self.known[key]
            if k == len(self.first):
                self.first.append(digest)
                self.keys.append(key)
                self.decided[k] = decided
            elif key != self.keys[k]:
                self.report_changes += 1
            self.times[k].append(dt * scale)
            self.raw[k].append(dt)
            if self.problem[k] is None:
                self.problem[k] = problem

    def summary(self) -> dict:
        """What the parent process needs, as JSON."""
        return {
            "digest": hashlib.sha256("".join(self.first).encode()).hexdigest(),
            "argv": [op.argv for op in self.ops],
            "cells": [op.cells for op in self.ops],
            "decided": self.decided,
            "problem": self.problem,
            "times": self.times,
            "raw": self.raw,
            "pass_times": self.pass_times,
            "report_changes": self.report_changes,
            "known": self.known,
        }


def measure_layout(workload: str, seed: int, seconds: float, traced: bool, known_path: str | None) -> dict:
    """The part of a run under one hash layout (this process's)."""
    import workloads

    import_package()
    ops = workloads.BUILDERS[workload](random.Random(seed), work_dir(workload, seed))
    known = json.loads(pathlib.Path(known_path).read_text(encoding="utf-8")) if known_path else {}
    tally = Tally(ops, known)
    probes = [reference_task()]
    # whole passes, as many as come nearest to the time share
    while not tally.pass_times or sum(tally.pass_times) + tally.pass_times[-1] / 2 < seconds:
        gc.collect()
        probes.append(reference_task())
        tally.add_pass(run_pass(ops, probes))
    metrics = None
    if traced:
        import tracer as tracing

        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tracer = tracing.Tracer()
        tracer.install()
        try:
            results = run_pass(ops, probes)
        finally:
            tracer.uninstall()
        traced_s = sum(r[0] for r in results)
        # both sides scaled to the reference speed, so a change of host speed
        # between the passes does not read as tracing overhead
        untraced = statistics.median(sum(t[j] for t in tally.times) for j in range(len(tally.pass_times)))
        tally.add_pass(results)  # the traced pass is checked like the others
        metrics = tracer.metrics()
        metrics["mem.peak_rss_mb"] = (rss_mb, "MB")
        metrics["trace.overhead_ratio"] = (sum(r[0] * r[4] for r in results) / untraced, "1")
        spans = pathlib.Path(".bench_out") / f"spans-{workload}-seed{seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        tracer.write_spans(spans)
    out = tally.summary()
    out["probes"] = probes
    if traced:
        out["metrics"] = metrics
        out["trace_note"] = f"traced pass: {traced_s:.2f} s, {len(tracer.spans)} spans written to {spans}"
    return out


def end_to_end(parts: list[dict], setup_s: float, limit_ms: float, key: str = "times") -> dict:
    """End-to-end metrics over the pooled executions of every layout.  A
    failed or wrong operation counts as missing the latency limit."""
    n = len(parts[0]["argv"])
    med = [statistics.median(t for p in parts for t in p[key][k]) for k in range(n)]
    ok = [all(p["problem"][k] is None for p in parts) for k in range(n)]
    lat = [t * 1000 + (0 if good else limit_ms) for t, good in zip(med, ok)]
    decided = sum(min(p["decided"][k] for p in parts) for k in range(n) if ok[k])
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (sum(ok) / sum(med), "ops/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10)[8], "ms"),
        "correct_ratio": (sum(ok) / n, "1"),
        "decided_ratio": (decided / sum(parts[0]["cells"]), "1"),
    }


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    import workloads

    limit = workloads.LIMIT_MS[workload]
    # the traced run measures the first layout only: half the time untraced,
    # for trace.overhead_ratio, then one traced pass
    layouts = HASH_SEEDS[:1] if traced else HASH_SEEDS
    share = seconds / 2 if traced else seconds / len(layouts)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", repr(share), "--trace", str(int(traced))]
    parts, setup_times = [], []
    work = work_dir(workload, seed)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    known_path = work / "verdicts.json"
    known_path.write_text("{}", encoding="utf-8")
    walls = [0.0, 0.0]  # wall seconds in the layouts' processes, in set-up rounds
    try:
        for layout in layouts:
            t0 = perf_counter()
            parts.append(json.loads(_child([*args, "--verdicts", str(known_path)], layout, 170)))
            known_path.write_text(json.dumps(parts[-1].pop("known")), encoding="utf-8")
            t1 = perf_counter()
            if not traced:
                # set-up rounds go between the layouts, spread over the run
                setup_times += [time_setup(workload, seed, layout) for _ in range(SETUP_ROUNDS_PER_LAYOUT)]
            walls[0] += t1 - t0
            walls[1] += perf_counter() - t1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    n = len(parts[0]["argv"])
    problems = [next((p["problem"][k] for p in parts if p["problem"][k] is not None), None) for k in range(n)]
    ledger = []
    for argv, problem in zip(parts[0]["argv"], problems):
        if problem is not None:
            kind, reason = problem
            cls = reason.split(":", 1)[0] if kind == "exception" else kind
            ledger.append({"workload": workload, "argv": argv, "class": cls, "reason": reason})
    by_class: dict[str, int] = {}
    for entry in ledger:
        by_class[entry["class"]] = by_class.get(entry["class"], 0) + 1
    wrong = sum(1 for problem in problems if problem is not None and problem[0] == "wrong")
    digest = hashlib.sha256("".join(p["digest"] for p in parts).encode()).hexdigest()
    passes = [len(p["pass_times"]) for p in parts]
    probes = [x for p in parts for x in p["probes"]]
    slowest = max((statistics.median(t for p in parts for t in p["times"][k]) * 1000
                   for k in range(n) if problems[k] is None), default=0.0)
    lines = [f"workload {workload}, seed {seed}: {n} operations, {'+'.join(map(str, passes))} passes under "
             f"hash layouts {'/'.join(map(str, layouts))}, {sum(sum(p['pass_times']) for p in parts):.2f} s timed; "
             f"latency limit {limit:g} ms, slowest correct operation {slowest:.1f} ms; latency samples: {n} "
             f"(median execution of each operation), {n // 10} beyond p90",
             f"host speed probe: median {statistics.median(probes) * 1000:.3f} ms over {len(probes)} probes, "
             f"reference {REFERENCE_S * 1000:g} ms; times below are scaled by reference / probe",
             f"wall time: {walls[0]:.1f} s in the layouts' processes, {walls[1]:.1f} s in "
             f"{len(setup_times)} set-up rounds"]
    if traced:
        metrics = {name: tuple(v) for name, v in parts[0]["metrics"].items()}
        lines.append(parts[0]["trace_note"])
    else:
        metrics = end_to_end(parts, statistics.median(setup_times), limit)
        unscaled = end_to_end(parts, 0.0, limit, key="raw")
        lines.append("unscaled: " + ", ".join(f"{k} = {unscaled[k][0]:.6g} {unscaled[k][1]}"
                                              for k in ("ops_per_s", "op_p50_ms", "op_p90_ms")))
    out_dir = pathlib.Path(".bench_out")
    out_dir.mkdir(exist_ok=True)
    ledger_path = out_dir / f"ledger-{workload}-seed{seed}.json"
    ledger_path.write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
    lines.append(f"failed operations by class: {json.dumps(by_class, sort_keys=True) if by_class else 'none'}"
                 f" (ledger: {ledger_path})")
    lines.append(f"correct: {wrong == 0} ({wrong} wrong results); reports that changed between passes: "
                 f"{sum(p['report_changes'] for p in parts)}")
    lines.append(f"digest: {digest}")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name} = {value:.6g} {unit}")
    return {
        "lines": lines,
        "record": {"workload": workload, "seed": seed, "trace": int(traced), "digest": digest,
                   "failures": by_class},
        "result": {
            "correct": wrong == 0,
            "attempted": n,
            "failed": len(ledger),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
    }


def run_all(args) -> int:
    """Each workload in its own process, ``--runs`` seeds each."""
    records = []
    for workload in ("check", "rewrite", "search"):
        for seed in range(args.seed, args.seed + args.runs):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            print("\n".join(lines[:-2]))
            record = json.loads(lines[-2].split(" ", 1)[1])
            record.update(json.loads(lines[-1]))
            records.append(record)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps({"runs": records}, indent=1) + "\n", encoding="utf-8")
        print(f"results written to {args.out}")
    return 0


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("inf")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def compare(path_a: str, path_b: str) -> int:
    """Ratio of medians per workload x end-to-end metric, B against base A."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = [json.loads(pathlib.Path(p).read_text(encoding="utf-8"))["runs"] for p in (path_a, path_b)]
    for workload in [w["name"] for w in spec["workloads"]]:
        sides = [[r for r in rs if r["workload"] == workload and r["trace"] == 0] for rs in runs]
        if not all(sides):
            continue
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a, b = ([r["metrics"][name]["value"] for r in side] for side in sides)
            med_a, med_b = statistics.median(a), statistics.median(b)
            ratio = med_b / med_a if med_a else float("inf")
            change = ratio - 1 if m["better"] == "lower" else 1 - ratio
            spread = max(_spread(a), _spread(b))
            if spread > bound:
                verdict = "unresolved"
            else:
                verdict = "worse" if change > bound else "better" if change < -spread else "same"
            print(f"{workload:8s} {name:14s} base {med_a:.6g} {m['unit']}  new {med_b:.6g}  ratio {ratio:.4f}"
                  f"  spread {spread:.3f} (bound {bound})  {verdict}")
        digests = [{r["seed"]: r["digest"] for r in side} for side in sides]
        same = [s for s in digests[0] if s in digests[1]]
        differ = [s for s in same if digests[0][s] != digests[1][s]]
        print(f"{workload:8s} digests: {len(same) - len(differ)}/{len(same)} shared seeds identical"
              + (f", differ on seeds {differ}" if differ else ""))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=("check", "rewrite", "search", "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=1, help="seeds per workload with --workload all")
    ap.add_argument("--out", help="result file for --workload all")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two result files")
    ap.add_argument("--setup-round", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--layout", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--verdicts", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload or --compare is required")
    if not (SRC / "eqseq" / "__init__.py").is_file():
        print(f"error: no eqseq sources under {SRC}", file=sys.stderr)
        return 2
    if args.out:
        args.out = os.path.abspath(args.out)
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.layout is not None:
        if os.environ.get("PYTHONHASHSEED") != str(args.layout):
            print("error: --layout needs PYTHONHASHSEED set to the same value", file=sys.stderr)
            return 2
        if args.setup_round:
            setup_round(args.workload, args.seed)
        else:
            print(json.dumps(measure_layout(args.workload, args.seed, args.seconds, bool(args.trace), args.verdicts)))
        return 0
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(res["lines"]))
    print("record " + json.dumps(res["record"], sort_keys=True))
    print(json.dumps(res["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
