"""Command-line front end: check, prove, decide, transform, compare, presets.

Every command prints a human-readable summary followed by a machine block
delimited by ``---`` lines containing ``key: value`` pairs (``--json`` swaps
the block for a JSON object with the same keys).  Exit codes: 0 for
success/valid/proved, 1 for invalid/underivable/exhausted, 2 for usage or
parse errors.  Defaults may be supplied by a ``key = value`` config file
(``eqseq.toml`` in the working directory, or ``--config``).
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .calculus import PRESETS, RuleId, parse_precedence, resolve_spec
from .checker import Derivation, check, stats
from .parser import parse_derivation, parse_sequent, parse_term, print_derivation, print_sequent, read_text
from .syntax import EqSeqError
# loaded on first use (see ``eqseq/__init__.py``): look names up as commands run
from . import search, transform as tf


class _UsageError(Exception):
    pass


def _load_config(path: str | None) -> dict[str, str]:
    """The ``key = value`` lines of ``path``, which must exist, or else of
    ``./eqseq.toml`` when there is one."""
    if not path:
        if not os.path.exists("eqseq.toml"):
            return {}
        path = "eqseq.toml"
    out: dict[str, str] = {}
    for line in read_text(path).split("\n"):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"malformed config line: {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip().strip('"')
    return out


def _config_int(cfg: dict[str, str], key: str, default: int) -> int:
    try:
        return int(cfg.get(key, default))
    except ValueError:
        raise _UsageError(f"config value {key} = {cfg[key]!r} is not an integer") from None


def _emit(human: list[str], machine: dict, json_mode: bool, elapsed_ms: int) -> None:
    for line in human:
        print(line)
    machine = dict(machine)
    machine["time_ms"] = elapsed_ms
    if json_mode:
        print(json.dumps(machine, sort_keys=True))
        return
    print("---")
    for key, value in machine.items():
        if isinstance(value, dict):
            value = " ".join(f"{k}={v}" for k, v in sorted(value.items()))
        print(f"{key}: {value}")
    print("---")


def _counts(d: Derivation) -> dict[str, int]:
    return {r.value: n for r, n in stats(d).rule_counts.items()}


def _limits(args, cfg) -> search.SearchLimits:
    depth = args.depth if args.depth is not None else _config_int(cfg, "depth", 6)
    th = args.term_height if args.term_height is not None else _config_int(cfg, "term_height", 3)
    budget = args.budget if args.budget is not None else _config_int(cfg, "budget", 100_000)
    universe = None
    if getattr(args, "universe_file", None):
        terms = [
            parse_term(line.split("#", 1)[0].strip())
            for line in read_text(args.universe_file).split("\n")
            if line.split("#", 1)[0].strip()
        ]
        universe = frozenset(terms)
    return search.SearchLimits(max_depth=depth, term_height=th, universe=universe, node_budget=budget)


def _spec_of(args, cfg):
    text = args.preset or args.spec or cfg.get("preset")
    if not text:
        raise _UsageError("a --preset name or --spec string is required")
    return resolve_spec(text)


def _write_drv(path: str, d: Derivation) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(print_derivation(d))


# -- commands


def _cmd_check(args, cfg) -> int:
    spec = _spec_of(args, cfg)
    d = parse_derivation(read_text(args.drv))
    t0 = time.monotonic()
    rep = check(d, spec)
    ms = int((time.monotonic() - t0) * 1000)
    human = [f"checked {args.drv} against {spec.describe()}"]
    machine = {
        "result": "valid" if rep.valid else "invalid",
        "height": rep.height,
        "counts": {r.value: n for r, n in rep.rule_counts.items()},
    }
    if rep.first_error is not None:
        machine["error"] = str(rep.first_error)
    _emit(human, machine, args.json, ms)
    return 0 if rep.valid else 1


def _cmd_prove(args, cfg) -> int:
    spec = _spec_of(args, cfg)
    goal = parse_sequent(args.sequent)
    lim = _limits(args, cfg)
    t0 = time.monotonic()
    outcome = search.prove(goal, spec, lim)
    ms = int((time.monotonic() - t0) * 1000)
    if isinstance(outcome, search.Proved):
        d = outcome.derivation
        machine = {"result": "proved", "height": d.height, "counts": _counts(d)}
        human = [f"proved: {print_sequent(goal)}"]
        if args.out:
            _write_drv(args.out, d)
            human.append(f"derivation written to {args.out}")
        _emit(human, machine, args.json, ms)
        return 0
    if isinstance(outcome, search.DecidedUnderivable):
        _emit(
            [f"underivable: {print_sequent(goal)} ({outcome.reason})"],
            {"result": "underivable", "reason": outcome.reason},
            args.json,
            ms,
        )
        return 1
    machine = {
        "result": "exhausted",
        "expansions": outcome.expansions,
        "budget_exceeded": outcome.budget_exceeded,
    }
    _emit([f"exhausted the bounds on: {print_sequent(goal)}"], machine, args.json, ms)
    return 1


def _cmd_decide(args, cfg) -> int:
    goal = parse_sequent(args.sequent)
    decide = search.decide_function_free  # the first lookup loads search: not timed
    t0 = time.monotonic()
    plan = decide(goal)
    ms = int((time.monotonic() - t0) * 1000)
    if isinstance(plan, search.DecidedUnderivable):
        _emit(
            [f"underivable: {print_sequent(goal)} ({plan.reason})"],
            {"result": "underivable", "reason": plan.reason},
            args.json,
            ms,
        )
        return 1
    human = [f"derivable: {print_sequent(goal)}"]
    machine: dict = {"result": "derivable", "chains": len(plan.chains)}
    if plan.witness_index is not None:
        machine["witness"] = str(goal.ante[plan.witness_index])
    if args.out:
        d = search.chain_to_derivation(plan)
        _write_drv(args.out, d)
        machine["height"] = d.height
        human.append(f"oriented witness derivation written to {args.out}")
    _emit(human, machine, args.json, ms)
    return 0


def _eliminate(eliminate, preset: str, rule: RuleId, d):
    """``eliminate`` after single-occurrence normalization under ``preset`` plus ``rule``."""
    target = PRESETS[preset]
    return eliminate(tf.single_occurrence_normalize(d, target.with_rules(rule))), target


def _single_occurrence(d, args, cfg):
    spec = _spec_of(args, cfg)
    return tf.single_occurrence_normalize(d, spec), spec


def _project(d, args, cfg):
    spec = _spec_of(args, cfg)
    return tf.project_succedent(d, spec)[1], spec


def _semishorten(d, args, cfg):
    prec = parse_precedence(args.prec or "height")
    return tf.semishorten(d, prec), tf.semishorten_target(prec)


def _translate(d, args, cfg):
    if not args.source or not args.target:
        raise _UsageError("translate needs --source and --target presets")
    return tf.equivalence_translate(d, args.source, args.target), tf.translate_target(args.target)


# op -> (function of (derivation, args, cfg) to (output, target), the steps before op
# in its report).  They look transforms up in ``tf`` as they run, for wrappers on it.
_TRANSFORMS = {
    "cut-eliminate": (lambda d, args, cfg: (tf.cut_eliminate_pipeline(d), PRESETS["R12r"]), ()),
    "right-normalize": (lambda d, args, cfg: (tf.right_normalize(d), PRESETS["R12r_eqr"]), ()),
    "scope-restrict": (lambda d, args, cfg: (tf.scope_restrict(d), PRESETS["R_scope"]), ()),
    "eliminate-rep1r": (
        lambda d, args, cfg: _eliminate(tf.eliminate_rep1r_plus, "R2rlPlus", RuleId.REP1R, d),
        ("single-occurrence",),
    ),
    "eliminate-rep2r": (
        lambda d, args, cfg: _eliminate(tf.eliminate_rep2r_plus, "R1rlPlus", RuleId.REP2R, d),
        ("single-occurrence",),
    ),
    "single-occurrence": (_single_occurrence, ()),
    "semishorten": (_semishorten, ()),
    "translate": (_translate, ()),
    "project": (_project, ()),
}


def _cmd_transform(args, cfg) -> int:
    d = parse_derivation(read_text(args.drv))
    op = args.op
    transform, before = _TRANSFORMS[op]
    make_report = tf.make_report  # the first lookup loads transform: not timed
    t0 = time.monotonic()
    out, target = transform(d, args, cfg)
    if op == "cut-eliminate":  # the pipeline has checked its output in R12r
        report = tf.TransformReport(out, target, d.height, out.height, before + (op,))
    else:
        report = make_report(d, out, target, before + (op,))
    ms = int((time.monotonic() - t0) * 1000)
    human = [f"{op}: ok"] + report.lines()
    machine = {
        "result": "transformed",
        "input_height": report.input_height,
        "output_height": report.output_height,
        "counts": _counts(out),
        "target": report.target.describe(),
    }
    if args.out:
        _write_drv(args.out, out)
        human.append(f"output derivation written to {args.out}")
    _emit(human, machine, args.json, ms)
    return 0


def _outcome_token(outcome) -> str:
    if isinstance(outcome, search.Proved):
        return f"proved(h={outcome.derivation.height})"
    if isinstance(outcome, search.DecidedUnderivable):
        return "underivable"
    return "inconclusive"


def _cmd_compare(args, cfg) -> int:
    spec_a = resolve_spec(args.preset_a)
    spec_b = resolve_spec(args.preset_b)
    lim = _limits(args, cfg)
    goals = [
        parse_sequent(line.split("#", 1)[0].strip())
        for line in read_text(args.corpus).split("\n")
        if line.split("#", 1)[0].strip()
    ]
    t0 = time.monotonic()
    rows = []
    agree = disagree = inconclusive = 0
    for goal in goals:
        oa = search.prove(goal, spec_a, lim)
        ob = search.prove(goal, spec_b, lim)
        ta, tb = _outcome_token(oa), _outcome_token(ob)
        proved_a, proved_b = isinstance(oa, search.Proved), isinstance(ob, search.Proved)
        under_a = isinstance(oa, search.DecidedUnderivable)
        under_b = isinstance(ob, search.DecidedUnderivable)
        if (proved_a and under_b) or (proved_b and under_a):
            verdict = "DISAGREE"
            disagree += 1
        elif isinstance(oa, search.Exhausted) or isinstance(ob, search.Exhausted):
            verdict = "inconclusive"
            inconclusive += 1
        else:
            verdict = "agree"
            agree += 1
        rows.append(f"{print_sequent(goal)}  |  {ta}  {tb}  {verdict}")
    ms = int((time.monotonic() - t0) * 1000)
    human = [f"compare {args.preset_a} vs {args.preset_b} over {len(goals)} sequents:"] + rows
    machine = {
        "result": "disagreements" if disagree else "agreement",
        "sequents": len(goals),
        "agree": agree,
        "disagree": disagree,
        "inconclusive": inconclusive,
    }
    _emit(human, machine, args.json, ms)
    return 1 if disagree else 0


def _cmd_presets(args, cfg) -> int:
    human = []
    for name in sorted(PRESETS):
        human.append(f"{name:16s} {PRESETS[name].describe()}")
    _emit(human, {"result": "ok", "presets": len(PRESETS)}, args.json, 0)
    return 0


_COMMANDS = ("check", "prove", "decide", "transform", "compare", "presets")


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    # An ``argv`` that starts with a command name builds that command's parser
    # alone, for ``run`` to hand the rest of ``argv``.  In the whole tree, the
    # subparsers action hands that parser every argument after the name, and
    # it prints its own help and errors; the top parser adds only
    # ``config=None`` and the check for leftovers, which ``run`` has the whole
    # tree make, so that their message and usage are the top parser's.  Any
    # other argv (none, -h, --config, an unknown command) builds the whole
    # tree.  argparse makes a formatter for every argument added and every
    # text printed, and each asks for the terminal's width: ask once.
    import shutil  # here, as argparse does: a cold ``import eqseq.cli`` need not load it

    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    if only:
        parser = argparse.ArgumentParser(prog=f"eqseq {only}", formatter_class=formatter)
        parser.set_defaults(command=only, config=None)
    else:
        parser = argparse.ArgumentParser(prog="eqseq", description=__doc__, formatter_class=formatter)
        parser.add_argument("--config", help="key = value defaults file (default ./eqseq.toml)")
        sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        if only is None:
            return sub.add_parser(name, help=help, formatter_class=formatter)
        return parser if name == only else None

    def common(p, spec_opts=True, limit_opts=False):
        p.add_argument("--json", action="store_true", help="machine block as JSON")
        if spec_opts:
            p.add_argument("--preset", help="named calculus preset (see `eqseq presets`)")
            p.add_argument("--spec", help="inline spec: base=.. rules=.. flags=.. prec=..")
        if limit_opts:
            p.add_argument("--depth", type=int, help="inference bound per branch")
            p.add_argument("--term-height", dest="term_height", type=int, help="bound on witness terms")
            p.add_argument("--budget", type=int, help="total node expansion cap")
            p.add_argument("--universe-file", help="file of terms, one per line")

    if (p := command("check", help="verify a .drv derivation file")) is not None:
        p.add_argument("drv")
        common(p)
        p.set_defaults(func=_cmd_check)

    if (p := command("prove", help="bounded backward proof search")) is not None:
        p.add_argument("sequent")
        common(p, limit_opts=True)
        p.add_argument("-o", "--out", help="write the found derivation here")
        p.set_defaults(func=_cmd_prove)

    if (p := command("decide", help="exact decision for function-free atomic sequents")) is not None:
        p.add_argument("sequent")
        common(p, spec_opts=False)
        p.add_argument("-o", "--out", help="write the oriented witness derivation here")
        p.set_defaults(func=_cmd_decide)

    if (p := command("transform", help="apply a proof transformation to a .drv file")) is not None:
        p.add_argument("drv")
        p.add_argument("op", choices=sorted(_TRANSFORMS))
        common(p)
        p.add_argument("--source", help="source preset (translate)")
        p.add_argument("--target", help="target preset (translate)")
        p.add_argument("--prec", help="semishorten precedence: height, none or @file")
        p.add_argument("-o", "--out", help="write the transformed derivation here")
        p.set_defaults(func=_cmd_transform)

    if (p := command("compare", help="prove a corpus under two calculi and tabulate")) is not None:
        p.add_argument("corpus", help=".seq file, one sequent per line")
        p.add_argument("preset_a")
        p.add_argument("preset_b")
        common(p, spec_opts=False, limit_opts=True)
        p.set_defaults(func=_cmd_compare)

    if (p := command("presets", help="list the named calculus presets")) is not None:
        common(p, spec_opts=False)
        p.set_defaults(func=_cmd_presets)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser(argv)
    try:
        args, extra = parser.parse_known_args(argv[1:] if parser.prog != "eqseq" else argv)
        if extra:
            build_parser().parse_args(argv)  # exits 2, with the whole tree's message
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = _load_config(args.config)
        return args.func(args, cfg)
    except (_UsageError, OSError, EqSeqError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect, not a verdict: exit 2 without a traceback
        print(f"error: {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
