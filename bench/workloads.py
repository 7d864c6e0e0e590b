"""The three workloads: seeded operation lists and their reference checks.

Each operation is one ``eqseq`` command line.  Its ``verify`` method reads
the exit code and report of one execution (and any derivation file it
wrote) and returns ``(problem, decided)``: ``problem`` is ``None`` when the
result agrees with the reference, else ``("exit", reason)`` for an
unexpected exit code or ``("wrong", reason)`` for a verdict or output that
contradicts the reference; ``decided`` counts the goal x calculus cells
that ended in a verified definite verdict.
"""
from __future__ import annotations

import pathlib
import random

import gen

GOLDEN = pathlib.Path(__file__).parent / "golden"

# Latency limit per workload: a failed or wrong operation counts as missing
# it, so each limit sits well above the slowest correct operation measured on
# a 2-vCPU VM: 8.9 ms for check, 24 ms for rewrite.  For search it is the
# slowest successful prove at criterion 7's limits (8.35 s, with the missing
# import added) times a compare operation's up to 8 searches, rounded up.
LIMIT_MS = {"check": 100.0, "rewrite": 1000.0, "search": 70000.0}

# criterion 7's preset list: equivalent on function-free goals
EQUIVALENT_PRESETS = (
    "R12r", "R12r_eqr", "R12rl", "R_scope", "R_scope_eqr", "R1rlPlus", "R2rlPlus",
    "R12rlPlus", "R12prec_rlPlus", "RefRep", "RefRep2L", "CngLCeq", "R1rl", "R2rl",
)
SEARCH_LIMITS = ("--depth", "4", "--term-height", "1", "--budget", "60000")

CUT_RULES = gen.PRESET_RULES["R12r"] + ("cut", "lc", "lceq")
REP1R_MIX = gen.PRESET_RULES["R2rlPlus"] + ("rep1r",)
REP2R_MIX = gen.PRESET_RULES["R1rlPlus"] + ("rep2r",)


def machine_block(stdout: str) -> dict[str, str]:
    """The ``key: value`` pairs between the report's ``---`` lines."""
    out: dict[str, str] = {}
    inside = False
    for line in stdout.splitlines():
        if line == "---":
            inside = not inside
        elif inside and ": " in line:
            key, value = line.split(": ", 1)
            out[key] = value
    return out


def recheck(path: str, spec: str, endsequent: str | None, forbidden=()) -> str | None:
    """Parse a written derivation and check it with the kernel in ``spec``."""
    from eqseq.calculus import resolve_spec
    from eqseq.checker import check
    from eqseq.parser import parse_derivation, parse_sequent
    from eqseq.syntax import EqSeqError

    try:
        with open(path, encoding="utf-8") as fh:
            d = parse_derivation(fh.read())
    except (OSError, EqSeqError) as exc:
        return f"output unreadable: {exc}"
    rep = check(d, resolve_spec(spec))
    if not rep.valid:
        return f"output fails to check in {spec}: {rep.first_error}"
    if endsequent is not None and d.sequent != parse_sequent(endsequent):
        return "endsequent changed"
    used = {r.value for r in d.rules_used()}
    if used & set(forbidden):
        return f"forbidden rule(s) in output: {sorted(used & set(forbidden))}"
    return None


class Op:
    cells = 1
    out = None  # the derivation file the operation writes, if any

    def __init__(self, argv: list[str]):
        self.argv = argv

    def verify(self, code: int, stdout: str):
        raise NotImplementedError


class CheckOp(Op):
    def __init__(self, path: str, spec: str, valid: bool):
        super().__init__(["check", path, "--spec" if "=" in spec else "--preset", spec])
        self.valid = valid

    def verify(self, code, stdout):
        want = "valid" if self.valid else "invalid"
        if code != (0 if self.valid else 1):
            return ("exit", f"exit {code}, expected {want}"), 0
        got = machine_block(stdout).get("result")
        if got != want:
            return ("wrong", f"result {got}, expected {want}"), 0
        return None, 1


class TransformOp(Op):
    def __init__(self, path, out, op, target, endsequent, forbidden=(), extra=(), single=False):
        super().__init__(["transform", path, op, "-o", out, *extra])
        self.out, self.target, self.endsequent = out, target, endsequent
        self.forbidden, self.single = forbidden, single

    def verify(self, code, stdout):
        if code != 0:
            return ("exit", f"exit {code}"), 0
        if machine_block(stdout).get("result") != "transformed":
            return ("wrong", "no transformed result"), 0
        problem = recheck(self.out, self.target, self.endsequent, self.forbidden)
        if problem is None and self.single:
            problem = _multi_occurrence(self.out)
        return (("wrong", problem), 0) if problem else (None, 1)


def _multi_occurrence(path: str) -> str | None:
    from eqseq.parser import parse_derivation

    with open(path, encoding="utf-8") as fh:
        d = parse_derivation(fh.read())
    for nd in d.nodes():
        rep = nd.inst.replacement
        if rep is not None and len(rep.paths) != 1:
            return "replacement with several occurrences after single-occurrence"
    return None


class ProjectOp(TransformOp):
    """Succedent projection keeps the antecedent and one succedent formula."""

    def __init__(self, path, out, ante_text, succ_texts):
        super().__init__(path, out, "project", "R12r", None, extra=("--preset", "R12r"))
        self.ante_text, self.succ_texts = ante_text, succ_texts

    def verify(self, code, stdout):
        problem, decided = super().verify(code, stdout)
        if problem is not None:
            return problem, decided
        from eqseq.parser import parse_derivation, parse_sequent

        with open(self.out, encoding="utf-8") as fh:
            got = parse_derivation(fh.read()).sequent
        if len(got.succ) != 1 or not any(
            got == parse_sequent(f"{self.ante_text} |- {s}") for s in self.succ_texts
        ):
            return ("wrong", "projection changed the antecedent or the succedent formula"), 0
        return None, 1


class DecideOp(Op):
    def __init__(self, goal: str, out: str, derivable: bool):
        super().__init__(["decide", goal, "-o", out])
        self.goal, self.out, self.derivable = goal, out, derivable

    def verify(self, code, stdout):
        want = "derivable" if self.derivable else "underivable"
        if code != (0 if self.derivable else 1):
            return ("exit", f"exit {code}, expected {want}"), 0
        if machine_block(stdout).get("result") != want:
            return ("wrong", f"verdict differs from union-find ({want})"), 0
        if self.derivable:
            problem = recheck(self.out, "R2rl", self.goal)
            if problem:
                return ("wrong", problem), 0
        return None, 1


class ProveOp(Op):
    """``derivable`` is the reference verdict for the goal in ``preset``.
    With ``must_prove`` an exhausted search is wrong too, and ``height``,
    when given, is the expected height of the minimal proof."""

    def __init__(self, goal, preset, out, derivable, limits=SEARCH_LIMITS, must_prove=False, height=None):
        super().__init__(["prove", goal, "--preset", preset, *limits, "-o", out])
        self.goal, self.preset, self.out = goal, preset, out
        self.derivable, self.must_prove, self.height = derivable, must_prove, height

    def verify(self, code, stdout):
        block = machine_block(stdout)
        result = block.get("result")
        if result not in ("proved", "underivable", "exhausted") or code != (0 if result == "proved" else 1):
            return ("exit", f"exit {code} with result {result}"), 0
        if result == "exhausted":
            return (("wrong", "exhausted on a goal it must prove") if self.must_prove else None), 0
        if (result == "proved") != self.derivable:
            return ("wrong", f"{result} but the reference says derivable={self.derivable}"), 0
        if result == "proved":
            problem = recheck(self.out, self.preset, self.goal)
            if problem is None and self.height is not None and block.get("height") != str(self.height):
                problem = f"proof height {block.get('height')}, expected {self.height}"
            if problem:
                return ("wrong", problem), 0
        return None, 1


class CompareOp(Op):
    def __init__(self, corpus: str, a: str, b: str, verdicts: list[bool]):
        super().__init__(["compare", corpus, a, b, *SEARCH_LIMITS])
        self.verdicts = verdicts
        self.cells = 2 * len(verdicts)

    def verify(self, code, stdout):
        if code != 0:
            return ("exit", f"exit {code}"), 0
        rows = [line for line in stdout.splitlines() if "  |  " in line]
        if len(rows) != len(self.verdicts):
            return ("wrong", f"{len(rows)} rows for {len(self.verdicts)} goals"), 0
        decided = 0
        for row, derivable in zip(rows, self.verdicts):
            tokens = row.split("  |  ", 1)[1].split()
            for tok in tokens[:2]:
                if tok == "inconclusive":
                    continue
                if tok.startswith("proved") != derivable:
                    return ("wrong", f"{tok} but the reference says derivable={derivable}"), 0
                decided += 1
        return None, decided


def _write(path: pathlib.Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _grown(rng, rules, depth, cut=False, want=None):
    while True:
        d = gen.grow(rng, rules, depth, allow_cut=cut)
        if want is None or want(d):
            return d


def build_check(rng: random.Random, work: pathlib.Path) -> list[Op]:
    ops: list[Op] = []
    for path in sorted(GOLDEN.glob("*.drv")):
        text = path.read_text(encoding="utf-8")
        spec = next(l for l in text.splitlines() if l.startswith("# check:")).split(":", 1)[1].strip()
        ops.append(CheckOp(_write(work / path.name, text), spec, True))
    kinds = (
        ("R12r", gen.PRESET_RULES["R12r"], 12, False),
        (gen.spec_text(CUT_RULES), CUT_RULES, 8, True),
        (gen.spec_text(REP1R_MIX), REP1R_MIX, 12, False),
        ("R2rlPlus", gen.PRESET_RULES["R2rlPlus"], 12, False),
        (gen.spec_text(REP2R_MIX), REP2R_MIX, 12, False),
        ("R12rl", gen.PRESET_RULES["R12rl"], 12, False),
        ("RefRep", gen.PRESET_RULES["RefRep"], 12, False),
    )
    for k in range(270):
        spec, rules, depth, cut = kinds[k % len(kinds)]
        d = _grown(rng, rules, depth, cut)
        valid = k % 10 != 9 or not d[4]
        text = gen.drv_text(d if valid else gen.mutate(d)) + "\n"
        ops.append(CheckOp(_write(work / f"grown{k}.drv", text), spec, valid))
    return ops


def _single_succ(d) -> bool:
    return len(d[3]) == 1


def _single_eq_succ(d) -> bool:
    return len(d[3]) == 1 and gen.is_eq(d[3][0])


TRANSLATE_PRESETS = ("R12r", "R12rl", "R1rlPlus", "R2rlPlus", "RefRep", "RefRep2L", "CngLCeq")


def build_rewrite(rng: random.Random, work: pathlib.Path) -> list[Op]:
    ops: list[Op] = []
    r12r = gen.PRESET_RULES["R12r"]
    semishorten = "base=none rules=refax,rep1r,rep2r,rep1lp,rep2lp flags=oriented prec=height"
    for k in range(48):
        def inp(name, d):
            return _write(work / f"{name}{k}.drv", gen.drv_text(d) + "\n"), gen.seq_str(d[2], d[3])

        def out(name):
            return str(work / f"{name}{k}.out.drv")

        path, end = inp("cut", _grown(rng, CUT_RULES, 5, cut=True))
        ops.append(TransformOp(path, out("cut"), "cut-eliminate", "R12r", end, ("cut", "lc", "lceq")))
        path, end = inp("rn", _grown(rng, r12r, 5, want=_single_eq_succ))
        ops.append(TransformOp(path, out("rn"), "right-normalize", "R12r_eqr", end))
        path, end = inp("sr", _grown(rng, r12r, 5, want=_single_succ))
        ops.append(TransformOp(path, out("sr"), "scope-restrict", "R_scope", end))
        path, end = inp("e1", _grown(rng, REP1R_MIX, 5))
        ops.append(TransformOp(path, out("e1"), "eliminate-rep1r", "R2rlPlus", end, ("rep1r",)))
        path, end = inp("e2", _grown(rng, REP2R_MIX, 4))
        ops.append(TransformOp(path, out("e2"), "eliminate-rep2r", "R1rlPlus", end, ("rep2r",)))
        preset = ("R12r", "R2rlPlus")[k % 2]
        path, end = inp("so", _grown(rng, gen.PRESET_RULES[preset], 6))
        ops.append(TransformOp(path, out("so"), "single-occurrence", preset, end,
                               extra=("--preset", preset), single=True))
        path, end = inp("ss", _grown(rng, r12r, 5))
        ops.append(TransformOp(path, out("ss"), "semishorten", semishorten, end, extra=("--prec", "height")))
        src, tgt = rng.sample(TRANSLATE_PRESETS, 2)
        path, end = inp("tr", _grown(rng, gen.PRESET_RULES[src], 3))
        tools = gen.spec_text(gen.PRESET_RULES[tgt] + ("cut", "lc", "lw"))
        ops.append(TransformOp(path, out("tr"), "translate", tools, end, extra=("--source", src, "--target", tgt)))
        d = _grown(rng, r12r, 5)
        path, _end = inp("pj", d)
        ops.append(ProjectOp(path, out("pj"), ", ".join(gen.fml_str(f) for f in d[2]),
                             [gen.fml_str(f) for f in d[3]]))
    for k in range(90):
        ante, succ = gen.function_free_goal(rng)
        ops.append(DecideOp(gen.seq_str(ante, succ), str(work / f"ff{k}.out.drv"), gen.congruent(ante, succ)))
    for links in range(2, 31):
        # both chain goals of every length up to 30 links, the same for every
        # seed, so each seed has the same long tail; the longest chains
        # expose the recursion limit
        for carry in (False, True):
            ante, succ = gen.chain_goal(links, carry)
            ops.append(DecideOp(gen.seq_str(ante, succ), str(work / f"chain{links}{'q' * carry}.out.drv"), True))
    rng.shuffle(ops)
    return ops


# criterion 7's fixed goals, then seeded ones of the same shape
FIXED_GOALS = ("a = c, b = c |- a = b", "c = b, c = a |- a = b", "b = a |- a = b", "|- t = t")


def _ff_goal(rng):
    ante, succ = gen.function_free_goal(rng, n_params=4, n_eqs=3, n_atoms=1)
    return gen.seq_str(ante, succ), gen.congruent(ante, succ)


def build_search(rng: random.Random, work: pathlib.Path) -> list[Op]:
    ops: list[Op] = []
    goals = [(text, True) for text in FIXED_GOALS] + [_ff_goal(rng) for _ in range(12)]
    for g, (text, derivable) in enumerate(goals):
        for preset in EQUIVALENT_PRESETS:
            ops.append(ProveOp(text, preset, str(work / f"g{g}-{preset}.out.drv"), derivable))
    for k in range(4):
        rows = [_ff_goal(rng) for _ in range(4)]
        corpus = _write(work / f"corpus{k}.seq", "".join(f"{text}\n" for text, _ in rows))
        a, b = rng.sample(EQUIVALENT_PRESETS, 2)
        ops.append(CompareOp(corpus, a, b, [derivable for _, derivable in rows]))
    for k, (text, preset, depth, th, derivable, height) in enumerate(gen.WITNESSES):
        limits = ("--depth", str(depth), "--term-height", str(th))
        ops.append(ProveOp(text, preset, str(work / f"w{k}.out.drv"), derivable, limits,
                           must_prove=height is not None, height=height))
    for k in range(60):
        kind = ("S1", "S2")[k % 2]
        ante, succ = gen.shape_goal(rng, kind)
        ops.append(ProveOp(gen.seq_str(ante, succ), kind, str(work / f"s{k}.out.drv"), False))
    rng.shuffle(ops)
    return ops


BUILDERS = {"check": build_check, "rewrite": build_rewrite, "search": build_search}
