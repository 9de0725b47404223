"""The benchmark's three workloads: their inputs, operations and checks.

`import_prefsat()` imports the program afresh; `WORKLOADS[name](mods, seed)`
then loads and parses what the workload needs and returns its operation
list.  An operation is run once per round; its `run` returns an output and
its `check` turns that output into a list of problems.

rulings    the paper's use: every shipped case ruling re-derived at a deep
           bound, plus the quick model-finding queries around it.
crosscheck the SAT engine against the enumeration oracle (`engine="both"`)
           on the suite-derived queries that fit the oracle and on seeded
           random queries.
cli        cold `prefsat` commands, one child interpreter each.
"""
from __future__ import annotations

import importlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The party each case's ruling favours, as the case law has it.
CASES = {"pierson": "d", "post": "p", "conti": "p"}
RULING_BOUND = 7  # each ruling takes ~0.35 s here, ~x2.5 per added world
REPLAY_STEPS = 8

# Suite rows, restated here so that the workload does not follow the suites:
# (name, formula, mode, bound, expected verdict).  Bounds are cut to 2 (the
# rows' own bound where it is smaller) so that the oracle can decide them.
SUITE_ROWS = (
    ("dual-dia-weak", "(iff (dialeq P) (not (boxleq (not P))))", "refute", 2, "bounded-valid"),
    ("dual-dia-strict", "(iff (dialt P) (not (boxlt (not P))))", "refute", 2, "bounded-valid"),
    ("dual-global", "(iff (E P) (not (A (not P))))", "refute", 2, "bounded-valid"),
    ("axiom-t-weak", "(implies (boxleq P) P)", "refute", 2, "bounded-valid"),
    ("axiom-4-weak", "(implies (boxleq P) (boxleq (boxleq P)))", "refute", 2, "bounded-valid"),
    ("axiom-4-strict", "(implies (boxlt P) (boxlt (boxlt P)))", "refute", 2, "bounded-valid"),
    ("inclusion-strict-weak", "(implies (dialt P) (dialeq P))", "refute", 2, "bounded-valid"),
    ("axiom-t-strict-fails", "(implies (boxlt P) P)", "refute", 1, "countermodel"),
    ("cp-empty-weak", "(iff (cp-dialeq () P) (dialeq P))", "refute", 2, "bounded-valid"),
    ("cp-empty-strict", "(iff (cp-dialt () P) (dialt P))", "refute", 2, "bounded-valid"),
    ("cp-guarded-implies-base", "(implies (cp-dialeq (Q) P) (dialeq P))",
     "refute", 2, "bounded-valid"),
    ("agg-right", "(implies (prefsyn ae strict P Q) (prefsyn ae strict P (or Q R)))",
     "refute", 2, "bounded-valid"),
    ("agg-left", "(implies (prefsyn ae strict (or P R) Q) (prefsyn ae strict P Q))",
     "refute", 2, "bounded-valid"),
    ("agg-union", "(implies (and (prefsyn ae strict Q P) (prefsyn ae strict R P))"
     " (prefsyn ae strict (or Q R) P))", "refute", 2, "bounded-valid"),
    ("agg-right-converse", "(implies (prefsyn ae strict P (or Q R)) (prefsyn ae strict P Q))",
     "refute", 2, "countermodel"),
    ("agg-left-converse", "(implies (prefsyn ae strict P Q) (prefsyn ae strict (or P R) Q))",
     "refute", 2, "countermodel"),
    ("conflict-resp-stab", "(implies (and (ext RESP p) (ext STAB p)) (conflict p))",
     "refute", 2, "bounded-valid"),
    ("conflict-reli-will", "(implies (and (ext RELI p) (ext WILL p)) (conflict p))",
     "refute", 2, "bounded-valid"),
    ("conflict-will-stab-open", "(implies (and (ext WILL p) (ext STAB p)) (conflict p))",
     "refute", 2, "countermodel"),
    ("conflict-cross-party-open", "(implies (and (ext RESP p) (ext STAB d)) (conflict p))",
     "refute", 2, "countermodel"),
    ("conflict-contingent-sat", "(conflict p)", "find", 2, "satisfiable"),
    ("conflict-contingent-open", "(conflict p)", "refute", 2, "countermodel"),
    ("conflict-with-fresh-atom", "(and (conflict p) (not Fresh))", "find", 2, "satisfiable"),
)
# Proof steps of pierson.proof that the oracle can decide at bound 2; each is
# valid from its cited support.  s4 and s5 have too many symbols.
STEP_ROWS = ("s1-wild-setting", "s2-pref-instance", "s3-pref-lifted",
             "s6-exhaustive", "s7-stab-forced", "s8-ruling")
STEP_BOUND = 2

RANDOM_QUERIES = 100
RANDOM_BOUND = 3


class SetupError(Exception):
    """The checkout or the program does not provide what a workload needs."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    argv: list[str] | None = None  # the command line of a cli operation


def import_prefsat() -> dict:
    """Import `prefsat` from the checkout's `src/`, dropping any earlier
    import first so that every set-up pays the import."""
    for name in [n for n in sys.modules if n == "prefsat" or n.startswith("prefsat.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    pkg = importlib.import_module("prefsat")
    if Path(pkg.__file__).resolve().parent != SRC / "prefsat":
        raise SetupError(f"imported prefsat from {pkg.__file__}, not from {SRC}")
    return {name: importlib.import_module(f"prefsat.{name}")
            for name in tracing.MODULES + ("ontology",)}


def _case_kbs(mods) -> dict:
    kbs = {case: mods["kb"].case_kb(case) for case in CASES}
    for case, party in CASES.items():
        if list(kbs[case].goals) != [f"ruling-for-{party}"]:
            raise SetupError(f"{case}.kb should have the one goal ruling-for-{party}, "
                             f"has {list(kbs[case].goals)}")
    return kbs


def _query_op(mods, name: str, query, expect: str) -> Op:
    solver, model = mods["solver"], mods["model"]
    # look `check` up at call time, so that a tracer installed later sees it
    return Op(name, lambda: solver.check(query),
              lambda v: check.check_verdict(v, query, expect, model))


# ---------------------------------------------------------------------------
# rulings


def rulings_ops(mods, seed: int) -> list[Op]:
    kbm = mods["kb"]
    kbs = _case_kbs(mods)
    opts = {"bound": RULING_BOUND, "engine": "sat"}
    ops = []
    for case, kb in kbs.items():
        goal = f"ruling-for-{CASES[case]}"
        ops.append(_query_op(mods, f"{case}-ruling", kbm.goal_query(kb, goal, **opts),
                             "bounded-valid"))
        ops.append(_query_op(mods, f"{case}-axioms-only",
                             kbm.goal_query(kb, goal, with_facts=False, **opts),
                             "countermodel"))
        ops.append(_query_op(mods, f"{case}-model", kbm.sat_query(kb, **opts), "satisfiable"))
        for party, q in kbm.audit_queries(kb, **opts).items():
            ops.append(_query_op(mods, f"{case}-audit-{party}", q, "countermodel"))
    pierson = kbs["pierson"]
    steps = kbm.load_proof(kbm.case_proof_path("pierson"), pierson.sig)
    ops.append(Op("pierson-replay",
                  lambda: kbm.replay(steps, pierson, engine="sat"),
                  lambda results: check.check_replay(results, REPLAY_STEPS)))
    return ops


# ---------------------------------------------------------------------------
# crosscheck


def random_queries(mods, seed: int, count: int) -> list:
    """Seeded random queries over one atom and one value symbol.

    Two symbols keep a full enumeration at bound 3 to 1924 models, so that
    the few valid queries a seed draws do not swing the round time; the
    shapes cover every connective, guarded diamonds and the sugared
    preference forms."""
    sx, solver = mods["syntax"], mods["solver"]
    rng = random.Random(f"crosscheck:{seed}")
    leaves = (sx.Atom("P"), sx.ValAtom(mods["ontology"].BasicValue.FREEDOM, sx.Const("p")))
    unary = (sx.Not, sx.DiaWeak, sx.BoxWeak, sx.DiaStrict, sx.BoxStrict,
             sx.Somewhere, sx.Everywhere)

    def gen(depth: int):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(leaves)
        shape = rng.randrange(7)
        if shape < 2:
            return rng.choice(unary)(gen(depth - 1))
        if shape == 2:
            return rng.choice((sx.And, sx.Or))((gen(depth - 1), gen(depth - 1)))
        if shape == 3:
            return rng.choice((sx.Implies, sx.Iff))(gen(depth - 1), gen(depth - 1))
        if shape == 4:
            op = rng.choice((sx.CpDiaWeak, sx.CpDiaStrict))
            return op((rng.choice(leaves),), gen(depth - 1))
        if shape == 5:
            return sx.SynPref(rng.choice(("ee", "ea", "ae", "aa")), rng.random() < 0.5,
                              gen(depth - 1), gen(depth - 1))
        return sx.Cond(gen(depth - 1), gen(depth - 1))

    out = []
    for _ in range(count):
        target = sx.desugar(gen(3))
        axioms = tuple(sx.desugar(gen(2)) for _ in range(rng.randrange(2)))
        facts = tuple(sx.desugar(gen(2)) for _ in range(rng.randrange(2)))
        out.append(solver.Query(axioms=axioms, facts=facts, target=target,
                                mode="refute" if rng.random() < 0.7 else "find",
                                bound=RANDOM_BOUND, total=rng.random() < 0.2,
                                engine="both"))
    return out


def crosscheck_ops(mods, seed: int) -> list[Op]:
    sx, kbm, solver, model = mods["syntax"], mods["kb"], mods["solver"], mods["model"]
    sig = sx.base_signature("P", "Q", "R", "Fresh")
    rows = []
    for name, text, mode, bound, expect in SUITE_ROWS:
        target = sx.elaborate(sx.parse_formula(text, sig), sig)
        rows.append((name, solver.Query(target=target, mode=mode, bound=bound,
                                        engine="both"), expect))
    pierson = kbm.case_kb("pierson")
    steps = kbm.load_proof(kbm.case_proof_path("pierson"), pierson.sig)
    step_qs = dict(kbm.step_queries(steps, pierson, bound=STEP_BOUND, engine="both"))
    for name in STEP_ROWS:
        rows.append((f"pierson-step-{name}", step_qs[name], "bounded-valid"))
    for name, q, _ in rows:
        if not solver.oracle_in_domain(q):
            raise SetupError(f"crosscheck query {name} is outside the oracle's domain")
    ops = [_query_op(mods, name, q, expect) for name, q, expect in rows]
    for i, q in enumerate(random_queries(mods, seed, RANDOM_QUERIES)):
        if not solver.oracle_in_domain(q):
            raise SetupError(f"random query {i} is outside the oracle's domain")
        ops.append(Op(f"random-{i}", lambda q=q: solver.check(q),
                      lambda v, q=q: _agreed(v, q, model)))
    return ops


def _agreed(verdict, query, model) -> list[str]:
    """A random query has no known answer; `check` raised if the engines
    disagreed, so what is left is a decided verdict and a sound witness."""
    if verdict.kind == "unknown":
        return [f"undecided: {verdict.reason}"]
    return check.check_verdict(verdict, query, verdict.kind, model)


# ---------------------------------------------------------------------------
# cli


@dataclass(frozen=True)
class Expect:
    code: int
    exact: str | None = None
    prefix: str | None = None
    summary: bool = False


def cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    return env


class Spawner:
    """Runs cold `prefsat` commands through bench/spawner.py, one at a time,
    so that their peak RSS is their own (see spawner.py).  Started on first
    use; `close` ends it."""

    def __init__(self):
        self._proc = None

    def _ask(self, request):
        if self._proc is None:
            self._proc = subprocess.Popen(
                [sys.executable, str(Path(__file__).with_name("spawner.py"))],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                env=cli_env(), cwd=ROOT)
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the command spawner has exited")
        return json.loads(line)

    def run(self, argv: list[str], launcher: list[str] | None = None):
        """Run one command; returns (code, stdout, stderr)."""
        reply = self._ask((launcher or [sys.executable, "-m", "prefsat.cli"]) + argv)
        if "error" in reply:
            raise RuntimeError(reply["error"])
        return reply["code"], reply["stdout"], reply["stderr"]

    def peak_rss_kb(self) -> int:
        return self._ask(None)["maxrss_kb"]

    def close(self) -> None:
        if self._proc is not None:
            self._proc.stdin.close()
            self._proc.stdout.close()
            self._proc.wait(timeout=60)
            self._proc = None


def cli_commands(mods, seed: int) -> list[tuple[list[str], Expect]]:
    _case_kbs(mods)  # the goals the expectations below name
    commands = []
    for case, party in CASES.items():
        goal = f"goal ruling-for-{party}:"
        commands += [
            (["entail", case], Expect(0, exact=f"{goal} BoundedValid bound=4\n")),
            (["check", case], Expect(1, prefix=f"{goal} Countermodel worlds=")),
            (["model", case], Expect(0, prefix=f"{case}: Satisfiable worlds=")),
        ]
    commands.append((["replay", "pierson"], Expect(0, summary=True)))
    for suite in ("meta", "values", "cases"):
        commands.append((["suite", suite, "--seed", str(seed)], Expect(0, summary=True)))
    return commands


def cli_ops(mods, seed: int, spawner: Spawner) -> list[Op]:
    ops = []
    for argv, expect in cli_commands(mods, seed):
        first: list[str] = []  # stdout of the first round, for byte identity

        def verify(out, expect=expect, first=first):
            code, stdout, stderr = out
            problems = check.check_command(expect, code, stdout, stderr,
                                           first[0] if first else None)
            if not first:
                first.append(stdout)
            return problems

        ops.append(Op(" ".join(argv), lambda argv=argv: spawner.run(argv), verify, argv))
    return ops


WORKLOADS = {"rulings": rulings_ops, "crosscheck": crosscheck_ops, "cli": cli_ops}
