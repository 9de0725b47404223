"""Command-line front end.

Commands:
  check KB      bounded validity of each goal from the axioms alone
  entail KB     bounded entailment of each goal from axioms plus facts
  model KB      find a model of the axioms and facts
  replay PROOF  re-check a proof script step by step against a KB
  suite NAME    run a built-in verification suite (meta, values, cases)

KB arguments accept a file path or the name of a shipped case (pierson,
post, conti).  Exit codes, by solver.exit_code over a command's results: 2
when a budget ran out, else 0 when every result passed, else 1.  A usage,
parse or file error, or a query outside the enumeration oracle's domain
under --engine enum, exits 2; an engine disagreement exits 3 (a bug report
is printed).  A stdout closed by its reader exits 1, with nothing on
stderr.  --dot writes the first model among the verdicts printed.

Output is deterministic: the same command line always produces the same
bytes.
"""
from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from . import kb as kbmod
from . import syntax as sx
from .model import ModelError, render_dot
from .solver import (
    DEFAULT_BOUND,
    BoundedValid,
    EngineDisagreement,
    OracleDomainError,
    Satisfiable,
    check,
    exit_code,
    render_verdict,
)
from .suites import SUITE_NAMES, run_suite


def _kb_arg(read, what: str):
    """An option's type that reads its text as the KB reader `read` does."""
    def convert(text: str) -> int:
        try:
            return read(text, what, None)
        except sx.ParseError as e:
            raise argparse.ArgumentTypeError(str(e)) from None
    return convert


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="prefsat",
        description="bounded reasoning over preference models and value-based case law",
    )
    sub = ap.add_subparsers(dest="command", required=True, metavar="COMMAND")

    # replay takes no --bound: every step runs at its own (bound N), 4 without one
    bounded = argparse.ArgumentParser(add_help=False)
    bounded.add_argument("--bound", type=_kb_arg(kbmod._bound_value, "bound"), default=None,
                         metavar="N", help="largest world count to search (default 4)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--engine", choices=("sat", "enum", "both"), default=None,
                        help="decision engine; 'both' cross-checks them")
    common.add_argument("--budget", default=None, metavar="SECONDS",
                        help="time budget per query")

    frame = argparse.ArgumentParser(add_help=False)
    frame.add_argument("--total", action="store_const", const=True, default=None,
                       help="restrict the search to total betterness relations")
    frame.add_argument("--dot", metavar="PATH", default=None,
                       help="write the first rendered model as graphviz dot")

    p = sub.add_parser("check", parents=[bounded, common, frame],
                       help="bounded validity of each goal from the axioms alone")
    p.add_argument("kb_file", metavar="KB")

    p = sub.add_parser("entail", parents=[bounded, common, frame],
                       help="bounded entailment of each goal from axioms plus facts")
    p.add_argument("kb_file", metavar="KB")

    p = sub.add_parser("model", parents=[bounded, common, frame],
                       help="find a model of the axioms and facts")
    p.add_argument("kb_file", metavar="KB")

    p = sub.add_parser("replay", parents=[common, frame],
                       help="re-check a proof script step by step")
    p.add_argument("proof", metavar="PROOF",
                   help="proof file path or shipped case name")
    p.add_argument("--kb", default=None, metavar="KB",
                   help="knowledge base to replay against (defaults to the case)")

    p = sub.add_parser("suite", parents=[bounded, common],
                       help="run a built-in verification suite")
    p.add_argument("name", choices=SUITE_NAMES)
    p.add_argument("--seed", type=_kb_arg(kbmod._int_value, "seed"), default=0,
                   help="seed for randomized suite rows")

    return ap


def _budget_value(text: str | None) -> float | None:
    """--budget, read inside main so that a bad one is reported there, as
    Query reports a NaN budget: ASCII decimal digits after an optional `-`,
    with an optional fraction.  float() alone would also take `inf`, `1e400`
    (no budget at all), `1_0`, ` 3` and other scripts' digits."""
    if text is not None and not re.fullmatch(r"-?[0-9]+(\.[0-9]+)?", text):
        raise ValueError(f"budget must be a number of seconds, not {text}")
    return None if text is None else float(text)


def _load_kb_arg(arg: str) -> kbmod.KnowledgeBase:
    path = Path(arg)
    if path.exists():
        return kbmod.load_kb(path)
    if path.suffix or len(path.parts) > 1:
        raise kbmod.ConfigError(f"KB file not found: {arg}")
    return kbmod.case_kb(arg)


def _overrides(args) -> dict:
    return {
        "bound": args.bound,
        "engine": args.engine,
        "budget": args.budget,
        "total": args.total,
    }


def _finish(args, outcomes: list) -> int:
    """Write --dot from the first verdict with a model, of the command's
    (passed, verdict) pairs in printed order; return the exit code."""
    model = next((v.model for _, v in outcomes if hasattr(v, "model")), None)
    if args.dot and model is not None:
        Path(args.dot).write_text(render_dot(model))
        print(f"dot written to {args.dot}")
    return exit_code([(passed, v.kind) for passed, v in outcomes])


def _cmd_goals(args, with_facts: bool) -> int:
    kb = _load_kb_arg(args.kb_file)
    if not kb.goals:
        print(f"error: {kb.name} declares no goals", file=sys.stderr)
        return 2
    outcomes = []
    for name in kb.goals:
        v = check(kbmod.goal_query(kb, name, with_facts=with_facts, **_overrides(args)))
        print(f"goal {name}: {render_verdict(v)}")
        outcomes.append((isinstance(v, BoundedValid), v))
    return _finish(args, outcomes)


def _cmd_model(args) -> int:
    kb = _load_kb_arg(args.kb_file)
    v = check(kbmod.sat_query(kb, **_overrides(args)))
    print(f"{kb.name}: {render_verdict(v)}")
    return _finish(args, [(isinstance(v, Satisfiable), v)])


def _cmd_replay(args) -> int:
    proof_path = Path(args.proof)
    if proof_path.exists():
        if args.kb is None:
            print("error: replay from a proof file needs --kb", file=sys.stderr)
            return 2
        kb = _load_kb_arg(args.kb)
    else:
        kb = _load_kb_arg(args.kb if args.kb is not None else args.proof)
        proof_path = kbmod.case_proof_path(args.proof)
        if not proof_path.exists():
            raise kbmod.ConfigError(f"no shipped proof named {args.proof!r}")
    steps = kbmod.load_proof(proof_path, kb.sig)
    results = kbmod.replay(steps, kb, engine=args.engine, total=args.total,
                           budget=args.budget)
    for r in results:
        notes = []
        if r.missing:
            notes.append("missing=" + ",".join(r.missing))
        if r.unavailable:
            notes.append("unavailable=" + ",".join(r.unavailable))
        suffix = f" [{'; '.join(notes)}]" if notes else ""
        if r.passed:
            print(f"step {r.name}: pass{suffix}")
        else:
            print(f"step {r.name}: FAIL{suffix}")
            print(render_verdict(r.verdict))
    code = _finish(args, [(r.passed, r.verdict) for r in results])
    print(f"replay: {sum(r.passed for r in results)}/{len(results)} steps passed")
    return code


def _cmd_suite(args) -> int:
    text, code = run_suite(
        args.name,
        engine=args.engine or "sat",
        bound=args.bound if args.bound is not None else DEFAULT_BOUND,
        seed=args.seed,
        budget=args.budget,
    )
    print(text)
    return code


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.budget = _budget_value(args.budget)
        if args.command in ("check", "entail"):
            code = _cmd_goals(args, with_facts=args.command == "entail")
        elif args.command == "model":
            code = _cmd_model(args)
        elif args.command == "replay":
            code = _cmd_replay(args)
        else:
            code = _cmd_suite(args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes to devnull, so the
        # flush at exit cannot fail again (Python's signal docs, on SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except EngineDisagreement as e:
        print("engine disagreement (this is a bug; file the output below)")
        print(str(e))
        return 3
    except (sx.ParseError, kbmod.ConfigError, ModelError, OracleDomainError, ValueError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
