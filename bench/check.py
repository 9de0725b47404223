"""Output checks for the benchmark's operations.

Every check returns a list of problems (empty when the output is right).  The
facts checked come from outside the solver: the verdict kind the case law or
the suite row states, and re-evaluation of every witness by direct model
evaluation (`model.validate_model`, `truth_at`, `globally_true`), which
shares no code with the encoder or the CDCL search.
"""
from __future__ import annotations

import re

WITNESS_KINDS = ("countermodel", "satisfiable")


def check_verdict(verdict, query, expect: str, model) -> list[str]:
    """`verdict` answers `query`; `expect` is the verdict kind known to be
    right; `model` is the `prefsat.model` module used for re-evaluation."""
    kind = getattr(verdict, "kind", None)
    if kind != expect:
        return [f"expected {expect}, got {kind}"]
    if kind not in WITNESS_KINDS:
        if verdict.bound != query.bound:
            return [f"{kind} at bound {verdict.bound}, query bound {query.bound}"]
        return []
    return check_witness(verdict.model, query, model)


def check_witness(m, query, model) -> list[str]:
    """A countermodel must falsify the target, a satisfying model make it
    true; both must be well-formed and satisfy every axiom and fact."""
    try:
        model.validate_model(m, total=query.total)
    except model.ModelError as e:
        return [f"witness is not a valid model: {e}"]
    if m.n > query.bound:
        return [f"witness has {m.n} worlds, bound is {query.bound}"]
    problems = []
    if not all(model.globally_true(m, ax) for ax in query.axioms):
        problems.append("witness violates an axiom")
    if not all(model.truth_at(m, fact, 0) for fact in query.facts):
        problems.append("witness violates a fact")
    if query.target is not None:
        holds = model.truth_at(m, query.target, 0)
        if query.mode == "refute" and holds:
            problems.append("witness satisfies the refuted target")
        if query.mode == "find" and not holds:
            problems.append("witness falsifies the target it should satisfy")
    return problems


def check_replay(results, steps: int) -> list[str]:
    """A replay of the shipped proof passes every one of its steps."""
    problems = []
    if len(results) != steps:
        problems.append(f"replay checked {len(results)} steps, the proof has {steps}")
    for r in results:
        if not r.passed or getattr(r.verdict, "kind", None) != "bounded-valid":
            problems.append(f"step {r.name} did not pass")
    return problems


_ALL_PASSED = re.compile(r"^(?:replay|meta|values|cases): (\d+)/(\d+) (?:steps|rows) passed$")


def check_command(expect, code: int, stdout: str, stderr: str,
                  first_stdout: str | None) -> list[str]:
    """One cold CLI command.  `expect` has the expected exit `code`, the
    `first` line stdout must equal or start with (`exact`/`prefix`), and
    whether the last line is an all-passed summary.  `first_stdout` is the
    same command's stdout in an earlier round of the run."""
    problems = []
    if code != expect.code:
        problems.append(f"exit code {code}, expected {expect.code}")
    if stderr:
        problems.append(f"unexpected stderr: {stderr.strip()[:200]}")
    lines = stdout.splitlines()
    first = lines[0] if lines else ""
    if expect.exact is not None and stdout != expect.exact:
        problems.append(f"stdout {stdout[:200]!r}, expected {expect.exact!r}")
    if expect.prefix is not None and not first.startswith(expect.prefix):
        problems.append(f"first line {first[:200]!r}, expected {expect.prefix!r}...")
    if expect.summary:
        match = _ALL_PASSED.match(lines[-1] if lines else "")
        if not match or match.group(1) != match.group(2) or match.group(2) == "0":
            problems.append(f"summary line {lines[-1] if lines else ''!r} does not "
                            "report every row or step passed")
    if first_stdout is not None and stdout != first_stdout:
        problems.append("stdout differs from an earlier round")
    return problems
