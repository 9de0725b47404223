"""Knowledge bases: named axioms, facts, goals, and proof scripts.

A KB document is a sequence of top-level forms: (import NAME), (sort NAME
CONST+), (atom NAME SORT*), (axiom NAME FORMULA), (fact NAME FORMULA),
(goal NAME FORMULA), (option KEY VALUE).  Imports are resolved relative to
the importing file; merged names must stay unique.  Axioms hold at every
world, facts and goals at the designated world 0.  The options are
(option bound N), the largest world count searched, and (option total
true|false), which restricts every query on the KB, proof steps included, to
total betterness relations.  A file gives each option at most once.

A proof script is a sequence of (step NAME FORMULA (uses NAME+) (bound N))
forms.  Replay checks each step as a bounded entailment from exactly the
entries its uses-list names: cited axioms hold globally, cited facts and
cited earlier steps hold at world 0.  A step fails if a countermodel refutes
it, and also when any of its citations is broken: a name that resolves to
nothing (missing) or an earlier step that itself failed (unavailable).  The
entailment search still runs on the surviving support so a failing step can
render a countermodel when one exists.  Failure propagates: a failed step is
never usable as support.
"""
from __future__ import annotations

import re
from pathlib import Path

from . import syntax as sx
from .model import MAX_WORLDS
from .ontology import CONTENDERS
from .solver import (
    DEFAULT_BOUND,
    BoundedValid,
    Query,
    Verdict,
    check,
)

_CASES_DIR = Path(__file__).resolve().parent / "cases"


class ConfigError(Exception):
    pass


class KnowledgeBase(sx.Node):
    """Named entries, each stored as the ground, core formula the parser
    returns, and options.  The entries of a loaded KB share equal
    subformulas: one node for each distinct subformula across its axioms,
    facts and goals."""

    name: str
    sig: sx.Signature
    axioms: dict[str, sx.Formula]
    facts: dict[str, sx.Formula]
    goals: dict[str, sx.Formula]
    options: dict[str, int | bool]  # typed at load

    def __init__(self, name, sig, axioms=None, facts=None, goals=None, options=None):
        dicts = ({} if d is None else d for d in (axioms, facts, goals, options))
        super().__init__(name, sig, *dicts)

    def entry_names(self) -> set[str]:
        return set(self.axioms) | set(self.facts) | set(self.goals)


def _sym_text(node, what: str) -> str:
    if not isinstance(node, sx.SSym):
        raise sx.ParseError(f"expected a {what} name", getattr(node, "line", None))
    return node.text


def load_kb(path: str | Path, _loading: frozenset | None = None) -> KnowledgeBase:
    path = Path(path).resolve()
    loading = _loading or frozenset()
    if path in loading:
        raise ConfigError(f"import cycle through {path.name}")
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read KB file {path}: {e}") from None

    kb = KnowledgeBase(name=path.stem, sig=sx.Signature())
    own_options: set[str] = set()  # set by this file, not by an import
    for form in sx.read_forms(text):
        if not isinstance(form, sx.SList) or not form.items:
            raise sx.ParseError("expected a (...) form at top level", getattr(form, "line", None))
        head = _sym_text(form.items[0], "form")
        items = form.items
        if head == "import":
            if len(items) != 2:
                raise sx.ParseError("import takes one name", form.line)
            dep_path = path.parent / f"{_sym_text(items[1], 'KB')}.kb"
            _merge_into(kb, load_kb(dep_path, loading | {path}), form.line)
        elif head == "sort":
            if len(items) < 3:
                raise sx.ParseError("sort takes a name and at least one constant", form.line)
            name = _sym_text(items[1], "sort")
            consts = tuple(_sym_text(x, "constant") for x in items[2:])
            kb.sig.add_sort(name, consts, form.line)
        elif head == "atom":
            if len(items) < 2:
                raise sx.ParseError("atom takes a name and argument sorts", form.line)
            name = _sym_text(items[1], "atom")
            arg_sorts = tuple(_sym_text(x, "sort") for x in items[2:])
            kb.sig.add_atom(name, arg_sorts, form.line)
        elif head in ("axiom", "fact", "goal"):
            if len(items) != 3:
                raise sx.ParseError(f"{head} takes a name and a formula", form.line)
            name = _sym_text(items[1], head)
            if name in kb.entry_names():
                raise sx.ParseError(f"duplicate entry name {name!r}", form.line)
            # parsed now: a quantifier expands over the constants declared
            # before it, and no sort is ever redeclared
            getattr(kb, head + "s")[name] = sx._parse_formula(items[2], kb.sig, {})
        elif head == "option":
            if len(items) != 3:
                raise sx.ParseError("option takes a key and a value", form.line)
            key, value = _sym_text(items[1], "option"), _sym_text(items[2], "value")
            if key in own_options:
                raise sx.ParseError(f"more than one (option {key} ...) form", form.line)
            own_options.add(key)
            kb.options[key] = _option_value(key, value, form.line)
        else:
            raise sx.ParseError(f"unknown top-level form {head!r}", form.line)
    if _loading is None:  # imports merged: share across the whole KB once
        groups = (kb.axioms, kb.facts, kb.goals)
        shared = iter(sx.share([f for entries in groups for f in entries.values()]))
        for entries in groups:
            entries.update(zip(list(entries), shared))
    return kb


_TRUTH = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _bound_value(text: str, what: str, line: int | None) -> int:
    """A world count as written in a KB or proof file, checked at its line.
    It is ASCII decimal digits after an optional `-`: int() alone would also
    take `1_0`, `+3` and other scripts' digits."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise sx.ParseError(f"{what} takes an integer", line)
    bound = int(text)
    if not 1 <= bound <= MAX_WORLDS:
        raise sx.ParseError(f"{what} must be in 1..{MAX_WORLDS}, not {bound}", line)
    return bound


def _option_value(key: str, value: str, line: int | None) -> int | bool:
    if key == "bound":
        return _bound_value(value, "option bound", line)
    if key == "total":
        if value not in _TRUTH:
            raise sx.ParseError("option total takes true|yes|1 or false|no|0", line)
        return _TRUTH[value]
    raise sx.ParseError(f"unknown option {key!r}; the options are bound and total", line)


def _merge_into(kb: KnowledgeBase, dep: KnowledgeBase, line: int | None):
    for sort, consts in dep.sig.sorts.items():
        if sort == "contender":
            continue
        kb.sig.add_sort(sort, consts, line)
    for atom, arg_sorts in dep.sig.atoms.items():
        kb.sig.add_atom(atom, arg_sorts, line)
    overlap = kb.entry_names() & dep.entry_names()
    if overlap:
        raise ConfigError(f"duplicate entry names after import: {sorted(overlap)}")
    kb.axioms.update(dep.axioms)
    kb.facts.update(dep.facts)
    kb.goals.update(dep.goals)
    for key, value in dep.options.items():
        kb.options.setdefault(key, value)


def case_kb(name: str) -> KnowledgeBase:
    """A shipped KB: the cases pierson, post and conti, or general."""
    path = _CASES_DIR / f"{name}.kb"
    if not path.exists():
        raise ConfigError(f"no shipped case named {name!r}")
    return load_kb(path)


def case_proof_path(name: str) -> Path:
    return _CASES_DIR / f"{name}.proof"


# ---------------------------------------------------------------------------
# queries from a KB


def _kb_query(kb: KnowledgeBase, target: sx.Formula | None, mode: str,
              facts: tuple[sx.Formula, ...], overrides: dict, *,
              axioms: tuple[sx.Formula, ...] | None = None, bound: int | None = None) -> Query:
    """Every query on a KB, from its axioms unless given others: the KB's
    options, then the query's own bound, then the caller's non-None overrides."""
    opts = dict(kb.options)
    if bound is not None:
        opts["bound"] = bound
    opts.update({k: v for k, v in overrides.items() if v is not None})
    if axioms is None:
        axioms = tuple(kb.axioms.values())
    return Query(axioms=axioms, facts=facts, target=target, mode=mode, **opts)


def goal_query(kb: KnowledgeBase, goal_name: str, with_facts: bool = True,
               **overrides) -> Query:
    """Refutation query for one named goal: axioms globally, optionally the
    facts at world 0, the goal's negation at world 0."""
    if goal_name not in kb.goals:
        raise ConfigError(f"no goal named {goal_name!r} in {kb.name}")
    facts = tuple(kb.facts.values()) if with_facts else ()
    return _kb_query(kb, kb.goals[goal_name], "refute", facts, overrides)


def sat_query(kb: KnowledgeBase, **overrides) -> Query:
    """Model-finding query: axioms globally, facts at world 0."""
    return _kb_query(kb, None, "find", tuple(kb.facts.values()), overrides)


def audit_queries(kb: KnowledgeBase, **overrides) -> dict[str, Query]:
    """Per-party refutation query: does the KB force a value conflict at the
    designated world?"""
    facts = tuple(kb.facts.values())
    return {party: _kb_query(kb, sx.conflict(party), "refute", facts, overrides)
            for party in CONTENDERS}


# ---------------------------------------------------------------------------
# proof scripts


class ProofStep(sx.Node):
    name: str
    formula: sx.Formula
    uses: tuple[str, ...]
    bound: int


class StepResult(sx.Node):
    name: str
    passed: bool
    verdict: Verdict
    missing: tuple[str, ...] = ()      # cited names that resolved to nothing
    unavailable: tuple[str, ...] = ()  # cited steps that had already failed


def load_proof(path: str | Path, sig: sx.Signature) -> list[ProofStep]:
    """The steps of a proof script, each formula parsed under sig into the
    ground, core formula a KB entry would be.  The steps' formulas share
    their equal subtrees, as a loaded KB's entries do."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read proof file {path}: {e}") from None
    steps: list[ProofStep] = []
    lines: list[int] = []
    index: dict[str, int] = {}  # each step's position, by name
    for form in sx.read_forms(text):
        if (not isinstance(form, sx.SList) or not form.items
                or _sym_text(form.items[0], "form") != "step"):
            raise sx.ParseError("proof files contain only (step ...) forms",
                                getattr(form, "line", None))
        if len(form.items) < 3:
            raise sx.ParseError("step takes a name and a formula", form.line)
        name = _sym_text(form.items[1], "step")
        if name in index:
            raise sx.ParseError(f"unresolved reference: duplicate step name {name!r}", form.line)
        formula = sx._parse_formula(form.items[2], sig, {})
        clauses: dict[str, object] = {}
        for extra in form.items[3:]:
            if not isinstance(extra, sx.SList) or not extra.items:
                raise sx.ParseError("expected (uses ...) or (bound N)", form.line)
            key = _sym_text(extra.items[0], "clause")
            if key in clauses:
                raise sx.ParseError(f"step {name!r} has more than one ({key} ...) clause",
                                    extra.line)
            if key == "uses":
                clauses[key] = tuple(_sym_text(x, "reference") for x in extra.items[1:])
            elif key == "bound":
                if len(extra.items) != 2 or not isinstance(extra.items[1], sx.SSym):
                    raise sx.ParseError("bound takes one integer", extra.line)
                clauses[key] = _bound_value(extra.items[1].text, "bound", extra.line)
            else:
                raise sx.ParseError(f"unknown step clause {key!r}", extra.line)
        index[name] = len(steps)
        steps.append(ProofStep(name, formula, clauses.get("uses", ()),
                               clauses.get("bound", DEFAULT_BOUND)))
        lines.append(form.line)
    # structural check: a step may cite only earlier steps, never itself or later ones
    for i, (step, line) in enumerate(zip(steps, lines)):
        for ref in step.uses:
            if index.get(ref, -1) >= i:
                raise sx.ParseError(
                    f"unresolved reference: step {step.name!r} cites {ref!r} "
                    "which is not an earlier step", line
                )
    shared = sx.share([step.formula for step in steps])
    return [ProofStep(step.name, f, step.uses, step.bound) for step, f in zip(steps, shared)]


def _step_query(step: ProofStep, kb: KnowledgeBase, established: dict[str, sx.Formula],
                failed: set[str], overrides: dict):
    """The entailment query of one step from its cited support: cited axioms
    globally, cited facts and established steps at world 0.  Also returns
    the citations that resolve to nothing and those naming failed steps."""
    axioms: list[sx.Formula] = []
    at_w0: list[sx.Formula] = []
    missing: list[str] = []
    unavailable: list[str] = []
    for ref in step.uses:
        if ref in kb.axioms:
            axioms.append(kb.axioms[ref])
        elif ref in kb.facts:
            at_w0.append(kb.facts[ref])
        elif ref in established:
            at_w0.append(established[ref])
        elif ref in failed:
            unavailable.append(ref)
        else:
            missing.append(ref)
    q = _kb_query(kb, step.formula, "refute", tuple(at_w0), overrides,
                  axioms=tuple(axioms), bound=step.bound)
    return q, tuple(missing), tuple(unavailable)


def step_queries(steps: list[ProofStep], kb: KnowledgeBase,
                 **overrides) -> list[tuple[str, Query]]:
    """The entailment query each step would run when all its cited steps are
    established; used for cross-checking engines on the replay workload."""
    out: list[tuple[str, Query]] = []
    established: dict[str, sx.Formula] = {}
    for step in steps:
        q, _, _ = _step_query(step, kb, established, set(), overrides)
        established[step.name] = q.target
        out.append((step.name, q))
    return out


def replay(steps: list[ProofStep], kb: KnowledgeBase, *, engine: str | None = None,
           total: bool | None = None, budget: float | None = None) -> list[StepResult]:
    """Check every step against exactly its cited support."""
    results: list[StepResult] = []
    established: dict[str, sx.Formula] = {}  # passed steps' formulas
    failed: set[str] = set()
    overrides = {"engine": engine, "total": total, "budget": budget}
    for step in steps:
        q, missing, unavailable = _step_query(step, kb, established, failed, overrides)
        verdict = check(q)
        # broken support fails the step even when the shrunken check passes;
        # the verdict is kept so a genuine countermodel can still be rendered
        passed = isinstance(verdict, BoundedValid) and not missing and not unavailable
        if passed:
            established[step.name] = q.target
        else:
            failed.add(step.name)
        results.append(StepResult(step.name, passed, verdict, missing, unavailable))
    return results
