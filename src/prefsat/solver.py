"""Bounded decision procedures for preference-logic queries.

A query asserts a set of axioms at every world, a set of facts at the
designated world 0, and asks either to refute a target there (bounded
validity / entailment) or to find a model of everything (satisfiability).
The search iterates over exact world counts 1..bound; each count becomes one
propositional instance: relation variables for every ordered world pair,
variables for each ground atom and value symbol per world, and definition
gates for each subformula per world.  Reflexivity is compiled away, the
strict relation is defined from the weak one, and transitivity (plus
optionally totality) is asserted as clauses.

Two independent engines answer the same queries: the CDCL SAT core below and
an enumeration oracle for very small instances.  The oracle shares no code
with the encoder: it walks every preorder and, per preorder, evaluates each
subformula once for all assignments of world sets to the query's symbols
together (model.eval_sliced, one bit per assignment), taking the first
admitted assignment in enumeration order as its witness.  Witnesses from
either engine are re-checked by direct evaluation before being reported.

Everything is deterministic: variables are allocated in a documented order
(relation variables, then atoms by name and world, then value symbols, then
gates) and the solver branches on the lowest-numbered unassigned variable,
trying False first.
"""
from __future__ import annotations

import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property

from . import syntax as sx
from .model import (
    MAX_WORLDS,
    PreferenceModel,
    SlicedModel,
    all_preorders,
    eval_formula,
    eval_sliced,
    globally_true,
    is_total_relation,
    render_text,
    truth_at,
    validate_model,
    valuation_at,
    valuation_slices,
)

DEFAULT_BOUND = 4

# The oracle decides every preorder times 2^(n * symbols) valuations;
# its domain is capped by that product so every accepted query stays cheap.
# Memory, not time, sets the cap: a subformula's sliced extension takes
# 2^(n * symbols) bits per world, so peak memory doubles with every doubling.
ORACLE_MAX_WORLDS = 3
ORACLE_MAX_WORK = 1 << 23


class EngineError(Exception):
    """Internal invariant broken (e.g. a witness failed re-validation)."""


class EngineDisagreement(Exception):
    """The two engines returned different verdict kinds for one query."""


class OracleDomainError(Exception):
    """Query outside the enumeration oracle's contract."""


class BudgetExceeded(Exception):
    pass


class _Budget:
    __slots__ = ("deadline",)

    def __init__(self, seconds: float | None):
        self.deadline = None if seconds is None else time.monotonic() + seconds

    def check(self):
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise BudgetExceeded()


# The budget of the solve_at call in progress.  encode keeps its (q, n) form,
# the one bench/tracing.py wraps, so the budget reaches it this way.
_ENCODE_BUDGET: ContextVar[_Budget] = ContextVar("encode_budget", default=_Budget(None))


@dataclass(frozen=True)
class Query:
    """One decision problem.  Formulas must be grounded and desugared."""

    axioms: tuple[sx.Formula, ...] = ()
    facts: tuple[sx.Formula, ...] = ()
    target: sx.Formula | None = None
    mode: str = "refute"  # refute | find
    bound: int = DEFAULT_BOUND
    total: bool = False
    budget: float | None = None
    engine: str = "sat"  # sat | enum | both

    def __post_init__(self):
        if self.mode not in ("refute", "find"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "refute" and self.target is None:
            raise ValueError("refute mode needs a target formula")
        if not (1 <= self.bound <= MAX_WORLDS):
            raise ValueError(f"bound must be in 1..{MAX_WORLDS}")
        if self.engine not in ("sat", "enum", "both"):
            raise ValueError(f"unknown engine {self.engine!r}")

    @cached_property
    def symbols(self) -> tuple[tuple, tuple]:
        """Ground atom keys and value symbols of every formula, each sorted in
        variable order; collected once per query."""
        atoms: set = set()
        incidence: set = set()
        formulas = [*self.axioms, *self.facts]
        if self.target is not None:
            formulas.append(self.target)
        for f in formulas:
            a, i = sx.collect_symbols(f)
            atoms |= a
            incidence |= i
        return tuple(sorted(atoms)), tuple(sorted(incidence, key=lambda k: (k[0].value, k[1])))


@dataclass(frozen=True)
class BoundedValid:
    bound: int
    kind: str = field(default="bounded-valid", init=False)


@dataclass(frozen=True)
class Countermodel:
    model: PreferenceModel
    bound: int
    kind: str = field(default="countermodel", init=False)


@dataclass(frozen=True)
class Satisfiable:
    model: PreferenceModel
    kind: str = field(default="satisfiable", init=False)


@dataclass(frozen=True)
class NoModel:
    bound: int
    kind: str = field(default="no-model", init=False)


@dataclass(frozen=True)
class Unknown:
    reason: str
    kind: str = field(default="unknown", init=False)


Verdict = BoundedValid | Countermodel | Satisfiable | NoModel | Unknown


def render_verdict(v: Verdict) -> str:
    if isinstance(v, BoundedValid):
        return f"BoundedValid bound={v.bound}"
    if isinstance(v, Countermodel):
        return f"Countermodel worlds={v.model.n}\n{render_text(v.model)}"
    if isinstance(v, Satisfiable):
        return f"Satisfiable worlds={v.model.n}\n{render_text(v.model)}"
    if isinstance(v, NoModel):
        return f"NoModel bound={v.bound}"
    return f"Unknown reason={v.reason}"


# ---------------------------------------------------------------------------
# CDCL SAT core


class CDCL:
    """Clause-learning SAT solver with two watched literals.

    Branching is the lowest-numbered unassigned variable, False first; no
    randomization, no restarts.  Identical clause sets therefore always
    produce identical models.
    """

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.clauses: list[list[int]] = []
        self.watch: dict[int, list[int]] = {}
        self.value = [2] * (nvars + 1)  # 0 false, 1 true, 2 unassigned
        self.reason = [-1] * (nvars + 1)
        self.level = [0] * (nvars + 1)
        self.trail: list[int] = []
        self.lim: list[int] = []
        self.qhead = 0
        self.ok = True
        self.units: list[int] = []

    def _lit_true(self, lit: int) -> bool:
        v = self.value[lit if lit > 0 else -lit]
        return v == (1 if lit > 0 else 0)

    def _lit_false(self, lit: int) -> bool:
        v = self.value[lit if lit > 0 else -lit]
        return v == (0 if lit > 0 else 1)

    def add_clause(self, lits):
        seen = set()
        out = []
        for l in lits:
            if -l in seen:
                return  # tautology
            if l not in seen:
                seen.add(l)
                out.append(l)
        if not out:
            self.ok = False
            return
        if len(out) == 1:
            self.units.append(out[0])
            return
        ci = len(self.clauses)
        self.clauses.append(out)
        self.watch.setdefault(out[0], []).append(ci)
        self.watch.setdefault(out[1], []).append(ci)

    def _assign(self, lit: int, reason: int):
        var = lit if lit > 0 else -lit
        self.value[var] = 1 if lit > 0 else 0
        self.level[var] = len(self.lim)
        self.reason[var] = reason
        self.trail.append(lit)

    def _propagate(self) -> int:
        """Unit propagation; returns a conflicting clause index or -1."""
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            neg = -lit
            ws = self.watch.get(neg)
            if not ws:
                continue
            kept = []
            i = 0
            n_ws = len(ws)
            while i < n_ws:
                ci = ws[i]
                i += 1
                clause = self.clauses[ci]
                if clause[0] == neg:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._lit_true(first):
                    kept.append(ci)
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if not self._lit_false(clause[k]):
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watch.setdefault(clause[1], []).append(ci)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ci)
                if self._lit_false(first):
                    kept.extend(ws[i:])
                    self.watch[neg] = kept
                    return ci
                self._assign(first, ci)
            self.watch[neg] = kept
        return -1

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        """First-UIP conflict analysis; returns (learnt clause, backjump level).
        learnt[0] is the asserting literal."""
        cur_level = len(self.lim)
        seen = [False] * (self.nvars + 1)
        counter = 0
        others: list[int] = []
        idx = len(self.trail) - 1
        clause = self.clauses[confl]
        p_var = 0
        while True:
            for q in clause:
                var = q if q > 0 else -q
                if var == p_var or seen[var]:
                    continue
                lv = self.level[var]
                if lv == 0:
                    continue
                seen[var] = True
                if lv == cur_level:
                    counter += 1
                else:
                    others.append(q)
            while not seen[self.trail[idx] if self.trail[idx] > 0 else -self.trail[idx]]:
                idx -= 1
            p_lit = self.trail[idx]
            p_var = p_lit if p_lit > 0 else -p_lit
            seen[p_var] = False
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            clause = self.clauses[self.reason[p_var]]
        learnt = [-p_lit] + others
        bt = 0
        if others:
            bt = max(self.level[q if q > 0 else -q] for q in others)
            # move one max-level literal to the second watch position
            for k in range(1, len(learnt)):
                var = learnt[k] if learnt[k] > 0 else -learnt[k]
                if self.level[var] == bt:
                    learnt[1], learnt[k] = learnt[k], learnt[1]
                    break
        return learnt, bt

    def _backjump(self, target_level: int):
        cut = self.lim[target_level]
        for lit in reversed(self.trail[cut:]):
            var = lit if lit > 0 else -lit
            self.value[var] = 2
            self.reason[var] = -1
        del self.trail[cut:]
        del self.lim[target_level:]
        self.qhead = len(self.trail)

    def solve(self, budget: _Budget) -> bool:
        if not self.ok:
            return False
        for lit in self.units:
            if self._lit_false(lit):
                return False
            if not self._lit_true(lit):
                self._assign(lit, -1)
        if self._propagate() != -1:
            return False
        head = 1
        steps = 0
        while True:
            # decide: lowest unassigned variable, False first
            while head <= self.nvars and self.value[head] != 2:
                head += 1
            if head > self.nvars:
                return True
            self.lim.append(len(self.trail))
            self._assign(-head, -1)
            while True:
                steps += 1
                if steps & 255 == 0:
                    budget.check()
                confl = self._propagate()
                if confl == -1:
                    break
                if not self.lim:
                    return False
                learnt, bt = self._analyze(confl)
                self._backjump(bt)
                head = 1
                if len(learnt) == 1:
                    self._assign(learnt[0], -1)
                else:
                    ci = len(self.clauses)
                    self.clauses.append(learnt)
                    self.watch.setdefault(learnt[0], []).append(ci)
                    self.watch.setdefault(learnt[1], []).append(ci)
                    self._assign(learnt[0], ci)


# ---------------------------------------------------------------------------
# encoding


class _Encoder:
    """Compile a query at an exact world count into clauses.

    Variable layout: relation variables for ordered pairs (i,j), i != j, in
    lexicographic order; then one variable per ground atom (sorted by name
    and argument tuple) per world; then one per value symbol (sorted) per
    world; then definition gates in creation order.
    """

    def __init__(self, n: int, atom_keys, inc_keys, total: bool):
        self.n = n
        self.clauses: list[list[int]] = []
        self.nvars = 0
        self.rel: dict[tuple[int, int], int] = {}
        for i in range(n):
            for j in range(n):
                if i != j:
                    self.rel[(i, j)] = self._new()
        self.atom_vars: dict = {}
        for key in atom_keys:
            self.atom_vars[key] = [self._new() for _ in range(n)]
        self.inc_vars: dict = {}
        for key in inc_keys:
            self.inc_vars[key] = [self._new() for _ in range(n)]
        self.vtrue = self._new()
        self.clauses.append([self.vtrue])
        self._conj_memo: dict[tuple[int, ...], int] = {}
        self._iff_memo: dict[tuple[int, int], int] = {}
        self._t_memo: dict[tuple[int, int], int] = {}
        self._keep: list = []  # formula refs pinned while ids are cache keys

        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if i != j and j != k and i != k:
                        self.clauses.append(
                            [-self.rel[(i, j)], -self.rel[(j, k)], self.rel[(i, k)]]
                        )
        if total:
            for i in range(n):
                for j in range(i + 1, n):
                    self.clauses.append([self.rel[(i, j)], self.rel[(j, i)]])

    def _new(self) -> int:
        self.nvars += 1
        return self.nvars

    def rlit(self, i: int, j: int) -> int:
        return self.vtrue if i == j else self.rel[(i, j)]

    def stlit(self, i: int, j: int) -> int:
        # strict betterness: weakly better and not weakly worse
        return self.conj((self.rlit(i, j), -self.rlit(j, i)))

    def conj(self, lits) -> int:
        out = []
        for l in lits:
            if l == self.vtrue:
                continue
            if l == -self.vtrue:
                return -self.vtrue
            out.append(l)
        if not out:
            return self.vtrue
        if len(out) == 1:
            return out[0]
        key = tuple(sorted(out))
        hit = self._conj_memo.get(key)
        if hit is not None:
            return hit
        g = self._new()
        for l in out:
            self.clauses.append([-g, l])
        self.clauses.append([g] + [-l for l in out])
        self._conj_memo[key] = g
        return g

    def disj(self, lits) -> int:
        return -self.conj([-l for l in lits])

    def iff(self, a: int, b: int) -> int:
        if a == b:
            return self.vtrue
        if a == -b:
            return -self.vtrue
        if a == self.vtrue:
            return b
        if b == self.vtrue:
            return a
        if a == -self.vtrue:
            return -b
        if b == -self.vtrue:
            return -a
        key = (a, b) if a < b else (b, a)
        hit = self._iff_memo.get(key)
        if hit is not None:
            return hit
        g = self._new()
        self.clauses.append([-g, -a, b])
        self.clauses.append([-g, a, -b])
        self.clauses.append([g, a, b])
        self.clauses.append([g, -a, -b])
        self._iff_memo[key] = g
        return g

    def t(self, f: sx.Formula, w: int) -> int:
        """Literal equivalent to "f holds at world w"."""
        if isinstance(f, (sx.Somewhere, sx.Everywhere, sx.CpPrefAA)):
            w = -1  # world-independent
        key = (id(f), w)
        hit = self._t_memo.get(key)
        if hit is not None:
            return hit
        self._keep.append(f)
        lit = self._t_build(f, w)
        self._t_memo[key] = lit
        return lit

    def _t_build(self, f: sx.Formula, w: int) -> int:
        n = self.n
        if isinstance(f, sx.Atom):
            args = tuple(a.name for a in f.args)  # grounded: Const only
            return self.atom_vars[(f.pred, args)][w]
        if isinstance(f, sx.ValAtom):
            return self.inc_vars[(f.value, f.party.name)][w]
        if isinstance(f, sx.Not):
            return -self.t(f.sub, w)
        if isinstance(f, sx.And):
            return self.conj([self.t(a, w) for a in f.args])
        if isinstance(f, sx.Or):
            return self.disj([self.t(a, w) for a in f.args])
        if isinstance(f, sx.Implies):
            return self.disj([-self.t(f.lhs, w), self.t(f.rhs, w)])
        if isinstance(f, sx.Iff):
            return self.iff(self.t(f.lhs, w), self.t(f.rhs, w))
        if isinstance(f, sx.DiaWeak):
            return self.disj([self.conj((self.rlit(w, v), self.t(f.sub, v))) for v in range(n)])
        if isinstance(f, sx.BoxWeak):
            return self.conj([self.disj((-self.rlit(w, v), self.t(f.sub, v))) for v in range(n)])
        if isinstance(f, sx.DiaStrict):
            return self.disj([self.conj((self.stlit(w, v), self.t(f.sub, v))) for v in range(n)])
        if isinstance(f, sx.BoxStrict):
            return self.conj([self.disj((-self.stlit(w, v), self.t(f.sub, v))) for v in range(n)])
        if isinstance(f, sx.Somewhere):
            return self.disj([self.t(f.sub, v) for v in range(n)])
        if isinstance(f, sx.Everywhere):
            return self.conj([self.t(f.sub, v) for v in range(n)])
        if isinstance(f, (sx.CpDiaWeak, sx.CpDiaStrict)):
            strict = isinstance(f, sx.CpDiaStrict)
            opts = []
            for v in range(n):
                base = self.stlit(w, v) if strict else self.rlit(w, v)
                eqs = [self.iff(self.t(g, w), self.t(g, v)) for g in f.guards]
                opts.append(self.conj([base] + eqs + [self.t(f.sub, v)]))
            return self.disj(opts)
        if isinstance(f, sx.CpPrefAA):
            parts = []
            for s in range(n):
                for u in range(n):
                    base = self.stlit(s, u) if f.strict else self.rlit(s, u)
                    eqs = [self.iff(self.t(g, s), self.t(g, u)) for g in f.guards]
                    guard = self.conj([base] + eqs)
                    parts.append(self.disj((-self.t(f.lhs, s), -self.t(f.rhs, u), guard)))
            return self.conj(parts)
        raise EngineError(f"encoder expects desugared formulas, found {type(f).__name__}")

    def decode(self, solver: CDCL) -> PreferenceModel:
        rows = []
        for i in range(self.n):
            row = 1 << i
            for j in range(self.n):
                if i != j and solver.value[self.rel[(i, j)]] == 1:
                    row |= 1 << j
            rows.append(row)
        def world_sets(vars_by_key: dict) -> dict:
            return {key: sum(1 << w for w, var in enumerate(vars_) if solver.value[var] == 1)
                    for key, vars_ in vars_by_key.items()}

        return PreferenceModel(self.n, tuple(rows), world_sets(self.atom_vars),
                               world_sets(self.inc_vars))


def encode(q: Query, n: int) -> _Encoder:
    """Clauses of the query at exactly n worlds.  Inside solve_at, its budget
    is checked before each top-level formula."""
    budget = _ENCODE_BUDGET.get()
    enc = _Encoder(n, *q.symbols, q.total)
    for ax in q.axioms:
        budget.check()
        for w in range(n):
            enc.clauses.append([enc.t(ax, w)])
    for fact in q.facts:
        budget.check()
        enc.clauses.append([enc.t(fact, 0)])
    if q.target is not None:
        budget.check()
        lit = enc.t(q.target, 0)
        enc.clauses.append([-lit] if q.mode == "refute" else [lit])
    return enc


# ---------------------------------------------------------------------------
# engines


def _model_admits(q: Query, m: PreferenceModel) -> bool:
    """Axioms true at every world and facts true at world 0."""
    for ax in q.axioms:
        if not globally_true(m, ax):
            return False
    for fact in q.facts:
        if not truth_at(m, fact, 0):
            return False
    return True


def _validate_witness(q: Query, m: PreferenceModel):
    validate_model(m, total=q.total)
    if not _model_admits(q, m):
        raise EngineError("witness fails axioms or facts on re-evaluation")
    if q.target is not None:
        holds = truth_at(m, q.target, 0)
        if q.mode == "refute" and holds:
            raise EngineError("claimed countermodel satisfies the target")
        if q.mode == "find" and not holds:
            raise EngineError("claimed model falsifies the target")


def solve_at(q: Query, n: int, budget: _Budget | None = None) -> PreferenceModel | None:
    """Solve the query's constraints at an exact world count; model or None."""
    budget = budget or _Budget(q.budget)
    token = _ENCODE_BUDGET.set(budget)
    try:
        enc = encode(q, n)
    finally:
        _ENCODE_BUDGET.reset(token)
    solver = CDCL(enc.nvars)
    for clause in enc.clauses:
        solver.add_clause(clause)
    budget.check()
    if not solver.solve(budget):
        return None
    m = enc.decode(solver)
    _validate_witness(q, m)
    return m


def check_sat_engine(q: Query) -> Verdict:
    budget = _Budget(q.budget)
    try:
        for n in range(1, q.bound + 1):
            budget.check()
            m = solve_at(q, n, budget)
            if m is not None:
                if q.mode == "refute":
                    return Countermodel(m, q.bound)
                return Satisfiable(m)
        return BoundedValid(q.bound) if q.mode == "refute" else NoModel(q.bound)
    except BudgetExceeded:
        return Unknown("budget-exhausted")


def _oracle_work(q: Query) -> int:
    atoms, incidence = q.symbols
    syms = len(atoms) + len(incidence)
    return sum(len(all_preorders(n)) << (n * syms) for n in range(1, q.bound + 1))


def oracle_in_domain(q: Query) -> bool:
    """True when the enumeration oracle can decide the query exhaustively."""
    return q.bound <= ORACLE_MAX_WORLDS and _oracle_work(q) <= ORACLE_MAX_WORK


def _sliced_admitted(q: Query, s: SlicedModel) -> int:
    """Assignments (as bits) whose model admits the query's axioms and facts
    and refutes (refute mode) or satisfies (find mode) its target."""
    bits = s.full
    for ax in q.axioms:
        for ext in eval_sliced(s, ax):
            bits &= ext
    for fact in q.facts:
        bits &= eval_sliced(s, fact)[0]
    if q.target is not None:
        ext = eval_sliced(s, q.target)[0]
        bits &= ~ext if q.mode == "refute" else ext
    return bits


def enum_oracle(q: Query) -> Verdict:
    """Exhaustive reference engine for tiny queries.

    Decides every preorder on up to bound (<= 3) worlds under every
    assignment of world sets to the query's symbols, by direct evaluation
    sliced over the assignments.  The witness is the first admitted model in
    (world count, preorder, assignment) order.
    """
    if q.bound > ORACLE_MAX_WORLDS:
        raise OracleDomainError(f"oracle handles bound <= {ORACLE_MAX_WORLDS}")
    if _oracle_work(q) > ORACLE_MAX_WORK:
        raise OracleDomainError("query enumerates too many models for the oracle")
    atom_keys, inc_keys = q.symbols
    keys = (*atom_keys, *inc_keys)
    budget = _Budget(q.budget)
    try:
        for n in range(1, q.bound + 1):
            budget.check()
            slices = valuation_slices(n, keys)
            for rows in all_preorders(n):
                if q.total and not is_total_relation(rows):
                    continue
                budget.check()
                admitted = _sliced_admitted(q, SlicedModel(rows, slices))
                if not admitted:
                    continue
                sets = valuation_at(n, keys, (admitted & -admitted).bit_length() - 1)
                m = PreferenceModel(n, rows, {k: sets[k] for k in atom_keys},
                                    {k: sets[k] for k in inc_keys})
                _validate_witness(q, m)
                return Countermodel(m, q.bound) if q.mode == "refute" else Satisfiable(m)
    except BudgetExceeded:
        return Unknown("budget-exhausted")
    return BoundedValid(q.bound) if q.mode == "refute" else NoModel(q.bound)


def verdicts_agree(v1: Verdict, v2: Verdict) -> bool:
    """Same verdict kind; witnesses may differ (each is re-validated)."""
    return v1.kind == v2.kind


def check(q: Query) -> Verdict:
    """Answer a query with the engine(s) it names.

    engine="both" runs the SAT path and, when the query is inside the
    oracle's domain, the enumeration oracle; differing verdict kinds raise
    EngineDisagreement.
    """
    if q.engine == "sat":
        return check_sat_engine(q)
    if q.engine == "enum":
        return enum_oracle(q)
    v_sat = check_sat_engine(q)
    try:
        v_enum = enum_oracle(q)
    except OracleDomainError:
        return v_sat
    if isinstance(v_sat, Unknown) or isinstance(v_enum, Unknown):
        return v_sat if isinstance(v_sat, Unknown) else v_enum
    if not verdicts_agree(v_sat, v_enum):
        target = sx.format_formula(q.target) if q.target is not None else "-"
        raise EngineDisagreement(
            f"sat says {v_sat.kind}, enum says {v_enum.kind}\n"
            f"  mode={q.mode} bound={q.bound} total={q.total}\n"
            f"  target: {target}"
        )
    return v_sat
