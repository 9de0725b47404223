"""Bounded decision procedures for preference-logic queries.

A query asserts a set of axioms at every world, a set of facts at the
designated world 0, and asks either to refute a target there (bounded
validity / entailment) or to find a model of everything (satisfiability).
The search solves exact world counts up to the bound, each count one
propositional instance: relation variables for every ordered world pair,
variables for each ground atom and value symbol per world, and definition
gates for each distinct subformula per world (a loaded KB holds one node per
distinct subformula, and the encoder builds each node once per world).
Reflexivity is compiled away, the strict relation is defined from the weak
one, and transitivity (plus optionally totality) is asserted as clauses.
Which counts it solves, and in what order, is check_sat_engine's
cloning-lemma search; the verdict and witness are those of the least count
with a model.

Two independent engines answer the same queries: the CDCL SAT core below and
an enumeration oracle for very small instances.  The oracle shares no code
with the encoder: it walks every preorder and, per preorder, evaluates each
subformula once for all assignments of world sets to the query's symbols
together (model.eval_packed, one bit per world and assignment), taking the
first admitted assignment in enumeration order as its witness.  Witnesses
from either engine are re-checked before being reported by the same
evaluator on the one model, which shares no code with the encoder or the
CDCL search.

Everything is deterministic: variables are allocated in a documented order
(relation variables, then atoms by name and world, then value symbols, then
gates) and the solver branches on the lowest-numbered unassigned variable,
trying False first.  With a static order, False first, no restarts and only
implied learnt clauses, the witness is the least model in that order, the
first relation variable the most significant; this was checked against brute
force up to 3 worlds, not proved.

From LEMMA_MIN_WORLDS worlds up, the encoding ends with a maximal-world
lemma: every world is maximal or has a strictly better maximal world.  It
holds in every finite preorder, so the models over the primary variables do
not change.  The solver probes the lemma's literals before its search (failed
literals, Lynce & Marques-Silva, SAT 2003): each "v is strictly better than w
and maximal" is decided at level 1, and a conflict is learnt as in the
search.  Each case ruling is refuted by this argument, in n - 1 probe
conflicts at n worlds; the static search alone needed 268 for pierson at 7
worlds, about 2.6 times more per added world.  A probe's learnt clause is
implied by the clauses, and the search then starts from level 0 in the
static order, so witnesses are still the least model.
"""
from __future__ import annotations

import math
import time
from contextvars import ContextVar
from functools import cached_property
from operator import neg

from . import syntax as sx
from .model import (
    MAX_WORLDS,
    Frame,
    PreferenceModel,
    all_preorders,
    eval_formula,  # unused here; bench/tracing.py wraps solver.eval_formula
    eval_packed,
    globally_true,
    is_total,
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

# The least world count whose encoding gets the maximal-world lemma.  Below
# it the canonical search refutes each case ruling in at most 4 conflicts,
# and the lemma's gates and probes only cost time: applied from 2 worlds, they
# slowed the oracle cross-check's queries (bound 3 or less) by 7 %.  From 4,
# every encoding at 3 worlds or fewer is the one without the lemma.
LEMMA_MIN_WORLDS = 4


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


class Query(sx.Node):
    """One decision problem.  Formulas must be ground."""

    axioms: tuple[sx.Formula, ...] = ()
    facts: tuple[sx.Formula, ...] = ()
    target: sx.Formula | None = None
    mode: str = "refute"  # refute | find
    bound: int = DEFAULT_BOUND
    total: bool = False
    budget: float | None = None
    engine: str = "sat"  # sat | enum | both

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.mode not in ("refute", "find"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "refute" and self.target is None:
            raise ValueError("refute mode needs a target formula")
        if not (1 <= self.bound <= MAX_WORLDS):
            raise ValueError(f"bound must be in 1..{MAX_WORLDS}")
        if self.engine not in ("sat", "enum", "both"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.budget is not None and math.isnan(self.budget):
            raise ValueError("budget must be a number of seconds, not nan")

    @cached_property
    def symbols(self) -> tuple[tuple, tuple]:
        """Ground atom keys and value symbols of every formula, each sorted in
        variable order; collected once per query."""
        formulas = [*self.axioms, *self.facts]
        if self.target is not None:
            formulas.append(self.target)
        atoms, incidence = sx.collect_symbols(formulas)
        return tuple(sorted(atoms)), tuple(sorted(incidence, key=lambda k: (k[0].value, k[1])))


class BoundedValid(sx.Node):
    bound: int
    kind = "bounded-valid"


class Countermodel(sx.Node):
    model: PreferenceModel
    bound: int
    kind = "countermodel"


class Satisfiable(sx.Node):
    model: PreferenceModel
    kind = "satisfiable"


class NoModel(sx.Node):
    bound: int
    kind = "no-model"


class Unknown(sx.Node):
    reason: str
    kind = "unknown"


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
    """Clause-learning SAT solver with two watched literals.  Branching is the
    lowest-numbered unassigned variable, False first; no randomization, no
    restarts, so identical clause sets always produce identical models.

    Before that search, `solve` probes the literals given to `load` in turn:
    each unassigned one is decided True at level 1 and propagated.  A conflict
    is analysed, learnt and back-jumped as in the search, so a probe makes at
    most one; a conflict at level 0 means UNSAT.  The solver is back at level
    0 before each probe and before the search, and every learnt clause is
    implied by the loaded ones, so the search returns the model it returns
    without probes: the least one in variable order.  The budget is checked
    before each probe and every 256 search steps.

    `lv`, `watch`, `level` and `reason` have 2 * nvars + 1 entries indexed by
    literal; -v reads from the end (Python's negative indexing).  `lv[lit]` is
    1 true, -1 false, 0 unassigned; `watch[lit]` holds the clauses whose first
    or second literal is lit; `level` and `reason` are set at the true literal.
    Learnt clauses of two or more literals are appended to `clauses`.  Counters:
    `decisions` (of the search, not the probes), `conflicts` (one learnt clause
    each, units included), `learnt` (the learnt clauses appended to
    `clauses`), `propagations` (trail literals whose watches were read) and
    `max_level` (the deepest decision level).
    """

    def __init__(self, nvars: int):
        self.nvars = nvars
        size = 2 * nvars + 1
        self.clauses: list[list[int]] = []
        self.watch: list[list[list[int]]] = [[] for _ in range(size)]
        self.lv = [0] * size
        self.level = [0] * size
        self.reason: list[list[int] | None] = [None] * size
        self.trail: list[int] = []
        self.lim: list[int] = []
        self.qhead = 0
        self.ok = True
        self.units: list[int] = []
        self.probes: list[int] = []
        self.decisions = self.conflicts = self.learnt = self.propagations = self.max_level = 0

    def load(self, clauses: list[list[int]], probes=()):
        """Add clauses; this is the only way to give the solver clauses.  Each
        must hold no repeated or complementary literal, as the encoder emits
        them.  They are attached in one pass and not copied: the search
        reorders their literals.  `probes` are literals that solve decides
        True, one at a time, before its search."""
        self.probes.extend(probes)
        attach, units = self._attach, self.units
        for clause in clauses:
            if len(clause) > 1:
                attach(clause)
            elif clause:
                units.append(clause[0])
            else:
                self.ok = False

    def _attach(self, clause: list[int]) -> list[int]:
        self.clauses.append(clause)
        self.watch[clause[0]].append(clause)
        self.watch[clause[1]].append(clause)
        return clause

    def _assign(self, lit: int, reason: list[int] | None):
        self.lv[lit], self.lv[-lit] = 1, -1
        self.level[lit] = len(self.lim)
        self.reason[lit] = reason
        self.trail.append(lit)

    def _propagate(self) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None.  Each watch
        list is compacted in place, keeping its order."""
        lv, watch, trail = self.lv, self.watch, self.trail
        level, reason, depth = self.level, self.reason, len(self.lim)
        qhead = start = self.qhead
        while qhead < len(trail):
            neg = -trail[qhead]
            qhead += 1
            ws = watch[neg]
            kept = moved = 0
            for clause in ws:
                first = clause[0]
                if first == neg:
                    first = clause[0] = clause[1]
                    clause[1] = neg
                if lv[first] == 1:
                    ws[kept] = clause
                    kept += 1
                    continue
                size = len(clause)
                k = 2
                while k < size:  # a replacement watch: the first non-false literal
                    lit = clause[k]
                    if lv[lit] != -1:
                        clause[1] = lit
                        clause[k] = neg
                        watch[lit].append(clause)
                        moved += 1
                        break
                    k += 1
                else:
                    ws[kept] = clause
                    kept += 1
                    if lv[first] == -1:
                        del ws[kept:kept + moved]
                        self.qhead = qhead
                        self.propagations += qhead - start
                        return clause
                    lv[first] = 1
                    lv[-first] = -1
                    level[first] = depth
                    reason[first] = clause
                    trail.append(first)
            del ws[kept:]
        self.qhead = qhead
        self.propagations += qhead - start
        return None

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        """First-UIP conflict analysis; returns (learnt clause, backjump level).
        learnt[0] is asserting; a false literal q is looked up at -q."""
        level, trail = self.level, self.trail
        cur_level = len(self.lim)
        seen = [False] * len(level)
        counter = 0
        others: list[int] = []
        idx = len(trail) - 1
        clause = confl
        p_lit = 0
        while True:
            for q in clause:
                if q == p_lit or seen[-q]:
                    continue
                lvl = level[-q]
                if lvl == 0:
                    continue
                seen[-q] = True
                if lvl == cur_level:
                    counter += 1
                else:
                    others.append(q)
            while not seen[trail[idx]]:
                idx -= 1
            p_lit = trail[idx]
            seen[p_lit] = False
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            clause = self.reason[p_lit]
        learnt = [-p_lit] + others
        bt = 0
        if others:
            bt = max(level[-q] for q in others)
            # move one max-level literal to the second watch position
            for k in range(1, len(learnt)):
                if level[-learnt[k]] == bt:
                    learnt[1], learnt[k] = learnt[k], learnt[1]
                    break
        return learnt, bt

    def _backjump(self, target_level: int):
        """Unassign every level above target_level (level and reason go stale)."""
        cut = self.lim[target_level]
        lv = self.lv
        for lit in self.trail[cut:]:
            lv[lit] = lv[-lit] = 0
        del self.trail[cut:]
        del self.lim[target_level:]
        self.qhead = cut

    def _decide(self, lit: int):
        self.lim.append(len(self.trail))
        if len(self.lim) > self.max_level:
            self.max_level = len(self.lim)
        self._assign(lit, None)

    def _learn(self, confl: list[int]):
        """Analyse a conflict above level 0, back-jump and assert the learnt
        clause's first literal."""
        self.conflicts += 1
        learnt, bt = self._analyze(confl)
        self._backjump(bt)
        reason = None
        if len(learnt) > 1:
            self.learnt += 1
            reason = self._attach(learnt)
        self._assign(learnt[0], reason)

    def solve(self, budget: _Budget) -> bool:
        if not self.ok:
            return False
        lv = self.lv
        for lit in self.units:
            if lv[lit] == -1:
                return False
            if lv[lit] == 0:
                self._assign(lit, None)
        if self._propagate() is not None:
            return False
        for lit in self.probes:  # at level 0 before and after each probe
            budget.check()
            if lv[lit]:
                continue
            self._decide(lit)
            confl = self._propagate()
            if confl is None:
                self._backjump(0)
                continue
            self._learn(confl)
            if self._propagate() is not None:
                return False
        head = 1
        steps = 0
        while True:
            # decide: lowest unassigned variable, False first
            while head <= self.nvars and lv[head]:
                head += 1
            if head > self.nvars:
                return True
            self.decisions += 1
            self._decide(-head)
            while True:
                steps += 1
                if steps & 255 == 0:
                    budget.check()
                confl = self._propagate()
                if confl is None:
                    break
                if not self.lim:
                    return False
                self._learn(confl)
                head = 1


# ---------------------------------------------------------------------------
# encoding

# The one modal rule's (sign, strict, guarded) for each modality, as in
# model._diamond: a box is the negated diamond of its negated body.
_MODALITIES = {
    sx.DiaWeak: (1, False, False), sx.DiaStrict: (1, True, False),
    sx.CpDiaWeak: (1, False, True), sx.CpDiaStrict: (1, True, True),
    sx.BoxWeak: (-1, False, False), sx.BoxStrict: (-1, True, False),
}
# Formulas true at every world or at none; encoded once, at world -1.
_WORLD_INDEPENDENT = frozenset((sx.Somewhere, sx.Everywhere, sx.CpPrefAA))


class _Encoder:
    """Compile a query at an exact world count into clauses.

    Variable layout: relation variables for ordered pairs (i,j), i != j, in
    lexicographic order; then one variable per ground atom (sorted by name
    and argument tuple) per world; then one per value symbol (sorted) per
    world; then definition gates in creation order, the maximal-world lemma's
    last.  `t` builds the gates for each distinct subformula once per world:
    it caches by node id, and equal subtrees of a loaded KB are one node.  A
    subtree built again as another object gets the same literal from the
    conj and iff caches, with no new variable or clause, so sharing changes
    the build's cost and not its CNF.
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
        self.probes: list[int] = []
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

    def edge(self, w: int, v: int, strict: bool, guards) -> list[int]:
        """Literals that together say v is weakly (strictly: weakly and not
        conversely) better than w and agrees with w on every guard."""
        lits = [self.conj((self.rlit(w, v), -self.rlit(v, w))) if strict else self.rlit(w, v)]
        for g in guards:
            lits.append(self.iff(self.t(g, w), self.t(g, v)))
        return lits

    def conj(self, lits) -> int:
        """A gate for the conjunction, its literals without repeats; a
        complementary pair is false, so each clause satisfies CDCL.load."""
        out: dict[int, None] = {}
        for l in lits:
            if l == -self.vtrue or -l in out:
                return -self.vtrue
            if l != self.vtrue:
                out[l] = None
        if len(out) < 2:
            return next(iter(out), self.vtrue)
        key = tuple(sorted(out))
        hit = self._conj_memo.get(key)
        if hit is not None:
            return hit
        g = self._new()
        for l in out:
            self.clauses.append([-g, l])
        self.clauses.append([g, *map(neg, out)])
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
        if type(f) in _WORLD_INDEPENDENT:
            w = -1
        key = (id(f), w)
        hit = self._t_memo.get(key)
        if hit is not None:
            return hit
        self._keep.append(f)
        lit = self._t_build(f, w)
        self._t_memo[key] = lit
        return lit

    def _t_build(self, f: sx.Formula, w: int) -> int:
        cls = type(f)
        modality = _MODALITIES.get(cls)
        if modality is not None:
            sign, strict, guarded = modality
            guards, sub = f.guards if guarded else (), f.sub
            opts = []
            for v in range(self.n):
                lits = self.edge(w, v, strict, guards)
                lits.append(sign * self.t(sub, v))
                opts.append(self.conj(lits))
            return sign * self.disj(opts)
        if cls is sx.Atom:
            return self.atom_vars[(f.pred, f.args)][w]
        if cls is sx.ValAtom:
            return self.inc_vars[(f.value, f.party)][w]
        if cls is sx.Not:
            return -self.t(f.sub, w)
        if cls is sx.And:
            return self.conj([self.t(a, w) for a in f.args])
        if cls is sx.Or:
            return self.disj([self.t(a, w) for a in f.args])
        if cls is sx.Implies:
            return self.disj([-self.t(f.lhs, w), self.t(f.rhs, w)])
        if cls is sx.Iff:
            return self.iff(self.t(f.lhs, w), self.t(f.rhs, w))
        n = self.n
        if cls is sx.Somewhere:
            return self.disj([self.t(f.sub, v) for v in range(n)])
        if cls is sx.Everywhere:
            return self.conj([self.t(f.sub, v) for v in range(n)])
        if cls is sx.CpPrefAA:
            parts = []
            for s in range(n):
                for u in range(n):
                    guard = self.conj(self.edge(s, u, f.strict, f.guards))  # first: variable order
                    parts.append(self.disj((-self.t(f.lhs, s), -self.t(f.rhs, u), guard)))
            return self.conj(parts)
        raise EngineError(f"not a formula node: {cls.__name__}")

    def maximal_world_lemma(self):
        """Clauses saying every world is maximal or has a strictly better
        maximal world.  encode calls it last, so its new gates are numbered
        after every formula gate.  s(w,v) is the strict edge (shared with the
        modalities' through the conj memo), m(w) = no s(w,v) and
        c(w,v) = s(w,v) and m(v).  For each w the clause is
        [m(w), c(w,v) for v != w]: following strictly better worlds from w
        ends, by finiteness and transitivity, at a maximal world strictly
        above w.  Every preorder satisfies it, so the models over the primary
        variables stay the same.  The c(w,v), in w-then-v order, are the
        solver's probe literals."""
        n = self.n
        strict = [[self.edge(w, v, True, ())[0] if v != w else 0 for v in range(n)]
                  for w in range(n)]
        maximal = [self.conj([-s for s in row if s]) for row in strict]
        for w in range(n):
            tops = [self.conj((strict[w][v], maximal[v])) for v in range(n) if v != w]
            self.clauses.append([maximal[w], *tops])
            self.probes += tops

    def decode(self, solver: CDCL) -> PreferenceModel:
        lv = solver.lv
        rows = tuple(sum(1 << j for j in range(self.n) if lv[self.rlit(i, j)] == 1)
                     for i in range(self.n))

        def world_sets(vars_by_key: dict) -> dict:
            return {key: sum(1 << w for w, var in enumerate(vars_) if lv[var] == 1)
                    for key, vars_ in vars_by_key.items()}

        return PreferenceModel(self.n, rows, world_sets(self.atom_vars), world_sets(self.inc_vars))


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
    if n >= LEMMA_MIN_WORLDS:
        enc.maximal_world_lemma()
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
    solver.load(enc.clauses, enc.probes)
    budget.check()
    if not solver.solve(budget):
        return None
    m = enc.decode(solver)
    _validate_witness(q, m)
    return m


def check_sat_engine(q: Query, budget: _Budget | None = None) -> Verdict:
    """The verdict at the least world count with a model, found by exponential
    search (Bentley & Yao, IPL 1976).

    Cloning lemma: give a model one more world that copies a world w, weakly
    better and weakly worse than w, related to every other world as w is and
    with w's valuation.  Every formula keeps its truth at the old worlds and
    holds at the copy as at w, so a model on n worlds gives one on n + 1.
    Having a model is thus monotone in n.  The search probes n = 1, 2, 4, ...
    and then the bound; no model at the bound means none at any count.  When
    probe p has a model, it bisects between the last probe without one and p
    (least 3 at bound 4: 1, 2, 4, 3; least 6 at bound 7: 1, 2, 4, 7, 5, 6).
    The witness is solve_at's model at the least count, the one a scan of
    every count from 1 would return.  The budget (the query's own, unless
    one is given) is checked before each probe.
    """
    budget = budget or _Budget(q.budget)

    def probe(n: int) -> PreferenceModel | None:
        budget.check()
        return solve_at(q, n, budget)

    try:
        lo, n = 0, 1  # no model at lo worlds (0: vacuously); n is probed next
        while (m := probe(n)) is None:
            if n == q.bound:
                return BoundedValid(q.bound) if q.mode == "refute" else NoModel(q.bound)
            lo, n = n, min(2 * n, q.bound)
        while n - lo > 1:  # model m at n worlds, none at lo
            mid = (lo + n) // 2
            found = probe(mid)
            if found is None:
                lo = mid
            else:
                n, m = mid, found
        return Countermodel(m, q.bound) if q.mode == "refute" else Satisfiable(m)
    except BudgetExceeded:
        return Unknown("budget-exhausted")


def _oracle_work(q: Query) -> int:
    atoms, incidence = q.symbols
    syms = len(atoms) + len(incidence)
    return sum(len(all_preorders(n)) << (n * syms) for n in range(1, q.bound + 1))


def oracle_in_domain(q: Query) -> bool:
    """True when the enumeration oracle can decide the query exhaustively."""
    return q.bound <= ORACLE_MAX_WORLDS and _oracle_work(q) <= ORACLE_MAX_WORK


def _sliced_admitted(q: Query, s: Frame) -> int:
    """Assignments (as bits) whose model admits the query's axioms and facts
    and refutes (refute mode) or satisfies (find mode) its target; world 0
    is the low block."""
    bits = s.block
    for ax in q.axioms:
        bits &= s.every_world(eval_packed(s, ax))
    for fact in q.facts:
        bits &= eval_packed(s, fact)
    if q.target is not None:
        ext = eval_packed(s, q.target)
        bits &= ~ext if q.mode == "refute" else ext
    return bits


def enum_oracle(q: Query, budget: _Budget | None = None) -> Verdict:
    """Exhaustive reference engine for tiny queries.

    Decides every preorder on up to bound (<= 3) worlds under every
    assignment of world sets to the query's symbols, by direct evaluation
    sliced over the assignments.  The witness is the first admitted model in
    (world count, preorder, assignment) order.  The budget is the query's
    own unless one is given.
    """
    if q.bound > ORACLE_MAX_WORLDS:
        raise OracleDomainError(f"oracle handles bound <= {ORACLE_MAX_WORLDS}")
    if _oracle_work(q) > ORACLE_MAX_WORK:
        raise OracleDomainError("query enumerates too many models for the oracle")
    atom_keys, inc_keys = q.symbols
    keys = (*atom_keys, *inc_keys)
    budget = budget or _Budget(q.budget)
    try:
        for n in range(1, q.bound + 1):
            budget.check()
            slices, width = valuation_slices(n, keys), 1 << n * len(keys)
            for rows in all_preorders(n):
                if q.total and not is_total(rows):
                    continue
                budget.check()
                admitted = _sliced_admitted(q, Frame(rows, slices, width))
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


def check(q: Query) -> Verdict:
    """Answer a query with the engine(s) it names.

    engine="both" runs the SAT path and, when the query is inside the
    oracle's domain, the enumeration oracle, both within the one budget;
    differing verdict kinds raise EngineDisagreement.
    """
    if q.engine == "sat":
        return check_sat_engine(q)
    if q.engine == "enum":
        return enum_oracle(q)
    budget = _Budget(q.budget)
    v_sat = check_sat_engine(q, budget)
    try:
        v_enum = enum_oracle(q, budget)
    except OracleDomainError:
        return v_sat
    if isinstance(v_sat, Unknown) or isinstance(v_enum, Unknown):
        return v_sat if isinstance(v_sat, Unknown) else v_enum
    if v_sat.kind != v_enum.kind:
        target = sx.format_formula(q.target) if q.target is not None else "-"
        raise EngineDisagreement(
            f"sat says {v_sat.kind}, enum says {v_enum.kind}\n"
            f"  mode={q.mode} bound={q.bound} total={q.total}\n"
            f"  target: {target}"
        )
    return v_sat
