"""Bounded decision procedures for preference-logic queries.

A query asserts a set of axioms at every world, a set of facts at the
designated world 0, and asks either to refute a target there (bounded
validity / entailment) or to find a model of everything (satisfiability).
The search solves exact world counts up to the bound, each count one
propositional instance: relation variables for every ordered world pair,
variables for each ground atom and value symbol per world, and definition
gates built from the query's program (its distinct subformulas, compiled
once, children first), each node at the worlds it is needed.  The asserted
formulas are clauses over the program's nodes, so their top-level
connectives get no gate.  Gates are numbered in program order, and each is
defined one-sided, by the polarity of its uses; a diamond's negative half
is one clause per world pair, with no gate.  Reflexivity is compiled away,
the strict relation is defined from the weak one, and transitivity (plus
optionally totality) is asserted as clauses.  Which counts it solves, and
in what order, is check_sat_engine's cloning-lemma search (1, 2, then 4, 8,
... up to half the bound, then the bound, then a bisection); the verdict and
witness are those of the least count with a model.  Under engine="both" the
oracle runs first and the search starts at its witness's world count (the
bound when it found none), so the SAT side solves each count once, not
again from 1.

Two independent engines answer the same queries: the CDCL SAT core below and
an enumeration oracle for very small instances.  The oracle shares no code
with the encoder: per world count, it packs the preorders into chunks and,
per chunk, evaluates each subformula once for every preorder of the chunk
under every assignment of world sets to the query's symbols together
(model.eval_packed, one bit per world, preorder and assignment), taking the
first admitted (preorder, assignment) in enumeration order as its witness.
Witnesses from either engine are re-checked before being reported by the
same evaluator on the one model, which shares no code with the encoder or
the CDCL search.

Everything is deterministic: variables are allocated in a documented order
(see _Encoder) and the solver branches on the lowest-numbered unassigned
variable, trying False first.  With a static order, no restarts and only
implied learnt clauses, the witness is the least model in that order, the
first relation variable the most significant; this was checked against brute
force up to 3 worlds, not proved.  A one-sided definition, and a clause in
place of a gate, holds whenever every gate takes its exact value, and no
gate it drops is more than a definition; so each admits the same
assignments of the primary variables and leaves that model unchanged.

From LEMMA_MIN_WORLDS worlds up, the encoding ends with a maximal-world
lemma, which holds in every finite preorder, and the solver probes its
literals before its search (failed literals, Lynce & Marques-Silva, SAT
2003).  Each case ruling is refuted by this argument, in n - 1 probe
conflicts at n worlds; the static search alone needed 268 for pierson at 7
worlds, about 2.6 times more per added world.
"""
from __future__ import annotations

import math
import time
from contextvars import ContextVar
from functools import cache, cached_property
from itertools import combinations, count, islice, permutations, repeat
from operator import neg

from . import syntax as sx
from .model import (
    MAX_WORLDS,
    ORACLE_CHUNK_BITS,
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

# The oracle decides every preorder times A = 2^(n * symbols) valuations;
# its domain is capped by that product so every accepted query stays cheap.
# Memory, not time, sets the cap: a subformula's packed extension takes at
# most n * max(A, ORACLE_CHUNK_BITS) bits, so from A = ORACLE_CHUNK_BITS on
# peak memory doubles with every doubling of A.
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
    def program(self) -> tuple[tuple, tuple]:
        """The query compiled once for every world count: each asserted
        formula clausified with its sign (-1 for a refuted target) by
        _flatten, the roots as (clause of (position, sign) pairs, every) in
        formula order, and the program as the distinct subformulas of their
        literals, children first, as (formula, child positions, every,
        polarity).  A node is built at every world (`every`) under an axiom,
        a modality or a node true at every world or at none, else at world 0;
        a literal's polarity is its sign's, an operand's as _OPERANDS says.
        Equal subtrees are one node, keyed by structure."""
        index: dict = {}  # position by structure, and by id (every node stays alive)
        nodes: list[list] = []

        def visit(f: sx.Formula) -> int:
            pos = index.get(id(f))
            if pos is None:
                kids = tuple(map(visit, sx.children(f)))
                cls = type(f)
                key = (cls, kids, f.strict) if cls is sx.Dia or cls is sx.CpPrefAA \
                    else (cls, kids) if kids else f
                pos = index[id(f)] = index.setdefault(key, len(nodes))
                if pos == len(nodes):
                    nodes.append([f, kids, False, 0])
            return pos

        target = () if self.target is None else (self.target,)
        asserted = ((self.axioms, True, 1), (self.facts, False, 1),
                    (target, False, -1 if self.mode == "refute" else 1))
        roots = tuple((tuple((visit(lit), s) for lit, s in _flatten(part, sign, False)), every)
                      for formulas, every, top in asserted for f in formulas
                      for part, sign in _flatten(f, top, True))
        for clause, every in roots:
            for pos, sign in clause:
                nodes[pos][2] |= every
                nodes[pos][3] |= _POS if sign > 0 else _NEG
        for f, kids, every, pol in reversed(nodes):  # all uses of a node come after it
            spread = every or type(f) in _SPREAD
            head, tail = _OPERANDS.get(type(f), (_SAME, ()))
            cut = len(kids) - len(tail)
            for j, kid in enumerate(kids):
                nodes[kid][2] |= spread
                nodes[kid][3] |= (head if j < cut else tail[j - cut])[pol]
        return tuple(map(tuple, nodes)), roots

    @cached_property
    def symbols(self) -> tuple[tuple, tuple]:
        """Ground atom keys and value symbols of every formula, each sorted in
        variable order; collected without the program, which the oracle skips."""
        formulas = [*self.axioms, *self.facts]
        if self.target is not None:
            formulas.append(self.target)
        atoms, incidence = sx.collect_symbols(formulas)
        return tuple(sorted(atoms)), tuple(sorted(incidence))


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
        them.  They are attached in one pass, each appended to the watch lists
        of its first two literals in the loop itself (`_attach` is the same
        step for a learnt clause), and not copied: the search reorders their
        literals.  A unit goes to `units` and an empty clause clears `ok`.
        `probes` are literals that solve decides True, one at a time, before
        its search."""
        self.probes.extend(probes)
        attached, watch, units = self.clauses, self.watch, self.units
        for clause in clauses:
            if len(clause) > 1:
                attached.append(clause)
                watch[clause[0]].append(clause)
                watch[clause[1]].append(clause)
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

# Nodes whose operands are read at every world; the last two are encoded once.
_SPREAD = frozenset((sx.Dia, sx.Somewhere, sx.CpPrefAA))

# Polarities as bit sets: the halves of a gate's definition its uses need
# (Plaisted & Greenbaum, J. Symbolic Computation 1986).  Axioms and facts are
# positive and a refuted target negative.  `not`, an implication's antecedent
# and cp-pref-aa's operands flip an operand's polarity, `iff` operands and cp
# guards take both, and any other operand keeps its node's: per class, the
# rule of its leading operands and of its last ones, each indexed by the
# node's polarity.
_POS, _NEG, _BOTH = 1, 2, 3
_SAME, _FLIP, _EITHER = (0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 3, 3)
_OPERANDS = {sx.Not: (_FLIP, ()), sx.Implies: (_FLIP, (_SAME,)), sx.Iff: (_EITHER, ()),
             sx.Dia: (_EITHER, (_SAME,)), sx.CpPrefAA: (_EITHER, (_FLIP, _FLIP))}


def _flatten(f: sx.Formula, sign: int, conjunctive: bool):
    """sign · f as the signed operands of a conjunction (conjunctive) or a
    disjunction, in operand order: `not` flips the sign, and an operand of
    that kind is flattened in turn (`and`, a negated `or` or `implies` is
    conjunctive; `or`, `implies` or a negated `and` disjunctive).  Anything
    else is its one operand."""
    while type(f) is sx.Not:
        f, sign = f.sub, -sign
    cls = type(f)
    if (cls is sx.And or cls is sx.Or or cls is sx.Implies) \
            and ((sign > 0) == (cls is sx.And)) == conjunctive:
        parts = ((f.lhs, -sign), (f.rhs, sign)) if cls is sx.Implies else zip(f.args, repeat(sign))
        for part, s in parts:
            yield from _flatten(part, s, conjunctive)
    else:
        yield f, sign


class _Encoder:
    """Compile a query at an exact world count into clauses.

    Variable layout: relation variables for ordered pairs (i,j), i != j, in
    lexicographic order; then one variable per ground atom (sorted by name
    and argument tuple) per world; then one per value symbol (sorted) per
    world; then definition gates in program order, the maximal-world lemma's
    last.  `build` takes the program node by node, one rule per core class
    (a box or `A` comes as a negated Dia or `E`); `lits[i]` holds node i's
    literal per world.  Definitions are one-sided (Plaisted & Greenbaum): a
    gate gets [-g, ...] for its positive uses and [g, ...] for its negative
    ones, as the polarity given to `conj`, `iff` and `edges` asks.  Their
    caches, keyed by literals, hold each gate with the halves emitted; a
    gate met again may lack one, which is emitted then, after those its
    operands need (their nodes come first in the program).  A diamond's
    gate is fresh, one per world, and its negative half has no gate per
    world pair.  Every clause emitted holds when each gate takes its exact
    value, and every gate a clause stands for (an asserted connective's, a
    diamond pair's) was only a definition; so the models over the relation,
    atom and value variables, and every verdict and witness, are those of
    full definitions.
    """

    def __init__(self, n: int, atom_keys, inc_keys, total: bool):
        self.n = n
        ids = count(1)
        self.rel = rel = dict(zip(permutations(range(n), 2), ids))
        self.atom_vars = {key: list(islice(ids, n)) for key in atom_keys}
        self.inc_vars = {key: list(islice(ids, n)) for key in inc_keys}
        self.vtrue = self.nvars = vtrue = next(ids)
        self.lits: list[list[int]] = []
        self.probes: list[int] = []
        self._conj_memo: dict[tuple[int, ...], int] = {}
        self._iff_memo: dict[tuple[int, int], int] = {}
        self._weak = [[rel.get((w, v), vtrue) for v in range(n)] for w in range(n)]
        self._strict = [[-vtrue if v == w else 0 for v in range(n)] for w in range(n)]  # 0: unbuilt
        self._row_done = [0] * n
        self.clauses = [[vtrue], *([-rel[(i, j)], -rel[(j, k)], rel[(i, k)]]
                                   for i, j, k in permutations(range(n), 3))]
        if total:
            self.clauses += ([rel[(i, j)], rel[(j, i)]] for i, j in combinations(range(n), 2))

    def _new(self) -> int:
        self.nvars += 1
        return self.nvars

    def edges(self, w: int, strict: bool, pol: int) -> list[int]:
        """Per world v, the literal saying v is weakly better than w, or
        strictly: weakly, and w not weakly better than v (false at v = w).  A
        strict row's gates get the halves pol needs when a use first does."""
        if not strict:
            return self._weak[w]
        row, rel = self._strict[w], self.rel
        if pol & ~self._row_done[w]:
            self._row_done[w] |= pol
            row[:] = [self.conj((rel[(w, v)], -rel[(v, w)]), pol) if v != w else row[w]
                      for v in range(self.n)]
        return row

    def edge(self, w: int, v: int, strict: bool, guards, pol: int) -> list[int]:
        """Literals that together say v is weakly (strictly) better than w
        and agrees with w on every guard (each its literals per world)."""
        return [self.edges(w, strict, pol)[v], *[self.iff(g[w], g[v], pol) for g in guards]]

    def clause(self, lits) -> list[int] | None:
        """The clause of lits without false or repeated literals, in order;
        None when it holds (a true literal or a complementary pair).  So each
        clause satisfies CDCL.load, which reads an empty one as UNSAT."""
        vtrue, out = self.vtrue, {}
        for l in lits:
            if l == vtrue or -l in out:
                return None
            if l != -vtrue:
                out[l] = None
        return list(out)

    def conj(self, lits, pol: int) -> int:
        """A gate for the conjunction, its literals without repeats; a
        complementary pair is false.

        Two literals are normalised by comparisons alone; more (or fewer) as
        the clause of their negations.  What is left meets the cache, keyed by
        the sorted literals, then the halves pol asks for that g lacks:
        [-g, l] for each literal l in the given order, and [g, -l...]."""
        vtrue = self.vtrue
        if len(lits) == 2:
            a, b = lits
            if a == -b or a == -vtrue or b == -vtrue:
                return -vtrue
            if a == vtrue:
                return b
            if b == vtrue or a == b:
                return a
            key = (a, b) if a < b else (b, a)
        else:
            negs = self.clause(map(neg, lits))
            if negs is None:
                return -vtrue
            if len(negs) < 2:
                return -negs[0] if negs else vtrue
            lits = [-l for l in negs]
            key = tuple(sorted(lits))
        hit = self._conj_memo.get(key, 0)  # gate << 2 | the halves it has
        if not pol & ~hit:
            return hit >> 2
        g, pol = hit >> 2 or self._new(), pol & ~hit
        self._conj_memo[key] = g << 2 | hit | pol
        clauses = self.clauses
        if pol & _POS:
            for l in lits:
                clauses.append([-g, l])
        if pol & _NEG:
            clauses.append([g, *map(neg, lits)])
        return g

    def disj(self, lits, pol: int) -> int:
        return -self.conj([-l for l in lits], _FLIP[pol])

    def iff(self, a: int, b: int, pol: int) -> int:
        vtrue = self.vtrue
        if abs(a) == abs(b):
            return vtrue if a == b else -vtrue
        if abs(a) == vtrue:
            return b if a > 0 else -b
        if abs(b) == vtrue:
            return a if b > 0 else -a
        key = (a, b) if a < b else (b, a)
        hit = self._iff_memo.get(key, 0)
        if not pol & ~hit:
            return hit >> 2
        g, pol = hit >> 2 or self._new(), pol & ~hit
        self._iff_memo[key] = g << 2 | hit | pol
        if pol & _POS:
            self.clauses += ([-g, -a, b], [-g, a, -b])
        if pol & _NEG:
            self.clauses += ([g, a, b], [g, -a, -b])
        return g

    def diamond(self, w: int, strict: bool, guards, sub: list[int], pol: int) -> int:
        """Some world v has the edge e(w,v) from w (its guards' `iff`s
        included) and sub x(v).  Each candidate v, the clause [-e(w,v), -x(v)]
        normalised, is dropped when false; a true one makes the diamond true,
        and a lone one is its conjunction.  Else the diamond is a fresh gate
        D: its negative half is [D, -e(w,v), -x(v)] per candidate, with no
        gate per pair, and its positive half [-D, c(w,v)...], c(w,v) the
        conjunction of e(w,v) and x(v)."""
        row, vtrue = self.edges(w, strict, pol), self.vtrue
        cands = []  # each candidate's literals, to be conjoined
        for v, e in enumerate(row):
            x = sub[v]
            if e == -vtrue or x == -vtrue:  # a false candidate
                continue
            if guards or e == vtrue or x == vtrue or abs(e) == abs(x):
                c = self.clause([*map(neg, self.edge(w, v, strict, guards, pol)), -x])
                if c is None:
                    continue
                if not c:
                    return vtrue
                cands.append([-l for l in c])
            else:  # two distinct literals, neither constant: nothing to normalise
                cands.append((e, x))
        if len(cands) < 2:
            return self.conj(cands[0], pol) if cands else -vtrue
        d = self._new()
        if pol & _NEG:
            self.clauses += ([d, *map(neg, c)] for c in cands)
        if pol & _POS:
            self.clauses.append([-d, *[self.conj(c, _POS) for c in cands]])
        return d

    def build(self, nodes, budget: _Budget):
        """Append each program node's literals, one per world it is built at,
        checking the budget before each node."""
        n, lits, conj, check = self.n, self.lits, self.conj, budget.check
        get, everywhere = lits.__getitem__, range(n)
        for f, kids, every, pol in nodes:
            check()
            cls = type(f)
            if cls is sx.Atom or cls is sx.ValAtom:
                lits.append(self.atom_vars[(f.pred, f.args)] if cls is sx.Atom
                            else self.inc_vars[(f.value, f.party)])
                continue
            worlds = everywhere if every else range(1)
            args = list(map(get, kids))
            rows = zip(*args) if every else (next(zip(*args)),)  # operands per world
            if cls is sx.Not:
                out = [-a for a, in rows]
            elif cls is sx.And:
                out = list(map(conj, rows, repeat(pol)))
            elif cls is sx.Or:
                out = list(map(self.disj, rows, repeat(pol)))
            elif cls is sx.Implies:
                out = [-conj((a, -b), _FLIP[pol]) for a, b in rows]
            elif cls is sx.Iff:
                out = [self.iff(a, b, pol) for a, b in rows]
            elif cls is sx.Dia:
                *guards, sub = args
                out = [self.diamond(w, f.strict, guards, sub, pol) for w in worlds]
            elif cls is sx.Somewhere:
                out = [self.disj(args[0], pol)] * len(worlds)
            else:  # cp-pref-aa: every lhs world has every rhs world above it
                *guards, lhs, rhs = args
                parts = [self.disj((-lhs[s], -rhs[u], conj(self.edge(s, u, f.strict, guards, pol),
                                                           pol)), pol)
                         for s in range(n) for u in range(n)]
                out = [conj(parts, pol)] * len(worlds)
            lits.append(out)

    def maximal_world_lemma(self):
        """Clauses saying every world is maximal or has a strictly better
        maximal world; encode calls it last, and its gates get both halves.
        s(w,v) is the strict edge (shared with the modalities'), m(w) = no
        s(w,v) and c(w,v) = s(w,v) and m(v).  For each w the clause is
        [m(w), c(w,v) for v != w]: following strictly better worlds from w
        ends, by finiteness and transitivity, at a maximal world strictly
        above w.  Every preorder satisfies it, so the models over the primary
        variables stay the same.  The c(w,v), in w-then-v order, are the
        solver's probe literals."""
        n = self.n
        strict = [self.edges(w, True, _BOTH) for w in range(n)]
        maximal = [self.conj([-strict[w][v] for v in range(n) if v != w], _BOTH)
                   for w in range(n)]
        for w in range(n):
            tops = [self.conj((strict[w][v], maximal[v]), _BOTH) for v in range(n) if v != w]
            self.clauses.append([maximal[w], *tops])
            self.probes += tops

    def decode(self, solver: CDCL) -> PreferenceModel:
        lv = solver.lv

        def bits(lits) -> int:  # the worlds whose literal is true
            return sum(1 << w for w, lit in enumerate(lits) if lv[lit] == 1)

        return PreferenceModel(self.n, tuple(map(bits, self._weak)),
                               {key: bits(vars_) for key, vars_ in self.atom_vars.items()},
                               {key: bits(vars_) for key, vars_ in self.inc_vars.items()})


def encode(q: Query, n: int) -> _Encoder:
    """Clauses of the query at exactly n worlds, its program built node by
    node, then each root clause at every world (axioms) or at world 0
    (facts and target), normalised: a false literal dropped, a clause that
    holds skipped, and an empty one left for CDCL.load to read as UNSAT.
    Inside solve_at, its budget is checked before each node."""
    nodes, roots = q.program
    enc = _Encoder(n, *q.symbols, q.total)
    enc.build(nodes, _ENCODE_BUDGET.get())
    lits = enc.lits
    for clause, every in roots:
        for w in range(n if every else 1):
            c = enc.clause([sign * lits[pos][w] for pos, sign in clause])
            if c is not None:
                enc.clauses.append(c)
    if n >= LEMMA_MIN_WORLDS:
        enc.maximal_world_lemma()
    return enc


# ---------------------------------------------------------------------------
# engines


def _model_admits(q: Query, m: PreferenceModel) -> bool:
    """Axioms true at every world and facts true at world 0."""
    return (all(globally_true(m, ax) for ax in q.axioms)
            and all(truth_at(m, fact, 0) for fact in q.facts))


def _validate_witness(q: Query, m: PreferenceModel):
    validate_model(m, total=q.total)
    if not _model_admits(q, m):
        raise EngineError("witness fails axioms or facts on re-evaluation")
    if q.target is not None and truth_at(m, q.target, 0) != (q.mode == "find"):
        raise EngineError("claimed countermodel satisfies the target" if q.mode == "refute"
                          else "claimed model falsifies the target")


def solve_at(q: Query, n: int, budget: _Budget | None = None) -> PreferenceModel | None:
    """Solve the query's constraints at an exact world count; model or None.
    The budget is checked before the search and again before a model is
    decoded and re-validated."""
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
    budget.check()
    m = enc.decode(solver)
    _validate_witness(q, m)
    return m


def check_sat_engine(q: Query, budget: _Budget | None = None, start: int = 1) -> Verdict:
    """The verdict at the least world count with a model, found by exponential
    search (Bentley & Yao, IPL 1976) from `start` worlds (1 to the bound).

    Cloning lemma: give a model one more world that copies a world w, weakly
    better and weakly worse than w, related to every other world as w is and
    with w's valuation.  Every formula keeps its truth at the old worlds and
    holds at the copy as at w, so a model on n worlds gives one on n + 1.
    Having a model is thus monotone in n.  The search probes n = start,
    2 * start, 4 * start, ... while the double is 2 or at most half the
    bound, and then the bound; no model at the bound means none at any count.
    (A last doubling in (bound/2, bound) would cost a large share of the
    bound's own solve and, on the case queries, decide nothing.)  When probe
    p has a model, it bisects between the last probe without one (0 when p is
    the first) and p.  From start = 1, a valid query probes 1, 2, 3 at bound
    3, 1, 2, 4 at bound 4, 1, 2, 7 at bound 7 and 1, 2, 4, 8 at bound 8;
    least 3 at bound 7 probes 1, 2, 7, 4, 3 and least 6 probes 1, 2, 7, 4, 5,
    6; from start = 2, least 2 probes 2, 1.  By monotonicity any start ends
    at the same least count, and the witness is solve_at's model there, the
    one a scan of every count from 1 would return.  The budget (the query's
    own, unless one is given) is checked before each probe.
    """
    budget = budget or _Budget(q.budget)

    def probe(n: int) -> PreferenceModel | None:
        budget.check()
        return solve_at(q, n, budget)

    try:
        lo, n = 0, start  # no model at lo worlds (0: vacuously); n is probed next
        while (m := probe(n)) is None:
            if n == q.bound:
                return BoundedValid(q.bound) if q.mode == "refute" else NoModel(q.bound)
            lo, n = n, 2 * n if n == 1 or 4 * n <= q.bound else q.bound
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


@cache
def _oracle_preorders(n: int, total: bool) -> tuple[tuple[int, ...], ...]:
    """The preorders enum_oracle walks: only the total ones for a total query."""
    return tuple(rows for rows in all_preorders(n) if not total or is_total(rows))


def _oracle_work(q: Query) -> int:
    """The models enum_oracle decides: the preorders it walks times the
    valuations of the symbols."""
    atoms, incidence = q.symbols
    syms = len(atoms) + len(incidence)
    return sum(len(_oracle_preorders(n, q.total)) << (n * syms)
               for n in range(1, q.bound + 1))


def oracle_in_domain(q: Query) -> bool:
    """True when the enumeration oracle can decide the query exhaustively."""
    return q.bound <= ORACLE_MAX_WORLDS and _oracle_work(q) <= ORACLE_MAX_WORK


def _sliced_admitted(q: Query, s: Frame) -> int:
    """(preorder, assignment) pairs, as bits of one world block, whose model
    admits the query's axioms and facts and refutes (refute mode) or
    satisfies (find mode) its target; world 0 is the low block."""
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
    packed over the assignments and over chunks of preorders: one Frame per
    chunk of max(1, ORACLE_CHUNK_BITS // A) preorders.  The witness is the
    first admitted model in (world count, preorder, assignment) order, the
    lowest admitted bit of the first chunk with one.  The budget is the
    query's own unless one is given; it is checked before each chunk.
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
            preorders, count = _oracle_preorders(n, q.total), 1 << n * len(keys)
            size = max(1, ORACLE_CHUNK_BITS // count)
            for start in range(0, len(preorders), size):
                budget.check()
                chunk = preorders[start:start + size]
                if start == 0 or len(chunk) < size:  # the first chunk, and a short last one
                    slices = valuation_slices(n, keys, len(chunk) * count)
                admitted = _sliced_admitted(q, Frame(chunk, slices, count))
                if not admitted:
                    continue
                p, i = divmod((admitted & -admitted).bit_length() - 1, count)
                sets = valuation_at(n, keys, i)
                m = PreferenceModel(n, chunk[p], {k: sets[k] for k in atom_keys},
                                    {k: sets[k] for k in inc_keys})
                _validate_witness(q, m)
                return Countermodel(m, q.bound) if q.mode == "refute" else Satisfiable(m)
    except BudgetExceeded:
        return Unknown("budget-exhausted")
    return BoundedValid(q.bound) if q.mode == "refute" else NoModel(q.bound)


def check(q: Query, budget: _Budget | None = None) -> Verdict:
    """Answer a query with the engine(s) it names, within one budget: the
    query's own, unless one is given.

    engine="both" runs the enumeration oracle first, when the query is inside
    its domain, and then the SAT search from the world count of the oracle's
    witness (the bound when it found none; 1 outside the domain), both
    within that budget.  The search still decides from its own solves (one,
    at the bound, for a valid query); differing verdict kinds raise
    EngineDisagreement.
    """
    budget = budget or _Budget(q.budget)
    if q.engine == "sat":
        return check_sat_engine(q, budget)
    if q.engine == "enum":
        return enum_oracle(q, budget)
    try:
        v_enum = enum_oracle(q, budget)
    except OracleDomainError:
        return check_sat_engine(q, budget)
    witness = getattr(v_enum, "model", None)
    v_sat = check_sat_engine(q, budget, q.bound if witness is None else witness.n)
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
