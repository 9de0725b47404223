"""Bounded decision procedures: SAT engine, enumeration oracle, agreement."""
import hashlib
import random
from dataclasses import replace
from itertools import combinations, product
from operator import neg

import pytest

import prefsat.syntax as sx
from prefsat import kb as kbmod
from prefsat import solver
from prefsat.model import (
    PreferenceModel,
    all_preorders,
    is_total,
    render_text,
    truth_at,
    validate_model,
)
from prefsat.solver import (
    BoundedValid,
    BudgetExceeded,
    CDCL,
    Countermodel,
    EngineDisagreement,
    NoModel,
    OracleDomainError,
    Query,
    Satisfiable,
    Unknown,
    check,
    check_sat_engine,
    enum_oracle,
    oracle_in_domain,
    render_verdict,
    solve_at,
)
from prefsat.suites import random_queries, suite_queries
from test_model import from_edges, reference_eval

SIG = sx.base_signature("P", "Q", "R", "S")


def fm(text):
    return sx.elaborate(sx.parse_formula(text, SIG), SIG)


def refute(target, axioms=(), facts=(), **kw):
    return Query(
        axioms=tuple(fm(a) for a in axioms),
        facts=tuple(fm(f) for f in facts),
        target=fm(target),
        mode="refute",
        **kw,
    )


def find(axioms=(), facts=(), target=None, **kw):
    return Query(
        axioms=tuple(fm(a) for a in axioms),
        facts=tuple(fm(f) for f in facts),
        target=None if target is None else fm(target),
        mode="find",
        **kw,
    )


# ---------------------------------------------------------------------------
# CDCL core


def cdcl(nvars, clauses):
    """A solver over arbitrary clauses: repeated literals are dropped in order
    and tautologies skipped, as CDCL.load requires."""
    s = CDCL(nvars)
    s.load([list(dict.fromkeys(c)) for c in clauses if set(c).isdisjoint(map(neg, c))])
    return s


def brute_force_sat(nvars, clauses):
    return any(all(any((lit > 0) == bits[abs(lit) - 1] for lit in c) for c in clauses)
               for bits in product((False, True), repeat=nvars))


def test_cdcl_matches_brute_force_on_random_cnfs():
    rng = random.Random(6)
    answers = set()
    for _ in range(300):
        nvars = rng.randint(1, 10)
        clauses = [[rng.choice((1, -1)) * rng.randint(1, nvars)
                    for _ in range(rng.randint(1, 4))]
                   for _ in range(rng.randint(0, 5 * nvars))]
        s = cdcl(nvars, clauses)
        sat = s.solve(solver._Budget(None))
        assert sat == brute_force_sat(nvars, clauses), clauses
        answers.add(sat)
        if sat:  # the model is total and satisfies every clause as given
            assert all(s.lv[v] in (1, -1) and s.lv[-v] == -s.lv[v] for v in range(1, nvars + 1))
            assert all(any(s.lv[lit] == 1 for lit in c) for c in clauses), clauses
    assert answers == {True, False}


def test_cdcl_refutes_the_pigeonhole_principle():
    # 4 pigeons, 3 holes: var(i, j) says pigeon i sits in hole j
    def var(i, j):
        return 3 * i + j + 1

    clauses = [[var(i, j) for j in range(3)] for i in range(4)]
    clauses += [[-var(i, j), -var(k, j)] for j in range(3) for i, k in combinations(range(4), 2)]
    s = cdcl(12, clauses)
    assert not s.solve(solver._Budget(None))
    assert s.conflicts > 0
    # one pigeon fewer fits
    assert cdcl(12, clauses[1:]).solve(solver._Budget(None)) is True


def test_load_attaches_clauses_and_queues_units():
    s = CDCL(3)
    s.load([[1, 2], [2], [-2, 3]])
    assert s.clauses == [[1, 2], [-2, 3]]
    assert s.units == [2]
    assert s.ok and s.solve(solver._Budget(None))
    assert [s.lv[v] for v in (1, 2, 3)] == [-1, 1, 1]
    empty = CDCL(2)
    empty.load([[1, 2], []])
    assert not empty.ok and not empty.solve(solver._Budget(None))


def test_budget_is_checked_every_256_search_steps():
    class Counting:
        checks = 0

        def check(self):
            self.checks += 1

    # each pair [v, v + 1] costs one decision (v false) and propagates v + 1
    s = cdcl(2000, [[v, v + 1] for v in range(1, 2000, 2)])
    budget = Counting()
    assert s.solve(budget)
    assert (s.decisions, s.conflicts) == (1000, 0)
    # a step is one propagation round after a decision or a learnt clause
    assert budget.checks == (s.decisions + s.conflicts) // 256 == 3


# The pierson ruling at bound 6, recorded before the literal-indexed kernel:
# per world count, the learnt clauses appended to `clauses`, the unit learnts,
# decisions and propagated trail literals; and the sha256 of the appended
# learnt clauses, in order, as they stand when the solve returns.
PIERSON_6 = {1: (0, 0, 0, 0), 2: (0, 0, 0, 109), 3: (1, 3, 4, 454), 4: (10, 4, 17, 1375),
             5: (34, 5, 59, 4146), 6: (98, 6, 184, 12363)}
PIERSON_6_SHA256 = "9aa79582b2df4aaf79c3be64534f68bbbb36ab7aba2d5fd9a620914cbf40a8ee"
# The deepest decision level per world count, recorded before `max_level`
# existed by tracking the length of `lim`.
PIERSON_6_MAX_LEVEL = {1: 0, 2: 0, 3: 2, 4: 6, 5: 12, 6: 20}


def test_pierson_search_trajectory_is_pinned(monkeypatch):
    unit_learnts = []
    analyze = CDCL._analyze

    def counted(self, confl):
        learnt, bt = analyze(self, confl)
        unit_learnts.append(len(learnt) == 1)
        return learnt, bt

    monkeypatch.setattr(CDCL, "_analyze", counted)
    q = kbmod.goal_query(kbmod.case_kb("pierson"), "ruling-for-d", bound=6, engine="sat")
    digest = hashlib.sha256()
    seen, max_level = {}, {}
    for n in range(1, 7):
        enc = solver.encode(q, n)
        s = CDCL(enc.nvars)
        s.load(enc.clauses)  # as solve_at loads them
        before = len(s.clauses)
        unit_learnts.clear()
        assert not s.solve(solver._Budget(None))
        learnt = s.clauses[before:]
        seen[n] = (len(learnt), sum(unit_learnts), s.decisions, s.propagations)
        max_level[n] = s.max_level
        assert s.learnt == len(s.clauses) - before
        assert s.conflicts == len(learnt) + sum(unit_learnts)
        for clause in learnt:
            digest.update((" ".join(map(str, clause)) + "\n").encode())
    assert seen == PIERSON_6
    assert digest.hexdigest() == PIERSON_6_SHA256
    assert max_level == PIERSON_6_MAX_LEVEL


@pytest.mark.parametrize("target", ["(and P P)", "(and P Q P)", "(and P (not P))",
                                    "(and P Q (not P))"])
def test_encoder_clauses_are_normal(target):
    # A conjunction gate's [g, -l...] clause is the one that could repeat a
    # literal or be a tautology; CDCL.load takes clauses as they are, so the
    # encoder drops repeats and tautologies exactly as the cdcl() helper does.
    sat = "(not P)" not in target
    for mode, q in (("refute", refute(target, bound=2)), ("find", find(target=target, bound=2))):
        for n in (1, 2):
            enc = solver.encode(q, n)
            assert all(len({abs(lit) for lit in c}) == len(c) for c in enc.clauses)
            loaded = CDCL(enc.nvars)
            loaded.load([list(c) for c in enc.clauses])
            added = cdcl(enc.nvars, enc.clauses)
            assert (loaded.clauses, loaded.units, loaded.ok) == (added.clauses, added.units,
                                                                  added.ok)
        kind = Countermodel if mode == "refute" else (Satisfiable if sat else NoModel)
        assert isinstance(check(replace(q, engine="both")), kind)


def propagate_gates(clauses, fixed):
    """Extend an assignment (variable -> bool) by naive unit propagation over
    the given clauses, rescanning all of them until nothing changes.  Shares
    no code with CDCL."""
    val = dict(fixed)
    changed = True
    while changed:
        changed = False
        for c in clauses:
            free = []
            for lit in c:
                v = val.get(abs(lit))
                if v is None:
                    free.append(lit)
                elif v == (lit > 0):
                    break
            else:
                if len(free) == 1:
                    val[abs(free[0])] = free[0] > 0
                    changed = True
    return val


def test_encoder_agrees_with_the_evaluator_at_the_shipped_kbs_sizes():
    """Each case's goal query at 4 to 7 worlds, the sizes SAT witnesses reach
    and the oracle does not.  On seeded random models the relation and symbol
    variables are set from the model and every gate is derived from its
    defining clauses; those must all hold, and every encoded subformula must
    be true exactly where the model evaluator says it is."""
    rng = random.Random(9)
    checked = 0
    for case, goal in (("pierson", "ruling-for-d"), ("post", "ruling-for-p"),
                       ("conti", "ruling-for-p")):
        q = kbmod.goal_query(kbmod.case_kb(case), goal)
        atom_keys, inc_keys = q.symbols
        for n in (4, 5, 6, 7):
            enc = solver.encode(q, n)
            # the unit clauses are [vtrue] and the asserted formulas
            definitions = [c for c in enc.clauses if len(c) > 1]
            nodes = {id(f): f for f in enc._keep}
            for _ in range(3):
                pairs = [(a, b) for a in range(n) for b in range(n)
                         if a != b and rng.random() < 0.3]
                m = from_edges(n, pairs, {k: rng.randrange(1 << n) for k in atom_keys},
                               {k: rng.randrange(1 << n) for k in inc_keys})
                fixed = {enc.vtrue: True}
                fixed.update({var: bool(m.leq[i] >> j & 1) for (i, j), var in enc.rel.items()})
                for symbols, world_sets in ((enc.atom_vars, m.valuation),
                                            (enc.inc_vars, m.incidence)):
                    for key, vars_ in symbols.items():
                        fixed.update({var: bool(world_sets[key] >> w & 1)
                                      for w, var in enumerate(vars_)})
                val = propagate_gates(definitions, fixed)
                assert len(val) == enc.nvars, (case, n, "a gate is left undetermined")
                assert all(any(val[abs(lit)] == (lit > 0) for lit in c) for c in definitions)
                for (node_id, w), lit in enc._t_memo.items():
                    f = nodes[node_id]
                    expected = truth_at(m, f, max(w, 0))  # w = -1: world-independent
                    assert (val[abs(lit)] == (lit > 0)) == expected, \
                        (case, n, w, render_text(m), sx.format_formula(f))
                    checked += 1
    assert checked > 40_000


# ---------------------------------------------------------------------------
# query construction


def test_query_validation():
    with pytest.raises(ValueError, match="mode"):
        Query(mode="prove", target=fm("P"))
    with pytest.raises(ValueError, match="target"):
        Query(mode="refute")
    with pytest.raises(ValueError, match="bound"):
        Query(mode="find", bound=0)
    with pytest.raises(ValueError, match="bound"):
        Query(mode="find", bound=63)
    with pytest.raises(ValueError, match="engine"):
        Query(mode="find", engine="z3")


# ---------------------------------------------------------------------------
# refute mode on the SAT engine


def test_tautology_is_bounded_valid():
    v = check_sat_engine(refute("(or P (not P))"))
    assert isinstance(v, BoundedValid) and v.bound == 4
    assert render_verdict(v) == "BoundedValid bound=4"


def test_weak_reflexivity_valid_strict_fails_at_one_world():
    assert isinstance(check_sat_engine(refute("(implies P (dialeq P))")), BoundedValid)
    v = check_sat_engine(refute("(implies P (dialt P))"))
    assert isinstance(v, Countermodel)
    assert v.model.n == 1  # a single world has no strictly better one


def test_countermodel_is_validated_and_refutes_target():
    v = check_sat_engine(refute("P"))
    assert isinstance(v, Countermodel)
    validate_model(v.model)
    assert not v.model.atom_bits(("P", ())) & 1
    assert render_verdict(v).startswith("Countermodel worlds=1\nw0:")


def test_axioms_hold_everywhere_facts_only_at_the_designated_world():
    assert isinstance(check_sat_engine(refute("(A P)", axioms=["P"])), BoundedValid)
    v = check_sat_engine(refute("(A P)", facts=["P"]))
    assert isinstance(v, Countermodel)
    assert v.model.n == 2  # needs a second world where P fails


def test_transitivity_is_built_in():
    target = "(implies (dialeq (dialeq P)) (dialeq P))"
    assert isinstance(check_sat_engine(refute(target)), BoundedValid)


# ---------------------------------------------------------------------------
# find mode


def test_find_returns_smallest_validated_model():
    q = find(facts=["(and (dialt P) (not P))"])
    v = check_sat_engine(q)
    assert isinstance(v, Satisfiable)
    assert v.model.n == 2
    assert solve_at(q, 1) is None
    m3 = solve_at(q, 3)
    assert m3 is not None and m3.n == 3


def test_find_contradiction_reports_no_model():
    v = check_sat_engine(find(axioms=["P"], facts=["(not P)"], bound=3))
    assert isinstance(v, NoModel) and v.bound == 3
    assert render_verdict(v) == "NoModel bound=3"


def test_find_with_target():
    v = check_sat_engine(find(axioms=["(implies P Q)"], target="(and P Q)"))
    assert isinstance(v, Satisfiable)
    assert v.model.atom_bits(("P", ())) & 1 and v.model.atom_bits(("Q", ())) & 1


# ---------------------------------------------------------------------------
# totality restriction


def test_totality_decides_comparability():
    # on total frames any two satisfiable sets compare one way or the other
    target = "(or (prefsyn ee weak P Q) (prefsyn ee weak Q P))"
    open_q = refute(target, axioms=["(E P)", "(E Q)"], engine="both", bound=3)
    v = check(open_q)
    assert isinstance(v, Countermodel)
    total_q = refute(
        target, axioms=["(E P)", "(E Q)"], engine="both", bound=3, total=True,
    )
    assert isinstance(check(total_q), BoundedValid)


def test_total_witness_is_total():
    v = check_sat_engine(find(facts=["(and (dialt P) (not P))"], total=True))
    assert isinstance(v, Satisfiable)
    validate_model(v.model, total=True)


# ---------------------------------------------------------------------------
# enumeration oracle and agreement


def test_oracle_domain():
    small = refute("P", bound=2)
    assert oracle_in_domain(small)
    assert not oracle_in_domain(refute("P", bound=4))
    with pytest.raises(OracleDomainError, match="bound"):
        enum_oracle(refute("P", bound=4))
    wide = refute("(and P Q R S (val FREEDOM p) (val FREEDOM d) (val UTILITY p))", bound=3)
    assert not oracle_in_domain(wide)
    with pytest.raises(OracleDomainError, match="too many"):
        enum_oracle(wide)


def test_oracle_agrees_on_hand_picked_queries():
    queries = [
        refute("(or P (not P))", bound=2),
        refute("(implies P (dialt P))", bound=2),
        refute("(iff (dialeq P) (not (boxleq (not P))))", bound=2),
        refute("(implies (dialt (dialt P)) (dialt P))", bound=3),
        find(facts=["(and (dialt P) (not P))"], bound=2),
        find(axioms=["P"], facts=["(not P)"], bound=2),
        refute("(cp-dialeq (Q) P)", facts=["P"], bound=2),
    ]
    for q in queries:
        assert oracle_in_domain(q)
        v_sat, v_enum = check_sat_engine(q), enum_oracle(q)
        assert v_sat.kind == v_enum.kind, (render_verdict(v_sat), render_verdict(v_enum))


def reference_oracle(q):
    """Per-model enumeration: one model per preorder and assignment, in the
    oracle's order, each evaluated on its own by the reference evaluator."""
    atom_keys, inc_keys = q.symbols
    for n in range(1, q.bound + 1):
        for rows in all_preorders(n):
            if q.total and not is_total(PreferenceModel(n, rows)):
                continue
            for sets in product(range(1 << n), repeat=len(atom_keys) + len(inc_keys)):
                m = PreferenceModel(n, rows, dict(zip(atom_keys, sets)),
                                    dict(zip(inc_keys, sets[len(atom_keys):])))
                memo = {}
                if not all(reference_eval(m, ax, memo) == m.full_mask for ax in q.axioms):
                    continue
                if not all(reference_eval(m, fact, memo) & 1 for fact in q.facts):
                    continue
                holds = reference_eval(m, q.target, memo) & 1 if q.target is not None else True
                if q.mode == "refute" and not holds:
                    return Countermodel(m, q.bound)
                if q.mode == "find" and holds:
                    return Satisfiable(m)
    return BoundedValid(q.bound) if q.mode == "refute" else NoModel(q.bound)


def test_oracle_matches_the_per_model_reference():
    queries = []
    for bound in (1, 2, 3):
        for _, q in suite_queries():
            small = replace(q, bound=min(q.bound, bound))
            # the reference takes microseconds per model; keep its share small
            if oracle_in_domain(small) and solver._oracle_work(small) <= 4096:
                queries += [small, replace(small, total=True)]
    rand = random_queries(7, 40, bound=3)
    queries += rand + [replace(q, total=True) for q in rand[:20]]
    # a query whose answer turns on totality
    comparable = refute("(or (prefsyn ee weak P Q) (prefsyn ee weak Q P))",
                        axioms=["(E P)", "(E Q)"], bound=3)
    queries += [comparable, replace(comparable, total=True)]
    assert len(queries) > 190
    for q in queries:
        assert render_verdict(enum_oracle(q)) == render_verdict(reference_oracle(q)), q


def test_check_both_compares_and_falls_back():
    q = refute("(implies P (dialeq P))", bound=2, engine="both")
    assert isinstance(check(q), BoundedValid)
    # outside the oracle domain the SAT verdict is used without complaint
    big = refute("(or P (not P))", bound=4, engine="both")
    assert isinstance(check(big), BoundedValid)


def test_fault_injection_trips_the_comparison(enum_fault):
    q = refute("(implies P (dialeq P))", bound=2, engine="both")
    with pytest.raises(EngineDisagreement, match="sat says bounded-valid"):
        check(q)


def test_engine_selection():
    assert isinstance(check(refute("P", engine="sat")), Countermodel)
    assert isinstance(check(refute("P", bound=2, engine="enum")), Countermodel)


# ---------------------------------------------------------------------------
# budgets


def test_exhausted_budget_reports_unknown():
    # enough unconstrained variables that the solver must make many decisions
    wide = sx.Or(tuple(sx.Atom(f"X{i:03d}") for i in range(300)))
    assert isinstance(check_sat_engine(Query(target=wide, mode="find", bound=1)), Satisfiable)
    v = check_sat_engine(Query(target=wide, mode="find", bound=1, budget=0.0))
    assert isinstance(v, Unknown) and v.reason == "budget-exhausted"
    assert render_verdict(v) == "Unknown reason=budget-exhausted"
    # a valid target forces the oracle through its whole enumeration
    ve = enum_oracle(refute("(or P (not P) Q R S)", bound=3, budget=0.0))
    assert isinstance(ve, Unknown)
    # engine=both passes the Unknown through instead of raising disagreement
    both = check(refute("(or P (not P) Q R S)", bound=3, budget=0.0, engine="both"))
    assert isinstance(both, Unknown)


def test_budget_is_checked_inside_one_world_count(monkeypatch):
    class StopAt:
        """Raises on its k-th check and on every later one."""

        def __init__(self, k):
            self.k = k

        def check(self):
            self.k -= 1
            if self.k <= 0:
                raise BudgetExceeded()

    def unreachable(self, budget):
        raise AssertionError("CDCL.solve reached")

    monkeypatch.setattr(CDCL, "solve", unreachable)
    q = refute("(implies P Q)", axioms=["(boxleq R)", "(or P S)"], facts=["Q"], bound=2)
    # one check before each of the 4 top-level formulas, one before the search
    for k in range(1, 6):
        with pytest.raises(BudgetExceeded):
            solve_at(q, 2, StopAt(k))
    with pytest.raises(AssertionError, match="reached"):
        solve_at(q, 2, StopAt(6))
    # the budget does not outlive its solve_at call
    assert solver.encode(q, 2).nvars > 0


# ---------------------------------------------------------------------------
# determinism


def test_verdicts_are_reproducible():
    q = refute("(prefsyn aa weak P Q)", facts=["(E (and P (dialt Q)))"], bound=3)
    first = check_sat_engine(q)
    assert isinstance(first, Countermodel)
    for _ in range(3):
        again = check_sat_engine(q)
        assert render_verdict(again) == render_verdict(first)
