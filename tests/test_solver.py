"""Bounded decision procedures: SAT engine, enumeration oracle, agreement."""
import hashlib
import random
from dataclasses import FrozenInstanceError
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
    EngineError,
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
from conftest import replace
from test_model import from_edges, reference_eval

SIG = sx.base_signature("P", "Q", "R", "S")


def fm(text):
    return sx.parse_formula(text, SIG)


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


# The pierson ruling at bound 6, recorded with the maximal-world lemma probed
# from 4 worlds: per world count, the learnt clauses appended to `clauses`,
# the unit learnts, decisions and propagated trail literals; and the sha256 of
# the appended learnt clauses, in order, as they stand when the solve returns,
# followed per count by its unit learnts.  The counts below 4 worlds are those
# recorded before the literal-indexed kernel; at 4 to 6 worlds each ruling is
# refuted by n - 1 unit learnts while probing, without a search decision.
PIERSON_6 = {1: (0, 0, 0, 0), 2: (0, 0, 0, 109), 3: (1, 3, 4, 454), 4: (0, 3, 0, 507),
             5: (0, 4, 0, 739), 6: (0, 5, 0, 1017)}
PIERSON_6_SHA256 = "9718ed34910558c630c8227785566314d2f793fc8bcf1bedecf5fb1ee9240f2f"
# The deepest decision level per world count, recorded before `max_level`
# existed by tracking the length of `lim`; a probe is decided at level 1.
PIERSON_6_MAX_LEVEL = {1: 0, 2: 0, 3: 2, 4: 1, 5: 1, 6: 1}


def test_pierson_search_trajectory_is_pinned(monkeypatch):
    unit_learnts = []
    analyze = CDCL._analyze

    def counted(self, confl):
        learnt, bt = analyze(self, confl)
        if len(learnt) == 1:
            unit_learnts.append(learnt[0])
        return learnt, bt

    monkeypatch.setattr(CDCL, "_analyze", counted)
    q = kbmod.goal_query(kbmod.case_kb("pierson"), "ruling-for-d", bound=6, engine="sat")
    digest = hashlib.sha256()
    seen, max_level = {}, {}
    for n in range(1, 7):
        enc = solver.encode(q, n)
        s = CDCL(enc.nvars)
        s.load(enc.clauses, enc.probes)  # as solve_at loads them
        before = len(s.clauses)
        unit_learnts.clear()
        assert not s.solve(solver._Budget(None))
        learnt = s.clauses[before:]
        seen[n] = (len(learnt), len(unit_learnts), s.decisions, s.propagations)
        max_level[n] = s.max_level
        assert s.learnt == len(s.clauses) - before
        assert s.conflicts == len(learnt) + len(unit_learnts)
        for clause in learnt:
            digest.update((" ".join(map(str, clause)) + "\n").encode())
        digest.update(("units " + " ".join(map(str, unit_learnts)) + "\n").encode())
    assert seen == PIERSON_6
    assert digest.hexdigest() == PIERSON_6_SHA256
    assert max_level == PIERSON_6_MAX_LEVEL


def test_rulings_are_refuted_while_probing():
    """Each case ruling at 4 to 9 worlds: one conflict per probe until n - 1
    worlds are known not to be maximal, then a conflict at level 0; the
    canonical search makes no decision."""
    for case, goal in (("pierson", "ruling-for-d"), ("post", "ruling-for-p"),
                       ("conti", "ruling-for-p")):
        q = kbmod.goal_query(kbmod.case_kb(case), goal, bound=9, engine="sat")
        for n in range(4, 10):
            enc = solver.encode(q, n)
            assert len(enc.probes) == n * (n - 1)
            s = CDCL(enc.nvars)
            s.load(enc.clauses, enc.probes)
            assert not s.solve(solver._Budget(None))
            assert (s.conflicts, s.decisions) == (n - 1, 0), (case, n)


@pytest.mark.parametrize("target", ["(and P P)", "(and P Q P)", "(and P (not P))",
                                    "(and P Q (not P))"])
def test_encoder_clauses_are_normal(target):
    # A conjunction gate's [g, -l...] clause is the one that could repeat a
    # literal or be a tautology; CDCL.load takes clauses as they are, so the
    # encoder drops repeated literals and reads a complementary pair as false.
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


def test_conj_drops_repeats_and_reads_a_complementary_pair_as_false():
    enc = solver._Encoder(1, [("P", ()), ("Q", ())], [], False)
    p, q = enc.atom_vars[("P", ())][0], enc.atom_vars[("Q", ())][0]
    g = enc.conj([p, q])
    assert enc.clauses[-3:] == [[-g, p], [-g, q], [g, -p, -q]]
    size = (enc.nvars, len(enc.clauses))
    assert enc.conj([q, p, q, enc.vtrue]) == g
    assert enc.conj([p, enc.vtrue, p]) == p
    assert enc.conj([enc.vtrue]) == enc.vtrue
    assert enc.conj([p, q, -p]) == -enc.vtrue
    assert enc.disj([q, -q]) == enc.vtrue
    assert (enc.nvars, len(enc.clauses)) == size  # no gate and no clause for any of them


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
            # six models: a loaded KB shares its equal subformulas, so the
            # memo holds each distinct (subformula, world) once, about half
            # the entries it held unshared; three models checked 24 048
            for _ in range(6):
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
    assert checked > 40_000, checked


def unshared(f):
    """A copy of f with every node rebuilt, so that no two subtrees are one
    object."""
    values = []
    for name, kind in sx._LAYOUT[type(f)]:
        value = getattr(f, name)
        if kind == "formula":
            value = unshared(value)
        elif kind == "formulas":
            value = tuple(map(unshared, value))
        values.append(value)
    return type(f)(*values)


def unshared_query(q):
    return replace(q, axioms=tuple(map(unshared, q.axioms)), facts=tuple(map(unshared, q.facts)),
                   target=None if q.target is None else unshared(q.target))


# sha256 of repr((nvars, clauses, probes)) of every encoding in
# test_sharing_changes_no_encoding, in its order, recorded before a loaded KB
# shared its equal subformulas
ENCODINGS_SHA256 = "e360855742828c4f4e75c073520960473c1f7fb2e3f7482a1aff8e586108b17d"


def test_sharing_changes_no_encoding():
    """Every suite query, 300 random ones and each case's queries at 7
    worlds, at each world count up to min(bound, 7): encoded from the
    formulas as built, where a loaded KB shares its equal subformulas, and
    from a copy in which no two subtrees are one object, they give the same
    variables, clauses in order and probes."""
    queries = [q for _, q in suite_queries()] + random_queries(11, 300) + list(case_queries(7))
    digest = hashlib.sha256()
    count = 0
    for q in queries:
        copy = unshared_query(q)
        for n in range(1, min(q.bound, 7) + 1):
            enc, enc_copy = solver.encode(q, n), solver.encode(copy, n)
            cnf = (enc.nvars, enc.clauses, enc.probes)
            assert cnf == (enc_copy.nvars, enc_copy.clauses, enc_copy.probes), (n, q)
            digest.update(repr(cnf).encode())
            count += 1
    assert count == 1162
    assert digest.hexdigest() == ENCODINGS_SHA256


def test_a_loaded_kb_is_encoded_once_per_distinct_subformula():
    q = kbmod.goal_query(kbmod.case_kb("pierson"), "ruling-for-d", bound=7)
    enc = solver.encode(q, 7)
    nodes = {id(f): f for f in enc._keep}
    by_world = {}
    for node_id, w in enc._t_memo:
        by_world.setdefault(w, []).append(nodes[node_id])
    for w, formulas in by_world.items():
        assert len(set(formulas)) == len(formulas), w  # no two equal nodes at one world
    copy = unshared_query(q)
    assert (len(enc._t_memo), len(solver.encode(copy, 7)._t_memo)) == (863, 1572)


def test_maximal_world_lemma_holds_in_every_preorder():
    """On each of the 355 preorders on 4 worlds, with a seeded valuation, the
    gates derived from their definitions satisfy every lemma clause, and m(w)
    is true exactly when no world is strictly better than w."""
    n = 4
    enc = solver.encode(refute("(dialt P)", facts=["(boxlt (or P Q))"], bound=n), n)
    # world w's clause is [m(w), then its probes c(w,v)]
    lemma = [next(c for c in enc.clauses if c[1:] == enc.probes[w * (n - 1):(w + 1) * (n - 1)])
             for w in range(n)]
    definitions = [c for c in enc.clauses if len(c) > 1 and c not in lemma]
    rng = random.Random(12)
    preorders = all_preorders(n)
    assert len(preorders) == 355
    for rows in preorders:
        fixed = {enc.vtrue: True}
        fixed.update({var: bool(rows[i] >> j & 1) for (i, j), var in enc.rel.items()})
        fixed.update({var: rng.random() < 0.5 for vars_ in enc.atom_vars.values()
                      for var in vars_})
        val = propagate_gates(definitions, fixed)
        assert len(val) == enc.nvars, (rows, "a gate is left undetermined")
        for clause in lemma:
            assert any(val[abs(lit)] == (lit > 0) for lit in clause), (rows, clause)
        for w in range(n):
            strictly_better = any(rows[w] >> v & 1 and not rows[v] >> w & 1 for v in range(n))
            assert val[lemma[w][0]] == (not strictly_better), (rows, w)


def lemma_off(monkeypatch):
    """Encode every world count without the maximal-world lemma."""
    monkeypatch.setattr(solver, "LEMMA_MIN_WORLDS", solver.MAX_WORLDS + 1)


def test_encodings_below_four_worlds_are_untouched(monkeypatch):
    queries = [q for _, q in suite_queries()] + random_queries(11, 300)
    for n in (1, 2, 3):
        encodings = [solver.encode(q, n) for q in queries]
        assert not any(enc.probes for enc in encodings)
        with monkeypatch.context() as mp:
            lemma_off(mp)
            for q, enc in zip(queries, encodings):
                off = solver.encode(q, n)
                assert (enc.nvars, enc.clauses) == (off.nvars, off.clauses), (n, q)


@pytest.fixture(scope="module")
def solved_as_shipped():
    """solve_at's answers, keyed by (query at bound 1, world count), shared by
    the tests that solve the suite queries at up to 6 worlds: the s3 proof
    step alone takes seconds there."""
    return {}


def solve_each_count_once(mp, solved):
    """Route solve_at through `solved`, so that each count of each query is
    solved once for every bound (solve_at does not read the bound)."""
    real = solver.solve_at

    def solve_once(q, n, budget=None):
        key = (replace(q, bound=1), n)
        if key not in solved:
            solved[key] = real(q, n, budget)
        return solved[key]

    mp.setattr(solver, "solve_at", solve_once)


def test_the_lemma_changes_no_verdict_and_no_witness(monkeypatch, solved_as_shipped):
    queries = [replace(q, bound=b, engine="sat", total=t)
               for q in [q for _, q in suite_queries()] + random_queries(11, 300)
               for b in (4, 5, 6) for t in (False, True)]
    queries += case_queries(7)
    with monkeypatch.context() as mp:
        solve_each_count_once(mp, solved_as_shipped)
        with_lemma = [render_verdict(check_sat_engine(q)) for q in queries]
    with monkeypatch.context() as mp:
        lemma_off(mp)
        solve_each_count_once(mp, {})
        without_lemma = [render_verdict(check_sat_engine(q)) for q in queries]
    assert with_lemma == without_lemma
    assert sum(n >= solver.LEMMA_MIN_WORLDS for _, n in solved_as_shipped) > 100


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


def test_query_rejects_a_nan_budget():
    with pytest.raises(ValueError, match="nan"):
        Query(mode="find", budget=float("nan"))


def test_query_and_verdicts_are_frozen():
    m = PreferenceModel(1, (1,))
    records = [m, Query(mode="find"), BoundedValid(3), Countermodel(m, 3), Satisfiable(m),
               NoModel(3), Unknown("budget-exhausted")]
    for record in records:
        name = record._fields[0]
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)


def test_query_equality_and_hash_ignore_the_cached_symbols():
    q, twin = refute("(boxlt P)"), refute("(boxlt P)")
    assert q.symbols == ((("P", ()),), ())
    assert "symbols" in vars(q) and "symbols" not in vars(twin)
    assert q == twin and hash(q) == hash(twin)
    assert q != refute("(boxlt Q)")


def test_each_verdict_class_has_its_kind():
    kinds = {cls: cls.kind for cls in (BoundedValid, Countermodel, Satisfiable, NoModel, Unknown)}
    assert kinds == {BoundedValid: "bounded-valid", Countermodel: "countermodel",
                     Satisfiable: "satisfiable", NoModel: "no-model", Unknown: "unknown"}
    assert all("kind" not in cls._fields for cls in kinds)
    assert Unknown("budget-exhausted").kind == "unknown"


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
    assert not v.model.valuation[("P", ())] & 1
    assert render_verdict(v).startswith("Countermodel worlds=1\nw0:")


def test_a_corrupted_witness_is_caught_on_each_engine(monkeypatch):
    # both engines re-evaluate a witness before returning it
    P = ("P", ())
    decode = solver._Encoder.decode

    def flip_p(self, cdcl):  # the SAT model with P's world set complemented
        m = decode(self, cdcl)
        return replace(m, valuation={**m.valuation, P: m.valuation[P] ^ m.full_mask})

    with monkeypatch.context() as mp:
        mp.setattr(solver._Encoder, "decode", flip_p)
        for q, message in ((find(axioms=["P"]), "fails axioms or facts"),
                           (refute("P"), "countermodel satisfies the target"),
                           (find(target="P"), "model falsifies the target")):
            with pytest.raises(EngineError, match=message):
                check_sat_engine(q)
    # the oracle admitting every assignment returns the first, every symbol
    # false everywhere, which breaks the axiom P and satisfies the target (not P)
    monkeypatch.setattr(solver, "_sliced_admitted", lambda q, s: s.block)
    for q, message in ((find(axioms=["P"], bound=1), "fails axioms or facts"),
                       (refute("(not P)", bound=1), "countermodel satisfies the target")):
        with pytest.raises(EngineError, match=message):
            enum_oracle(q)


def test_axioms_hold_everywhere_facts_only_at_the_designated_world():
    assert isinstance(check_sat_engine(refute("(A P)", axioms=["P"])), BoundedValid)
    v = check_sat_engine(refute("(A P)", facts=["P"]))
    assert isinstance(v, Countermodel)
    assert v.model.n == 2  # needs a second world where P fails


def test_transitivity_is_built_in():
    target = "(implies (dialeq (dialeq P)) (dialeq P))"
    assert isinstance(check_sat_engine(refute(target)), BoundedValid)


# ---------------------------------------------------------------------------
# search over world counts


def linear_scan(q):
    """Reference for check_sat_engine: solve every world count from 1 to the
    bound in turn and answer at the first with a model."""
    budget = solver._Budget(q.budget)
    try:
        for n in range(1, q.bound + 1):
            budget.check()
            m = solver.solve_at(q, n, budget)
            if m is not None:
                return Countermodel(m, q.bound) if q.mode == "refute" else Satisfiable(m)
        return BoundedValid(q.bound) if q.mode == "refute" else NoModel(q.bound)
    except BudgetExceeded:
        return Unknown("budget-exhausted")


def clone_world(m, w):
    """m with one more world that copies world w: weakly better and weakly
    worse than w, related to every other world as w is, w's valuation."""
    n = m.n

    def copy_w(mask):
        return mask | (mask >> w & 1) << n

    return PreferenceModel(n + 1, (*map(copy_w, m.leq), copy_w(m.leq[w])),
                           {k: copy_w(b) for k, b in m.valuation.items()},
                           {k: copy_w(b) for k, b in m.incidence.items()})


def test_cloning_a_world_keeps_a_witness():
    """The lemma the search over world counts rests on: a model on n worlds
    gives one on n + 1, so having a model is monotone in n."""
    queries = [replace(q, bound=min(q.bound, 3), engine="sat") for _, q in suite_queries()]
    queries += random_queries(11, 300, bound=3)
    clones = 0
    for q in queries:
        v = check_sat_engine(q)
        if isinstance(v, (Countermodel, Satisfiable)):
            for w in range(v.model.n):
                solver._validate_witness(q, clone_world(v.model, w))
                clones += 1
    assert clones > 300


def worlds(v):
    """The world count of a verdict's model, None for a verdict without one."""
    return getattr(getattr(v, "model", None), "n", None)


def case_queries(bound):
    """Each shipped case's goals from axioms plus facts and from axioms alone,
    its satisfiability query and its two audits."""
    for case in ("pierson", "post", "conti"):
        kb = kbmod.case_kb(case)
        for goal in sorted(kb.goals):
            yield kbmod.goal_query(kb, goal, bound=bound, engine="sat")
            yield kbmod.goal_query(kb, goal, with_facts=False, bound=bound, engine="sat")
        yield kbmod.sat_query(kb, bound=bound, engine="sat")
        yield from kbmod.audit_queries(kb, bound=bound, engine="sat").values()


def chain(depth):
    """A fact whose least model is a strict chain of depth + 1 worlds."""
    text = "P"
    for _ in range(depth):
        text = f"(dialt {text})"
    return find(facts=[text], bound=7)


def test_search_gives_what_the_linear_scan_gave(monkeypatch, solved_as_shipped):
    queries = [replace(q, bound=b, engine="sat")
               for b in range(1, 7) for _, q in suite_queries()]
    rand = random_queries(11, 40, bound=4)
    queries += [replace(q, bound=b, total=t) for q in rand for b in (4, 5) for t in (False, True)]
    queries += case_queries(7)
    # least counts below, at and above each bound, and a query with no model
    queries += [replace(q, bound=b) for b in range(1, 8)
                for q in (*map(chain, range(7)), find(axioms=["P"], facts=["(not P)"]))]
    # each count of each query is solved once, for both sides and every bound
    solve_each_count_once(monkeypatch, solved_as_shipped)
    kinds = set()
    for q in queries:
        v = check_sat_engine(q)
        assert render_verdict(v) == render_verdict(linear_scan(q)), q
        kinds.add((v.kind, worlds(v), q.bound))
    # no model at the bound, and least counts of 1 to 7 at bound 7
    assert {("bounded-valid", None, 7), ("no-model", None, 7)} <= kinds
    assert {("countermodel", n, 7) for n in (1, 2)} <= kinds
    assert {("satisfiable", m, 7) for m in range(1, 8)} <= kinds


@pytest.mark.parametrize("query, probes, least", [
    (lambda: kbmod.goal_query(kbmod.case_kb("pierson"), "ruling-for-d", bound=7),
     [1, 2, 4, 7], None),
    (lambda: kbmod.goal_query(kbmod.case_kb("pierson"), "ruling-for-d", with_facts=False,
                              bound=7), [1, 2], 2),
    (lambda: chain(2), [1, 2, 4, 3], 3),
    (lambda: chain(5), [1, 2, 4, 7, 5, 6], 6),
    (lambda: find(target="(and P (not P))", bound=7), [1, 2, 4, 7], None),
], ids=["pierson-ruling", "pierson-axioms-only", "least-3", "least-6", "contradiction"])
def test_probe_order_is_pinned(monkeypatch, query, probes, least):
    seen = []
    real = solver.solve_at

    def recording(q, n, budget=None):
        seen.append(n)
        return real(q, n, budget)

    monkeypatch.setattr(solver, "solve_at", recording)
    v = check_sat_engine(query())
    assert seen == probes
    assert worlds(v) == least


def test_budget_running_out_in_the_four_world_probe(monkeypatch):
    q = kbmod.goal_query(kbmod.case_kb("pierson"), "ruling-for-d", bound=7)
    seen = []
    real = solver.solve_at

    def expiring(q, n, budget=None):
        seen.append(n)
        return real(q, n, solver._Budget(0.0) if n == 4 else budget)

    monkeypatch.setattr(solver, "solve_at", expiring)
    v = check_sat_engine(q)
    assert seen == [1, 2, 4]
    assert render_verdict(v) == "Unknown reason=budget-exhausted"


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
    assert v.model.valuation[("P", ())] & 1 and v.model.valuation[("Q", ())] & 1


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
            if q.total and not is_total(rows):
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


def test_engine_both_shares_one_budget(monkeypatch):
    # the clock passes the deadline just after the SAT engine returns, so the
    # oracle must find the budget spent rather than start one of its own
    clock = [0.0]
    monkeypatch.setattr(solver.time, "monotonic", lambda: clock[0])
    real = solver.check_sat_engine

    def sat_then_late(*args):
        v = real(*args)
        clock[0] += 2.0
        return v

    monkeypatch.setattr(solver, "check_sat_engine", sat_then_late)
    q = refute("(or P (not P))", bound=2, budget=1.0, engine="both")
    assert oracle_in_domain(q)
    assert check(q) == Unknown("budget-exhausted")
    # each engine called alone still starts a budget of its own
    assert isinstance(enum_oracle(q), BoundedValid)


class StopAt:
    """A budget that raises on its k-th check and on every later one."""

    def __init__(self, k):
        self.k = k

    def check(self):
        self.k -= 1
        if self.k <= 0:
            raise BudgetExceeded()


def test_budget_is_checked_inside_one_world_count(monkeypatch):
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


def test_budget_is_checked_before_each_probe(monkeypatch):
    q = kbmod.goal_query(kbmod.case_kb("pierson"), "ruling-for-d", bound=7)
    stopped = []
    real = CDCL.solve

    def solve(self, budget):
        if len(self.probes) == 7 * 6:  # the 7-world probe of the world counts
            stopped.append(self)
            budget = StopAt(4)
        return real(self, budget)

    monkeypatch.setattr(CDCL, "solve", solve)
    assert render_verdict(check_sat_engine(q)) == "Unknown reason=budget-exhausted"
    # three probes refuted, the fourth check raised, the search never began
    [s] = stopped
    assert (s.conflicts, s.decisions) == (3, 0)


# ---------------------------------------------------------------------------
# determinism


def test_verdicts_are_reproducible():
    q = refute("(prefsyn aa weak P Q)", facts=["(E (and P (dialt Q)))"], bound=3)
    first = check_sat_engine(q)
    assert isinstance(first, Countermodel)
    for _ in range(3):
        again = check_sat_engine(q)
        assert render_verdict(again) == render_verdict(first)
