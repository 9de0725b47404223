"""End-to-end acceptance checks, one test per shipped guarantee.

Each test re-derives its expected answers from first principles (hand-built
formulas, exhaustive enumeration, independent oracles) rather than reusing
the suite plumbing it is meant to vouch for.
"""
import itertools
import random
import subprocess
import sys

import prefsat.syntax as sx
from prefsat.cli import main as cli_main
from prefsat.kb import (
    audit_queries,
    case_kb,
    case_proof_path,
    goal_query,
    load_proof,
    replay,
    sat_query,
)
from prefsat.lifts import best_worlds, halpern_more_likely, sem_lift
from prefsat.model import (
    PreferenceModel,
    all_preorders,
    eval_formula,
    globally_true,
    is_total,
)
from prefsat.ontology import ALL_VALUE_SYMBOLS
from prefsat.solver import (
    BoundedValid,
    Countermodel,
    EngineDisagreement,
    Query,
    Satisfiable,
    check,
    check_sat_engine,
    enum_oracle,
    oracle_in_domain,
    render_verdict,
    solve_at,
)
from prefsat.suites import random_queries, suite_queries
from prefsat.values import aggregate1, aggregate2, down, up
from conftest import replace

SIG = sx.base_signature("P", "Q", "R")


def fm(text):
    return sx.parse_formula(text, SIG)


def valid(target, **kw):
    v = check(Query(target=fm(target), mode="refute", **kw))
    assert isinstance(v, BoundedValid) and v.bound == kw.get("bound", 4), (
        target, render_verdict(v))
    return v


def refuted(target, **kw):
    v = check(Query(target=fm(target), mode="refute", **kw))
    assert isinstance(v, Countermodel), (target, render_verdict(v))
    return v


def models_2atoms(max_n=3):
    """Every preference model on <= max_n worlds over atoms P and Q."""
    for n in range(1, max_n + 1):
        for rows in all_preorders(n):
            for pbits in range(1 << n):
                for qbits in range(1 << n):
                    yield PreferenceModel(n, rows, {("P", ()): pbits, ("Q", ()): qbits})


def test_01_modal_core():
    # dualities for the weak, strict, and global modalities
    valid("(iff (dialeq P) (not (boxleq (not P))))")
    valid("(iff (dialt P) (not (boxlt (not P))))")
    valid("(iff (E P) (not (A (not P))))")
    # reflexivity and transitivity of weak betterness (T and 4)
    valid("(implies (boxleq P) P)")
    valid("(implies P (dialeq P))")
    valid("(implies (boxleq P) (boxleq (boxleq P)))")
    valid("(implies (dialeq (dialeq P)) (dialeq P))")
    # transitivity of strict betterness (4), and strict-implies-weak
    valid("(implies (dialt (dialt P)) (dialt P))")
    valid("(implies (dialt P) (dialeq P))")
    # reflexivity fails for strict betterness, already on a single world
    v = refuted("(implies P (dialt P))", bound=1)
    assert v.model.n == 1


def test_02_semantic_and_syntactic_lifts():
    assert sum(1 for _ in all_preorders(3)) == 29
    syntactic = {
        (pat, strict): sx.desugar(sx.SynPref(pat, strict, sx.Atom("P"), sx.Atom("Q")))
        for pat in ("ee", "ea", "ae", "aa")
        for strict in (False, True)
    }
    witnesses = {}
    for m in models_2atoms():
        a = eval_formula(m, sx.Atom("P"))
        b = eval_formula(m, sx.Atom("Q"))
        total = is_total(m)
        for (pat, strict), f in syntactic.items():
            sem = sem_lift(m, pat, strict, a, b)
            syn = globally_true(m, f)
            if pat in ("ee", "ae"):
                assert sem == syn, (m.leq, m.valuation, pat, strict)
            elif total:
                assert sem == syn, (m.leq, m.valuation, pat, strict)
            elif sem != syn and (pat, strict) not in witnesses:
                witnesses[(pat, strict)] = m
    # every existential/universal-complement variant splits on some
    # non-total model of at most three worlds
    assert set(witnesses) == {(p, s) for p in ("ea", "aa") for s in (False, True)}
    assert all(not is_total(m) and m.n <= 3 for m in witnesses.values())


def test_03_aggregation_laws():
    def pref(a, b):
        return f"(prefsyn ae strict {a} {b})"

    valid(f"(implies {pref('P', 'Q')} {pref('P', '(or Q R)')})")          # right
    valid(f"(implies {pref('(or P R)', 'Q')} {pref('P', 'Q')})")          # left
    valid(f"(implies (and {pref('Q', 'P')} {pref('R', 'P')}) {pref('(or Q R)', 'P')})")
    right_conv = refuted(f"(implies {pref('P', '(or Q R)')} {pref('P', 'Q')})")
    left_conv = refuted(f"(implies {pref('P', 'Q')} {pref('(or P R)', 'Q')})")
    assert right_conv.model.n <= 3 and left_conv.model.n <= 3


def test_04_galois_connection():
    rng = random.Random(424242)
    for _ in range(500):
        n = rng.randint(1, 4)
        m = PreferenceModel(
            n, tuple(1 << w for w in range(n)),
            incidence={sym: rng.randrange(1 << n) for sym in ALL_VALUE_SYMBOLS},
        )
        a = rng.randrange(1 << n)
        b = frozenset(s for s in ALL_VALUE_SYMBOLS if rng.random() < 0.4)
        assert (b <= up(m, a)) == (not a & ~down(m, b))
        assert down(m, up(m, down(m, b))) == down(m, b)
        assert up(m, down(m, up(m, a))) == up(m, a)
        bigger_a = a | rng.randrange(1 << n)
        assert up(m, bigger_a) <= up(m, a)
        assert not down(m, b | {rng.choice(ALL_VALUE_SYMBOLS)}) & ~down(m, b)
        s2 = frozenset(s for s in ALL_VALUE_SYMBOLS if rng.random() < 0.4)
        assert not aggregate2(m, b, s2) & ~aggregate1(m, b, s2)


def test_05_value_conflicts():
    both_parties = "(forall x contender (implies (and (ext {0} x) (ext {1} x)) (conflict x)))"
    valid(both_parties.format("RESP", "STAB"))
    valid(both_parties.format("RELI", "WILL"))
    # WILL and STAB share UTILITY, so together they miss EQUALITY
    refuted("(implies (and (ext WILL p) (ext STAB p)) (conflict p))")
    # values observed for one party say nothing about the other
    refuted("(implies (and (ext RESP p) (ext STAB d)) (conflict p))")
    # a conflict is contingent: satisfiable and refutable
    conflict_p = sx.conflict(sx.Const("p"))
    sat = check(Query(target=conflict_p, mode="find"))
    assert isinstance(sat, Satisfiable)
    assert isinstance(check(Query(target=conflict_p, mode="refute")), Countermodel)
    # still satisfiable alongside the negation of a fresh atom; the name A is
    # an operator in the surface syntax, so the formula is built directly
    fresh = sx.And((conflict_p, sx.Not(sx.Atom("A"))))
    v = check(Query(target=fresh, mode="find"))
    assert isinstance(v, Satisfiable)
    assert not v.model.atom_bits(("A", ())) & 1


def test_06_conditional_triangle():
    P, Q = sx.Atom("P"), sx.Atom("Q")
    boutilier = sx.desugar(sx.Cond(P, Q))
    for m in models_2atoms():
        pw = eval_formula(m, P)
        qw = eval_formula(m, Q)
        best_reading = not best_worlds(m, pw) & ~qw
        halpern_reading = halpern_more_likely(m, pw & ~qw, pw & qw)
        modal_reading = globally_true(m, boutilier)
        assert best_reading == halpern_reading == modal_reading, (m.leq, m.valuation)


def test_07_case_rulings():
    expected = {"pierson": "ruling-for-d", "post": "ruling-for-p", "conti": "ruling-for-p"}
    for case, goal in expected.items():
        kb = case_kb(case)
        v = check(goal_query(kb, goal))
        assert isinstance(v, BoundedValid) and v.bound == 4, (case, render_verdict(v))
        sq = sat_query(kb)
        sat = check(sq)
        assert isinstance(sat, Satisfiable), case
        # the axioms and facts also admit a richer, non-degenerate model
        assert solve_at(replace(sq, engine="sat"), 3) is not None, case
        for party, q in audit_queries(kb).items():
            audit = check(q)
            assert isinstance(audit, Countermodel), (case, party)
            assert "values=[" in render_verdict(audit)


def test_08_proof_replay():
    kb = case_kb("pierson")
    steps = load_proof(case_proof_path("pierson"), kb.sig)
    assert len(steps) == 8
    results = replay(steps, kb)
    assert all(r.passed for r in results)
    assert all(not r.missing and not r.unavailable for r in results)

    # removing the wild-animal preference rule breaks the chain
    broken = case_kb("pierson")
    del broken.axioms["R2"]
    by_name = {r.name: r for r in replay(steps, broken)}
    s2, s8 = by_name["s2-pref-instance"], by_name["s8-ruling"]
    assert not s2.passed and isinstance(s2.verdict, Countermodel)
    assert not s8.passed and isinstance(s8.verdict, Countermodel)
    for r in (s2, s8):
        rendered = render_verdict(r.verdict)
        assert rendered.startswith("Countermodel worlds=") and "w0:" in rendered
    assert s2.missing == ("R2",)
    assert s8.unavailable == ("s7-stab-forced",)
    untouched = ("s1-wild-setting", "s4-will-link", "s5-stab-link", "s6-exhaustive")
    assert all(by_name[name].passed for name in untouched)


def test_09_engine_cross_check(request):
    # the full suite workload, shrunk to where the oracle is exhaustive
    exhausted = 0
    for name, q in suite_queries():
        small = replace(q, bound=min(q.bound, 2), engine="sat")
        if not oracle_in_domain(small):
            continue
        v_sat = check_sat_engine(small)
        v_enum = enum_oracle(small)
        assert v_sat.kind == v_enum.kind, (
            name, render_verdict(v_sat), render_verdict(v_enum))
        exhausted += 1
    assert exhausted >= 30

    # seeded random queries, each run through both engines by check()
    queries = random_queries(20260815, 200, bound=3)
    assert len(queries) == 200
    for q in queries:
        check(q)  # engine="both": raises EngineDisagreement on mismatch

    # a disagreement is a hard failure with its own exit code
    request.getfixturevalue("enum_fault")
    code = cli_main(["suite", "meta", "--engine", "both", "--bound", "2"])
    assert code == 3


def test_10_deterministic_output(capsys):
    cmd = [sys.executable, "-m", "prefsat.cli", "suite", "cases", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout and first.stdout
    assert first.stderr == second.stderr == b""
