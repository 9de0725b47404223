"""Bounded decision procedures: SAT engine, enumeration oracle, agreement."""
import pytest

import prefsat.syntax as sx
from prefsat.model import validate_model
from prefsat.solver import (
    BoundedValid,
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
    verdicts_agree,
)

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
        assert verdicts_agree(v_sat, v_enum), (render_verdict(v_sat), render_verdict(v_enum))


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


# ---------------------------------------------------------------------------
# determinism


def test_verdicts_are_reproducible():
    q = refute("(prefsyn aa weak P Q)", facts=["(E (and P (dialt Q)))"], bound=3)
    first = check_sat_engine(q)
    assert isinstance(first, Countermodel)
    for _ in range(3):
        again = check_sat_engine(q)
        assert render_verdict(again) == render_verdict(first)
