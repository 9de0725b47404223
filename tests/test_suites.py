"""Built-in verification suites: row plumbing, reporting, random workloads."""
import pytest

from prefsat import kb as kbmod
from prefsat import solver, suites
from prefsat import syntax as sx
from prefsat.solver import (BudgetExceeded, EngineDisagreement, Query, Unknown, check,
                            oracle_in_domain)
from prefsat.suites import SUITE_NAMES, random_queries, run_suite, suite_queries


def test_all_suites_pass_with_defaults():
    for name in SUITE_NAMES:
        text, code = run_suite(name)
        assert code == 0, text
        lines = text.splitlines()
        assert lines[0].startswith(f"suite {name}:")
        rows = [line for line in lines if line.startswith(("PASS", "FAIL"))]
        assert rows and all(line.startswith("PASS") for line in rows)
        assert lines[-1] == f"{name}: {len(rows)}/{len(rows)} rows passed"


def test_unknown_suite_name():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("everything")


def test_suite_text_is_seed_stable():
    a = run_suite("values", seed=3)
    b = run_suite("values", seed=3)
    c = run_suite("values", seed=4)
    assert a == b
    assert a[0] != c[0]  # the seed is part of the header and the row data


def test_budget_exhausted_in_the_three_world_check_is_unknown(monkeypatch):
    def exhausted(q, n, budget=None):
        raise BudgetExceeded()

    monkeypatch.setattr(suites, "solve_at", exhausted)
    text, code = run_suite("cases")
    assert code == 2
    rows = {line.split()[1]: line for line in text.splitlines() if line.startswith("FAIL")}
    assert set(rows) == {f"{case}-satisfiable" for case in ("pierson", "post", "conti")}
    assert all(line.endswith("  Unknown reason=budget-exhausted") for line in rows.values())


def test_the_three_world_check_shares_its_rows_budget(monkeypatch):
    # the clock passes the deadline just after the row's check returns, so the
    # three-world model search must find the row's budget spent
    clock = [0.0]
    monkeypatch.setattr(solver.time, "monotonic", lambda: clock[0])
    real = suites.check

    def check_then_late(*args):
        v = real(*args)
        clock[0] += 2.0
        return v

    monkeypatch.setattr(suites, "check", check_then_late)
    text, code = run_suite("cases", budget=1.0)
    assert code == 2
    rows = {line.split()[1]: line for line in text.splitlines() if line.startswith("FAIL")}
    assert set(rows) == {f"{case}-satisfiable" for case in ("pierson", "post", "conti")}
    assert all(line.endswith("  Unknown reason=budget-exhausted") for line in rows.values())


def test_budget_exhausted_in_the_replay_is_unknown(monkeypatch):
    monkeypatch.setattr(kbmod, "check", lambda q, start=1: Unknown("budget-exhausted"))
    text, code = run_suite("cases")
    assert code == 2
    lines = text.splitlines()
    failed = [line.split(maxsplit=2)[1:] for line in lines if line.startswith("FAIL")]
    assert failed == [["pierson-replay", "step s1-wild-setting failed:"]]
    assert "     Unknown reason=budget-exhausted" in lines
    assert lines[-1] == "cases: 12/13 rows passed"


def test_fault_injection_surfaces_as_disagreement(enum_fault):
    with pytest.raises(EngineDisagreement):
        run_suite("meta", engine="both", bound=2)


def test_cp_collapse_row_catches_a_swapped_guarded_all_all(monkeypatch):
    # with no guards, cp-pref-aa must read as the plain all-all lift; an
    # evaluator that swaps its sides must turn the row into a FAIL
    real = suites.eval_packed

    def swapped(s, f):
        if type(f) is sx.CpPrefAA:
            f = sx.CpPrefAA(f.guards, f.strict, f.rhs, f.lhs)
        return real(s, f)

    assert suites._cp_collapse_row().ok
    monkeypatch.setattr(suites, "eval_packed", swapped)
    row = suites._cp_collapse_row()
    assert not row.ok
    assert row.detail.startswith("guarded all-all formula differs from plain:\n")


def test_suite_queries_are_named_and_well_formed():
    named = suite_queries()
    names = [n for n, _ in named]
    assert len(names) == len(set(names))
    assert len(named) >= 30
    assert all(isinstance(q, Query) for _, q in named)
    # the workload spans validity checks, refutations, and model finding
    modes = {q.mode for _, q in named}
    assert modes == {"refute", "find"}


def test_random_queries_reproducible_and_in_domain():
    a = random_queries(99, 25)
    b = random_queries(99, 25)
    assert a == b
    assert random_queries(100, 25) != a
    for q in a:
        assert q.bound == 3 and q.engine == "both"
        assert oracle_in_domain(q)
        check(q)  # raises EngineDisagreement on any mismatch
