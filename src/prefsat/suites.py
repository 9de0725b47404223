"""Built-in verification suites.

Three suites cover the engine end to end.  "meta" exercises the modal core:
dualities, the S4 axioms for weak betterness, transitivity-only behaviour of
strict betterness, agreement between the set-level and formula-level
preference liftings, ceteris paribus collapse, and the triangle of
equivalent defeasible-conditional readings.  "values" exercises the concept
algebra (derivation operators, concept meet/join, aggregation) and the
value-conflict rules.  "cases" loads the shipped knowledge bases and checks
their rulings, satisfiability, conflict audits, and the recorded proof
script.

Every row is deterministic: identical arguments yield byte-identical tables.
Rows that expect a countermodel carry their own fixed search bound (the
witness is a fixed size); the suite-wide bound applies to validity rows.
"""
from __future__ import annotations

import functools
import random

from . import kb as kbmod
from . import syntax as sx
from .lifts import best_worlds, cp_lift_aa, halpern_more_likely, sem_lift
from .model import (  # eval_formula, truth_at: unused here; bench/tracing.py wraps them
    Frame,
    PreferenceModel,
    all_preorders,
    eval_formula,
    eval_packed,
    is_total,
    render_text,
    truth_at,
    valuation_slices,
)
from .ontology import ALL_VALUE_SYMBOLS
from .solver import (
    DEFAULT_BOUND,
    BudgetExceeded,
    Countermodel,
    Query,
    Satisfiable,
    _Budget,
    check,
    render_verdict,
    solve_at,
)
from .values import (
    aggregate1,
    aggregate2,
    concept_from_intent,
    concept_join,
    concept_meet,
    down,
    is_concept,
    up,
)

SUITE_NAMES = ("meta", "values", "cases")


class SuiteRow(sx.Node):
    name: str
    ok: bool
    detail: str
    kind: str = ""  # a query row's verdict kind; for other rows "", or "unknown" if a budget ran out


def _query_row(name: str, q: Query, expect: str) -> SuiteRow:
    v = check(q)
    if v.kind != expect:
        return SuiteRow(name, False, f"expected {expect}, got:\n{render_verdict(v)}", v.kind)
    if isinstance(v, (Countermodel, Satisfiable)):
        return SuiteRow(name, True, f"{v.kind} worlds={v.model.n}", v.kind)
    return SuiteRow(name, True, render_verdict(v), v.kind)


_VALID, _COUNTER, _SAT = "bounded-valid", "countermodel", "satisfiable"
_goal_row = functools.partial(_query_row, expect=_VALID)

# The query rows of the meta and values suites, in surface syntax over the
# atoms P, Q, R and Fresh: (name, formula, mode, own bound or None for the
# suite's bound, expected kind).
_QUERY_ROWS = {
    "meta": (
        ("dual-dia-weak", "(iff (dialeq P) (not (boxleq (not P))))", "refute", None, _VALID),
        ("dual-dia-strict", "(iff (dialt P) (not (boxlt (not P))))", "refute", None, _VALID),
        ("dual-global", "(iff (E P) (not (A (not P))))", "refute", None, _VALID),
        ("axiom-t-weak", "(implies (boxleq P) P)", "refute", None, _VALID),
        ("axiom-4-weak", "(implies (boxleq P) (boxleq (boxleq P)))", "refute", None, _VALID),
        ("axiom-4-strict", "(implies (boxlt P) (boxlt (boxlt P)))", "refute", None, _VALID),
        ("inclusion-strict-weak", "(implies (dialt P) (dialeq P))", "refute", None, _VALID),
        # reflexivity is deliberately absent from strict betterness
        ("axiom-t-strict-fails", "(implies (boxlt P) P)", "refute", 1, _COUNTER),
        ("cp-empty-weak", "(iff (cp-dialeq () P) (dialeq P))", "refute", None, _VALID),
        ("cp-empty-strict", "(iff (cp-dialt () P) (dialt P))", "refute", None, _VALID),
        ("cp-guarded-implies-base", "(implies (cp-dialeq (Q) P) (dialeq P))", "refute", None,
         _VALID),
    ),
    "aggregation": (
        ("agg-right", "(implies (prefsyn ae strict P Q) (prefsyn ae strict P (or Q R)))",
         "refute", None, _VALID),
        ("agg-left", "(implies (prefsyn ae strict (or P R) Q) (prefsyn ae strict P Q))",
         "refute", None, _VALID),
        ("agg-union", "(implies (and (prefsyn ae strict Q P) (prefsyn ae strict R P))"
         " (prefsyn ae strict (or Q R) P))", "refute", None, _VALID),
        # both converses fail on small models
        ("agg-right-converse", "(implies (prefsyn ae strict P (or Q R)) (prefsyn ae strict P Q))",
         "refute", 3, _COUNTER),
        ("agg-left-converse", "(implies (prefsyn ae strict P Q) (prefsyn ae strict (or P R) Q))",
         "refute", 3, _COUNTER),
    ),
    "conflict": (
        ("conflict-resp-stab", "(implies (and (ext RESP p) (ext STAB p)) (conflict p))",
         "refute", None, _VALID),
        ("conflict-reli-will", "(implies (and (ext RELI p) (ext WILL p)) (conflict p))",
         "refute", None, _VALID),
        ("conflict-will-stab-open", "(implies (and (ext WILL p) (ext STAB p)) (conflict p))",
         "refute", 2, _COUNTER),
        ("conflict-cross-party-open", "(implies (and (ext RESP p) (ext STAB d)) (conflict p))",
         "refute", 2, _COUNTER),
        ("conflict-contingent-sat", "(conflict p)", "find", 2, _SAT),
        ("conflict-contingent-open", "(conflict p)", "refute", 2, _COUNTER),
        ("conflict-with-fresh-atom", "(and (conflict p) (not Fresh))", "find", 2, _SAT),
    ),
}


def _query_rows(group: str, *, engine: str, bound: int, budget: float | None):
    """(name, query, expected kind) for each row of one group of the table."""
    sig = sx.base_signature("P", "Q", "R", "Fresh")
    for name, text, mode, own_bound, expect in _QUERY_ROWS[group]:
        yield name, Query(target=sx.parse_formula(text, sig), mode=mode,
                          bound=own_bound or bound, engine=engine, budget=budget), expect


# ---------------------------------------------------------------------------
# meta suite


_PQ = (("P", ()), ("Q", ()))


def _enum_models(max_n: int = 3):
    """Every preorder up to max_n worlds with every valuation of P and Q, as
    (model without a valuation, for the set-level lifts; Frame of the
    preorder under every valuation; assignment i = pm << n | qm; P's worlds
    pm; Q's worlds qm).  Bit i of a packed extension of s is then world 0
    under the valuation."""
    for n in range(1, max_n + 1):
        width = 1 << n * len(_PQ)
        slices = valuation_slices(n, _PQ, width)
        for rows in all_preorders(n):
            m, s = PreferenceModel(n, rows), Frame((rows,), slices, width)
            for i in range(s.width):
                yield m, s, i, i >> n, i & (1 << n) - 1


def _pq_text(m: PreferenceModel, a: int, b: int) -> str:
    return render_text(PreferenceModel(m.n, m.leq, dict(zip(_PQ, (a, b))), {}))


def _preorder_count_row() -> SuiteRow:
    counts = tuple(len(all_preorders(n)) for n in (1, 2, 3))
    ok = counts == (1, 4, 29)
    return SuiteRow("preorder-enumeration", ok, f"counts up to 3 worlds: {counts}")


def _semsyn_agree_row(name: str, patterns, total_only: bool) -> SuiteRow:
    P, Q = sx.Atom("P"), sx.Atom("Q")
    syn = {(pat, st): sx.SynPref(pat, st, P, Q) for pat in patterns for st in (False, True)}
    checked = 0
    for m, s, i, a, b in _enum_models():
        if total_only and not is_total(m.leq):
            continue
        for (pat, st), f in syn.items():
            if sem_lift(m, pat, st, a, b) != bool(eval_packed(s, f) >> i & 1):
                which = f"{pat}-{'strict' if st else 'weak'}"
                return SuiteRow(name, False,
                                f"set/formula mismatch for {which}:\n{_pq_text(m, a, b)}")
            checked += 1
    scope = "total preorders" if total_only else "preorders"
    return SuiteRow(name, True, f"{checked} instances over all {scope} up to 3 worlds")


def _semsyn_witness_row() -> SuiteRow:
    P, Q = sx.Atom("P"), sx.Atom("Q")
    syn = {(pat, st): sx.SynPref(pat, st, P, Q) for pat in ("ea", "aa") for st in (False, True)}
    found: dict[tuple[str, bool], int] = {}
    for m, s, i, a, b in _enum_models():
        if is_total(m.leq):
            continue
        for key, f in syn.items():
            if key not in found and \
                    sem_lift(m, key[0], key[1], a, b) != bool(eval_packed(s, f) >> i & 1):
                found[key] = m.n
        if len(found) == 4:
            break
    if len(found) < 4:
        missing = [k for k in syn if k not in found]
        return SuiteRow("lift-ea-aa-nontotal-split", False,
                        f"no non-total disagreement found for {missing}")
    parts = ", ".join(f"{pat}-{'strict' if st else 'weak'}@{found[(pat, st)]}w"
                      for pat, st in syn)
    return SuiteRow("lift-ea-aa-nontotal-split", True, f"witnesses: {parts}")


def _cp_collapse_row() -> SuiteRow:
    P, Q = sx.Atom("P"), sx.Atom("Q")
    guarded = {st: sx.CpPrefAA((), st, P, Q) for st in (False, True)}
    checked = 0
    for m, s, i, a, b in _enum_models():
        for st in (False, True):
            plain = sem_lift(m, "aa", st, a, b)
            if cp_lift_aa(m, [], st, a, b) != plain:
                return SuiteRow("cp-empty-collapse", False,
                                f"guarded all-all differs from plain:\n{_pq_text(m, a, b)}")
            if bool(eval_packed(s, guarded[st]) >> i & 1) != plain:
                return SuiteRow("cp-empty-collapse", False,
                                f"guarded all-all formula differs from plain:\n{_pq_text(m, a, b)}")
            checked += 2
    return SuiteRow("cp-empty-collapse", True,
                    f"{checked} instances over all preorders up to 3 worlds")


def _cond_triangle_row() -> SuiteRow:
    cond = sx.Cond(sx.Atom("P"), sx.Atom("Q"))
    checked = 0
    for m, s, i, a, b in _enum_models():
        c1 = bool(eval_packed(s, cond) >> i & 1)
        c2 = not best_worlds(m, a) & ~b
        c3 = halpern_more_likely(m, a & ~b, a & b)
        if not (c1 == c2 == c3):
            return SuiteRow("conditional-triangle", False,
                            f"readings split ({c1}/{c2}/{c3}):\n{_pq_text(m, a, b)}")
        checked += 1
    return SuiteRow("conditional-triangle", True,
                    f"{checked} models, all three readings agree")


def meta_suite(*, engine: str = "sat", bound: int = DEFAULT_BOUND, seed: int = 0,
               budget: float | None = None) -> list[SuiteRow]:
    rows = [_query_row(*r) for r in _query_rows("meta", engine=engine, bound=bound,
                                                  budget=budget)]
    return rows + [
        _preorder_count_row(),
        _semsyn_agree_row("lift-ee-ae-agree", ("ee", "ae"), total_only=False),
        _semsyn_agree_row("lift-ea-aa-total-agree", ("ea", "aa"), total_only=True),
        _semsyn_witness_row(),
        _cp_collapse_row(),
        _cond_triangle_row(),
    ]


# ---------------------------------------------------------------------------
# values suite


_GALOIS_CONTEXTS = 500


def _galois_rows(seed: int) -> list[SuiteRow]:
    """Derivation-operator laws on random incidence contexts.

    Each row draws its own stream of 500 contexts (1..4 worlds, the eight
    value symbols, random incidence) and samples a few set pairs per context.
    """

    def rand_ext(rng: random.Random, m: PreferenceModel) -> int:
        return rng.randrange(1 << m.n)

    def rand_syms(rng: random.Random) -> frozenset:
        return frozenset(s for s in ALL_VALUE_SYMBOLS if rng.randrange(2))

    def adjunction(rng, m):
        a, b = rand_ext(rng, m), rand_syms(rng)
        return (b <= up(m, a)) == (not a & ~down(m, b))

    def closure(rng, m):
        d1 = down(m, rand_syms(rng))
        return down(m, up(m, d1)) == d1

    def antitone(rng, m):
        a2 = rand_ext(rng, m)
        a1 = a2 & rng.randrange(1 << m.n)
        b2 = rand_syms(rng)
        b1 = b2 & rand_syms(rng)
        return up(m, a2) <= up(m, a1) and not down(m, b2) & ~down(m, b1)

    def meet_join(rng, m):
        c1 = concept_from_intent(m, rand_syms(rng))
        c2 = concept_from_intent(m, rand_syms(rng))
        meet = concept_meet(m, c1, c2)
        join = concept_join(m, c1, c2)
        return (is_concept(m, meet.extent, meet.intent)
                and is_concept(m, join.extent, join.intent)
                and meet.extent == c1.extent & c2.extent
                and join.intent == (c1.intent & c2.intent))

    def aggregation(rng, m):
        s1, s2 = rand_syms(rng), rand_syms(rng)
        return not aggregate2(m, s1, s2) & ~aggregate1(m, s1, s2)

    # (row, stream tag, samples per context, instances per sample, law, failure)
    laws = (
        ("galois-adjunction", "adjunction", 8, 1, adjunction,
         "adjunction broken on a random context"),
        ("galois-closure", "closure", 4, 1, closure,
         "down-up-down is not down on a random context"),
        ("galois-antitone", "antitone", 4, 2, antitone,
         "derivation operators are not antitone"),
        ("concept-meet-join", "concepts", 2, 1, meet_join,
         "meet/join left the concept lattice"),
        ("aggregate-inclusion", "aggregation", 4, 1, aggregation,
         "union aggregation escaped the join aggregation"),
    )
    rows: list[SuiteRow] = []
    for name, tag, samples, weight, law, failure in laws:
        rng = random.Random(f"{seed}:{tag}")
        ok, inst = True, 0
        for _ in range(_GALOIS_CONTEXTS):
            n = rng.randint(1, 4)
            inc = {s: rng.randrange(1 << n) for s in ALL_VALUE_SYMBOLS}
            m = PreferenceModel(n, tuple(1 << i for i in range(n)), {}, inc)
            for _ in range(samples):
                if not law(rng, m):
                    ok = False
                    break
                inst += weight
            if not ok:
                break
        rows.append(SuiteRow(name, ok, f"{inst} instances on {_GALOIS_CONTEXTS} random contexts"
                             if ok else failure))
    return rows


def values_suite(*, engine: str = "sat", bound: int = DEFAULT_BOUND, seed: int = 0,
                 budget: float | None = None) -> list[SuiteRow]:
    opts = {"engine": engine, "bound": bound, "budget": budget}
    return ([_query_row(*r) for r in _query_rows("aggregation", **opts)] + _galois_rows(seed)
            + [_query_row(*r) for r in _query_rows("conflict", **opts)])


# ---------------------------------------------------------------------------
# cases suite


CASE_NAMES = ("pierson", "post", "conti")


def _case_queries(kbs: dict[str, kbmod.KnowledgeBase], **overrides):
    """(row name, query, row builder) for each shipped case's goals, its
    satisfiability and its conflict audit per party."""
    for case, kb in kbs.items():
        for goal_name in sorted(kb.goals):
            yield f"{case}-{goal_name}", kbmod.goal_query(kb, goal_name, **overrides), _goal_row
        yield f"{case}-satisfiable", kbmod.sat_query(kb, **overrides), _satisfiable_row
        audits = kbmod.audit_queries(kb, **overrides)
        for party in sorted(audits):
            yield f"{case}-audit-{party}", audits[party], _audit_row


def _satisfiable_row(name: str, q: Query) -> SuiteRow:
    budget = _Budget(q.budget)  # the row's one budget, for both checks
    v = check(q, budget)
    if not isinstance(v, Satisfiable):
        return SuiteRow(name, False, f"expected satisfiable, got:\n{render_verdict(v)}", v.kind)
    # a one-world model is easy; also insist on a three-world one
    try:
        bigger = solve_at(q, 3, budget)
    except BudgetExceeded:
        return SuiteRow(name, False, "Unknown reason=budget-exhausted", "unknown")
    if bigger is None:
        return SuiteRow(name, False, "satisfiable but no 3-world model exists", v.kind)
    return SuiteRow(name, True, f"model worlds={v.model.n}, exact 3-world model found", v.kind)


def _audit_row(name: str, q: Query) -> SuiteRow:
    v = check(q)
    if isinstance(v, Countermodel):
        return SuiteRow(name, True, f"no forced conflict, countermodel worlds={v.model.n}",
                        v.kind)
    return SuiteRow(name, False, f"conflict implied:\n{render_verdict(v)}", v.kind)


def cases_suite(*, engine: str = "sat", bound: int = DEFAULT_BOUND, seed: int = 0,
                budget: float | None = None) -> list[SuiteRow]:
    kbs = {case: kbmod.case_kb(case) for case in CASE_NAMES}
    rows = [row(name, q) for name, q, row in _case_queries(kbs, bound=bound, engine=engine,
                                                           budget=budget)]
    steps = kbmod.load_proof(kbmod.case_proof_path("pierson"), kbs["pierson"].sig)
    results = kbmod.replay(steps, kbs["pierson"], engine=engine, budget=budget)
    bad = [r for r in results if not r.passed]
    detail = (f"step {bad[0].name} failed:\n{render_verdict(bad[0].verdict)}" if bad
              else f"{len(results)} steps, each from its cited support")
    kind = "unknown" if any(r.verdict.kind == "unknown" for r in results) else ""
    return rows + [SuiteRow("pierson-replay", not bad, detail, kind)]


# ---------------------------------------------------------------------------
# running and rendering


_SUITES = {"meta": meta_suite, "values": values_suite, "cases": cases_suite}


def format_suite(name: str, rows: list[SuiteRow], *, engine: str, bound: int,
                 seed: int) -> str:
    width = max(len(r.name) for r in rows)
    out = [f"suite {name}: engine={engine} bound={bound} seed={seed}"]
    for r in rows:
        first, *rest = r.detail.split("\n")
        out.append(f"{'PASS' if r.ok else 'FAIL'} {r.name:<{width}}  {first}")
        out.extend(f"     {line}" for line in rest)
    passed = sum(r.ok for r in rows)
    out.append(f"{name}: {passed}/{len(rows)} rows passed")
    return "\n".join(out)


def run_suite(name: str, *, engine: str = "sat", bound: int = DEFAULT_BOUND,
              seed: int = 0, budget: float | None = None) -> tuple[str, int]:
    """Run one suite; returns (rendered table, exit code)."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; pick from {', '.join(SUITE_NAMES)}")
    rows = _SUITES[name](engine=engine, bound=bound, seed=seed, budget=budget)
    text = format_suite(name, rows, engine=engine, bound=bound, seed=seed)
    if any(r.kind == "unknown" for r in rows):
        code = 2  # a budget ran out; the table says where
    elif all(r.ok for r in rows):
        code = 0
    else:
        code = 1
    return text, code


def suite_queries() -> list[tuple[str, Query]]:
    """Every solver query the suites issue, for engine cross-checking."""
    out = [(name, q) for group in _QUERY_ROWS
           for name, q, _ in _query_rows(group, engine="sat", bound=DEFAULT_BOUND, budget=None)]
    kbs = {case: kbmod.case_kb(case) for case in CASE_NAMES}
    out += [(name, q) for name, q, _ in _case_queries(kbs)]
    steps = kbmod.load_proof(kbmod.case_proof_path("pierson"), kbs["pierson"].sig)
    out += [(f"pierson-step-{name}", q) for name, q in kbmod.step_queries(steps, kbs["pierson"])]
    return out


def random_queries(seed: int, count: int, *, bound: int = 3) -> list[Query]:
    """Small random queries inside the enumeration oracle's domain.

    Formulas are drawn over two ground atoms and one value symbol so both
    engines can decide every query; shapes cover the full connective set
    including guarded diamonds and the sugared preference forms.
    """
    rng = random.Random(seed)
    leaves = (sx.Atom("P"), sx.Atom("Q"), sx.ValAtom(*ALL_VALUE_SYMBOLS[0]))

    def gen(depth: int) -> sx.Formula:
        if depth <= 0 or rng.random() < 0.3:
            return rng.choice(leaves)
        shape = rng.randrange(12)
        if shape < 9:
            cls = (sx.Not, sx.And, sx.Or, sx.Implies, sx.Iff,
                   sx.DiaWeak, sx.BoxWeak, sx.DiaStrict, sx.BoxStrict)[shape]
            if cls in (sx.And, sx.Or):
                return cls((gen(depth - 1), gen(depth - 1)))
            if cls in (sx.Implies, sx.Iff):
                return cls(gen(depth - 1), gen(depth - 1))
            return cls(gen(depth - 1))
        if shape == 9:
            return sx.Somewhere(gen(depth - 1)) if rng.randrange(2) \
                else sx.Everywhere(gen(depth - 1))
        if shape == 10:
            guard = rng.choice(leaves)
            body = gen(depth - 1)
            return sx.CpDiaStrict((guard,), body) if rng.randrange(2) \
                else sx.CpDiaWeak((guard,), body)
        pat = rng.choice(("ee", "ea", "ae", "aa"))
        if rng.randrange(2):
            return sx.SynPref(pat, bool(rng.randrange(2)), gen(depth - 1), gen(depth - 1))
        return sx.Cond(gen(depth - 1), gen(depth - 1))

    out: list[Query] = []
    for _ in range(count):
        target = gen(3)
        axioms = tuple(gen(2) for _ in range(rng.randrange(2)))
        facts = tuple(gen(2) for _ in range(rng.randrange(2)))
        mode = "refute" if rng.random() < 0.7 else "find"
        out.append(Query(axioms=axioms, facts=facts, target=target, mode=mode,
                         bound=bound, total=rng.random() < 0.2, engine="both"))
    return out
