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

import random
from dataclasses import dataclass, replace

from . import kb as kbmod
from . import syntax as sx
from .lifts import best_worlds, cp_lift_aa, halpern_more_likely, sem_lift
from .model import (
    Extension,
    PreferenceModel,
    all_preorders,
    eval_formula,
    is_total,
    render_text,
    truth_at,
)
from .ontology import ALL_VALUE_SYMBOLS
from .solver import (
    DEFAULT_BOUND,
    Countermodel,
    Query,
    Satisfiable,
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


@dataclass
class SuiteRow:
    name: str
    ok: bool
    detail: str
    kind: str = ""  # verdict kind for query rows, "" for direct checks


def _run_query_row(name: str, q: Query, expect: str, rows: list[SuiteRow]):
    v = check(q)
    if v.kind == expect:
        if isinstance(v, (Countermodel, Satisfiable)):
            detail = f"{v.kind} worlds={v.model.n}"
        else:
            detail = render_verdict(v)
        rows.append(SuiteRow(name, True, detail, v.kind))
    else:
        detail = f"expected {expect}, got:\n{render_verdict(v)}"
        rows.append(SuiteRow(name, False, detail, v.kind))


# ---------------------------------------------------------------------------
# meta suite


def _meta_query_rows(*, engine: str, bound: int, budget: float | None):
    P, Q = sx.Atom("P"), sx.Atom("Q")

    def vq(f: sx.Formula, b: int | None = None, mode: str = "refute") -> Query:
        return Query(target=sx.desugar(f), mode=mode, bound=b if b else bound,
                     engine=engine, budget=budget)

    return [
        ("dual-dia-weak",
         vq(sx.Iff(sx.DiaWeak(P), sx.Not(sx.BoxWeak(sx.Not(P))))), "bounded-valid"),
        ("dual-dia-strict",
         vq(sx.Iff(sx.DiaStrict(P), sx.Not(sx.BoxStrict(sx.Not(P))))), "bounded-valid"),
        ("dual-global",
         vq(sx.Iff(sx.Somewhere(P), sx.Not(sx.Everywhere(sx.Not(P))))), "bounded-valid"),
        ("axiom-t-weak", vq(sx.Implies(sx.BoxWeak(P), P)), "bounded-valid"),
        ("axiom-4-weak",
         vq(sx.Implies(sx.BoxWeak(P), sx.BoxWeak(sx.BoxWeak(P)))), "bounded-valid"),
        ("axiom-4-strict",
         vq(sx.Implies(sx.BoxStrict(P), sx.BoxStrict(sx.BoxStrict(P)))), "bounded-valid"),
        ("inclusion-strict-weak",
         vq(sx.Implies(sx.DiaStrict(P), sx.DiaWeak(P))), "bounded-valid"),
        # reflexivity is deliberately absent from strict betterness
        ("axiom-t-strict-fails", vq(sx.Implies(sx.BoxStrict(P), P), b=1), "countermodel"),
        ("cp-empty-weak",
         vq(sx.Iff(sx.CpDiaWeak((), P), sx.DiaWeak(P))), "bounded-valid"),
        ("cp-empty-strict",
         vq(sx.Iff(sx.CpDiaStrict((), P), sx.DiaStrict(P))), "bounded-valid"),
        ("cp-guarded-implies-base",
         vq(sx.Implies(sx.CpDiaWeak((Q,), P), sx.DiaWeak(P))), "bounded-valid"),
    ]


def _enum_models(max_n: int = 3):
    """Every preorder up to max_n worlds with every valuation of P and Q."""
    pk, qk = ("P", ()), ("Q", ())
    for n in range(1, max_n + 1):
        for rows in all_preorders(n):
            for pm in range(1 << n):
                for qm in range(1 << n):
                    yield PreferenceModel(n, rows, {pk: pm, qk: qm}, {})


def _preorder_count_row() -> SuiteRow:
    counts = tuple(len(all_preorders(n)) for n in (1, 2, 3))
    ok = counts == (1, 4, 29)
    return SuiteRow("preorder-enumeration", ok, f"counts up to 3 worlds: {counts}")


def _semsyn_agree_row(name: str, patterns, total_only: bool) -> SuiteRow:
    P, Q = sx.Atom("P"), sx.Atom("Q")
    syn = {(pat, st): sx.desugar(sx.SynPref(pat, st, P, Q))
           for pat in patterns for st in (False, True)}
    checked = 0
    for m in _enum_models():
        if total_only and not is_total(m):
            continue
        a, b = eval_formula(m, P), eval_formula(m, Q)
        for (pat, st), f in syn.items():
            if sem_lift(m, pat, st, a, b) != truth_at(m, f, 0):
                which = f"{pat}-{'strict' if st else 'weak'}"
                return SuiteRow(name, False,
                                f"set/formula mismatch for {which}:\n{render_text(m)}")
            checked += 1
    scope = "total preorders" if total_only else "preorders"
    return SuiteRow(name, True, f"{checked} instances over all {scope} up to 3 worlds")


def _semsyn_witness_row() -> SuiteRow:
    P, Q = sx.Atom("P"), sx.Atom("Q")
    syn = {(pat, st): sx.desugar(sx.SynPref(pat, st, P, Q))
           for pat in ("ea", "aa") for st in (False, True)}
    found: dict[tuple[str, bool], int] = {}
    for m in _enum_models():
        if is_total(m):
            continue
        a, b = eval_formula(m, P), eval_formula(m, Q)
        for key, f in syn.items():
            if key not in found and sem_lift(m, key[0], key[1], a, b) != truth_at(m, f, 0):
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
    guarded = {st: (sx.CpDiaStrict((), P) if st else sx.CpDiaWeak((), P)) for st in (0, 1)}
    base = {0: sx.DiaWeak(P), 1: sx.DiaStrict(P)}
    checked = 0
    for m in _enum_models():
        a, b = eval_formula(m, P), eval_formula(m, Q)
        for st in (False, True):
            if cp_lift_aa(m, [], st, a, b) != sem_lift(m, "aa", st, a, b):
                return SuiteRow("cp-empty-collapse", False,
                                f"guarded all-all differs from plain:\n{render_text(m)}")
            if eval_formula(m, guarded[st]) != eval_formula(m, base[st]):
                return SuiteRow("cp-empty-collapse", False,
                                f"guarded diamond differs from plain:\n{render_text(m)}")
            checked += 2
    return SuiteRow("cp-empty-collapse", True,
                    f"{checked} instances over all preorders up to 3 worlds")


def _cond_triangle_row() -> SuiteRow:
    P, Q = sx.Atom("P"), sx.Atom("Q")
    cond = sx.desugar(sx.Cond(P, Q))
    both = sx.And((P, Q))
    only = sx.And((P, sx.Not(Q)))
    checked = 0
    for m in _enum_models():
        c1 = truth_at(m, cond, 0)
        c2 = best_worlds(m, eval_formula(m, P)) <= eval_formula(m, Q)
        c3 = halpern_more_likely(m, eval_formula(m, only), eval_formula(m, both))
        if not (c1 == c2 == c3):
            return SuiteRow("conditional-triangle", False,
                            f"readings split ({c1}/{c2}/{c3}):\n{render_text(m)}")
        checked += 1
    return SuiteRow("conditional-triangle", True,
                    f"{checked} models, all three readings agree")


def meta_suite(*, engine: str = "sat", bound: int = DEFAULT_BOUND, seed: int = 0,
               budget: float | None = None) -> list[SuiteRow]:
    rows: list[SuiteRow] = []
    for name, q, expect in _meta_query_rows(engine=engine, bound=bound, budget=budget):
        _run_query_row(name, q, expect, rows)
    rows.append(_preorder_count_row())
    rows.append(_semsyn_agree_row("lift-ee-ae-agree", ("ee", "ae"), total_only=False))
    rows.append(_semsyn_agree_row("lift-ea-aa-total-agree", ("ea", "aa"), total_only=True))
    rows.append(_semsyn_witness_row())
    rows.append(_cp_collapse_row())
    rows.append(_cond_triangle_row())
    return rows


# ---------------------------------------------------------------------------
# values suite


def _agg_query_rows(*, engine: str, bound: int, budget: float | None):
    P, Q, R = sx.Atom("P"), sx.Atom("Q"), sx.Atom("R")

    def lift(x: sx.Formula, y: sx.Formula) -> sx.Formula:
        return sx.SynPref("ae", True, x, y)

    def vq(f: sx.Formula, b: int) -> Query:
        return Query(target=sx.desugar(f), mode="refute", bound=b,
                     engine=engine, budget=budget)

    return [
        ("agg-right",
         vq(sx.Implies(lift(P, Q), lift(P, sx.Or((Q, R)))), bound), "bounded-valid"),
        ("agg-left",
         vq(sx.Implies(lift(sx.Or((P, R)), Q), lift(P, Q)), bound), "bounded-valid"),
        ("agg-union",
         vq(sx.Implies(sx.And((lift(Q, P), lift(R, P))), lift(sx.Or((Q, R)), P)), bound),
         "bounded-valid"),
        # both converses fail on small models
        ("agg-right-converse",
         vq(sx.Implies(lift(P, sx.Or((Q, R))), lift(P, Q)), 3), "countermodel"),
        ("agg-left-converse",
         vq(sx.Implies(lift(P, Q), lift(sx.Or((P, R)), Q)), 3), "countermodel"),
    ]


def _conflict_query_rows(*, engine: str, bound: int, budget: float | None):
    p, d = sx.Const("p"), sx.Const("d")
    conflict_p = sx.Conflict(p)

    def pe(principle: str, party: sx.Const) -> sx.Formula:
        return sx.PrincipleExt(principle, party)

    def q(f: sx.Formula, b: int, mode: str = "refute") -> Query:
        return Query(target=sx.desugar(f), mode=mode, bound=b,
                     engine=engine, budget=budget)

    return [
        ("conflict-resp-stab",
         q(sx.Implies(sx.And((pe("RESP", p), pe("STAB", p))), conflict_p), bound),
         "bounded-valid"),
        ("conflict-reli-will",
         q(sx.Implies(sx.And((pe("RELI", p), pe("WILL", p))), conflict_p), bound),
         "bounded-valid"),
        ("conflict-will-stab-open",
         q(sx.Implies(sx.And((pe("WILL", p), pe("STAB", p))), conflict_p), 2),
         "countermodel"),
        ("conflict-cross-party-open",
         q(sx.Implies(sx.And((pe("RESP", p), pe("STAB", d))), conflict_p), 2),
         "countermodel"),
        ("conflict-contingent-sat", q(conflict_p, 2, mode="find"), "satisfiable"),
        ("conflict-contingent-open", q(conflict_p, 2), "countermodel"),
        ("conflict-with-fresh-atom",
         q(sx.And((conflict_p, sx.Not(sx.Atom("A")))), 2, mode="find"), "satisfiable"),
    ]


def _galois_rows(seed: int, count: int = 500) -> list[SuiteRow]:
    """Derivation-operator laws on random incidence contexts.

    Each row draws its own stream of `count` contexts (1..4 worlds, the eight
    value symbols, random incidence) and samples a few set pairs per context.
    """

    def rand_ext(rng: random.Random, m: PreferenceModel) -> Extension:
        return Extension(rng.randrange(1 << m.n), m.n)

    def rand_syms(rng: random.Random) -> frozenset:
        return frozenset(s for s in ALL_VALUE_SYMBOLS if rng.randrange(2))

    def adjunction(rng, m):
        a, b = rand_ext(rng, m), rand_syms(rng)
        return (b <= up(m, a)) == (a <= down(m, b))

    def closure(rng, m):
        d1 = down(m, rand_syms(rng))
        return down(m, up(m, d1)) == d1

    def antitone(rng, m):
        a2 = rand_ext(rng, m)
        a1 = Extension(a2.bits & rng.randrange(1 << m.n), m.n)
        b2 = rand_syms(rng)
        b1 = b2 & rand_syms(rng)
        return up(m, a2) <= up(m, a1) and down(m, b2) <= down(m, b1)

    def meet_join(rng, m):
        c1 = concept_from_intent(m, rand_syms(rng))
        c2 = concept_from_intent(m, rand_syms(rng))
        meet = concept_meet(m, c1, c2)
        join = concept_join(m, c1, c2)
        return (is_concept(m, meet.extent, meet.intent)
                and is_concept(m, join.extent, join.intent)
                and meet.extent == Extension(c1.extent.bits & c2.extent.bits, m.n)
                and join.intent == (c1.intent & c2.intent))

    def aggregation(rng, m):
        s1, s2 = rand_syms(rng), rand_syms(rng)
        return aggregate2(m, s1, s2) <= aggregate1(m, s1, s2)

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
        for _ in range(count):
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
        rows.append(SuiteRow(name, ok, f"{inst} instances on {count} random contexts" if ok
                             else failure))
    return rows


def values_suite(*, engine: str = "sat", bound: int = DEFAULT_BOUND, seed: int = 0,
                 budget: float | None = None) -> list[SuiteRow]:
    rows: list[SuiteRow] = []
    for name, q, expect in _agg_query_rows(engine=engine, bound=bound, budget=budget):
        _run_query_row(name, q, expect, rows)
    rows.extend(_galois_rows(seed))
    for name, q, expect in _conflict_query_rows(engine=engine, bound=bound, budget=budget):
        _run_query_row(name, q, expect, rows)
    return rows


# ---------------------------------------------------------------------------
# cases suite


CASE_NAMES = ("pierson", "post", "conti")


def cases_suite(*, engine: str = "sat", bound: int = DEFAULT_BOUND, seed: int = 0,
                budget: float | None = None) -> list[SuiteRow]:
    rows: list[SuiteRow] = []
    for case in CASE_NAMES:
        kb = kbmod.case_kb(case)
        for goal_name in sorted(kb.goals):
            q = kbmod.goal_query(kb, goal_name, bound=bound, engine=engine, budget=budget)
            _run_query_row(f"{case}-{goal_name}", q, "bounded-valid", rows)

        sq = kbmod.sat_query(kb, bound=bound, engine=engine, budget=budget)
        v = check(sq)
        if isinstance(v, Satisfiable):
            # a one-world model is easy; also insist on a three-world one
            bigger = solve_at(replace(sq, engine="sat", bound=DEFAULT_BOUND), 3)
            ok = bigger is not None
            detail = (f"model worlds={v.model.n}, exact 3-world model found" if ok
                      else "satisfiable but no 3-world model exists")
            rows.append(SuiteRow(f"{case}-satisfiable", ok, detail, v.kind))
        else:
            rows.append(SuiteRow(f"{case}-satisfiable", False,
                                 f"expected satisfiable, got:\n{render_verdict(v)}", v.kind))

        audit = kbmod.conflict_audit(kb, bound=bound, engine=engine, budget=budget)
        for party in sorted(audit):
            av = audit[party]
            if isinstance(av, Countermodel):
                rows.append(SuiteRow(f"{case}-audit-{party}", True,
                                     f"no forced conflict, countermodel worlds={av.model.n}",
                                     av.kind))
            else:
                rows.append(SuiteRow(f"{case}-audit-{party}", False,
                                     f"conflict implied:\n{render_verdict(av)}", av.kind))

    kb = kbmod.case_kb("pierson")
    steps = kbmod.load_proof(kbmod.case_proof_path("pierson"), kb.sig)
    results = kbmod.replay(steps, kb, engine=engine, budget=budget)
    bad = [r for r in results if not r.passed]
    if not bad:
        rows.append(SuiteRow("pierson-replay", True,
                             f"{len(results)} steps, each from its cited support"))
    else:
        first = bad[0]
        rows.append(SuiteRow("pierson-replay", False,
                             f"step {first.name} failed:\n{render_verdict(first.verdict)}"))
    return rows


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


def suite_queries(*, bound: int = DEFAULT_BOUND) -> list[tuple[str, Query]]:
    """Every solver query the suites issue, for engine cross-checking."""
    out: list[tuple[str, Query]] = []
    for rows in (_meta_query_rows, _agg_query_rows, _conflict_query_rows):
        out += [(name, q) for name, q, _ in rows(engine="sat", bound=bound, budget=None)]
    for case in CASE_NAMES:
        kb = kbmod.case_kb(case)
        for goal_name in sorted(kb.goals):
            out.append((f"{case}-{goal_name}", kbmod.goal_query(kb, goal_name)))
        out.append((f"{case}-sat", kbmod.sat_query(kb)))
        for party, q in kbmod.audit_queries(kb).items():
            out.append((f"{case}-audit-{party}", q))
    kb = kbmod.case_kb("pierson")
    steps = kbmod.load_proof(kbmod.case_proof_path("pierson"), kb.sig)
    for name, q in kbmod.step_queries(steps, kb):
        out.append((f"pierson-step-{name}", q))
    return out


def random_queries(seed: int, count: int, *, bound: int = 3,
                   engine: str = "both") -> list[Query]:
    """Small random queries inside the enumeration oracle's domain.

    Formulas are drawn over two ground atoms and one value symbol so both
    engines can decide every query; shapes cover the full connective set
    including guarded diamonds and the sugared preference forms.
    """
    rng = random.Random(seed)
    leaves = (sx.Atom("P"), sx.Atom("Q"),
              sx.ValAtom(ALL_VALUE_SYMBOLS[0][0], sx.Const(ALL_VALUE_SYMBOLS[0][1])))

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
        target = sx.desugar(gen(3))
        axioms = tuple(sx.desugar(gen(2)) for _ in range(rng.randrange(2)))
        facts = tuple(sx.desugar(gen(2)) for _ in range(rng.randrange(2)))
        mode = "refute" if rng.random() < 0.7 else "find"
        out.append(Query(axioms=axioms, facts=facts, target=target, mode=mode,
                         bound=bound, total=rng.random() < 0.2, engine=engine))
    return out
