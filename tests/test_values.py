"""Galois connection between worlds and value symbols, and the layers above."""
import random

import pytest

import prefsat.syntax as sx
from prefsat.model import Extension, PreferenceModel, all_preorders, eval_formula, globally_true
from prefsat.ontology import ALL_VALUE_SYMBOLS, PRINCIPLES, BasicValue, other, principle_symbols
from prefsat.values import (
    Concept,
    aggregate1,
    aggregate2,
    aggregate_principles,
    concept_from_extent,
    concept_from_intent,
    concept_join,
    concept_meet,
    conflict_extension,
    down,
    is_concept,
    make_concept,
    principle_extension,
    up,
    vpref_holds,
)

F, U, S, E = BasicValue.FREEDOM, BasicValue.UTILITY, BasicValue.SECURITY, BasicValue.EQUALITY


def ctx(n, assignments):
    """Identity betterness; incidence covers all eight symbols, default empty."""
    incidence = {sym: 0 for sym in ALL_VALUE_SYMBOLS}
    incidence.update(assignments)
    return PreferenceModel(n, tuple(1 << w for w in range(n)), incidence=incidence)


def random_ctx(rng, n):
    return ctx(n, {sym: rng.randrange(1 << n) for sym in ALL_VALUE_SYMBOLS})


# ---------------------------------------------------------------------------
# ontology plumbing


def test_other_is_involutive():
    assert other("p") == "d" and other("d") == "p"
    with pytest.raises(ValueError, match="contender"):
        other("x")


def test_principle_symbols():
    assert principle_symbols("WILL", "p") == frozenset({(F, "p"), (U, "p")})
    assert principle_symbols("RELI", "d") == frozenset({(S, "d"), (E, "d")})
    # duplicate names denote the same commitments
    assert principle_symbols("WILL", "p") == principle_symbols("GAIN", "p")
    assert principle_symbols("RESP", "p") == principle_symbols("FAIR", "p")
    assert principle_symbols("STAB", "p") == principle_symbols("EFFI", "p")
    assert principle_symbols("RELI", "p") == principle_symbols("EQUI", "p")
    with pytest.raises(ValueError, match="principle"):
        principle_symbols("XX", "p")
    with pytest.raises(ValueError, match="contender"):
        principle_symbols("WILL", "q")


# ---------------------------------------------------------------------------
# derivation operators


def test_down_and_up_hand_case():
    m = ctx(3, {(F, "p"): 0b011, (U, "p"): 0b110, (S, "d"): 0b111})
    assert down(m, [(F, "p")]).bits == 0b011
    assert down(m, [(F, "p"), (U, "p")]).bits == 0b010
    assert down(m, []).is_full()
    assert up(m, Extension(0b010, 3)) == {(F, "p"), (U, "p"), (S, "d")}
    assert up(m, Extension.empty(3)) == set(ALL_VALUE_SYMBOLS)
    assert up(m, Extension.full(3)) == {(S, "d")}


def test_galois_adjunction_randomized():
    rng = random.Random(11)
    for _ in range(300):
        m = random_ctx(rng, rng.randint(1, 4))
        a = Extension(rng.randrange(1 << m.n), m.n)
        b = frozenset(s for s in ALL_VALUE_SYMBOLS if rng.random() < 0.4)
        # A <= down(B)  iff  B <= up(A)
        assert (a <= down(m, b)) == (b <= up(m, a))


def test_closure_operators_randomized():
    rng = random.Random(12)
    for _ in range(200):
        m = random_ctx(rng, rng.randint(1, 4))
        a = Extension(rng.randrange(1 << m.n), m.n)
        b = frozenset(s for s in ALL_VALUE_SYMBOLS if rng.random() < 0.4)
        ca = down(m, up(m, a))
        cb = up(m, down(m, b))
        assert a <= ca and b <= cb  # extensive
        assert down(m, up(m, ca)) == ca  # idempotent
        assert up(m, down(m, cb)) == cb
        # antitone in both directions: shrinking one side grows the other
        a2 = a & Extension(rng.randrange(1 << m.n), m.n)
        assert up(m, a) <= up(m, a2)
        assert down(m, b | {rng.choice(ALL_VALUE_SYMBOLS)}) <= down(m, b)


# ---------------------------------------------------------------------------
# concepts


def test_concept_construction_and_rejection():
    m = ctx(2, {(F, "p"): 0b01, (U, "p"): 0b11})
    c = concept_from_intent(m, [(F, "p")])
    assert c.extent.bits == 0b01 and c.intent == {(F, "p"), (U, "p")}
    assert is_concept(m, c.extent, c.intent)
    assert make_concept(m, c.extent, c.intent) == c
    with pytest.raises(ValueError, match="closed"):
        make_concept(m, Extension(0b01, 2), frozenset({(F, "p")}))
    d = concept_from_extent(m, Extension(0b10, 2))
    assert is_concept(m, d.extent, d.intent)


def test_meet_join_are_lattice_operations():
    rng = random.Random(13)
    for _ in range(150):
        m = random_ctx(rng, rng.randint(1, 4))
        c1 = concept_from_extent(m, Extension(rng.randrange(1 << m.n), m.n))
        c2 = concept_from_intent(m, [s for s in ALL_VALUE_SYMBOLS if rng.random() < 0.3])
        lo = concept_meet(m, c1, c2)
        hi = concept_join(m, c1, c2)
        for c in (lo, hi):
            assert is_concept(m, c.extent, c.intent)
        assert lo.extent <= c1.extent and lo.extent <= c2.extent
        assert c1.extent <= hi.extent and c2.extent <= hi.extent
        assert c1.intent & c2.intent == hi.intent
        # meet/join with itself is itself
        assert concept_meet(m, c1, c1) == c1
        assert concept_join(m, c2, c2) == c2


def test_meet_join_reject_non_concepts():
    m = ctx(2, {(F, "p"): 0b01})
    good = concept_from_intent(m, [(F, "p")])
    bad = Concept(Extension(0b11, 2), frozenset({(F, "p")}))
    with pytest.raises(ValueError, match="closed"):
        concept_meet(m, good, bad)
    with pytest.raises(ValueError, match="closed"):
        concept_join(m, bad, good)


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate2_contained_in_aggregate1():
    rng = random.Random(14)
    for _ in range(200):
        m = random_ctx(rng, rng.randint(1, 4))
        s1 = frozenset(s for s in ALL_VALUE_SYMBOLS if rng.random() < 0.4)
        s2 = frozenset(s for s in ALL_VALUE_SYMBOLS if rng.random() < 0.4)
        assert aggregate2(m, s1, s2) <= aggregate1(m, s1, s2)


def test_aggregate_containment_can_be_strict():
    # world 2 realizes only the shared symbol, so it satisfies the weaker
    # shared demand without realizing either full package
    m = ctx(3, {(F, "p"): 0b001, (U, "p"): 0b111, (S, "p"): 0b010})
    s1 = principle_symbols("WILL", "p")  # FREEDOM, UTILITY
    s2 = principle_symbols("STAB", "p")  # SECURITY, UTILITY
    assert aggregate1(m, s1, s2).bits == 0b111  # shared demand: UTILITY only
    assert aggregate2(m, s1, s2).bits == 0b011


def test_principle_and_conflict_extensions():
    m = ctx(2, {(F, "p"): 0b11, (U, "p"): 0b01, (S, "p"): 0b01, (E, "p"): 0b01})
    assert principle_extension(m, "WILL", "p").bits == 0b01
    assert principle_extension(m, "RESP", "p").bits == 0b01
    assert conflict_extension(m, "p").bits == 0b01
    assert conflict_extension(m, "d").is_empty()
    assert aggregate_principles(m, [("WILL", "p"), ("RELI", "p")]).bits == 0b01


def test_conflict_needs_all_four_values():
    for missing in BasicValue:
        m = ctx(1, {(v, "p"): 1 for v in BasicValue if v is not missing})
        assert conflict_extension(m, "p").is_empty()


# ---------------------------------------------------------------------------
# value preference


def test_vpref_holds_on_a_chain():
    incidence = {sym: 0 for sym in ALL_VALUE_SYMBOLS}
    incidence.update({(F, "p"): 0b001, (U, "p"): 0b001, (S, "d"): 0b100, (E, "d"): 0b100})
    m = PreferenceModel(3, (0b111, 0b110, 0b100), incidence=incidence)
    assert vpref_holds(m, False, [("WILL", "p")], [("RELI", "d")])
    assert vpref_holds(m, True, [("WILL", "p")], [("RELI", "d")])
    assert not vpref_holds(m, False, [("RELI", "d")], [("WILL", "p")])
    # weak self-preference always holds, strict never does on the top worlds
    assert vpref_holds(m, False, [("RELI", "d")], [("RELI", "d")])
    assert not vpref_holds(m, True, [("RELI", "d")], [("RELI", "d")])


def test_value_layer_matches_the_formulas_it_mirrors():
    """The set-level value layer and the desugared ext, agg, conflict and
    vpref formulas agree on sampled preorders and incidence maps."""
    rng = random.Random(20261018)
    preorders = [(n, rows) for n in (1, 2, 3) for rows in all_preorders(n)]
    principles = sorted(PRINCIPLES)

    def parts():
        return [(rng.choice(principles), rng.choice("pd")) for _ in range(rng.randint(1, 3))]

    def agg(pairs):
        return sx.Agg(tuple((principle, sx.Const(party)) for principle, party in pairs))

    for _ in range(400):
        n, rows = rng.choice(preorders)
        m = PreferenceModel(n, rows,
                            incidence={sym: rng.randrange(1 << n) for sym in ALL_VALUE_SYMBOLS})
        for party in ("p", "d"):
            conflict = sx.desugar(sx.Conflict(sx.Const(party)))
            assert conflict_extension(m, party) == eval_formula(m, conflict)
            principle = rng.choice(principles)
            ext = sx.desugar(sx.PrincipleExt(principle, sx.Const(party)))
            assert principle_extension(m, principle, party) == eval_formula(m, ext)
        lhs, rhs = parts(), parts()
        assert aggregate_principles(m, lhs) == eval_formula(m, sx.desugar(agg(lhs)))
        for strict in (False, True):
            vpref = sx.desugar(sx.VPref(strict, agg(lhs), agg(rhs)))
            assert vpref_holds(m, strict, lhs, rhs) == globally_true(m, vpref), (m.leq, lhs, rhs)
