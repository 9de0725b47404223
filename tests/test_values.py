"""Galois connection between worlds and value symbols, and the layers above."""
import random
from dataclasses import FrozenInstanceError

import pytest

import prefsat.syntax as sx
from prefsat.kb import case_kb, sat_query
from prefsat.lifts import sem_lift
from prefsat.model import ModelError, PreferenceModel, all_preorders, eval_formula, globally_true
from prefsat.ontology import (
    ALL_VALUE_SYMBOLS,
    BASIC_VALUES,
    CONTENDERS,
    PRINCIPLES,
    BasicValue,
    ValueSymbol,
    other,
)
from prefsat.solver import Satisfiable, check
from prefsat.values import (
    Concept,
    aggregate1,
    aggregate2,
    concept_from_intent,
    concept_join,
    concept_meet,
    down,
    is_concept,
    up,
)

# ---------------------------------------------------------------------------
# set-level reference implementations of the value layer's formulas; the
# parser expands ext, agg, vpref and conflict into the modal core instead


def principle_symbols(principle: str, party: str) -> frozenset[ValueSymbol]:
    """The two value symbols a principle commits a party to."""
    try:
        v1, v2 = PRINCIPLES[principle]
    except KeyError:
        raise ValueError(f"unknown principle: {principle!r}") from None
    if party not in CONTENDERS:
        raise ValueError(f"not a contender: {party!r}")
    return frozenset(((v1, party), (v2, party)))


def principle_extension(m: PreferenceModel, principle: str, party: str) -> int:
    return down(m, principle_symbols(principle, party))


def aggregate_principles(m: PreferenceModel, parts) -> int:
    """The extension the value layer assigns to a list of (principle, party)
    pairs: union of the individual principle extensions."""
    bits = 0
    for principle, party in parts:
        bits |= principle_extension(m, principle, party)
    return bits


def vpref_holds(m: PreferenceModel, strict: bool, lhs_parts, rhs_parts) -> bool:
    """Value preference between two aggregations: every world realizing the
    left package sees a (strictly) better world realizing the right one."""
    a = aggregate_principles(m, lhs_parts)
    b = aggregate_principles(m, rhs_parts)
    return sem_lift(m, "ae", strict, a, b)


def conflict_extension(m: PreferenceModel, party: str) -> int:
    """Worlds where all four basic values are observed for the party."""
    return down(m, [(v, party) for v in BASIC_VALUES])


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


def is_plain(symbols) -> bool:
    """Every symbol is a (value name, party name) pair of plain strs."""
    return all(type(sym) is tuple and len(sym) == 2 and all(type(x) is str for x in sym)
               for sym in symbols)


def test_a_value_symbol_is_plain_data():
    # a basic value is its name, so a value symbol is keyed like an atom
    assert BasicValue.FREEDOM == "FREEDOM" and type(BasicValue.FREEDOM) is str
    assert len(ALL_VALUE_SYMBOLS) == 8 and is_plain(ALL_VALUE_SYMBOLS)
    for name in ("general", "pierson", "post", "conti"):
        kb = case_kb(name)
        _, incidence = sx.collect_symbols([*kb.axioms.values(), *kb.facts.values(),
                                           *kb.goals.values()])
        q = sat_query(kb, bound=2)
        v = check(q)
        assert isinstance(v, Satisfiable), name
        for symbols in (incidence, q.symbols[1], v.model.incidence):
            assert symbols and is_plain(symbols), name


def test_value_forms_print_and_parse_back():
    sig = sx.Signature()
    texts = [f"(val {value} {x})" for value in BASIC_VALUES for x in CONTENDERS]
    texts += [f"(ext {principle} {x})" for principle in PRINCIPLES for x in CONTENDERS]
    texts += [f"(conflict {x})" for x in CONTENDERS]
    for text in texts:
        f = sx.parse_formula(text, sig)
        assert sx.parse_formula(sx.format_formula(f), sig) == f, text
    assert sx.format_formula(sx.ValAtom(BasicValue.FREEDOM, "p")) == "(val FREEDOM p)"


# ---------------------------------------------------------------------------
# derivation operators


def test_down_and_up_hand_case():
    m = ctx(3, {(F, "p"): 0b011, (U, "p"): 0b110, (S, "d"): 0b111})
    assert down(m, [(F, "p")]) == 0b011
    assert down(m, [(F, "p"), (U, "p")]) == 0b010
    assert down(m, []) == m.full_mask
    assert up(m, 0b010) == {(F, "p"), (U, "p"), (S, "d")}
    assert up(m, 0) == set(ALL_VALUE_SYMBOLS)
    assert up(m, 0b111) == {(S, "d")}
    # a symbol the model does not interpret is an error, not the empty set;
    # down reads the incidence map, so the model builds no evaluator frame
    with pytest.raises(ModelError, match="not interpreted"):
        down(PreferenceModel(1, (1,)), [(F, "p")])
    assert "frame" not in vars(m)


def test_galois_adjunction_randomized():
    rng = random.Random(11)
    for _ in range(300):
        m = random_ctx(rng, rng.randint(1, 4))
        a = rng.randrange(1 << m.n)
        b = frozenset(s for s in ALL_VALUE_SYMBOLS if rng.random() < 0.4)
        # A <= down(B)  iff  B <= up(A)
        assert (not a & ~down(m, b)) == (b <= up(m, a))


def test_closure_operators_randomized():
    rng = random.Random(12)
    for _ in range(200):
        m = random_ctx(rng, rng.randint(1, 4))
        a = rng.randrange(1 << m.n)
        b = frozenset(s for s in ALL_VALUE_SYMBOLS if rng.random() < 0.4)
        ca = down(m, up(m, a))
        cb = up(m, down(m, b))
        assert not a & ~ca and b <= cb  # extensive
        assert down(m, up(m, ca)) == ca  # idempotent
        assert up(m, down(m, cb)) == cb
        # antitone in both directions: shrinking one side grows the other
        a2 = a & rng.randrange(1 << m.n)
        assert up(m, a) <= up(m, a2)
        assert not down(m, b | {rng.choice(ALL_VALUE_SYMBOLS)}) & ~down(m, b)


# ---------------------------------------------------------------------------
# concepts


def test_concept_construction_and_rejection():
    m = ctx(2, {(F, "p"): 0b01, (U, "p"): 0b11})
    c = concept_from_intent(m, [(F, "p")])
    assert c.extent == 0b01 and c.intent == {(F, "p"), (U, "p")}
    assert is_concept(m, c.extent, c.intent)
    assert not is_concept(m, 0b01, frozenset({(F, "p")}))
    intent = up(m, 0b10)
    d = Concept(down(m, intent), intent)
    assert d.extent == 0b11 and is_concept(m, d.extent, d.intent)
    with pytest.raises(FrozenInstanceError):
        d.extent = 0


def test_meet_join_are_lattice_operations():
    rng = random.Random(13)
    for _ in range(150):
        m = random_ctx(rng, rng.randint(1, 4))
        c1 = concept_from_intent(m, up(m, rng.randrange(1 << m.n)))
        c2 = concept_from_intent(m, [s for s in ALL_VALUE_SYMBOLS if rng.random() < 0.3])
        lo = concept_meet(m, c1, c2)
        hi = concept_join(m, c1, c2)
        for c in (lo, hi):
            assert is_concept(m, c.extent, c.intent)
        assert not lo.extent & ~c1.extent and not lo.extent & ~c2.extent
        assert not c1.extent & ~hi.extent and not c2.extent & ~hi.extent
        assert c1.intent & c2.intent == hi.intent
        # meet/join with itself is itself
        assert concept_meet(m, c1, c1) == c1
        assert concept_join(m, c2, c2) == c2


def test_meet_join_reject_non_concepts():
    m = ctx(2, {(F, "p"): 0b01})
    good = concept_from_intent(m, [(F, "p")])
    bad = Concept(0b11, frozenset({(F, "p")}))
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
        assert not aggregate2(m, s1, s2) & ~aggregate1(m, s1, s2)


def test_aggregate_containment_can_be_strict():
    # world 2 realizes only the shared symbol, so it satisfies the weaker
    # shared demand without realizing either full package
    m = ctx(3, {(F, "p"): 0b001, (U, "p"): 0b111, (S, "p"): 0b010})
    s1 = principle_symbols("WILL", "p")  # FREEDOM, UTILITY
    s2 = principle_symbols("STAB", "p")  # SECURITY, UTILITY
    assert aggregate1(m, s1, s2) == 0b111  # shared demand: UTILITY only
    assert aggregate2(m, s1, s2) == 0b011


def test_principle_and_conflict_extensions():
    m = ctx(2, {(F, "p"): 0b11, (U, "p"): 0b01, (S, "p"): 0b01, (E, "p"): 0b01})
    assert principle_extension(m, "WILL", "p") == 0b01
    assert principle_extension(m, "RESP", "p") == 0b01
    assert conflict_extension(m, "p") == 0b01
    assert conflict_extension(m, "d") == 0
    assert aggregate_principles(m, [("WILL", "p"), ("RELI", "p")]) == 0b01


def test_conflict_needs_all_four_values():
    for missing in BASIC_VALUES:
        m = ctx(1, {(v, "p"): 1 for v in BASIC_VALUES if v != missing})
        assert conflict_extension(m, "p") == 0


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
    """The set-level value layer and the parsed ext, agg, conflict and vpref
    formulas agree on sampled preorders and incidence maps."""
    rng = random.Random(20261018)
    preorders = [(n, rows) for n in (1, 2, 3) for rows in all_preorders(n)]
    principles = sorted(PRINCIPLES)
    sig = sx.Signature()

    def parts():
        return [(rng.choice(principles), rng.choice("pd")) for _ in range(rng.randint(1, 3))]

    def agg(pairs):
        return "(agg " + " ".join(f"({principle} {party})" for principle, party in pairs) + ")"

    for _ in range(400):
        n, rows = rng.choice(preorders)
        m = PreferenceModel(n, rows,
                            incidence={sym: rng.randrange(1 << n) for sym in ALL_VALUE_SYMBOLS})
        for party in ("p", "d"):
            conflict = sx.parse_formula(f"(conflict {party})", sig)
            assert conflict_extension(m, party) == eval_formula(m, conflict)
            principle = rng.choice(principles)
            ext = sx.parse_formula(f"(ext {principle} {party})", sig)
            assert principle_extension(m, principle, party) == eval_formula(m, ext)
        lhs, rhs = parts(), parts()
        assert aggregate_principles(m, lhs) == eval_formula(m, sx.parse_formula(agg(lhs), sig))
        for strict in ("weak", "strict"):
            vpref = sx.parse_formula(f"(vpref {strict} {agg(lhs)} {agg(rhs)})", sig)
            assert vpref_holds(m, strict == "strict", lhs, rhs) == globally_true(m, vpref), \
                (m.leq, lhs, rhs)
