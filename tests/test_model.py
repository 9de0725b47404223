"""Finite models: validation, bitmask evaluation, rendering, enumeration."""
from itertools import product

import pytest

import prefsat.syntax as sx
from prefsat.model import (
    Extension,
    ModelError,
    PreferenceModel,
    SlicedModel,
    all_preorders,
    eval_formula,
    eval_sliced,
    from_edges,
    globally_true,
    is_total,
    render_dot,
    render_text,
    truth_at,
    validate_model,
    valuation_at,
    valuation_slices,
)
from prefsat.ontology import ALL_VALUE_SYMBOLS, BasicValue


def chain3():
    # w0 <= w1 <= w2 (w2 best), P true at the top, Q below
    return from_edges(
        3, [(0, 1), (1, 2)],
        valuation={"P": 0b100, "Q": 0b011},
    )


# ---------------------------------------------------------------------------
# extensions


def test_extension_set_algebra():
    a = Extension.of([0, 2], 3)
    b = Extension.of([1, 2], 3)
    assert (a & b).bits == 0b100
    assert (a | b).bits == 0b111
    assert (~a).bits == 0b010
    assert list(a) == [0, 2]
    assert len(a) == 2 and 2 in a and 1 not in a
    assert a <= (a | b)
    assert not (a | b) <= a
    assert Extension.empty(3).is_empty() and Extension.full(3).is_full()


def test_extension_width_checks():
    with pytest.raises(ModelError, match="width"):
        Extension(0b1000, 3)
    with pytest.raises(ModelError, match="width mismatch"):
        Extension.of([0], 2) & Extension.of([0], 3)
    with pytest.raises(ModelError, match="outside"):
        Extension.of([5], 3)
    with pytest.raises(ModelError):
        Extension(0, 0)


# ---------------------------------------------------------------------------
# model construction and validation


def test_from_edges_closes_reflexive_transitive():
    m = chain3()
    assert m.leq == (0b111, 0b110, 0b100)
    validate_model(m)


def test_strict_rows_drop_ties():
    m = chain3()
    assert m.lt == (0b110, 0b100, 0b000)
    tie = from_edges(2, [(0, 1), (1, 0)])
    assert tie.lt == (0, 0)
    assert is_total(tie)
    assert not is_total(from_edges(2, []))


def test_validate_rejects_broken_relations():
    with pytest.raises(ModelError, match="reflexive"):
        validate_model(PreferenceModel(2, (0b01, 0b01)))
    with pytest.raises(ModelError, match="transitive"):
        validate_model(PreferenceModel(3, (0b011, 0b110, 0b100)))
    with pytest.raises(ModelError, match="total"):
        validate_model(from_edges(2, []), total=True)
    validate_model(from_edges(2, [(0, 1)]), total=True)
    with pytest.raises(ModelError, match="valuation"):
        validate_model(PreferenceModel(2, (0b01, 0b10), valuation={"P": 0b100}))
    with pytest.raises(ModelError, match="world count"):
        PreferenceModel(0, ())


def test_string_valuation_keys_normalized():
    m = PreferenceModel(1, (1,), valuation={"P": 1})
    assert m.atom_bits(("P", ())) == 1


# ---------------------------------------------------------------------------
# evaluation


def test_boolean_connectives():
    m = chain3()
    P, Q = sx.Atom("P"), sx.Atom("Q")
    assert eval_formula(m, sx.Not(P)).bits == 0b011
    assert eval_formula(m, sx.And((P, Q))).bits == 0
    assert eval_formula(m, sx.Or((P, Q))).bits == 0b111
    assert eval_formula(m, sx.Implies(Q, P)).bits == 0b100
    assert eval_formula(m, sx.Iff(P, sx.Not(Q))).bits == 0b111


def test_weak_and_strict_modalities():
    m = chain3()
    P, Q = sx.Atom("P"), sx.Atom("Q")
    assert eval_formula(m, sx.DiaWeak(P)).bits == 0b111
    assert eval_formula(m, sx.DiaStrict(P)).bits == 0b011  # top has no strict successor
    assert eval_formula(m, sx.BoxWeak(Q)).bits == 0b000
    assert eval_formula(m, sx.BoxStrict(Q)).bits == 0b100  # vacuous at the top
    assert eval_formula(m, sx.Somewhere(P)).bits == 0b111
    assert eval_formula(m, sx.Everywhere(P)).bits == 0b000
    assert globally_true(m, sx.Somewhere(P))
    assert truth_at(m, sx.DiaStrict(P), 0) and not truth_at(m, sx.DiaStrict(P), 2)
    with pytest.raises(ModelError, match="outside"):
        truth_at(m, P, 3)


def test_guarded_diamonds():
    m = chain3()
    P, Q = sx.Atom("P"), sx.Atom("Q")
    # guard P splits {w0,w1} from {w2}; betterness cannot cross the split
    assert eval_formula(m, sx.CpDiaWeak((P,), Q)).bits == 0b011
    assert eval_formula(m, sx.CpDiaStrict((P,), Q)).bits == 0b001
    # no guards: collapses to the plain diamonds
    assert eval_formula(m, sx.CpDiaWeak((), Q)).bits == eval_formula(m, sx.DiaWeak(Q)).bits
    assert eval_formula(m, sx.CpDiaStrict((), Q)).bits == eval_formula(m, sx.DiaStrict(Q)).bits


def test_cp_pref_aa_is_world_independent():
    m = chain3()
    P, Q = sx.Atom("P"), sx.Atom("Q")
    # every Q-world weakly below every P-world: true (P holds only at the top)
    assert eval_formula(m, sx.CpPrefAA((), False, Q, P)).bits == m.full_mask
    assert eval_formula(m, sx.CpPrefAA((), False, P, Q)).bits == 0
    # guard P forbids crossing the split, so the preference breaks
    assert eval_formula(m, sx.CpPrefAA((P,), False, Q, P)).bits == 0


def test_evaluation_rejects_malformed_input():
    m = chain3()
    with pytest.raises(ModelError, match="not interpreted"):
        eval_formula(m, sx.Atom("R"))
    with pytest.raises(ModelError, match="grounded"):
        eval_formula(m, sx.Atom("Owns", (sx.Var("x"),)))
    with pytest.raises(ModelError, match="desugared"):
        eval_formula(m, sx.SynPref("ae", False, sx.Atom("P"), sx.Atom("Q")))


def test_incidence_evaluation():
    m = from_edges(
        1, [], incidence={(BasicValue.FREEDOM, "p"): 1, (BasicValue.UTILITY, "p"): 0},
    )
    assert truth_at(m, sx.ValAtom(BasicValue.FREEDOM, sx.Const("p")), 0)
    assert not truth_at(m, sx.ValAtom(BasicValue.UTILITY, sx.Const("p")), 0)
    with pytest.raises(ModelError, match="not interpreted"):
        truth_at(m, sx.ValAtom(BasicValue.SECURITY, sx.Const("p")), 0)


# ---------------------------------------------------------------------------
# rendering


def test_render_text_exact_lines():
    m = from_edges(
        3, [(0, 1), (1, 2)],
        valuation={"P": 0b100, ("Owns", ("p",)): 0b001},
        incidence={(BasicValue.FREEDOM, "p"): 0b010},
    )
    assert render_text(m) == (
        "w0: succ=[w0,w1,w2] atoms=[Owns(p)] values=[]\n"
        "w1: succ=[w1,w2] atoms=[] values=[FREEDOM@p]\n"
        "w2: succ=[w2] atoms=[P] values=[]"
    )


def test_render_dot_edge_styles():
    chain = render_dot(from_edges(2, [(0, 1)]))
    assert "rankdir=BT" in chain
    assert "w0 -> w1 [style=solid];" in chain
    tie = render_dot(from_edges(2, [(0, 1), (1, 0)]))
    assert "w0 -> w1 [style=dashed];" in tie
    assert "w1 -> w0 [style=dashed];" in tie
    assert "solid" not in tie


# ---------------------------------------------------------------------------
# enumeration


def test_preorder_counts():
    counts = [sum(1 for _ in all_preorders(n)) for n in (1, 2, 3, 4)]
    assert counts == [1, 4, 29, 355]
    assert all_preorders(3) is all_preorders(3)  # enumerated once per world count


def test_every_enumerated_relation_validates():
    for n in (1, 2, 3):
        seen = set()
        for rows in all_preorders(n):
            validate_model(PreferenceModel(n, rows))
            seen.add(rows)
        assert len(seen) == sum(1 for _ in all_preorders(n))  # no duplicates


# ---------------------------------------------------------------------------
# valuation-sliced evaluation


def test_sliced_evaluation_matches_per_model_evaluation():
    P, Q = sx.Atom("P"), sx.Atom("Q")
    value, party = ALL_VALUE_SYMBOLS[0]
    V = sx.ValAtom(value, sx.Const(party))
    formulas = [
        P, V, sx.Not(P), sx.And((P, V)), sx.And(()), sx.Or((Q, sx.Not(V))), sx.Or(()),
        sx.Implies(P, Q), sx.Iff(V, Q),
        sx.DiaWeak(P), sx.BoxWeak(sx.Or((P, V))), sx.DiaStrict(Q), sx.BoxStrict(sx.Not(P)),
        sx.Somewhere(sx.And((P, Q))), sx.Everywhere(sx.Implies(P, V)),
        sx.CpDiaWeak((Q,), P), sx.CpDiaWeak((Q, V), sx.Not(P)),
        sx.CpDiaStrict((V,), Q), sx.CpDiaStrict((), sx.DiaWeak(P)),
        sx.CpPrefAA((), False, P, Q), sx.CpPrefAA((Q,), True, P, V),
        sx.CpPrefAA((V, P), False, sx.Not(Q), Q),
        sx.CpPrefAA((Q,), True, sx.DiaStrict(P), sx.BoxWeak(V)),
    ]
    keys = (("P", ()), ("Q", ()), (value, party))
    checked = 0
    for n in (1, 2, 3):
        count = 1 << (n * len(keys))
        assignments = [valuation_at(n, keys, i) for i in range(count)]
        assert [tuple(a.values()) for a in assignments] == \
            list(product(range(1 << n), repeat=len(keys)))
        slices = valuation_slices(n, keys)
        for rows in all_preorders(n):
            s = SlicedModel(rows, slices)
            exts = [eval_sliced(s, f) for f in formulas]
            for i, sets in enumerate(assignments):
                m = PreferenceModel(n, rows, {k: sets[k] for k in keys[:2]},
                                    {keys[2]: sets[keys[2]]})
                for f, ext in zip(formulas, exts):
                    got = sum((ext[w] >> i & 1) << w for w in range(n))
                    assert got == eval_formula(m, f).bits, (rows, sets, sx.format_formula(f))
                checked += 1
    assert checked == 1 * 8 + 4 * 64 + 29 * 512
