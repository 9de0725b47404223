"""Set-level preference comparisons, cross-checked against brute force."""
import itertools
import random

import pytest

import prefsat.syntax as sx
from prefsat.lifts import (
    best_worlds,
    cp_lift_aa,
    cp_relation,
    halpern_more_likely,
    sem_lift,
)
from prefsat.model import PreferenceModel, all_preorders, sx_iter_bits
from prefsat.values import up
from test_model import from_edges


def naive_lift(m, pattern, strict, a, b):
    """Quantifier definitions spelled out world by world."""
    rows = m.lt if strict else m.leq
    rel = lambda s, t: bool(rows[s] >> t & 1)
    av, bv = list(sx_iter_bits(a)), list(sx_iter_bits(b))
    if pattern == "ee":
        return any(rel(s, t) for s in av for t in bv)
    if pattern == "ae":
        return all(any(rel(s, t) for t in bv) for s in av)
    if pattern == "ea":
        return any(all(rel(s, t) for s in av) for t in bv)
    if pattern == "aa":
        return all(rel(s, t) for s in av for t in bv)
    raise ValueError(pattern)


def small_models():
    for n in (1, 2, 3):
        for rows in all_preorders(n):
            yield PreferenceModel(n, rows)


def test_sem_lift_matches_naive_definitions_exhaustively():
    checked = 0
    for m in small_models():
        masks = range(1 << m.n)
        for a, b in itertools.product(masks, masks):
            for pattern in ("ee", "ea", "ae", "aa"):
                for strict in (False, True):
                    assert sem_lift(m, pattern, strict, a, b) == naive_lift(
                        m, pattern, strict, a, b
                    ), (m.leq, pattern, strict, a, b)
                    checked += 1
    assert checked == (4 + 4 * 16 + 29 * 64) * 8


def test_lift_edge_cases_on_empty_sets():
    m = from_edges(2, [(0, 1)])
    e, f = 0, 0b11
    for strict in (False, True):
        # universal-on-the-left patterns are vacuously true from the empty set
        assert sem_lift(m, "ae", strict, e, f)
        assert sem_lift(m, "aa", strict, e, f)
        assert not sem_lift(m, "ee", strict, e, f)
        # ea needs a witness on the right even when the left is empty
        assert sem_lift(m, "ea", strict, e, f)
        assert not sem_lift(m, "ea", strict, e, e)
        assert not sem_lift(m, "ee", strict, f, e)
        assert sem_lift(m, "aa", strict, f, e)


def test_lift_rejects_bad_patterns_and_widths():
    m = from_edges(2, [])
    with pytest.raises(ValueError, match="pattern"):
        sem_lift(m, "zz", False, 0b11, 0b11)
    # a world mask is an int below 1 << m.n: a negative one, or one with a bit
    # at or above the world count, is rejected by every set-level entry point
    for bad in (-1, 1 << m.n, 0b111):
        for call in (lambda x: sem_lift(m, "ee", False, x, 0b11),
                     lambda x: sem_lift(m, "aa", True, 0b11, x),
                     lambda x: cp_lift_aa(m, [], False, x, 0b11),
                     lambda x: cp_lift_aa(m, [], True, 0b11, x),
                     lambda x: best_worlds(m, x),
                     lambda x: halpern_more_likely(m, x, 0b11),
                     lambda x: halpern_more_likely(m, 0b11, x),
                     lambda x: up(m, x)):
            with pytest.raises(ValueError, match="outside the model's 2 worlds"):
                call(bad)


def test_cp_relation_with_and_without_guards():
    m = from_edges(3, [(0, 1), (1, 2)], valuation={("P", ()): 0b100})
    assert cp_relation(m, [], False) == list(m.leq)
    assert cp_relation(m, [], True) == list(m.lt)
    guarded = cp_relation(m, [sx.Atom("P")], False)
    assert guarded == [0b011, 0b010, 0b100]  # no edge crosses the P boundary


def test_cp_lift_aa_guard_sensitivity():
    m = from_edges(3, [(0, 1), (1, 2)], valuation={("P", ()): 0b100, ("Q", ()): 0b011})
    P, Q = 0b100, 0b011
    assert cp_lift_aa(m, [], False, Q, P)
    assert not cp_lift_aa(m, [sx.Atom("P")], False, Q, P)
    assert cp_lift_aa(m, [sx.Atom("Q")], False, Q, P) is False
    # guards that never separate worlds leave the comparison unchanged
    seed = random.Random(20260815)
    for m2 in small_models():
        full_guard = sx.Or((sx.Atom("T"), sx.Not(sx.Atom("T"))))
        m2.valuation[("T", ())] = seed.randrange(1 << m2.n)
        for _ in range(4):
            a = seed.randrange(1 << m2.n)
            b = seed.randrange(1 << m2.n)
            strict = seed.random() < 0.5
            assert cp_lift_aa(m2, [full_guard], strict, a, b) == cp_lift_aa(
                m2, [], strict, a, b
            )


def test_best_worlds():
    m = from_edges(3, [(0, 1), (1, 2)])
    assert best_worlds(m, 0b111) == 0b100
    assert best_worlds(m, 0b011) == 0b010
    assert best_worlds(m, 0) == 0
    tie = from_edges(2, [(0, 1), (1, 0)])
    assert best_worlds(tie, 0b11) == 0b11


def test_best_worlds_can_be_empty_without_totality():
    # two incomparable worlds are both maximal; a strict 2-cycle is impossible
    # in a preorder, so emptiness needs the degenerate empty input
    m = from_edges(2, [])
    assert best_worlds(m, 0b11) == 0b11


def test_halpern_comparison_hand_cases():
    m = from_edges(3, [(0, 1), (1, 2)])
    lo, hi = 0b001, 0b100
    assert halpern_more_likely(m, lo, hi)
    assert not halpern_more_likely(m, hi, lo)
    assert halpern_more_likely(m, 0, lo)  # vacuous
    # a witness dominated back by the source set does not count
    tie = from_edges(2, [(0, 1), (1, 0)])
    assert not halpern_more_likely(tie, 0b01, 0b10)


def naive_halpern(m, a, b):
    def dominated(v):
        return any(m.lt[v] >> s & 1 for s in sx_iter_bits(a))

    return all(
        any((m.lt[s] >> v & 1) and not dominated(v) for v in sx_iter_bits(b))
        for s in sx_iter_bits(a)
    )


def test_halpern_matches_naive_exhaustively():
    for m in small_models():
        for a in range(1 << m.n):
            for b in range(1 << m.n):
                assert halpern_more_likely(m, a, b) == naive_halpern(m, a, b)
