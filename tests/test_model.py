"""Finite models: validation, packed evaluation, rendering, enumeration."""
import random
from itertools import product

import pytest

import prefsat.syntax as sx
from prefsat import kb as kbmod
from prefsat.model import (
    ModelError,
    Frame,
    PreferenceModel,
    all_preorders,
    eval_formula,
    eval_packed,
    globally_true,
    is_total,
    render_dot,
    render_text,
    sx_iter_bits,
    truth_at,
    validate_model,
    valuation_at,
    valuation_slices,
)
from prefsat.ontology import ALL_VALUE_SYMBOLS, BasicValue


def from_edges(n, pairs, valuation=None, incidence=None) -> PreferenceModel:
    """Build a model from weak-betterness pairs; reflexive-transitive closure
    is applied, so tests can state only the generating edges."""
    rows = [1 << w for w in range(n)]
    for a, b in pairs:
        rows[a] |= 1 << b
    changed = True
    while changed:
        changed = False
        for w in range(n):
            acc = rows[w]
            for v in sx_iter_bits(rows[w]):
                acc |= rows[v]
            if acc != rows[w]:
                rows[w] = acc
                changed = True
    return PreferenceModel(n, tuple(rows), valuation or {}, incidence or {})


def chain3():
    # w0 <= w1 <= w2 (w2 best), P true at the top, Q below
    return from_edges(
        3, [(0, 1), (1, 2)],
        valuation={("P", ()): 0b100, ("Q", ()): 0b011},
    )


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
    assert is_total(tie.leq)
    assert not is_total(from_edges(2, []).leq)


def test_validate_rejects_broken_relations():
    with pytest.raises(ModelError, match="reflexive"):
        validate_model(PreferenceModel(2, (0b01, 0b01)))
    with pytest.raises(ModelError, match="transitive"):
        validate_model(PreferenceModel(3, (0b011, 0b110, 0b100)))
    with pytest.raises(ModelError, match="total"):
        validate_model(from_edges(2, []), total=True)
    validate_model(from_edges(2, [(0, 1)]), total=True)
    with pytest.raises(ModelError, match="valuation"):
        validate_model(PreferenceModel(2, (0b01, 0b10), valuation={("P", ()): 0b100}))
    with pytest.raises(ModelError, match="world count"):
        PreferenceModel(0, ())


def test_model_record_fields():
    m = PreferenceModel(2, [0b11, 0b10], {("P", ()): 0b01})
    assert m.leq == (0b11, 0b10) and m._fields == ("n", "leq", "valuation", "incidence")
    assert m == PreferenceModel(2, (0b11, 0b10), {("P", ()): 0b01}, {})
    assert m != PreferenceModel(2, (0b11, 0b10), {("P", ()): 0b10})
    assert m != PreferenceModel(2, (0b11, 0b10), {("P", ()): 0b01}, {(BasicValue.FREEDOM, "p"): 1})
    assert m != PreferenceModel(2, (0b01, 0b11), {("P", ()): 0b01})
    assert PreferenceModel(1, (1,)) != PreferenceModel(2, (0b01, 0b10))
    # the evaluator's frame and the strict rows are cached off the fields
    m, twin = chain3(), chain3()
    assert "frame" not in vars(m) and "lt" not in vars(m)
    assert eval_formula(m, sx.BoxStrict(sx.Atom("P"))) == 0b110
    assert isinstance(m.frame, Frame) and m.lt == (0b110, 0b100, 0b000)
    assert "frame" in vars(m) and "lt" in vars(m)
    assert "frame" not in vars(twin) and "lt" not in vars(twin)
    assert m == twin and repr(m) == repr(twin)
    # the dict fields make a model unhashable, evaluated or not
    for model in (m, twin):
        with pytest.raises(TypeError, match="unhashable"):
            hash(model)


def test_models_never_share_a_dict():
    a, b = PreferenceModel(1, (1,)), PreferenceModel(1, (1,))
    assert a.valuation is not b.valuation and a.incidence is not b.incidence
    a.valuation[("P", ())] = 1
    assert b.valuation == {} and a != b


# ---------------------------------------------------------------------------
# evaluation


def test_boolean_connectives():
    m = chain3()
    P, Q = sx.Atom("P"), sx.Atom("Q")
    assert eval_formula(m, sx.Not(P)) == 0b011
    assert eval_formula(m, sx.And((P, Q))) == 0
    assert eval_formula(m, sx.Or((P, Q))) == 0b111
    assert eval_formula(m, sx.Implies(Q, P)) == 0b100
    assert eval_formula(m, sx.Iff(P, sx.Not(Q))) == 0b111


def test_weak_and_strict_modalities():
    m = chain3()
    P, Q = sx.Atom("P"), sx.Atom("Q")
    assert eval_formula(m, sx.DiaWeak(P)) == 0b111
    assert eval_formula(m, sx.DiaStrict(P)) == 0b011  # top has no strict successor
    assert eval_formula(m, sx.BoxWeak(Q)) == 0b000
    assert eval_formula(m, sx.BoxStrict(Q)) == 0b100  # vacuous at the top
    assert eval_formula(m, sx.Somewhere(P)) == 0b111
    assert eval_formula(m, sx.Everywhere(P)) == 0b000
    assert globally_true(m, sx.Somewhere(P))
    assert truth_at(m, sx.DiaStrict(P), 0) and not truth_at(m, sx.DiaStrict(P), 2)
    with pytest.raises(ModelError, match="outside"):
        truth_at(m, P, 3)


def test_guarded_diamonds():
    m = chain3()
    P, Q = sx.Atom("P"), sx.Atom("Q")
    # guard P splits {w0,w1} from {w2}; betterness cannot cross the split
    assert eval_formula(m, sx.CpDiaWeak((P,), Q)) == 0b011
    assert eval_formula(m, sx.CpDiaStrict((P,), Q)) == 0b001
    # no guards: collapses to the plain diamonds
    assert eval_formula(m, sx.CpDiaWeak((), Q)) == eval_formula(m, sx.DiaWeak(Q))
    assert eval_formula(m, sx.CpDiaStrict((), Q)) == eval_formula(m, sx.DiaStrict(Q))


def test_cp_pref_aa_is_world_independent():
    m = chain3()
    P, Q = sx.Atom("P"), sx.Atom("Q")
    # every Q-world weakly below every P-world: true (P holds only at the top)
    assert eval_formula(m, sx.CpPrefAA((), False, Q, P)) == m.full_mask
    assert eval_formula(m, sx.CpPrefAA((), False, P, Q)) == 0
    # guard P forbids crossing the split, so the preference breaks
    assert eval_formula(m, sx.CpPrefAA((P,), False, Q, P)) == 0


def test_evaluation_rejects_malformed_input():
    m = chain3()
    with pytest.raises(ModelError, match="not interpreted"):
        eval_formula(m, sx.Atom("R"))
    with pytest.raises(ModelError, match=r"\('Owns', \('x',\)\) not interpreted"):
        eval_formula(m, sx.Atom("Owns", ("x",)))
    with pytest.raises(ModelError, match="not a formula node"):
        eval_formula(m, "p")


def test_incidence_evaluation():
    m = from_edges(
        1, [], incidence={(BasicValue.FREEDOM, "p"): 1, (BasicValue.UTILITY, "p"): 0},
    )
    assert truth_at(m, sx.ValAtom(BasicValue.FREEDOM, "p"), 0)
    assert not truth_at(m, sx.ValAtom(BasicValue.UTILITY, "p"), 0)
    with pytest.raises(ModelError, match="not interpreted"):
        truth_at(m, sx.ValAtom(BasicValue.SECURITY, "p"), 0)


# ---------------------------------------------------------------------------
# rendering


def test_render_text_exact_lines():
    m = from_edges(
        3, [(0, 1), (1, 2)],
        valuation={("P", ()): 0b100, ("Owns", ("p",)): 0b001},
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


def test_render_dot_escapes_names():
    # an atom name may hold a backslash or a double quote; the label keeps
    # its \n separators and escapes both
    m = PreferenceModel(1, (1,), {("c\\", ()): 1, ('q"', ("a\\",)): 1, ("R", ()): 0})
    assert render_dot(m).splitlines()[2] == r'  w0 [shape=box,label="w0\nc\\\nq\"(a\\)"];'


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
# the per-model reference evaluator


def reference_eval(m: PreferenceModel, f: sx.Formula, memo: dict) -> int:
    """The worlds of m where the ground formula f holds, one bit
    per world.  It walks one model world by world and shares no code with
    model.eval_packed.  memo caches by node id for one model."""
    hit = memo.get(id(f))
    if hit is not None:
        return hit[1]
    full, n = m.full_mask, m.n

    def ev(g):
        return reference_eval(m, g, memo)

    def cp_rows(guards, strict):
        # betterness rows restricted to the worlds agreeing with w on every guard
        rows = list(m.lt if strict else m.leq)
        for g in map(ev, guards):
            for w in range(n):
                rows[w] &= g if (g >> w & 1) else ~g & full
        return rows

    if isinstance(f, sx.Atom):
        bits = m.valuation[(f.pred, f.args)]
    elif isinstance(f, sx.ValAtom):
        bits = m.incidence[(f.value, f.party)]
    elif isinstance(f, sx.Not):
        bits = ~ev(f.sub) & full
    elif isinstance(f, sx.And):
        bits = full
        for a in f.args:
            bits &= ev(a)
    elif isinstance(f, sx.Or):
        bits = 0
        for a in f.args:
            bits |= ev(a)
    elif isinstance(f, sx.Implies):
        bits = (~ev(f.lhs) | ev(f.rhs)) & full
    elif isinstance(f, sx.Iff):
        bits = ~(ev(f.lhs) ^ ev(f.rhs)) & full
    elif isinstance(f, sx.Dia):  # a box or A comes as a negated Dia or Somewhere
        rows = cp_rows(f.guards, f.strict)
        sub = ev(f.sub)
        bits = 0
        for w in range(n):
            if rows[w] & sub:
                bits |= 1 << w
    elif isinstance(f, sx.Somewhere):
        bits = full if ev(f.sub) else 0
    elif isinstance(f, sx.CpPrefAA):
        rows = cp_rows(f.guards, f.strict)
        lhs, rhs = ev(f.lhs), ev(f.rhs)
        ok = all(not (rhs & ~rows[s]) for s in range(n) if lhs >> s & 1)
        bits = full if ok else 0
    else:
        raise TypeError(f"not a formula node: {type(f).__name__}")
    memo[id(f)] = (f, bits)
    return bits


def test_sliced_evaluation_matches_per_model_evaluation():
    """The packed evaluator against the reference at every A: each model on
    its own (A = 1), and each preorder under all 2^(3n) assignments.  Then
    several preorders in one frame against each preorder's own frame."""
    P, Q = sx.Atom("P"), sx.Atom("Q")
    value, party = ALL_VALUE_SYMBOLS[0]
    V = sx.ValAtom(value, party)
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
        slices = valuation_slices(n, keys, count)
        own = []  # each preorder's extensions in its own frame
        for rows in all_preorders(n):
            s = Frame((rows,), slices, count)
            assert s.width == count
            exts = [eval_packed(s, f) for f in formulas]
            own.append(exts)
            for i, sets in enumerate(assignments):
                m = PreferenceModel(n, rows, {k: sets[k] for k in keys[:2]},
                                    {keys[2]: sets[keys[2]]})
                memo = {}
                for f, ext in zip(formulas, exts):
                    want = reference_eval(m, f, memo)
                    got = sum((ext >> (w * count + i) & 1) << w for w in range(n))
                    assert got == want, (rows, sets, sx.format_formula(f))
                    assert eval_formula(m, f) == want, (rows, sets, sx.format_formula(f))
                checked += 1
        # a block of 29 * A bits holds 29 copies of the A-bit block of slices
        wide = valuation_slices(n, keys, 29 * count)
        for key in keys:
            for w in range(n):
                block = slices[key] >> w * count & (1 << count) - 1
                assert wide[key] >> w * 29 * count & (1 << 29 * count) - 1 == \
                    sum(block << p * count for p in range(29))
        # every preorder in one frame, and an inner run of them: bit
        # w*W + p*A + i is bit w*A + i of preorder p's own extension
        preorders = all_preorders(n)
        start, stop = {1: (0, 1), 2: (1, 3), 3: (5, 13)}[n]
        for first, chunk in ((0, preorders), (start, preorders[start:stop])):
            width = len(chunk) * count
            s = Frame(chunk, valuation_slices(n, keys, width), count)
            assert (s.width, s.assignments) == (width, count)
            for k, f in enumerate(formulas):
                ext = eval_packed(s, f)
                assert ext >> n * width == 0, sx.format_formula(f)
                for p in range(len(chunk)):
                    for w in range(n):
                        got = ext >> w * width + p * count & (1 << count) - 1
                        want = own[first + p][k] >> w * count & (1 << count) - 1
                        assert got == want, (n, first + p, w, sx.format_formula(f))
    assert checked == 1 * 8 + 4 * 64 + 29 * 512


def _kb_formulas(kb):
    return [*kb.axioms.values(), *kb.facts.values(), *kb.goals.values()]


def test_evaluation_matches_the_reference_at_witness_sizes():
    """Every axiom, fact and goal of the shipped KBs (29-32 symbols) on
    seeded random models of 4 to 7 worlds, the sizes SAT witnesses reach."""
    rng = random.Random(8)
    checked = 0
    for case in ("pierson", "post", "conti"):
        formulas = _kb_formulas(kbmod.case_kb(case))
        atoms, values = sx.collect_symbols(formulas)
        for n in (4, 5, 6, 7):
            for density in (0.1, 0.25, 0.5):
                pairs = [(a, b) for a in range(n) for b in range(n)
                         if a != b and rng.random() < density]
                m = from_edges(n, pairs, {k: rng.randrange(1 << n) for k in sorted(atoms)},
                               {k: rng.randrange(1 << n) for k in sorted(values, key=str)})
                memo = {}
                for f in formulas:
                    assert eval_formula(m, f) == reference_eval(m, f, memo), \
                        (case, render_text(m), sx.format_formula(f))
                    checked += 1
        assert len(atoms) + len(values) >= 29
    assert checked == 12 * (25 + 27 + 21)
