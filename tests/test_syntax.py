"""Reader, parser, printer, desugaring, symbol collection and sharing."""
from dataclasses import FrozenInstanceError
from operator import is_

import pytest

import prefsat.syntax as sx
from prefsat.ontology import BasicValue
from prefsat.syntax import ParseError, base_signature, parse_formula


def sig2():
    return base_signature("P", "Q")


# ---------------------------------------------------------------------------
# s-expression reader


def test_read_forms_comments_and_nesting():
    forms = sx.read_forms("; header\n(a (b c)) d ; trailing\n(e)")
    assert len(forms) == 3
    assert isinstance(forms[0], sx.SList)
    assert forms[1] == sx.SSym("d", 2)
    assert forms[0].items[1].items[0].text == "b"


def test_read_forms_unbalanced():
    with pytest.raises(ParseError, match="unclosed"):
        sx.read_forms("(a (b)")
    with pytest.raises(ParseError, match="unbalanced"):
        sx.read_forms("(a))")


def test_parse_error_carries_line():
    with pytest.raises(ParseError, match="line 3"):
        parse_formula("\n\n(not)", sig2())


# ---------------------------------------------------------------------------
# signature


def test_signature_seeds_contender_sort():
    sig = sx.Signature()
    assert sig.sorts["contender"] == ("p", "d")


def test_signatures_never_share_a_dict():
    a, b = sx.Signature(), sx.Signature()
    assert a.sorts is not b.sorts and a.atoms is not b.atoms
    a.add_atom("P", ())
    assert a.atoms == {"P": ()} and b.atoms == {}
    assert a.sorts == b.sorts == {"contender": ("p", "d")}
    assert repr(b) == "Signature(sorts={'contender': ('p', 'd')}, atoms={})"


def test_reserved_names_rejected():
    sig = sx.Signature()
    for name in ("A", "E", "not", "val", "WILL", "FREEDOM",
                 "ext", "agg", "vpref", "promotes", "conflict", "prefsyn", "cond"):
        with pytest.raises(ParseError, match="reserved"):
            sig.add_atom(name, ())


def test_name_collisions_rejected():
    sig = base_signature("P")
    with pytest.raises(ParseError, match="already in use"):
        sig.add_atom("P", ())
    with pytest.raises(ParseError, match="already in use"):
        sig.add_atom("p", ())  # contender constant
    with pytest.raises(ParseError, match="already in use"):
        sig.add_sort("animals", ("P", "fox"))
    with pytest.raises(ParseError, match="duplicate sort"):
        sig.add_sort("contender", ("x",))


def test_atom_arity_and_sort_checked():
    sig = base_signature("P")
    sig.add_atom("Owns", ("contender",))
    assert parse_formula("(Owns p)", sig) == sx.Atom("Owns", (sx.Const("p"),))
    with pytest.raises(ParseError, match="argument"):
        parse_formula("(Owns p d)", sig)
    with pytest.raises(ParseError, match="needs arguments"):
        parse_formula("Owns", sig)
    with pytest.raises(ParseError, match="unknown atom"):
        parse_formula("R", sig)


# ---------------------------------------------------------------------------
# formula parsing


def test_modal_operators():
    f = parse_formula("(dialeq (boxlt (and P (not Q))))", sig2())
    assert f == sx.DiaWeak(sx.BoxStrict(sx.And((sx.Atom("P"), sx.Not(sx.Atom("Q"))))))
    g = parse_formula("(A (implies P (E Q)))", sig2())
    assert g == sx.Everywhere(sx.Implies(sx.Atom("P"), sx.Somewhere(sx.Atom("Q"))))


def test_prefsyn_patterns_and_strictness():
    # read straight into the modal core, as desugar expands a SynPref node
    P, Q = sx.Atom("P"), sx.Atom("Q")
    f = parse_formula("(prefsyn ae strict P Q)", sig2())
    assert f == sx.Everywhere(sx.Implies(P, sx.DiaStrict(Q)))
    g = parse_formula("(prefsyn ee weak P Q)", sig2())
    assert g == sx.Somewhere(sx.And((P, sx.DiaWeak(Q))))
    with pytest.raises(ParseError, match="pattern"):
        parse_formula("(prefsyn xx weak P Q)", sig2())
    with pytest.raises(ParseError, match="weak"):
        parse_formula("(prefsyn ae loose P Q)", sig2())


def test_guard_lists():
    f = parse_formula("(cp-dialeq (P Q) P)", sig2())
    assert f.guards == (sx.Atom("P"), sx.Atom("Q"))
    # compound singleton guard needs double parens
    g = parse_formula("(cp-dialt ((and P Q)) P)", sig2())
    assert g.guards == (sx.And((sx.Atom("P"), sx.Atom("Q"))),)
    empty = parse_formula("(cp-pref-aa () weak P Q)", sig2())
    assert empty.guards == ()
    with pytest.raises(ParseError, match="guard"):
        parse_formula("(cp-dialeq P Q)", sig2())


def val(value, party):
    return sx.ValAtom(BasicValue[value], sx.Const(party))


def test_value_layer_forms():
    sig = sig2()
    assert parse_formula("(val FREEDOM p)", sig) == val("FREEDOM", "p")
    with pytest.raises(ParseError, match="principle"):
        parse_formula("(ext Nope p)", sig)
    with pytest.raises(ParseError, match="basic value"):
        parse_formula("(val WILL p)", sig)
    with pytest.raises(ParseError, match="at least one"):
        parse_formula("(agg)", sig)
    with pytest.raises(ParseError, match=r"expected \(PRINCIPLE party\)"):
        parse_formula("(promotes P Q WILL)", sig)


@pytest.mark.parametrize("side", ["P", "(and (ext WILL p) P)",
                                  "(forall x contender (ext WILL x))"])
def test_vpref_sides_are_ext_or_agg_forms(side):
    for text in (f"(vpref weak {side} (ext WILL p))", f"(vpref weak (ext WILL p) {side})"):
        with pytest.raises(ParseError, match="vpref sides must be ext or agg forms"):
            parse_formula(text, sig2())


def test_party_slot_needs_contender_sort():
    sig = sig2()
    sig.add_sort("case", ("c1",))
    with pytest.raises(ParseError, match="contender"):
        parse_formula("(val FREEDOM c1)", sig)
    with pytest.raises(ParseError, match="contender"):
        parse_formula("(conflict c1)", sig)


def test_other_folds_over_constants():
    f = parse_formula("(val UTILITY (other p))", sig2())
    assert f == sx.ValAtom(BasicValue.UTILITY, sx.Const("d"))
    with pytest.raises(ParseError, match="contender"):
        sig = sig2()
        sig.add_sort("case", ("c1",))
        parse_formula("(conflict (other c1))", sig)


def test_quantifiers_bind_and_check():
    sig = sig2()
    sig.add_atom("Owns", ("contender",))
    f = parse_formula("(forall x contender (implies (Owns x) (conflict x)))", sig)
    assert f == sx.And(tuple(
        sx.Implies(sx.Atom("Owns", (sx.Const(c),)), sx.conflict(sx.Const(c))) for c in "pd"
    ))
    with pytest.raises(ParseError, match="unknown sort"):
        parse_formula("(forall x things P)", sig)
    with pytest.raises(ParseError, match="already bound"):
        parse_formula("(forall x contender (forall x contender P))", sig)
    with pytest.raises(ParseError, match="shadows"):
        parse_formula("(forall p contender P)", sig)
    with pytest.raises(ParseError, match="unbound"):
        parse_formula("(Owns x)", sig)


def test_exactly_one_form():
    with pytest.raises(ParseError, match="exactly one"):
        parse_formula("P Q", sig2())
    with pytest.raises(ParseError, match="exactly one"):
        parse_formula("", sig2())


# ---------------------------------------------------------------------------
# printing round-trips


ROUND_TRIP = [
    "P",
    "(not (and P Q))",
    "(or P Q P)",
    "(iff (dialeq P) (dialt Q))",
    "(boxleq (boxlt (E (A P))))",
    "(prefsyn ea weak P Q)",
    "(prefsyn aa strict (and P Q) P)",
    "(cp-dialeq (P) Q)",
    "(cp-dialt ((not P) Q) P)",
    "(cp-pref-aa (P) strict P Q)",
    "(cond P Q)",
    "(val SECURITY d)",
    "(ext RELI d)",
    "(agg (WILL p) (FAIR p))",
    "(vpref weak (agg (WILL p)) (ext RELI d))",
    "(promotes (and P Q) Q (GAIN p))",
    "(conflict p)",
    "(forall x contender (exists y contender (implies (conflict x) (conflict y))))",
]
CONFLICT = "(and (val FREEDOM {0}) (val UTILITY {0}) (val SECURITY {0}) (val EQUALITY {0}))"
# A derived text prints as its expansion, which parses back to an equal AST.
PRINTED = {
    "(prefsyn ea weak P Q)": "(E (and Q (boxlt (not P))))",
    "(prefsyn aa strict (and P Q) P)": "(A (implies P (boxleq (not (and P Q)))))",
    "(cond P Q)": "(A (implies P (dialeq (and P (boxleq (implies P Q))))))",
    "(ext RELI d)": "(and (val SECURITY d) (val EQUALITY d))",
    "(agg (WILL p) (FAIR p))":
        "(or (and (val FREEDOM p) (val UTILITY p)) (and (val EQUALITY p) (val FREEDOM p)))",
    "(vpref weak (agg (WILL p)) (ext RELI d))":
        "(A (implies (and (val FREEDOM p) (val UTILITY p))"
        " (dialeq (and (val SECURITY d) (val EQUALITY d)))))",
    "(promotes (and P Q) Q (GAIN p))":
        "(implies (and P Q) (boxlt (iff Q (dialt (and (val UTILITY p) (val FREEDOM p))))))",
    "(conflict p)": CONFLICT.format("p"),
    ROUND_TRIP[-1]:
        "(and (or (implies {p} {p}) (implies {p} {d})) (or (implies {d} {p}) (implies {d} {d})))"
        .format(p=CONFLICT.format("p"), d=CONFLICT.format("d")),
}


@pytest.mark.parametrize("text", ROUND_TRIP)
def test_format_parse_round_trip(text):
    sig = sig2()
    f = parse_formula(text, sig)
    printed = sx.format_formula(f)
    assert printed == PRINTED.get(text, text)
    assert parse_formula(printed, sig) == f


# ---------------------------------------------------------------------------
# grounding: the parser expands quantifiers over the sort's constants


def test_ground_expands_quantifiers():
    sig = sig2()
    f = parse_formula("(forall x contender (val UTILITY x))", sig)
    assert f == sx.And((
        sx.ValAtom(BasicValue.UTILITY, sx.Const("p")),
        sx.ValAtom(BasicValue.UTILITY, sx.Const("d")),
    ))
    e = parse_formula("(exists x contender (conflict (other x)))", sig)
    assert e == sx.Or((sx.conflict(sx.Const("d")), sx.conflict(sx.Const("p"))))


def test_ground_single_constant_sort_drops_connective():
    sig = sig2()
    sig.add_sort("case", ("c1",))
    sig.add_atom("Decided", ("case",))
    f = parse_formula("(forall x case (Decided x))", sig)
    assert f == sx.Atom("Decided", (sx.Const("c1"),))


# ---------------------------------------------------------------------------
# desugaring


def P():
    return sx.Atom("P")


def Q():
    return sx.Atom("Q")


def test_desugar_synpref_eight_variants():
    # ee/ae use the matching diamond; ea/aa box the complement with the
    # opposite flavor (weak statement -> strict box, strict -> weak box).
    cases = {
        ("ee", False): sx.Somewhere(sx.And((P(), sx.DiaWeak(Q())))),
        ("ee", True): sx.Somewhere(sx.And((P(), sx.DiaStrict(Q())))),
        ("ae", False): sx.Everywhere(sx.Implies(P(), sx.DiaWeak(Q()))),
        ("ae", True): sx.Everywhere(sx.Implies(P(), sx.DiaStrict(Q()))),
        ("ea", False): sx.Somewhere(sx.And((Q(), sx.BoxStrict(sx.Not(P()))))),
        ("ea", True): sx.Somewhere(sx.And((Q(), sx.BoxWeak(sx.Not(P()))))),
        ("aa", False): sx.Everywhere(sx.Implies(Q(), sx.BoxStrict(sx.Not(P())))),
        ("aa", True): sx.Everywhere(sx.Implies(Q(), sx.BoxWeak(sx.Not(P())))),
    }
    for (pattern, strict), expected in cases.items():
        assert sx.desugar(sx.SynPref(pattern, strict, P(), Q())) == expected


def test_desugar_cond():
    f = sx.desugar(sx.Cond(P(), Q()))
    assert f == sx.Everywhere(
        sx.Implies(P(), sx.DiaWeak(sx.And((P(), sx.BoxWeak(sx.Implies(P(), Q()))))))
    )


def test_desugar_value_layer():
    # each value-layer form is read straight into the core formula it abbreviates
    sig = sig2()
    will_p = sx.And((val("FREEDOM", "p"), val("UTILITY", "p")))
    stab_d = sx.And((val("SECURITY", "d"), val("UTILITY", "d")))
    assert parse_formula("(ext WILL p)", sig) == will_p
    assert parse_formula("(agg (WILL p) (STAB d))", sig) == sx.Or((will_p, stab_d))
    assert parse_formula("(agg (STAB d))", sig) == stab_d
    # the chosen lift of a value preference is all-exists
    v = parse_formula("(vpref strict (ext WILL p) (agg (STAB d)))", sig)
    assert v == sx.Everywhere(sx.Implies(will_p, sx.DiaStrict(stab_d)))
    conflict_d = sx.And(tuple(val(value.name, "d") for value in BasicValue))
    assert parse_formula("(conflict d)", sig) == conflict_d == sx.conflict(sx.Const("d"))


def test_desugar_promotes_shape():
    f = parse_formula("(promotes P Q (WILL p))", sig2())
    will_p = sx.And((val("FREEDOM", "p"), val("UTILITY", "p")))
    assert f == sx.Implies(P(), sx.BoxStrict(sx.Iff(Q(), sx.DiaStrict(will_p))))


def test_elaborate_is_ground_then_desugar():
    sig = sig2()
    f = parse_formula("(forall x contender (conflict x))", sig)
    assert f == sx.And((sx.conflict(sx.Const("p")), sx.conflict(sx.Const("d"))))
    # a parsed formula is already core: elaborate gives it back equal
    assert sx.elaborate(f, sig) == f


def test_elaborate_grounds_quantifiers_inside_promotes():
    sig = sig2()
    sig.add_sort("entity", ("fox", "whale"))
    sig.add_atom("Pursue", ("contender", "entity"))
    sig.add_atom("For", ("contender",))
    f = parse_formula(
        "(forall x contender (promotes (exists a entity (Pursue x a)) (For x) (WILL x)))", sig)

    def promoted(party):
        x = sx.Const(party)
        premise = sx.Or(tuple(sx.Atom("Pursue", (x, sx.Const(a))) for a in ("fox", "whale")))
        will = sx.And((sx.ValAtom(BasicValue.FREEDOM, x), sx.ValAtom(BasicValue.UTILITY, x)))
        return sx.Implies(premise, sx.BoxStrict(sx.Iff(sx.Atom("For", (x,)), sx.DiaStrict(will))))

    assert f == sx.And((promoted("p"), promoted("d")))


def test_collect_symbols():
    sig = sig2()
    sig.add_atom("Owns", ("contender",))
    f = parse_formula("(and (Owns p) (dialt (conflict d)) Q)", sig)
    atoms, incidence = sx.collect_symbols(f)
    assert atoms == {("Owns", ("p",)), ("Q", ())}
    assert incidence == {(v, "d") for v in BasicValue}
    # the engines' input check: every argument and party is a constant
    with pytest.raises(ParseError, match="constant arguments"):
        sx.collect_symbols(sx.Atom("Owns", ("p",)))
    with pytest.raises(ParseError, match="constant party"):
        sx.collect_symbols(sx.ValAtom(BasicValue.FREEDOM, "p"))
    for derived in (sx.SynPref("ae", True, P(), Q()), sx.Cond(P(), Q())):
        with pytest.raises(ParseError, match="desugared"):
            sx.collect_symbols(sx.Not(derived))


# ---------------------------------------------------------------------------
# sharing


def subtrees(f):
    """Every sub-formula occurrence of f, f included."""
    yield f
    for sub in sx.children(f):
        yield from subtrees(sub)


SHARED_TEXTS = ("(and (dialt (and P Q)) (boxlt (and P Q)))",
                "(implies (and P Q) (cond P (prefsyn ea strict P (and P Q))))")


def test_share_keeps_the_formulas_and_makes_equal_subtrees_one_object():
    formulas = [parse_formula(text, sig2()) for text in SHARED_TEXTS]
    shared = sx.share(formulas)
    assert shared == formulas
    occurrences = [sub for f in shared for sub in subtrees(f)]
    one_of_each = {}
    for sub in occurrences:
        assert one_of_each.setdefault(sub, sub) is sub, sx.format_formula(sub)
    assert (len(one_of_each), len(occurrences)) == (17, 30)
    # sharing shared formulas gives them back as they are
    assert all(map(is_, sx.share(shared), shared))


def test_share_keeps_a_node_whose_subformulas_are_already_shared():
    sig = base_signature("P", "Q", "R", "S")
    f = parse_formula("(and P (not Q) (dialt (or R S)))", sig)  # no two subtrees equal
    assert sx.share([f])[0] is f
    # the conjunction is rebuilt around one shared P; (not Q) is kept
    g = sx.And((sx.Atom("P"), sx.Not(sx.Atom("Q")), sx.Atom("P")))
    h = sx.share([g])[0]
    assert h == g and h is not g
    assert h.args[0] is h.args[2] and h.args[1] is g.args[1]


# ---------------------------------------------------------------------------
# node classes

NP, NQ = sx.Atom("P"), sx.Atom("Q", (sx.Const("d"), sx.Const("p")))
_P = "Atom(pred='P', args=())"
_Q = "Atom(pred='Q', args=(Const(name='d'), Const(name='p')))"

# One node of every class and its repr, as a frozen dataclass printed it.
NODE_REPRS = [
    (sx.SSym("a", 1), "SSym(text='a', line=1)"),
    (sx.SList((sx.SSym("a", 1),), 2), "SList(items=(SSym(text='a', line=1),), line=2)"),
    (sx.Const("d"), "Const(name='d')"),
    (NQ, _Q),
    (sx.ValAtom(BasicValue.FREEDOM, sx.Const("p")),
     "ValAtom(value=<BasicValue.FREEDOM: 'FREEDOM'>, party=Const(name='p'))"),
    (sx.Not(NP), f"Not(sub={_P})"),
    (sx.And((NP, NQ)), f"And(args=({_P}, {_Q}))"),
    (sx.Or((NP, NQ)), f"Or(args=({_P}, {_Q}))"),
    (sx.Implies(NP, NQ), f"Implies(lhs={_P}, rhs={_Q})"),
    (sx.Iff(NP, NQ), f"Iff(lhs={_P}, rhs={_Q})"),
    (sx.DiaWeak(NP), f"DiaWeak(sub={_P})"),
    (sx.BoxWeak(NP), f"BoxWeak(sub={_P})"),
    (sx.DiaStrict(NP), f"DiaStrict(sub={_P})"),
    (sx.BoxStrict(NP), f"BoxStrict(sub={_P})"),
    (sx.Somewhere(NP), f"Somewhere(sub={_P})"),
    (sx.Everywhere(NP), f"Everywhere(sub={_P})"),
    (sx.SynPref("ae", True, NP, NQ), f"SynPref(pattern='ae', strict=True, lhs={_P}, rhs={_Q})"),
    (sx.CpDiaWeak((NP,), NQ), f"CpDiaWeak(guards=({_P},), sub={_Q})"),
    (sx.CpDiaStrict((NP,), NQ), f"CpDiaStrict(guards=({_P},), sub={_Q})"),
    (sx.CpPrefAA((NP,), False, NP, NQ),
     f"CpPrefAA(guards=({_P},), strict=False, lhs={_P}, rhs={_Q})"),
    (sx.Cond(NP, NQ), f"Cond(lhs={_P}, rhs={_Q})"),
]


def test_every_node_class_has_a_repr_case():
    classes = {cls for cls in vars(sx).values()  # Signature is a record, not a node
               if isinstance(cls, type) and issubclass(cls, sx.Node) and cls._fields
               and cls is not sx.Signature}
    assert {type(node) for node, _ in NODE_REPRS} == classes
    assert len(classes) == 21


@pytest.mark.parametrize("node, text", NODE_REPRS, ids=lambda x: type(x).__name__)
def test_node_repr_and_structural_identity(node, text):
    assert repr(node) == text
    values = tuple(getattr(node, name) for name in node._fields)
    twin = type(node)(*values)
    assert twin == node and not (twin != node) and twin is not node
    assert hash(twin) == hash(node) == hash(values)
    assert type(node)(**dict(zip(node._fields, values))) == node


def test_nodes_equal_only_within_one_class():
    assert sx.And((NP, NQ)) != sx.Or((NP, NQ))
    assert sx.DiaWeak(NP) != sx.BoxWeak(NP)
    assert sx.Not(NP) != sx.Not(sx.Atom("P", (sx.Const("d"),)))
    assert sx.Const("d") != "d"
    assert len({sx.And((NP, NQ)), sx.Or((NP, NQ)), sx.And((NP, NQ))}) == 2


def test_node_keywords_and_defaults():
    assert sx.Atom("P") == sx.Atom(pred="P", args=()) == sx.Atom("P", ()) == sx.Atom(pred="P")
    assert sx.Atom.args == ()
    assert sx.Cond(NP, rhs=NQ) == sx.Cond(lhs=NP, rhs=NQ)
    with pytest.raises(TypeError, match="missing"):
        sx.Implies(NP)
    with pytest.raises(TypeError, match="multiple"):
        sx.Not(NP, sub=NP)
    with pytest.raises(TypeError, match="unexpected"):
        sx.Not(NP, body=NP)
    with pytest.raises(TypeError, match="takes"):
        sx.Not(NP, NP)


def test_nodes_are_frozen():
    f = sx.Implies(NP, NQ)
    with pytest.raises(FrozenInstanceError):
        f.lhs = NQ
    with pytest.raises(FrozenInstanceError):
        f.extra = 1
    with pytest.raises(FrozenInstanceError):
        del f.rhs
    assert f == sx.Implies(NP, NQ)


# The field layout every generic walk reads, as dataclasses.fields gave it.
LAYOUT = {
    sx.Atom: (('pred', None), ('args', 'terms')),
    sx.Not: (('sub', 'formula'),),
    sx.And: (('args', 'formulas'),),
    sx.Or: (('args', 'formulas'),),
    sx.Implies: (('lhs', 'formula'), ('rhs', 'formula')),
    sx.Iff: (('lhs', 'formula'), ('rhs', 'formula')),
    sx.BoxWeak: (('sub', 'formula'),),
    sx.DiaWeak: (('sub', 'formula'),),
    sx.BoxStrict: (('sub', 'formula'),),
    sx.DiaStrict: (('sub', 'formula'),),
    sx.Everywhere: (('sub', 'formula'),),
    sx.Somewhere: (('sub', 'formula'),),
    sx.SynPref: (('pattern', None), ('strict', None), ('lhs', 'formula'), ('rhs', 'formula')),
    sx.CpDiaWeak: (('guards', 'formulas'), ('sub', 'formula')),
    sx.CpDiaStrict: (('guards', 'formulas'), ('sub', 'formula')),
    sx.CpPrefAA: (('guards', 'formulas'), ('strict', None), ('lhs', 'formula'), ('rhs', 'formula')),
    sx.Cond: (('lhs', 'formula'), ('rhs', 'formula')),
    sx.ValAtom: (('value', None), ('party', 'term')),
}


def test_field_layout():
    assert sx._LAYOUT == LAYOUT
    assert list(sx._LAYOUT) == list(LAYOUT)
