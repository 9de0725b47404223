"""KB loading, imports, derived queries, and proof replay."""
import textwrap
from dataclasses import FrozenInstanceError

import pytest

import prefsat.syntax as sx
from prefsat.cli import main
from prefsat.kb import (
    ConfigError,
    KnowledgeBase,
    audit_queries,
    case_kb,
    case_proof_path,
    goal_query,
    load_kb,
    load_proof,
    replay,
    sat_query,
    step_queries,
)
from prefsat.solver import BoundedValid, Countermodel, Satisfiable, check
from conftest import replace


def write(tmp_path, name, body):
    p = tmp_path / name
    p.write_text(textwrap.dedent(body))
    return p


# ---------------------------------------------------------------------------
# document loading


def test_load_kb_collects_entries(tmp_path):
    p = write(tmp_path, "demo.kb", """\
        ; a comment
        (atom Rain)
        (atom Wet contender)
        (axiom a1 (implies Rain (Wet p)))
        (fact f1 Rain)
        (goal g1 (Wet p))
        (option bound 3)
        """)
    kb = load_kb(p)
    assert kb.name == "demo"
    assert set(kb.axioms) == {"a1"} and set(kb.facts) == {"f1"} and set(kb.goals) == {"g1"}
    assert kb.options == {"bound": 3}
    assert kb.sig.atoms["Wet"] == ("contender",)


def test_knowledge_bases_never_share_a_dict():
    a, b = KnowledgeBase("a", sx.Signature()), KnowledgeBase("b", sx.Signature())
    for name in ("axioms", "facts", "goals", "options"):
        assert getattr(a, name) == {} and getattr(a, name) is not getattr(b, name), name
    a.axioms["x"] = sx.Atom("P")
    assert b.axioms == {}
    options = {"bound": 3}
    assert KnowledgeBase("c", sx.Signature(), options=options).options is options


def test_load_kb_rejects_malformed_documents(tmp_path):
    bad = [
        ("(axiom a1)", "name and a formula"),
        ("(atom)", "atom takes"),
        ("(sort s)", "at least one"),
        ("(blah x y)", "unknown top-level"),
        ("(atom Rain) (axiom a1 Rain) (fact a1 Rain)", "duplicate entry"),
        ("plain-symbol", "top level"),
    ]
    for i, (body, message) in enumerate(bad):
        with pytest.raises(sx.ParseError, match=message):
            load_kb(write(tmp_path, f"bad{i}.kb", body))
    with pytest.raises(ConfigError, match="cannot read"):
        load_kb(tmp_path / "absent.kb")


@pytest.mark.parametrize("option, message", [
    ("(option totl true)", "unknown option 'totl'"),
    ("(option total maybe)", "option total takes"),
    ("(option bound x)", "option bound takes an integer"),
    ("(option bound 0)", "option bound must be in 1..62, not 0"),
    ("(option bound -3)", "option bound must be in 1..62, not -3"),
    ("(option bound 99)", "option bound must be in 1..62, not 99"),
    ("(option bound 1_0)", "option bound takes an integer"),
    ("(option bound +3)", "option bound takes an integer"),
    ("(option bound \u0663)", "option bound takes an integer"),  # ARABIC-INDIC DIGIT THREE
    ("(option bound \uff11\uff12)", "option bound takes an integer"),  # FULLWIDTH 12
], ids=["unknown-key", "bad-total", "bad-bound", "bound-0", "bound-negative", "bound-99",
        "bound-underscore", "bound-plus", "bound-arabic-indic", "bound-fullwidth"])
def test_load_kb_rejects_bad_options(tmp_path, capsys, option, message):
    p = write(tmp_path, "opt.kb", f"(atom Rain)\n(goal g1 Rain)\n{option}\n")
    with pytest.raises(sx.ParseError, match=f"line 3: {message}"):
        load_kb(p)
    assert main(["entail", str(p)]) == 2
    assert message in capsys.readouterr().err


def test_an_option_is_set_once_per_file(tmp_path, capsys):
    for key, first, second in (("bound", "3", "5"), ("total", "true", "false")):
        p = write(tmp_path, "twice.kb",
                  f"(atom Rain)\n(goal g1 Rain)\n(option {key} {first})\n(option {key} {second})\n")
        with pytest.raises(sx.ParseError, match=rf"line 4: more than one \(option {key} \.\.\.\)"):
            load_kb(p)
        assert main(["entail", str(p)]) == 2
        assert capsys.readouterr().err.startswith("error: line 4: ")
    # an imported option is not the file's own: the file's option wins,
    # before the import or after it
    write(tmp_path, "base.kb", "(atom Rain) (option bound 2)")
    for body in ("(option bound 5) (import base)", "(import base) (option bound 5)"):
        assert load_kb(write(tmp_path, "top.kb", body)).options["bound"] == 5


def test_imports_merge_and_stay_unique(tmp_path):
    write(tmp_path, "base.kb", "(atom Rain) (axiom a1 Rain) (option bound 2)")
    child = write(tmp_path, "child.kb", """\
        (import base)
        (fact f1 Rain)
        (option bound 5)
        """)
    kb = load_kb(child)
    assert set(kb.axioms) == {"a1"} and set(kb.facts) == {"f1"}
    assert kb.options["bound"] == 5  # the importing file wins

    write(tmp_path, "clash.kb", "(import base) (axiom a1 (not Rain))")
    with pytest.raises(sx.ParseError, match="duplicate entry"):
        load_kb(tmp_path / "clash.kb")

    write(tmp_path, "self.kb", "(import self)")
    with pytest.raises(ConfigError, match="cycle"):
        load_kb(tmp_path / "self.kb")


def test_entries_are_stored_grounded_and_desugared(tmp_path):
    # an imported entry is parsed in its own file's signature; the
    # importing file only adds sorts, so that is the same formula
    write(tmp_path, "base.kb", """\
        (sort thing a b)
        (atom Has contender thing)
        (axiom own (forall x thing (implies (Has p x) (dialt (Has d x)))))
        """)
    top = write(tmp_path, "top.kb", """\
        (import base)
        (sort place here there)
        (atom At place)
        (fact f1 (exists y place (At y)))
        (goal g1 (prefsyn ae strict (Has p a) (At here)))
        """)
    kb = load_kb(top)
    entries = {**kb.axioms, **kb.facts, **kb.goals}
    for name, text in [("own", "(forall x thing (implies (Has p x) (dialt (Has d x))))"),
                       ("f1", "(exists y place (At y))"),
                       ("g1", "(prefsyn ae strict (Has p a) (At here))")]:
        assert entries[name] == sx.parse_formula(text, kb.sig), name
    # the preference statement is stored as the modal-core formula it abbreviates
    has, at = sx.Atom("Has", ("p", "a")), sx.Atom("At", ("here",))
    assert kb.goals["g1"] == sx.Everywhere(sx.Implies(has, sx.DiaStrict(at)))
    assert goal_query(kb, "g1").target is kb.goals["g1"]


def test_goal_query_and_overrides(tmp_path):
    p = write(tmp_path, "demo.kb", """\
        (atom Rain)
        (axiom a1 (A Rain))
        (fact f1 Rain)
        (goal g1 (boxleq Rain))
        (option bound 3)
        """)
    kb = load_kb(p)
    q = goal_query(kb, "g1")
    assert q.bound == 3 and q.mode == "refute" and len(q.facts) == 1
    assert goal_query(kb, "g1", with_facts=False).facts == ()
    assert goal_query(kb, "g1", bound=6, engine="both").bound == 6
    assert isinstance(check(q), BoundedValid)
    with pytest.raises(ConfigError, match="no goal"):
        goal_query(kb, "nope")
    s = sat_query(kb)
    assert s.mode == "find" and isinstance(check(s), Satisfiable)


# ---------------------------------------------------------------------------
# shipped cases


def test_shipped_cases_load_and_rule():
    for name, goal, party in [
        ("pierson", "ruling-for-d", "d"),
        ("post", "ruling-for-p", "p"),
        ("conti", "ruling-for-p", "p"),
    ]:
        kb = case_kb(name)
        assert set(case_kb("general").axioms) <= set(kb.axioms)
        assert list(kb.goals) == [goal]
        v = check(goal_query(kb, goal))
        assert isinstance(v, BoundedValid), (name, v.kind)
        # (boxlt (For party)), read as the negated strict diamond of its negation
        assert sx.format_formula(kb.goals[goal]) == f"(not (dialt (not (For {party}))))"


def test_unknown_case_rejected():
    with pytest.raises(ConfigError, match="no shipped case"):
        case_kb("marbury")


def test_general_knowledge_alone_decides_nothing():
    kb = case_kb("general")
    assert not kb.goals and not kb.facts
    # without case facts the ruling direction is open
    probe = sx.parse_formula("(boxlt (For d))", kb.sig)
    from prefsat.solver import Query

    v = check(Query(axioms=tuple(kb.axioms.values()), target=probe, mode="refute"))
    assert isinstance(v, Countermodel)


def test_case_facts_matter():
    # same goal formula, no facts: the entailment breaks
    kb = case_kb("pierson")
    v = check(goal_query(kb, "ruling-for-d", with_facts=False))
    assert isinstance(v, Countermodel)


def test_conflict_audit_is_clean_on_shipped_cases():
    for name in ("pierson", "post", "conti"):
        kb = case_kb(name)
        queries = audit_queries(kb)
        assert set(queries) == {"p", "d"}
        for party, q in queries.items():
            assert isinstance(check(q), Countermodel), (name, party)


# ---------------------------------------------------------------------------
# proof scripts


def test_load_proof_structure():
    kb = case_kb("pierson")
    steps = load_proof(case_proof_path("pierson"), kb.sig)
    assert [s.name for s in steps] == [
        "s1-wild-setting", "s2-pref-instance", "s3-pref-lifted", "s4-will-link",
        "s5-stab-link", "s6-exhaustive", "s7-stab-forced", "s8-ruling",
    ]
    assert all(s.bound == 4 for s in steps)
    assert steps[1].uses == ("s1-wild-setting", "R2")
    with pytest.raises(FrozenInstanceError):
        steps[1].uses = ()


def test_shipped_formulas_print_and_parse_back():
    # the printer on real KB trees, as an EngineDisagreement message prints them
    for name in ("general", "pierson", "post", "conti"):
        kb = case_kb(name)
        formulas = [*kb.axioms.values(), *kb.facts.values(), *kb.goals.values()]
        if name == "pierson":
            formulas += [step.formula for step in load_proof(case_proof_path(name), kb.sig)]
        for f in formulas:
            text = sx.format_formula(f)
            assert sx.parse_formula(text, kb.sig) == f, (name, text)


def test_load_proof_rejects_bad_references(tmp_path):
    kb = case_kb("pierson")
    fwd = write(tmp_path, "fwd.proof", """\
        (step z appAnimal)
        (step a appWildAnimal
              (uses b))
        (step b appWildAnimal)
        """)
    # the citing step's line
    with pytest.raises(sx.ParseError, match="^line 2: unresolved reference: step 'a' cites 'b' "
                                            "which is not an earlier step$"):
        load_proof(fwd, kb.sig)
    dup = write(tmp_path, "dup.proof", """\
        (step a appWildAnimal)
        (step a appAnimal)
        """)
    with pytest.raises(sx.ParseError, match="duplicate step"):
        load_proof(dup, kb.sig)
    selfref = write(tmp_path, "self.proof", "(step z appAnimal)\n\n(step a appWildAnimal (uses a))")
    with pytest.raises(sx.ParseError, match="^line 3: unresolved reference: step 'a' cites 'a' "):
        load_proof(selfref, kb.sig)
    with pytest.raises(sx.ParseError, match="only .step"):
        load_proof(write(tmp_path, "junk.proof", "(lemma a appAnimal)"), kb.sig)
    with pytest.raises(sx.ParseError, match="integer"):
        load_proof(write(tmp_path, "badb.proof", "(step a appAnimal (bound x))"), kb.sig)


@pytest.mark.parametrize("clauses, message", [
    ("(bound 0)", "line 3: bound must be in 1..62, not 0"),
    ("(bound 70)", "line 3: bound must be in 1..62, not 70"),
    ("(uses b) (uses a)", "line 3: step 's1' has more than one .uses .... clause"),
    ("(bound 4) (bound 2)", "line 3: step 's1' has more than one .bound .... clause"),
    ("(bound 1_0)", "line 3: bound takes an integer"),
    ("(bound +3)", "line 3: bound takes an integer"),
    ("(bound \u0663)", "line 3: bound takes an integer"),  # ARABIC-INDIC DIGIT THREE
    ("(bound \uff11\uff12)", "line 3: bound takes an integer"),  # FULLWIDTH 12
], ids=["bound-0", "bound-70", "repeated-uses", "repeated-bound",
        "bound-underscore", "bound-plus", "bound-arabic-indic", "bound-fullwidth"])
def test_load_proof_rejects_bad_step_clauses(tmp_path, capsys, clauses, message):
    # each clause is checked at its own line, before any query is built
    kb = case_kb("pierson")
    p = write(tmp_path, "p.proof", f"(step s0 appAnimal)\n(step s1 appAnimal\n  {clauses})\n")
    with pytest.raises(sx.ParseError, match=message):
        load_proof(p, kb.sig)
    assert main(["replay", str(p), "--kb", "pierson"]) == 2
    assert capsys.readouterr().err.startswith("error: line 3: ")


def test_empty_proof_form_is_a_parse_error(tmp_path, capsys):
    kb = case_kb("pierson")
    empty = write(tmp_path, "p.proof", "()\n")
    with pytest.raises(sx.ParseError, match="line 1: proof files contain only"):
        load_proof(empty, kb.sig)
    assert main(["replay", str(empty), "--kb", "pierson"]) == 2
    assert "proof files contain only (step ...) forms" in capsys.readouterr().err


def test_replay_full_ruling_passes():
    kb = case_kb("pierson")
    steps = load_proof(case_proof_path("pierson"), kb.sig)
    results = replay(steps, kb)
    assert [r.passed for r in results] == [True] * 8
    assert all(isinstance(r.verdict, BoundedValid) for r in results)
    assert all(not r.missing and not r.unavailable for r in results)


def test_replay_uses_only_cited_support():
    kb = case_kb("pierson")
    steps = load_proof(case_proof_path("pierson"), kb.sig)
    # s1 cites no preference rule, so a step citing only s1 cannot conclude one
    s2_trimmed = replace(steps[1], uses=("s1-wild-setting",))
    results = replay([steps[0], s2_trimmed], kb)
    assert results[0].passed and not results[1].passed
    assert isinstance(results[1].verdict, Countermodel)


def test_replay_marks_missing_and_unavailable_support():
    kb = case_kb("pierson")
    del kb.axioms["R2"]
    steps = load_proof(case_proof_path("pierson"), kb.sig)
    results = {r.name: r for r in replay(steps, kb)}
    assert results["s2-pref-instance"].missing == ("R2",)
    assert not results["s2-pref-instance"].passed
    assert results["s7-stab-forced"].unavailable == ("s3-pref-lifted",)
    assert results["s8-ruling"].unavailable == ("s7-stab-forced",)
    assert results["s1-wild-setting"].passed  # independent steps still pass


def test_step_queries_mirror_the_replay_workload():
    kb = case_kb("pierson")
    steps = load_proof(case_proof_path("pierson"), kb.sig)
    named = step_queries(steps, kb)
    assert [n for n, _ in named] == [s.name for s in steps]
    q2 = dict(named)["s2-pref-instance"]
    assert len(q2.axioms) == 1 and len(q2.facts) == 1  # R2 global, s1 at world 0
    assert all(isinstance(check(q), BoundedValid) for _, q in named)


def test_replay_honours_the_total_option(tmp_path):
    # one of any two propositions is weakly preferred to the other only when
    # betterness is total; a two-world non-total model refutes it otherwise
    goal = "(or (prefsyn ee weak P Q) (prefsyn ee weak Q P))"
    p = write(tmp_path, "tot.kb", f"""\
        (atom P) (atom Q)
        (option total true)
        (axiom some-p (E P))
        (axiom some-q (E Q))
        (goal either {goal})
        """)
    kb = load_kb(p)
    assert isinstance(check(goal_query(kb, "either")), BoundedValid)
    proof = write(tmp_path, "tot.proof", f"(step either {goal} (uses some-p some-q))")
    (result,) = replay(load_proof(proof, kb.sig), kb)
    assert result.passed and isinstance(result.verdict, BoundedValid)
    (_, q), = step_queries(load_proof(proof, kb.sig), kb)
    assert q.total and q.bound == 4
