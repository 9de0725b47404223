"""Command-line behavior: verdict lines, exit codes, determinism."""
import json
import random
import re
import shutil
from pathlib import Path

import pytest

from prefsat.cli import main
from prefsat.kb import case_proof_path

SHIPPED = case_proof_path("pierson").parent  # the shipped .kb and .proof files


# recorded stdout and exit code of the shipped-case commands; the same
# command line must keep printing the same bytes
GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_golden(name, code, out):
    assert (code, out) == (GOLDEN_CODES[name], (GOLDEN / f"{name}.out").read_text()), name


# ---------------------------------------------------------------------------
# goal commands


def test_entail_rules_for_the_captor(capsys):
    code, out, _ = run(capsys, "entail", "pierson")
    assert code == 0
    assert out == "goal ruling-for-d: BoundedValid bound=4\n"


def test_check_without_facts_renders_a_countermodel(capsys):
    code, out, _ = run(capsys, "check", "pierson")
    assert code == 1
    assert out.startswith("goal ruling-for-d: Countermodel worlds=")
    assert "succ=[" in out  # world lines are rendered


def test_every_shipped_case_entails_its_ruling(capsys):
    for case in ("pierson", "post", "conti"):
        code, out, _ = run(capsys, "entail", case)
        assert code == 0 and "BoundedValid" in out, (case, out)
        assert_golden(f"entail-{case}", code, out)
        # the axioms-only check and the model search print fixed bytes too
        for command in ("check", "model"):
            assert_golden(f"{command}-{case}", *run(capsys, command, case)[:2])


def test_seed_is_a_suite_option_only(capsys):
    for command in ("check", "entail", "model", "replay"):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "pierson", "--seed", "0"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_bound_override_is_respected(capsys):
    code, out, _ = run(capsys, "entail", "pierson", "--bound", "2")
    assert code == 0
    assert out == "goal ruling-for-d: BoundedValid bound=2\n"


@pytest.mark.parametrize("bound, message", [
    # as a KB's (option bound N): int() alone would read the first four as 10, 3, 3, 3
    *((bound, "bound takes an integer") for bound in ("1_0", "+3", " 3", "\u0663")),
    ("0", "bound must be in 1..62, not 0"),
    ("63", "bound must be in 1..62, not 63"),
])
def test_bound_takes_ascii_digits_in_range_only(capsys, bound, message):
    with pytest.raises(SystemExit) as exit_info:
        main(["entail", "pierson", "--bound", bound])
    out, err = capsys.readouterr()
    assert (exit_info.value.code, out) == (2, "")
    assert err.endswith(f"error: argument --bound: {message}\n")


def test_model_finds_a_case_model(capsys):
    code, out, _ = run(capsys, "model", "conti")
    assert code == 0
    assert out.startswith("conti: Satisfiable worlds=")


def test_dot_export(tmp_path, capsys):
    target = tmp_path / "counter.dot"
    code, out, _ = run(capsys, "check", "pierson", "--dot", str(target))
    assert code == 1
    assert f"dot written to {target}" in out
    text = target.read_text()
    assert text.startswith("digraph preference_model {") and text.endswith("}\n")
    assert text == (GOLDEN / "check-pierson.dot").read_text()


# ---------------------------------------------------------------------------
# replay


def test_replay_shipped_proof(capsys):
    code, out, _ = run(capsys, "replay", "pierson")
    assert code == 0
    assert_golden("replay-pierson", code, out)
    lines = out.strip().splitlines()
    assert lines[-1] == "replay: 8/8 steps passed"
    assert sum(1 for line in lines if line.startswith("step ") and line.endswith(": pass")) == 8


def test_replay_takes_no_bound(capsys):
    # every step runs at its own (bound N); a --bound would be silently ignored
    for bound in ("1", "99"):
        with pytest.raises(SystemExit) as exit_info:
            main(["replay", "pierson", "--bound", bound])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --bound" in capsys.readouterr().err


def test_replay_from_file_needs_kb(tmp_path, capsys):
    proof = tmp_path / "copy.proof"
    shutil.copyfile(case_proof_path("pierson"), proof)
    code, _, err = run(capsys, "replay", str(proof))
    assert code == 2 and "needs --kb" in err
    code, out, _ = run(capsys, "replay", str(proof), "--kb", "pierson")
    assert code == 0 and out.strip().endswith("replay: 8/8 steps passed")


def test_replay_unknown_proof(capsys):
    code, _, err = run(capsys, "replay", "conti")
    assert code == 2 and "no shipped proof" in err


# ---------------------------------------------------------------------------
# suites


def test_meta_suite_cross_checked_at_small_bound(capsys):
    # every suite with both engines at bound 3, where the oracle decides each
    # query in its domain; recorded like the goldens above, all exiting 0
    # (not in exit_codes.json, whose names are "<subcommand>-<argument>")
    for name in ("meta", "values", "cases"):
        code, out, _ = run(capsys, "suite", name, "--engine", "both", "--bound", "3")
        assert (code, out) == (0, (GOLDEN / f"suite-{name}-both-bound3.out").read_text()), name


def test_suites_all_pass_by_default(capsys):
    for name in ("meta", "values", "cases"):
        code, out, _ = run(capsys, "suite", name, "--seed", "0")
        assert code == 0, (name, out)
        passed_line = out.strip().splitlines()[-1]
        assert passed_line.startswith(f"{name}:") and "rows passed" in passed_line
        assert_golden(f"suite-{name}", code, out)


def test_suite_output_is_deterministic(capsys):
    first = run(capsys, "suite", "cases", "--seed", "7")
    second = run(capsys, "suite", "cases", "--seed", "7")
    assert first == second


def test_fault_injection_reports_a_bug(capsys, enum_fault):
    code, out, _ = run(capsys, "suite", "meta", "--engine", "both", "--bound", "2")
    assert code == 3
    assert "engine disagreement (this is a bug" in out
    assert "sat says" in out and "enum says" in out


# ---------------------------------------------------------------------------
# usage errors


def test_missing_kb_file(capsys):
    code, _, err = run(capsys, "entail", "/nonexistent/thing.kb")
    assert code == 2 and "KB file not found" in err


def test_unknown_case_name(capsys):
    code, _, err = run(capsys, "entail", "marbury")
    assert code == 2 and "no shipped case" in err


def test_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["suite", "everything"])
    assert exc.value.code == 2


def test_enum_engine_outside_its_domain_is_a_usage_error(capsys):
    # the default bound 4 is beyond the oracle's three worlds
    for argv in (("entail", "pierson"), ("suite", "meta")):
        code, out, err = run(capsys, *argv, "--engine", "enum")
        assert code == 2 and err.startswith("error:"), (argv, code, err)


def test_zero_budget_is_exhausted_before_any_search(capsys):
    code, out, _ = run(capsys, "entail", "pierson", "--budget", "0")
    assert code == 2
    assert out == "goal ruling-for-d: Unknown reason=budget-exhausted\n"


def test_a_ruling_at_sixteen_worlds_fits_a_ten_second_budget(capsys):
    # probed at 1, 2, 4, 8 and 16 worlds; each refutation from 4 worlds up
    # ends while the maximal-world lemma is probed
    code, out, _ = run(capsys, "entail", "pierson", "--bound", "16", "--budget", "10")
    assert (code, out) == (0, "goal ruling-for-d: BoundedValid bound=16\n")


def test_nan_budget_is_a_usage_error(capsys):
    # time.monotonic() >= nan is never true, so a NaN budget would never run out
    code, out, err = run(capsys, "entail", "pierson", "--budget", "nan")
    assert code == 2 and out == ""
    assert err == "error: budget must be a number of seconds, not nan\n"
    # a negative budget has already run out
    code, out, _ = run(capsys, "entail", "pierson", "--budget", "-1")
    assert code == 2
    assert out == "goal ruling-for-d: Unknown reason=budget-exhausted\n"


def test_out_of_range_kb_bound_is_a_parse_error_even_when_overridden(tmp_path, capsys):
    kb = tmp_path / "b.kb"
    kb.write_text("(atom Rain)\n(goal g1 Rain)\n(option bound 0)\n")
    code, out, err = run(capsys, "check", str(kb), "--bound", "2")
    assert (code, out, err) == (2, "", "error: line 3: option bound must be in 1..62, not 0\n")


def test_kb_without_goals(tmp_path, capsys):
    kb = tmp_path / "empty.kb"
    kb.write_text("(atom Rain)\n(fact f1 Rain)\n")
    code, _, err = run(capsys, "entail", str(kb))
    assert code == 2 and "declares no goals" in err


# ---------------------------------------------------------------------------
# bad input: every mutant of a shipped file ends with an exit code, never a
# traceback

# whitespace runs are kept as parts, so every line break survives a mutation
_MUTANT_PART = re.compile(r"\s+|[()]|[^\s()]+")


def mutant(text: str, rng: random.Random) -> str:
    """The text with 1-3 tokens deleted, duplicated, swapped with another
    token or replaced by another token of the text."""
    parts = _MUTANT_PART.findall(text)
    tokens = [i for i, part in enumerate(parts) if not part.isspace()]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(tokens, 2)
        edit = rng.choice(("delete", "duplicate", "swap", "replace"))
        if edit == "delete":
            parts[i] = ""
        elif edit == "duplicate":
            parts[i] = f"{parts[i]} {parts[i]}"
        elif edit == "swap":
            parts[i], parts[j] = parts[j], parts[i]
        else:
            parts[i] = parts[j]
    return "".join(parts)


def mutants(seed: int, per_file: int):
    """(shipped file name, mutant text), per_file mutants of each file."""
    rng = random.Random(seed)
    for path in sorted(SHIPPED.iterdir()):
        text = path.read_text()
        for _ in range(per_file):
            yield path.name, mutant(text, rng)


def mutant_argv(directory: Path, name: str, text: str) -> list[str]:
    """Write the mutant beside copies of the shipped files; the command that
    reads it."""
    target = directory / f"mutant{Path(name).suffix}"
    target.write_text(text)
    if target.suffix == ".kb":
        return ["entail", str(target), "--bound", "2", "--budget", "2"]
    return ["replay", str(target), "--kb", str(directory / "pierson.kb"), "--budget", "2"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bad_input_never_ends_in_a_traceback(tmp_path, capsys, seed):
    for path in SHIPPED.iterdir():
        shutil.copy(path, tmp_path)
    for name, text in mutants(seed, 14):
        try:
            code = main(mutant_argv(tmp_path, name, text))
        except Exception as e:
            pytest.fail(f"mutant of {name} raised {e!r}:\n{text}")
        capsys.readouterr()
        assert code in (0, 1, 2), f"mutant of {name} exited {code}:\n{text}"
