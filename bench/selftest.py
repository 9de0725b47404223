"""Tests of the benchmark itself: its output checks and its trace counts.

    python3 bench/selftest.py

Run from the root of a checkout.  These are not part of the program's test
suite; they check that the benchmark would notice a wrong answer and that
its per-layer counts repeat exactly.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODS = workloads.import_prefsat()
sx, solver, model = MODS["syntax"], MODS["solver"], MODS["model"]
P, Q = sx.Atom("P"), sx.Atom("Q")


def world(p: bool, q: bool):
    """A one-world model with the given truth values for P and Q."""
    return model.PreferenceModel(1, (1,), {("P", ()): int(p), ("Q", ()): int(q)}, {})


class VerdictChecks(unittest.TestCase):
    query = solver.Query(axioms=(P,), target=Q, mode="refute", bound=2)

    def test_right_answers_pass(self):
        self.assertEqual(check.check_verdict(solver.Countermodel(world(True, False), 2),
                                             self.query, "countermodel", model), [])
        self.assertEqual(check.check_verdict(solver.BoundedValid(2), self.query,
                                             "bounded-valid", model), [])

    def test_wrong_verdict_kind(self):
        problems = check.check_verdict(solver.BoundedValid(2), self.query,
                                       "countermodel", model)
        self.assertEqual(problems, ["expected countermodel, got bounded-valid"])

    def test_wrong_bound(self):
        problems = check.check_verdict(solver.BoundedValid(1), self.query,
                                       "bounded-valid", model)
        self.assertTrue(problems)

    def test_witness_violating_an_axiom(self):
        problems = check.check_verdict(solver.Countermodel(world(False, False), 2),
                                       self.query, "countermodel", model)
        self.assertIn("witness violates an axiom", problems)

    def test_witness_satisfying_the_refuted_target(self):
        problems = check.check_verdict(solver.Countermodel(world(True, True), 2),
                                       self.query, "countermodel", model)
        self.assertIn("witness satisfies the refuted target", problems)

    def test_witness_falsifying_a_found_target(self):
        find = solver.Query(target=Q, mode="find", bound=2)
        problems = check.check_verdict(solver.Satisfiable(world(True, False)), find,
                                       "satisfiable", model)
        self.assertTrue(problems)

    def test_replay_with_a_failed_step(self):
        kb = MODS["kb"]
        pierson = kb.case_kb("pierson")
        steps = kb.load_proof(kb.case_proof_path("pierson"), pierson.sig)
        results = kb.replay(steps, pierson)
        self.assertEqual(check.check_replay(results, 8), [])
        self.assertTrue(check.check_replay(results[:7], 8))
        bad = list(results)
        bad[3] = kb.StepResult(bad[3].name, False, bad[3].verdict)
        self.assertTrue(check.check_replay(bad, 8))


class CommandChecks(unittest.TestCase):
    entail = workloads.Expect(0, exact="goal ruling-for-d: BoundedValid bound=4\n")
    suite = workloads.Expect(0, summary=True)
    meta_ok = "suite meta: engine=sat bound=4 seed=0\nPASS x  ok\nmeta: 17/17 rows passed\n"

    def test_right_output_passes(self):
        self.assertEqual(check.check_command(self.entail, 0, self.entail.exact, "", None), [])
        self.assertEqual(check.check_command(self.suite, 0, self.meta_ok, "", self.meta_ok), [])

    def test_wrong_exit_code(self):
        problems = check.check_command(self.entail, 1, self.entail.exact, "", None)
        self.assertEqual(problems, ["exit code 1, expected 0"])

    def test_wrong_summary_line(self):
        out = self.meta_ok.replace("17/17", "16/17")
        self.assertTrue(check.check_command(self.suite, 0, out, "", None))
        self.assertTrue(check.check_command(self.suite, 0, "no summary\n", "", None))

    def test_wrong_first_line(self):
        out = "goal ruling-for-p: BoundedValid bound=4\n"
        self.assertTrue(check.check_command(self.entail, 0, out, "", None))

    def test_stdout_differs_between_rounds(self):
        later = self.meta_ok.replace("PASS x  ok", "PASS x  ok ")
        problems = check.check_command(self.suite, 0, later, "", self.meta_ok)
        self.assertEqual(problems, ["stdout differs from an earlier round"])

    def test_stderr_is_a_problem(self):
        self.assertTrue(check.check_command(self.entail, 0, self.entail.exact,
                                            "Traceback ...", None))


def _traced_counts(ops) -> dict:
    tracer = tracing.Tracer()
    tracer.install(MODS)
    try:
        for op in ops:
            op.run()
    finally:
        tracer.restore()
    summary = tracer.summary()
    return {"calls": summary["calls"], "counts": summary["counts"]}


class TraceCounts(unittest.TestCase):
    def test_two_traced_passes_count_the_same(self):
        ops = workloads.rulings_ops(MODS, 1)
        ops += [op for op in workloads.crosscheck_ops(MODS, 1)
                if not op.name.startswith(("pierson-step-s1", "pierson-step-s2"))]
        first, second = _traced_counts(ops), _traced_counts(ops)
        for key in ("solver.encode_vars", "solver.encode_clauses", "solver.cdcl_learnt",
                    "solver.oracle_models"):
            self.assertGreater(first["counts"].get(key, 0), 0, key)
        self.assertEqual(first, second)

    def test_two_traced_runs_report_the_same_counts(self):
        counts = []
        for _ in range(2):
            out = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", "rulings",
                 "--seed", "1", "--seconds", "1", "--trace", "1"],
                capture_output=True, text=True, check=True, timeout=170)
            result = json.loads(out.stdout.splitlines()[-1])
            self.assertTrue(result["correct"])
            counts.append({k: v["value"] for k, v in result["metrics"].items()
                           if v["unit"] == "count"})
        self.assertGreater(counts[0]["solver.cdcl_learnt"], 0)
        self.assertEqual(counts[0], counts[1])


if __name__ == "__main__":
    unittest.main()
