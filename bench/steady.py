"""Steadiness check: two sets of runs of the same code, compared.

    python3 bench/steady.py

Runs bench/run.py on every workload of BENCHMARK.json for seeds 1 to 10,
one run at a time and `run_seconds` each, then does it all again.  For each
workload and end-to-end metric it prints each set's median and quartiles,
the spread (quartile distance over median) against the metric's bound, and
how far the second set's median lies from the first's, in either direction,
against the bound.  The spread of setup_s is printed but not held to its
bound: a run's set-up is a few tenths of a second of work beside
`run_seconds` for the other metrics, and a set-up cost is judged by how its
median moves.  The figures are also written to bench/out/steady.json.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10  # runs per set and workload, seeds 1..RUNS
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    sets = []  # sets[i][workload] -> list of results
    for s in range(SETS):
        results: dict[str, list] = {w: [] for w in names}
        for seed in range(1, RUNS + 1):
            for w in names:
                r = run_once(w, seed, spec["run_seconds"])
                results[w].append(r)
                print(f"set {s + 1} {w} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} " +
                      " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()),
                      flush=True)
        sets.append(results)

    report, steady = [], True
    print()
    for w in names:
        shares = [sum(r["failed"] for r in st[w]) / sum(r["attempted"] for r in st[w])
                  for st in sets]
        correct = all(r["correct"] for st in sets for r in st[w])
        same_share = len(set(shares)) == 1
        steady &= correct and same_share
        print(f"{w}: correct={correct} failed share per set={shares} "
              f"{'same' if same_share else 'DIFFERENT'}")
        for m in metrics:
            bound = m["bound"]
            row = {"workload": w, "metric": m["name"], "bound": bound, "sets": []}
            for st in sets:
                q1, med, q3 = quartiles([r["metrics"][m["name"]]["value"] for r in st[w]])
                row["sets"].append({"median": med, "q1": q1, "q3": q3,
                                    "spread": (q3 - q1) / med})
            first, second = (x["median"] for x in row["sets"])
            shift = abs(second - first) / first
            held = m["name"] != "setup_s"
            spread_ok = all(x["spread"] <= bound for x in row["sets"])
            row.update(shift=shift, spread_ok=spread_ok, shift_ok=shift <= bound)
            steady &= (spread_ok or not held) and shift <= bound
            report.append(row)
            cells = "  ".join(f"{x['median']:.5g} [{x['q1']:.5g}, {x['q3']:.5g}] "
                              f"spread {x['spread']:.3f}" for x in row["sets"])
            verdict = "ok" if spread_ok else "TOO WIDE" if held else "wide, not held to bound"
            print(f"  {m['name']:<12} {cells}  bound {bound}  spread {verdict}  "
                  f"medians apart by {shift:.3f} {'ok' if shift <= bound else 'TOO MUCH'}")
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "steady.json").write_text(json.dumps(report, indent=1))
    print(f"\nsteady: {'yes' if steady else 'NO'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
