"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload rulings --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; `prefsat` is imported from its `src/`.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones, with `--trace 1` the per-layer ones, and a trace file with the spans
is written under `bench/out/`.  End-to-end times are scaled to a nominal
host speed by a reference loop timed after each operation.  See
bench/README.md for what each metric means and how rounds and medians are
taken.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"

SETUP_REPS = 9  # set-ups per run; setup_s is their median
MIN_ROUNDS = 3  # measured rounds per run, whatever --seconds says
IMPORT_PROBES = 5  # fresh interpreters timed for cli.import_ms
REF_LOOPS = 10_000  # iterations of the reference loop
REF_NOMINAL_S = 0.001  # the reference loop's time at the nominal host speed
SETUP_REFS = 5  # reference loops after each set-up; their median scales it


_clock = time.perf_counter


def reference_s() -> float:
    """Time a fixed pure-Python arithmetic loop that touches nothing of the
    program.  The host's speed for Python code wanders in phases of seconds;
    a time divided by the reference time taken right after it, times
    REF_NOMINAL_S, is that time at the nominal speed."""
    start = _clock()
    x = 0
    for i in range(REF_LOOPS):
        x += i * i % 7
    return _clock() - start


class Run:
    """The operations of one workload and what running them has shown."""

    def __init__(self, ops):
        self.ops = ops
        self.latencies: list[list[float]] = [[] for _ in ops]  # scaled
        self.round_times: list[float] = []  # scaled
        self.raw_round_times: list[float] = []
        self.ref_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, int] = {}

    def problem(self, text: str) -> None:
        self.problems[text] = self.problems.get(text, 0) + 1

    def round(self, launch=None, tracer=None, record: bool = True) -> float:
        """Run every operation once, closed loop; returns the round's time,
        the sum of the operations' latencies (checking is not timed).  With
        `record`, each latency is also kept scaled by the reference time
        taken right after it, and the scaled round time is kept."""
        total = scaled = 0.0
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = op.name
            self.attempted += 1
            start = _clock()
            try:
                out = launch(op) if launch else op.run()
            except Exception as e:  # one operation's fault must not end the run
                self.failed += 1
                self.problem(f"{op.name}: raised {type(e).__name__}: {e}")
                continue
            took = _clock() - start
            total += took
            if record:
                ref = reference_s()
                self.ref_times.append(ref)
                self.latencies[i].append(took * REF_NOMINAL_S / ref)
                scaled += self.latencies[i][-1]
            for text in op.check(out):
                self.problem(f"{op.name}: {text}")
        if record:
            self.round_times.append(scaled)
            self.raw_round_times.append(total)
        return total


def _median(xs):
    return statistics.median(xs)


def setup_workload(workloads, args, spawner, tracer=None):
    """Import prefsat afresh and build the workload's operations.  With a
    tracer, it is installed after the import and left in place."""
    mods = workloads.import_prefsat()
    build = workloads.WORKLOADS[args.workload]
    extra = (spawner,) if args.workload == "cli" else ()
    if tracer is None:
        return mods, build(mods, args.seed, *extra)
    tracer.install(mods)
    with tracer.span("setup"):
        return mods, build(mods, args.seed, *extra)


def timed_setups(workloads, args, spawner):
    """SETUP_REPS set-ups; returns their times, scaled to the nominal speed
    by the median of SETUP_REFS reference loops after each, and the last
    set-up's result."""
    times = []
    for _ in range(SETUP_REPS):
        gc.collect()  # the previous set-up's modules, outside the timing
        start = _clock()
        result = setup_workload(workloads, args, spawner)
        took = _clock() - start
        ref = _median([reference_s() for _ in range(SETUP_REFS)])
        times.append(took * REF_NOMINAL_S / ref)
    return times, result


def end_to_end(workloads, args, spawner) -> tuple[Run, dict]:
    setups, (_, ops) = timed_setups(workloads, args, spawner)
    run = Run(ops)
    run.round(record=False)  # warm-up: caches, lazy set-up, first stdout
    start = _clock()
    while len(run.round_times) < MIN_ROUNDS or _clock() - start < args.seconds:
        run.round()
    per_op = [_median(lat) for lat in run.latencies if lat]
    if args.workload == "cli":
        peak_kb = spawner.peak_rss_kb()
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (_median(setups), "s"),
        "ops_per_s": (len(ops) / _median(run.round_times), "ops/s"),
        "op_p50_ms": (_median(per_op) * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return run, metrics


def _import_ms(workloads) -> float:
    code = ("import time; t = time.perf_counter(); import prefsat.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=workloads.cli_env(), cwd=workloads.ROOT, timeout=60,
                             check=True)
        times.append(float(out.stdout))
    return _median(times) * 1e3


def _traced_cli_launch(spawner, tracer, child_summaries):
    """Run a cli operation under bench/cli_child.py and fold the child's
    trace into `tracer` (spans) and `child_summaries` (totals)."""
    trace_file = OUT / "cli-child-trace.json"
    launcher = [sys.executable, str(BENCH / "cli_child.py"), str(trace_file)]

    def launch(op):
        with tracer.span("cli.command") as span:
            out = spawner.run(op.argv, launcher)
        doc = json.loads(trace_file.read_text())
        trace_file.unlink()
        tracer.adopt(doc, span.frame[0], op.name)
        child_summaries.append(doc)
        return out

    return launch


def traced(workloads, tracing, args, spawner) -> tuple[Run, dict, dict]:
    """Per-layer metrics: one traced set-up plus the median traced round.
    Untraced and traced rounds alternate, and their difference is the
    tracing overhead."""
    timed_setups(workloads, args, spawner)  # the same set-ups an untraced run makes
    gc.collect()
    setup_tracer = tracing.Tracer()
    mods, ops = setup_workload(workloads, args, spawner, setup_tracer)
    setup_tracer.restore()
    run = Run(ops)
    run.round(record=False)
    cli = args.workload == "cli"
    plain, with_trace, summaries, first_round = [], [], [], None
    start = _clock()
    while len(with_trace) < MIN_ROUNDS or _clock() - start < args.seconds:
        plain.append(run.round(record=False))
        tracer = tracing.Tracer()
        if cli:
            children: list[dict] = []
            with_trace.append(run.round(_traced_cli_launch(spawner, tracer, children),
                                       record=False))
            summary = {}
            for doc in children:
                tracing.merge(summary, doc)
        else:
            tracer.install(mods)
            try:
                with_trace.append(run.round(tracer=tracer, record=False))
            finally:
                tracer.restore()
            summary = tracer.summary()
        summaries.append(summary)
        if first_round is None:
            first_round = (tracer.record(), summary)
    run.raw_round_times = plain

    per_round = [tracing.layer_metrics(s) for s in summaries]
    setup_part = tracing.layer_metrics(setup_tracer.summary())
    metrics = {}
    for name, (value, unit) in setup_part.items():
        values = [r[name][0] for r in per_round]
        if unit == "count" and len(set(values)) > 1:
            run.problem(f"traced count {name} differs between rounds: {values}")
        metrics[name] = (value + _median(values), unit)
    metrics["cli.import_ms"] = (_import_ms(workloads), "ms")
    metrics["trace.overhead_s"] = (_median(with_trace) - _median(plain), "s")

    round_s = _median(with_trace)
    self_s = first_round[1].get("self_s", {})
    trace = {
        "workload": args.workload,
        "seed": args.seed,
        "metrics": {k: v[0] for k, v in metrics.items()},
        "traced_round_s": round_s,
        "untraced_round_s": _median(plain),
        "round_self_share": {k: v / round_s for k, v in sorted(self_s.items())},
        "round_share_outside_spans": 1 - sum(self_s.values()) / round_s,
        "counts": first_round[1].get("counts", {}),
        "setup": setup_tracer.record(),
        "round": first_round[0],
    }
    return run, metrics, trace


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("rulings", "crosscheck", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = BENCH.parent
    if not (root / "src" / "prefsat" / "__init__.py").is_file():
        print(f"error: no prefsat sources under {root / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    spawner = workloads.Spawner()
    try:
        if args.trace:
            run, metrics, trace = traced(workloads, tracing, args, spawner)
        else:
            run, metrics = end_to_end(workloads, args, spawner)
    except workloads.SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        spawner.close()

    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(trace))
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1))
    for text, times in list(run.problems.items())[:20]:
        print(f"problem ({times}x): {text}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(run.ops)} operations, "
          f"{len(run.raw_round_times)} measured rounds, median round "
          f"{_median(run.raw_round_times):.3f} s as measured")
    if run.ref_times:
        print(f"  reference loop: median {_median(run.ref_times) * 1e3:.3f} ms "
              f"(nominal {REF_NOMINAL_S * 1e3:g} ms)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
