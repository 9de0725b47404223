"""Per-layer tracing for the benchmark, installed from outside the program.

The tracer replaces public functions of each `prefsat` module with wrappers
that record a span (name, start, end, parent, operation) and add to per-layer
time and call totals.  Nothing in `src/` knows about it: the wrappers are set
on the module (or class) attributes the program looks up at call time, and
`restore()` puts the originals back.

A re-entrant call into a layer that is already open (the recursion in
`desugar`, a KB import inside `load_kb`) runs unwrapped, so inclusive times
are not counted twice and a call count is a count of outermost calls.

Spans are kept in memory and written once, at the end.  The enumeration
oracle evaluates formulas hundreds of thousands of times per round, so only
the first `SPAN_CAP` spans are kept; the totals always cover every call.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict

SPAN_CAP = 100_000
MODULES = ("syntax", "model", "solver", "kb", "suites", "lifts", "values", "cli")

# (layer, module name, attribute names).  A module name "solver.CDCL" means
# a class attribute.  Functions imported with `from .x import f` are patched
# in the importing module, because that is the name its callers look up.
LAYERS = (
    ("syntax.read_forms", "syntax", ("read_forms",)),
    ("syntax.elaborate", "syntax", ("elaborate",)),
    ("syntax.desugar", "syntax", ("desugar",)),
    ("kb.load_kb", "kb", ("load_kb", "load_proof")),
    ("kb.query_build", "kb", ("goal_query", "sat_query", "audit_queries", "step_queries")),
    ("kb.replay", "kb", ("replay",)),
    ("solver.check", "solver", ("check",)),
    ("solver.check", "kb", ("check",)),
    ("solver.check", "suites", ("check", "solve_at")),
    ("solver.check", "cli", ("check",)),
    ("solver.encode", "solver", ("encode",)),
    ("solver.cdcl_solve", "solver.CDCL", ("solve",)),
    ("solver.witness_check", "solver._Encoder", ("decode",)),
    ("solver.witness_check", "solver", ("_validate_witness",)),
    ("solver.oracle", "solver", ("enum_oracle",)),
    ("model.eval", "solver", ("truth_at", "globally_true", "eval_formula")),
    ("model.eval", "suites", ("truth_at", "eval_formula")),
    ("model.render", "solver", ("render_text", "render_verdict")),
    ("model.render", "suites", ("render_text", "render_verdict")),
    ("model.render", "cli", ("render_verdict", "render_dot")),
    ("lifts", "suites", ("sem_lift", "cp_lift_aa", "best_worlds", "halpern_more_likely")),
    ("lifts", "values", ("sem_lift",)),
    ("values", "suites", ("aggregate1", "aggregate2", "concept_from_intent",
                          "concept_join", "concept_meet", "down", "is_concept", "up")),
    ("suites.run_suite", "suites", ("run_suite",)),
    ("suites.run_suite", "cli", ("run_suite",)),
    ("cli.main", "cli", ("main",)),
)

# Per-layer metrics and the layer each is read from.
TIME_METRICS = {
    "syntax.read_forms_s": "syntax.read_forms",
    "syntax.elaborate_s": "syntax.elaborate",
    "syntax.desugar_s": "syntax.desugar",
    "kb.load_kb_s": "kb.load_kb",
    "kb.query_build_s": "kb.query_build",
    "kb.replay_s": "kb.replay",
    "solver.encode_s": "solver.encode",
    "solver.cdcl_solve_s": "solver.cdcl_solve",
    "solver.witness_check_s": "solver.witness_check",
    "solver.oracle_s": "solver.oracle",
    "model.eval_s": "model.eval",
    "model.render_s": "model.render",
    "lifts.s": "lifts",
    "values.s": "values",
    "suites.run_suite_s": "suites.run_suite",
}
CALL_METRICS = {
    "syntax.elaborate_calls": "syntax.elaborate",
    "kb.load_kb_calls": "kb.load_kb",
    "solver.encode_calls": "solver.encode",
    "solver.oracle_calls": "solver.oracle",
    "model.eval_calls": "model.eval",
    "lifts.calls": "lifts",
    "values.calls": "values",
}
COUNT_METRICS = (
    "solver.encode_vars",
    "solver.encode_clauses",
    "solver.cdcl_unsat_calls",
    "solver.cdcl_learnt",
    "solver.oracle_models",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op = "setup"  # the operation the next spans belong to
        self.total: dict[str, float] = defaultdict(float)  # inclusive seconds
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()  # machine-independent counters
        self._stack: list[list] = []  # [span id, layer, start, child seconds]
        self._active: set[str] = set()
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every function in LAYERS.  `modules` maps short module names
        ("syntax", "solver", ...) to the imported prefsat modules."""
        for layer, where, names in LAYERS:
            mod_name, _, cls_name = where.partition(".")
            owner = modules[mod_name]
            if cls_name:
                owner = getattr(owner, cls_name)
            for name in names:
                fn = owner.__dict__[name] if cls_name else getattr(owner, name)
                self._saved.append((owner, name, fn))
                hook = _HOOKS.get((layer, name))
                inner = hook(self.counts, fn) if hook else fn
                setattr(owner, name, self._wrap(layer, inner))
        solver = modules["solver"]
        admits = solver._model_admits
        self._saved.append((solver, "_model_admits", admits))

        def counting_admits(q, m):
            # every model the oracle enumerates is tested here first
            if "solver.oracle" in self._active:
                self.counts["solver.oracle_models"] += 1
            return admits(q, m)

        solver._model_admits = counting_admits

    def restore(self) -> None:
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()

    def _wrap(self, layer: str, fn):
        active = self._active

        def wrapper(*args, **kwargs):
            if layer in active:
                return fn(*args, **kwargs)
            active.add(layer)
            frame = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                self.counts[f"{layer}.raised.{type(e).__name__}"] += 1
                raise
            else:
                self.calls[layer] += 1
                return result
            finally:
                self._close(frame)
                active.discard(layer)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- spans ------------------------------------------------------------

    def _open(self, layer: str) -> list:
        self._next_id += 1
        frame = [self._next_id, layer, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, layer, start, child = frame
        dur = end - start
        self.total[layer] += dur
        self.self_time[layer] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, layer, start, end,
                               parent[0] if parent else None, self.op))
        else:
            self.dropped += 1

    def adopt(self, record: dict, parent_id: int, op: str) -> None:
        """Append the spans of another process's `record()` under one of
        this tracer's spans."""
        base = self._next_id
        for span_id, layer, start, end, parent, _ in record["spans"]:
            if len(self.spans) < SPAN_CAP:
                self.spans.append((base + span_id, layer, start, end,
                                   base + parent if parent else parent_id, op))
            else:
                self.dropped += 1
        self._next_id = base + max((s[0] for s in record["spans"]), default=0)
        self.dropped += record["spans_dropped"]

    def span(self, layer: str):
        """Context manager for a span the benchmark itself opens (a set-up, a
        child command)."""
        return _Span(self, layer)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        return {
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def record(self) -> dict:
        """Spans and totals, as written to a trace file."""
        return {
            "span_fields": ["id", "name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
            **self.summary(),
        }


class _Span:
    def __init__(self, tracer: Tracer, layer: str):
        self.tracer, self.layer = tracer, layer

    def __enter__(self):
        self.frame = self.tracer._open(self.layer)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.frame)
        return False


def _count_encoding(counts: Counter, encode):
    def counted_encode(q, n):
        enc = encode(q, n)
        for what, value in (("vars", enc.nvars), ("clauses", len(enc.clauses))):
            counts[f"solver.encode_{what}"] += value
            counts[f"solver.encode_{what}.n{n}"] += value
        return enc

    return counted_encode


def _count_search(counts: Counter, solve):
    def counted_solve(solver, budget):
        before = len(solver.clauses)
        sat = solve(solver, budget)
        # learnt clauses of two or more literals are appended to the list
        counts["solver.cdcl_learnt"] += len(solver.clauses) - before
        counts["solver.cdcl_unsat_calls"] += not sat
        return sat

    return counted_solve


_HOOKS = {
    ("solver.encode", "encode"): _count_encoding,
    ("solver.cdcl_solve", "solve"): _count_search,
}


def merge(into: dict, part: dict) -> None:
    """Add one summary (as `Tracer.summary` returns it) into another."""
    for key in ("total_s", "self_s", "calls", "counts"):
        bucket = into.setdefault(key, {})
        for name, value in part.get(key, {}).items():
            bucket[name] = bucket.get(name, 0) + value


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from one summary.
    Layers the workload never reaches read 0."""
    total, calls, counts = summary["total_s"], summary["calls"], summary["counts"]
    out = {}
    for metric, layer in TIME_METRICS.items():
        out[metric] = (total.get(layer, 0.0), "s")
    for metric, layer in CALL_METRICS.items():
        out[metric] = (calls.get(layer, 0), "count")
    for metric in COUNT_METRICS:
        out[metric] = (counts.get(metric, 0), "count")
    out["solver.oracle_out_of_domain"] = (
        counts.get("solver.oracle.raised.OracleDomainError", 0), "count")
    out["cli.self_s"] = (summary["self_s"].get("cli.main", 0.0), "s")
    return out
