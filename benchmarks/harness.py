"""Measurement loop, end-to-end metrics, and the traced run's layer metrics.

Every operation runs in this single process and thread.  An untraced run
(``trace=0``) times each operation's ``call`` and reports throughput,
the 95th percentile of latency and failures.  A traced run (``trace=1``)
runs every operation twice in a row, traced and then untraced: the two
results must be identical, and the ratio of the two total times is the
tracing overhead.  Pairing the runs keeps changes in machine speed out
of that ratio.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import flexshuffle
from tracer import HARNESS, LAYERS, Tracer
from workloads import WORKLOADS, Outcome


def build(workload: str, seed: int, tiny: bool, workdir):
    return WORKLOADS[workload](seed, tiny=tiny, workdir=workdir)


@dataclass
class Measured:
    seconds: list[float]  # program time of each operation
    outcomes: list[Outcome]


def measure(wl, seconds: float) -> Measured:
    """Run operations until ``seconds`` have passed and the workload is at
    a boundary (for ``solve``, a whole pass over the corpus)."""
    measured = Measured([], [])
    t_begin = perf_counter()
    i = 0
    while not (i and wl.boundary(i) and perf_counter() - t_begin >= seconds):
        _run_op(wl, wl.prepare(i), measured)
        i += 1
    return measured


def _run_op(wl, args, into: Measured, tracer=None) -> None:
    with tracer.span(f"{HARNESS}.op") if tracer else nullcontext():
        t0 = perf_counter()
        try:
            result = wl.call(args)
            error = None
        except Exception as exc:  # an operation that raises counts as failed
            error = exc
        t1 = perf_counter()
        if error is None:
            outcome = wl.check(args, result)
        else:
            outcome = Outcome(True, ("raised", type(error).__name__), repr(error))
    into.seconds.append(t1 - t0)
    into.outcomes.append(outcome)


def _failures(measured: Measured) -> list[str]:
    return [o.detail or repr(o.summary) for o in measured.outcomes if o.failed][:5]


def _gates(wl, measured: Measured) -> list[dict]:
    ok_summaries = [o.summary for o in measured.outcomes if not o.failed]
    return [
        {"gate": name, "ok": bool(ok), "detail": detail}
        for name, ok, detail in wl.gates(ok_summaries)
    ]


def _result(measured: Measured, gates: list[dict], metrics: dict) -> dict:
    """The result line: a failed gate counts as one more failure."""
    failed = sum(o.failed for o in measured.outcomes) + sum(not g["ok"] for g in gates)
    return {
        "correct": failed == 0,
        "attempted": len(measured.outcomes),
        "failed": failed,
        "metrics": metrics,
    }


def run(workload: str, seed: int, seconds: float, trace: int, tiny: bool, workdir):
    wl = build(workload, seed, tiny, workdir)
    try:
        if trace:
            return _traced(wl, seed, seconds, workdir)
        return _untraced(wl, seconds)
    finally:
        wl.close()


def _untraced(wl, seconds: float):
    measured = measure(wl, seconds)
    gates = _gates(wl, measured)
    ms = np.asarray(measured.seconds) * 1000.0
    p50, p95 = (float(v) for v in np.percentile(ms, [50, 95]))
    metrics = {
        "ops_per_s": {"value": len(ms) / (ms.sum() / 1000.0), "unit": "1/s"},
        "op_ms_p95": {"value": p95, "unit": "ms"},
    }
    # The median is recorded but is not a metric: on a machine whose speed
    # switches between two levels for seconds at a time, the median of
    # nearly equal-cost operations jumps between them from run to run.
    record = {
        "workload": wl.name, "trace": 0, "params": wl.params(), "ops": len(ms),
        "op_ms_p50": p50, "ops_beyond_p95": int((ms > p95).sum()),
        "gates": gates, "failures": _failures(measured),
    }
    return record, _result(measured, gates, metrics)


# Work counts taken from the return values at the traced boundaries.
COUNTERS = {
    "instance.generate_placement": lambda a, k, r: {"cells": r.m * r.n},
    "coverage.build_coverage_graph": lambda a, k, r: {"edges": sum(map(len, r.adjacency))},
    "shuffle.greedy_raw_broadcasts": lambda a, k, r: {"broadcasts": r.size},
    "coding.best_coded_plan": lambda a, k, r: {"answered": 1},
    "engine.run_plan": lambda a, k, r: {
        "bytes_sent": r.total_bytes, "transmissions": len(r.transmissions),
    },
}


def _traced(wl, seed: int, seconds: float, workdir):
    tracer = Tracer()
    tracer.wrap_package(flexshuffle, COUNTERS)
    wl.tracer = tracer
    traced, replay = Measured([], []), Measured([], [])
    t_begin = perf_counter()
    i = 0
    while not (i and wl.boundary(i) and perf_counter() - t_begin >= seconds / 2):
        args = wl.prepare(i)
        with tracer.installed():
            _run_op(wl, args, traced, tracer)
        _run_op(wl, args, replay)
        i += 1
    wl.tracer = None
    differing = sum(
        not wl.same(a.summary, b.summary) for a, b in zip(traced.outcomes, replay.outcomes)
    )
    tracer.write(workdir / f"trace-{wl.name}-seed{seed}.npz")

    metrics, wall, self_total = layer_metrics(tracer)
    overhead = sum(traced.seconds) / sum(replay.seconds) - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    gates = _gates(wl, traced) + [
        {"gate": "traced results == untraced results", "ok": differing == 0,
         "detail": f"{differing} of {len(traced.outcomes)} operations differ"},
        {"gate": "sum of self times == traced wall time", "ok": abs(self_total - wall) <= 1e-6 * wall,
         "detail": f"{self_total!r} vs {wall!r}"},
    ]
    record = {
        "workload": wl.name, "trace": 1, "params": wl.params(), "ops": len(traced.outcomes),
        "spans": len(tracer.start), "gates": gates, "failures": _failures(traced),
        "exceptions": {name: dict(c) for name, c in tracer.counts.items() if c},
    }
    return record, _result(traced, gates, metrics)


def layer_metrics(tracer: Tracer):
    """Per-layer metrics from the spans, plus the traced wall time (the
    total of the operations' root spans) and the sum of all self times,
    which must equal it."""
    summary = tracer.summary()
    counts = tracer.counts
    zero = {"calls": 0, "failed": 0, "total_s": 0.0, "failed_s": 0.0, "self_s": 0.0}

    def span(name):
        return summary.get(name, zero)

    def per_call(name, key):
        calls = span(name)["calls"]
        return counts[name][key] / calls if calls else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def calls_and_self(name):
        put(f"{name}.calls", span(name)["calls"], "count")
        put(f"{name}.s", span(name)["self_s"], "s")

    placement = "instance.generate_placement"
    calls_and_self(placement)
    s = span(placement)["total_s"]
    put(f"{placement}.cells_per_s", counts[placement]["cells"] / s if s else 0.0, "1/s")
    calls_and_self("instance.generate_functions")
    calls_and_self("instance.load_instance")
    graph = "coverage.build_coverage_graph"
    calls_and_self(graph)
    put(f"{graph}.edges", per_call(graph, "edges"), "count")
    put("coverage.matching.calls", span("coverage.hopcroft_karp")["calls"], "count")
    put("coverage.matching.s",
        span("coverage.hopcroft_karp")["self_s"] + span("coverage.max_matching")["self_s"], "s")
    calls_and_self("shuffle.missing_messages")
    greedy = "shuffle.greedy_raw_broadcasts"
    calls_and_self(greedy)
    put(f"{greedy}.broadcasts", per_call(greedy, "broadcasts"), "count")
    raw = "shuffle.min_raw_broadcasts"
    calls_and_self(raw)
    put(f"{raw}.budget_exceeded", counts[raw]["BudgetExceeded"], "count")
    calls_and_self("shuffle.min_intermediate_broadcasts")
    coded = "coding.best_coded_plan"
    calls_and_self(coded)
    put(f"{coded}.refused", counts[coded]["CapExceeded"], "count")
    put(f"{coded}.timed_out", counts[coded]["DeadlineExceeded"], "count")
    put(f"{coded}.wasted_s", span(coded)["failed_s"], "s")
    put(f"{coded}.answered_ratio", per_call(coded, "answered"), "ratio")
    plan = "engine.run_plan"
    calls_and_self(plan)
    put(f"{plan}.bytes_sent", per_call(plan, "bytes_sent"), "bytes")
    put(f"{plan}.transmissions", per_call(plan, "transmissions"), "count")

    for layer in LAYERS + (HARNESS,):
        put(f"{layer}.self_s", sum(
            v["self_s"] for name, v in summary.items()
            if name == layer or name.startswith(layer + ".")
        ), "s")
    wall = summary[f"{HARNESS}.op"]["total_s"]
    put("trace.wall_s", wall, "s")
    self_total = sum(v["self_s"] for v in summary.values())
    return out, wall, self_total
