"""Golden file pinning seeded library and CLI outputs bit for bit.

The rendering below covers random instance files, the Monte Carlo
estimators, greedy and exact raw-broadcast plans, a ``sweep
--compare-fixed`` CSV, and best coded plans with the executed transcripts
of the raw, intermediate and coded plans of small instances.  Any change
of internal representation must leave it byte-identical.  To inspect the
rendering:

    PYTHONPATH=src python tests/test_seeded_outputs.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from flexshuffle import cli
from flexshuffle.analysis import (
    mc_fixed_no_shuffle,
    mc_no_shuffle,
    mc_outage,
    mc_uncovered,
    no_shuffle_threshold,
)
from flexshuffle.coding import best_coded_plan
from flexshuffle.errors import BudgetExceeded
from flexshuffle.engine import (
    demo_payloads,
    run_plan,
    transmissions_from_coded_plan,
    transmissions_from_intermediate_plan,
    transmissions_from_uncoded_plan,
)
from flexshuffle.instance import instance_to_text, random_instance
from flexshuffle.shuffle import (
    greedy_raw_broadcasts,
    min_intermediate_broadcasts,
    min_raw_broadcasts,
    missing_messages,
)

GOLDEN = Path(__file__).parent / "data" / "seeded_outputs.golden"

M = N = 60
K = 30
D = 2
P_VALUES = (0.01, 0.03, 0.15, 0.5)
SEEDS = range(5)
TRIALS = 20

# Greedy at sweep size: random_instance(100, 100, 50, 2, mult * p_th, seed),
# plus many-round cases at d = 3 and 4.
GREEDY_MULTS = (0.2, 0.5, 1.0)
GREEDY_MANY_ROUNDS = ((200, 200, 100, 4, 0.2, 2), (200, 200, 100, 3, 0.3, 0))

# Exact raw plans at README size: random_instance(40, 20, 10, d, p, seed)
# under (d, p, seed, budget).  At p=0.2 seed 2 the plan needs five
# broadcasts, so budget 4 raises BudgetExceeded there.
RAW_D = (2, 3, 4)
RAW_CASES = [
    (d, p, seed, 8) for d in RAW_D for p in (0.2, 0.3, 0.4) for seed in range(4)
] + [(d, 0.2, 2, 4) for d in RAW_D]

# Coded instances: random_instance(6, 5, K, 2, p, seed); demo_payloads()
# covers messages 0..5.
CODED_K = (3, 4)
CODED_P = (0.35, 0.5)
CODED_SEEDS = range(6)


def _proportion(est) -> str:
    return f"{est.fraction!r} {est.lo!r} {est.hi!r} {est.trials}"


def render() -> str:
    out = []
    for seed in (0, 1, 2):
        out.append(f"## instance_to_text(random_instance(12, 8, 5, 2, 0.3, seed={seed}))")
        out.append(instance_to_text(random_instance(12, 8, 5, 2, 0.3, seed)).rstrip("\n"))
    for p in P_VALUES:
        for seed in SEEDS:
            tag = f"p={p!r} seed={seed}"
            args = (M, N, K, D, p, TRIALS, seed)
            out.append(f"mc_no_shuffle {tag}: {_proportion(mc_no_shuffle(*args))}")
            stats = mc_uncovered(*args)
            out.append(
                f"mc_uncovered {tag}: {stats.mean.mean!r} {stats.mean.se!r} "
                f"{' '.join(map(str, stats.counts))}"
            )
            out.append(f"mc_outage {tag}: {_proportion(mc_outage(M, N, p, TRIALS, seed))}")
            out.append(f"mc_fixed_no_shuffle {tag}: {_proportion(mc_fixed_no_shuffle(*args))}")
    for seed in SEEDS:
        out.append(_greedy_line(M, N, K, D, 0.15, seed, f"p=0.15 seed={seed}"))
    sweep_size = [(100, 100, 50, 2, mult, seed) for mult in GREEDY_MULTS for seed in SEEDS]
    for m, n, k, d, mult, seed in sweep_size + list(GREEDY_MANY_ROUNDS):
        p = mult * no_shuffle_threshold(n, k)
        tag = f"m={m} n={n} K={k} d={d} p={mult!r}p_th seed={seed}"
        out.append(_greedy_line(m, n, k, d, p, seed, tag))
    out.extend(_exact_raw_lines())
    out.extend(_coded_lines())
    argv = [
        "sweep", "--m", str(M), "--n", str(N), "--K", str(K), "--d", str(D),
        "--p-values", ",".join(map(repr, P_VALUES)), "--trials", str(TRIALS),
        "--seed", "3", "--compare-fixed",
    ]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == cli.EXIT_OK
    out.append("## flexshuffle " + " ".join(argv))
    out.append(buf.getvalue().rstrip("\n"))
    return "\n".join(out) + "\n"


def _greedy_line(m, n, k, d, p, seed, tag) -> str:
    inst = random_instance(m, n, k, d, p, seed)
    if missing_messages(inst):
        return f"greedy_raw_broadcasts {tag}: outage"
    plan = greedy_raw_broadcasts(inst)
    return (
        f"greedy_raw_broadcasts {tag}: {plan.broadcast_messages} "
        f"{plan.senders} {plan.assignment.pairs}"
    )


def _exact_raw_lines() -> list[str]:
    out = []
    for d, p, seed, budget in RAW_CASES:
        inst = random_instance(40, 20, 10, d, p, seed)
        tag = f"m=40 n=20 K=10 d={d} p={p!r} seed={seed} budget={budget}"
        if missing_messages(inst):
            out.append(f"min_raw_broadcasts {tag}: outage")
            continue
        try:
            plan = min_raw_broadcasts(inst, budget=budget)
        except BudgetExceeded as exc:
            out.append(f"min_raw_broadcasts {tag}: {type(exc).__name__}")
            continue
        out.append(
            f"min_raw_broadcasts {tag}: {plan.broadcast_messages} "
            f"{plan.senders} {plan.assignment.pairs}"
        )
    return out


def _coded_lines() -> list[str]:
    out = []
    payloads = demo_payloads()
    for K in CODED_K:
        for p in CODED_P:
            for seed in CODED_SEEDS:
                inst = random_instance(6, 5, K, 2, p, seed)
                if missing_messages(inst):
                    continue
                tag = f"K={K} p={p!r} seed={seed}"
                coded = best_coded_plan(inst)
                broadcasts = tuple(tuple(sorted(b)) for b in coded.broadcasts)
                out.append(
                    f"best_coded_plan {tag}: {coded.count} {coded.assignment.pairs} "
                    f"{broadcasts} {coded.senders}"
                )
                plans = (
                    ("raw", transmissions_from_uncoded_plan, min_raw_broadcasts(inst, budget=8)),
                    ("intermediate", transmissions_from_intermediate_plan,
                     min_intermediate_broadcasts(inst)),
                    ("coded", transmissions_from_coded_plan, coded),
                )
                for kind, transmissions, plan in plans:
                    txs = transmissions(inst, payloads, plan)
                    transcript = run_plan(inst, payloads, txs, plan.assignment)
                    out.append(f"## run_plan {kind} {tag}")
                    out.append(transcript.render().rstrip("\n"))
    return out


def test_seeded_outputs_match_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write(render())
