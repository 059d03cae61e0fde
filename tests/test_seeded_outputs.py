"""Golden file pinning seeded library and CLI outputs bit for bit.

The rendering below covers random instance files, the Monte Carlo
estimators, greedy raw-broadcast plans and a ``sweep --compare-fixed``
CSV.  Any change of internal representation must leave it
byte-identical.  To inspect the rendering:

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
)
from flexshuffle.instance import instance_to_text, random_instance
from flexshuffle.shuffle import greedy_raw_broadcasts, missing_messages

GOLDEN = Path(__file__).parent / "data" / "seeded_outputs.golden"

M = N = 60
K = 30
D = 2
P_VALUES = (0.01, 0.03, 0.15, 0.5)
SEEDS = range(5)
TRIALS = 20


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
        inst = random_instance(M, N, K, D, 0.15, seed)
        if missing_messages(inst):
            out.append(f"greedy_raw_broadcasts p=0.15 seed={seed}: outage")
            continue
        plan = greedy_raw_broadcasts(inst)
        out.append(
            f"greedy_raw_broadcasts p=0.15 seed={seed}: {plan.broadcast_messages} "
            f"{plan.senders} {plan.assignment.pairs}"
        )
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


def test_seeded_outputs_match_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write(render())
