"""Coded versus uncoded broadcasts on small random instances.

For each instance we report, side by side:

  Y       minimum uncovered functions (max matching shortfall)
  T_raw   minimum raw-message broadcasts (exact, iterative deepening)
  T_int   minimum intermediate-value broadcasts (min-cost assignment)
  T_code  minimum GF(2)-coded broadcasts over all assignments, restricted
          to combinations a single node can actually send

T_code <= T_raw <= T_int always; every coded plan found is then executed
against real payloads and checked against the set-intersection oracle.
"""

import numpy as np

from flexshuffle import (
    MessagePayload,
    common_friends,
    generate_functions,
    generate_placement,
    missing_messages,
    run_plan,
    solve,
)
from flexshuffle.engine import transmissions_from_coded_plan
from flexshuffle.instance import Instance

rng = np.random.default_rng(99)


def random_payloads(m):
    universe = [f"u{t}" for t in range(6)]
    return {
        j: MessagePayload(
            owner=f"m{j}",
            friends=tuple(sorted(u for u in universe if rng.random() < 0.5)),
        )
        for j in range(m)
    }


print(f"{'#':>3} {'m':>3} {'n':>3} {'K':>3} {'p':>6} {'Y':>3} "
      f"{'T_raw':>6} {'T_int':>6} {'T_code':>7}  plan check")
shown = 0
attempt = 0
while shown < 12:
    attempt += 1
    m, n = int(rng.integers(5, 9)), int(rng.integers(3, 7))
    K = int(rng.integers(1, min(4, n) + 1))
    p = float(rng.uniform(0.2, 0.5))
    seed = int(rng.integers(0, 2**31))
    inst = Instance(
        placement=generate_placement(m, n, p, seed),
        workload=generate_functions(m, K, 2, seed + 1),
    )
    if missing_messages(inst):
        continue
    report = solve(inst)
    coded, raw, inter = report.coded, report.raw, report.inter
    if coded is None:
        continue
    assert coded.count <= raw.size <= inter.total
    payloads = random_payloads(m)
    txs = transmissions_from_coded_plan(inst, payloads, coded)
    transcript = run_plan(inst, payloads, txs, coded.assignment)
    ok = all(
        transcript.outputs[k] == common_friends(payloads, pair)
        for k, pair in enumerate(inst.workload.functions)
    )
    shown += 1
    print(f"{shown:>3} {m:>3} {n:>3} {K:>3} {p:>6.2f} {raw.uncovered:>3} "
          f"{raw.size:>6} {inter.total:>6} {coded.count:>7}  "
          f"{'outputs match oracle' if ok else 'MISMATCH'}")

print()
print("every coded plan decoded correctly at its assigned nodes.")
