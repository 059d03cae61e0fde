"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Statistical criteria use fixed seeds, so the whole suite is
deterministic.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from oracles import brute_max_matching, brute_min_raw_broadcasts

from flexshuffle import cli
from flexshuffle.analysis import (
    azuma_bound,
    expected_fixed_uncoded,
    expected_nowhere_covered,
    mc_fixed_uncoded,
    mc_no_shuffle,
    mc_outage,
    mc_uncovered,
    missing_message_prob,
    no_shuffle_failure_bound,
    no_shuffle_threshold,
    outage_threshold,
)
from flexshuffle.coding import (
    best_coded_plan,
    build_fitting_matrix,
    minrank_gf2,
)
from flexshuffle.coverage import build_coverage_graph, hopcroft_karp, uncovered_count
from flexshuffle.engine import (
    common_friends,
    run_demo,
    run_plan,
    transmissions_from_coded_plan,
)
from flexshuffle.errors import CapExceeded
from flexshuffle.instance import (
    Instance,
    demo_instance,
    generate_functions,
    generate_placement,
)
from flexshuffle.shuffle import (
    min_intermediate_broadcasts,
    min_raw_broadcasts,
    missing_messages,
)

GOLDEN = Path(__file__).parent / "data" / "demo_transcript.golden"


def report(number, name):
    print(f"criterion {number:02d} ({name}): PASS")


def proportion_se(phat, trials):
    return math.sqrt(phat * (1.0 - phat) / trials)


def test_c01_demo_reproduction():
    t0 = time.perf_counter()
    transcript = run_demo()
    elapsed = time.perf_counter() - t0
    assert len(transcript.transmissions) == 2
    raw, coded = transcript.transmissions
    assert raw.kind == "raw" and raw.sender == 3 and raw.support == (0,)
    assert coded.kind == "coded" and coded.sender == 3 and coded.support == (2, 3)
    assert transcript.outputs == {0: ("D",), 1: ("A", "E"), 2: ("B", "F")}
    assert transcript.render() == GOLDEN.read_text()
    assert elapsed < 1.0
    report(1, "demo reproduction")


def test_c02_demo_solver_values():
    inst = demo_instance()
    assert uncovered_count(inst) == 3
    raw = min_raw_broadcasts(inst)
    assert raw.size == 2
    # optimality proof: the exhaustive oracle finds nothing of size <= 1
    assert brute_min_raw_broadcasts(inst, max_size=1) is None
    inter = min_intermediate_broadcasts(inst)
    assert inter.total == 3
    assert best_coded_plan(inst).count == 2
    assert inter.total >= raw.size
    report(2, "demo solver values")


def test_c03_percolation():
    t0 = time.perf_counter()
    m = n = 200
    K, d, trials = 100, 2, 500
    pth = no_shuffle_threshold(n, K)
    p_hi, p_lo = 5.0 * pth, 0.2 * pth
    assert p_hi == pytest.approx(0.7587, abs=5e-4)
    assert p_lo == pytest.approx(0.0303, abs=5e-4)
    hi = mc_no_shuffle(m, n, K, d, p_hi, trials=trials, seed=2024)
    assert hi.fraction >= 0.98
    lo = mc_no_shuffle(m, n, K, d, p_lo, trials=trials, seed=2025)
    assert lo.fraction <= 0.02
    stats = mc_uncovered(m, n, K, d, p_lo, trials=trials, seed=2026)
    floor = 0.9 * expected_nowhere_covered(n, K, p_lo)
    assert floor == pytest.approx(74.85, abs=0.02)
    assert stats.mean.mean >= floor
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(3, f"percolation ({elapsed:.1f}s)")


def test_c04_union_bound():
    m = n = 60
    K, d, trials = 30, 2, 500  # K <= n/2
    for i, p in enumerate((0.35, 0.45, 0.55)):
        est = mc_no_shuffle(m, n, K, d, p, trials=trials, seed=300 + i)
        failure = 1.0 - est.fraction
        bound = no_shuffle_failure_bound(n, K, p)
        assert failure <= bound + 3.0 * proportion_se(failure, trials)
    report(4, "union bound grid")


def test_c05_lower_tail_bound():
    n, K, d, p, trials = 100, 50, 1, 0.05, 10_000
    m = 150  # any m >= 2K works; the bound involves only n, K, p
    stats = mc_uncovered(m, n, K, d, p, trials=trials, seed=77,
                         deviations=(5.0, 10.0, 15.0, 20.0))
    assert len(stats.tails) == 4
    for check in stats.tails:
        assert check.bound == pytest.approx(
            azuma_bound(n, check.deviation)
        )
        se = proportion_se(check.empirical, trials)
        assert check.empirical <= check.bound + 3.0 * se + 1e-12
    # sanity: the sample mean sits near the exact nowhere-covered expectation
    assert stats.mean.mean == pytest.approx(
        expected_nowhere_covered(n, K, p), rel=0.05
    )
    report(5, "lower-tail bound")


def test_c06_outage_closed_form():
    trials = 10_000
    grid = ((10, 20), (20, 30), (50, 50))
    for gi, (m, n) in enumerate(grid):
        p_out = outage_threshold(m, n)
        for pi, mult in enumerate((0.5, 1.0, 2.0)):
            p = min(1.0, mult * p_out)
            est = mc_outage(m, n, p, trials=trials, seed=600 + 10 * gi + pi)
            exact = missing_message_prob(m, n, p)
            se = proportion_se(exact, trials)
            assert abs(est.fraction - exact) <= 3.0 * se
    report(6, "outage closed form")


def test_c07_fixed_assignment_expectation():
    K, trials = 100, 10_000
    for i, p in enumerate((0.25, 0.5, 0.75)):
        est = mc_fixed_uncoded(K, p, trials=trials, seed=700 + i)
        expect = expected_fixed_uncoded(K, p)
        assert abs(est.mean - expect.mean) <= 3.0 * est.se
        if p == 0.5:
            # the often-quoted K(2-2p+p^2) overcounts single-miss cases by
            # K*p^2 and the simulation rejects it decisively
            assert abs(est.mean - expect.miscounted_mean) > 3.0 * est.se
    report(7, "fixed-assignment expectation (erratum confirmed)")


def _random_small_instance(rng):
    m = int(rng.integers(4, 9))
    n = int(rng.integers(2, 7))
    d = 2
    k_max = min(4, n, m * (m - 1) // 2, d * m // 2)
    K = int(rng.integers(1, k_max + 1))
    p = float(rng.uniform(0.15, 0.6))
    seed = int(rng.integers(0, 2**31))
    return Instance(
        placement=generate_placement(m, n, p, seed),
        workload=generate_functions(m, K, d, seed + 1),
    )


def test_c08_oracle_equivalence_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    checked = 0
    while checked < 200:
        inst = _random_small_instance(rng)
        graph = build_coverage_graph(inst)
        assert hopcroft_karp(graph.adjacency, graph.n_nodes)[2] == brute_max_matching(
            graph.adjacency, graph.n_nodes
        )
        if missing_messages(inst):
            continue  # solvers reject outage instances; matching already checked
        try:
            plan = best_coded_plan(inst)
        except CapExceeded:
            continue  # beyond the brute-force caps; resample
        raw = min_raw_broadcasts(inst, budget=8)
        oracle = brute_min_raw_broadcasts(inst, max_size=6)
        assert oracle is not None and raw.size == len(oracle)
        inter = min_intermediate_broadcasts(inst)
        assert plan.count <= raw.size <= inter.total
        payloads = _synthetic_payloads(inst.m, checked)
        txs = transmissions_from_coded_plan(inst, payloads, plan)
        transcript = run_plan(inst, payloads, txs, plan.assignment)
        for k, pair in enumerate(inst.workload.functions):
            assert transcript.outputs[k] == common_friends(payloads, pair)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(8, f"oracle equivalence on {checked} instances ({elapsed:.1f}s)")


def _synthetic_payloads(m, seed):
    from flexshuffle.engine import MessagePayload

    rng = np.random.default_rng((9090, seed))
    universe = [f"u{t}" for t in range(6)]
    return {
        j: MessagePayload(
            owner=f"m{j}",
            friends=tuple(sorted(u for u in universe if rng.random() < 0.5)),
        )
        for j in range(m)
    }


def test_c09_minrank_fixtures():
    # Receivers are (demand, held messages as a bitmask) pairs.
    for r in (1, 2, 3, 4):
        assert minrank_gf2(build_fitting_matrix([(i, 0) for i in range(r)])).rank == r
    cycle = [(i, 1 << (i + 1) % 3) for i in range(3)]
    assert minrank_gf2(build_fitting_matrix(cycle)).rank == 2
    walkthrough = [(3, 0b010101), (2, 0b101010), (0, 0b110010)]  # {0,2,4} {1,3,5} {1,4,5}
    assert minrank_gf2(build_fitting_matrix(walkthrough)).rank == 2
    report(9, "minrank fixtures")


def test_c10_determinism(tmp_path, capsys):
    gen = ["gen", "--m", "20", "--n", "10", "--K", "5", "--d", "2", "--p", "0.4", "--seed", "11"]
    files = [tmp_path / f"g{i}.txt" for i in range(2)]
    for f in files:
        assert cli.main(gen + ["--out", str(f)]) == 0
    assert files[0].read_bytes() == files[1].read_bytes()

    outputs = []
    for _ in range(2):
        assert cli.main(["solve", str(files[0])]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]

    sweep = [
        "sweep", "--m", "12", "--n", "8", "--K", "3", "--d", "2",
        "--p-values", "0.3,0.7", "--trials", "50", "--seed", "5",
    ]
    csvs = [tmp_path / f"s{i}.csv" for i in range(2)]
    for csv_path in csvs:
        assert cli.main(sweep + ["--out", str(csv_path)]) == 0
    assert csvs[0].read_bytes() == csvs[1].read_bytes()

    demos = []
    for _ in range(2):
        assert cli.main(["demo", "--verbose"]) == 0
        demos.append(capsys.readouterr().out)
    assert demos[0] == demos[1]
    report(10, "determinism")
