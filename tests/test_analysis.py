import math
from dataclasses import fields

import pytest

import flexshuffle.coverage
import flexshuffle.shuffle
from flexshuffle.analysis import (
    CSV_SCHEMA_VERSION,
    SweepPoint,
    azuma_bound,
    expected_fixed_uncoded,
    expected_nowhere_covered,
    fixed_assignment_nodes,
    fixed_assignment_threshold,
    mc_fixed_no_shuffle,
    mc_fixed_uncoded,
    mc_no_shuffle,
    mc_outage,
    mc_uncovered,
    missing_message_prob,
    no_shuffle_failure_bound,
    no_shuffle_threshold,
    outage_threshold,
    sweep,
    sweep_to_csv,
    wilson_interval,
)

E = math.e


# ---------------------------------------------------------------------------
# closed forms


def test_no_shuffle_threshold_values():
    # K = e and e^4 make ln(K) exactly 1 and 4
    assert no_shuffle_threshold(4, E) == pytest.approx(0.5)
    assert no_shuffle_threshold(100, E**4) == pytest.approx(0.2)
    assert no_shuffle_threshold(200, 100) == pytest.approx(0.15174271293851463)


def test_no_shuffle_threshold_clamps():
    assert no_shuffle_threshold(1, 100) == 1.0


def test_no_shuffle_threshold_domain():
    with pytest.raises(ValueError):
        no_shuffle_threshold(10, 1)


def test_outage_threshold_values():
    assert outage_threshold(100, 1000) == pytest.approx(0.004605170185988092)
    assert outage_threshold(2, 1) == pytest.approx(0.6931471805599453)
    assert outage_threshold(1000, 2) == 1.0  # clamped
    with pytest.raises(ValueError):
        outage_threshold(1, 10)


def test_missing_message_prob_values():
    assert missing_message_prob(7, 9, 1.0) == 0.0
    assert missing_message_prob(1, 1, 0.0) == 1.0
    assert missing_message_prob(10, 20, 0.2) == pytest.approx(0.10949086440906874)


def test_fixed_assignment_threshold_values():
    assert fixed_assignment_threshold(100, 1) == pytest.approx(0.953948298140119)
    assert fixed_assignment_threshold(100, 2) == pytest.approx(0.7854033973710652)
    # grows toward 1 as K grows at fixed C
    assert fixed_assignment_threshold(10_000, 1) > fixed_assignment_threshold(100, 1)
    with pytest.raises(ValueError):
        fixed_assignment_threshold(1, 1)


def test_expected_nowhere_covered():
    assert expected_nowhere_covered(100, 50, 0.05) == pytest.approx(38.927851979486135)
    assert expected_nowhere_covered(10, 7, 0.0) == 7.0


def test_no_shuffle_failure_bound():
    assert no_shuffle_failure_bound(200, 100, 0.5) == pytest.approx(
        100 * 0.75**100
    )
    assert no_shuffle_failure_bound(10, 5, 0.0) == 1.0  # clamped


def test_azuma_bound():
    assert azuma_bound(100, 10.0) == pytest.approx(math.exp(-0.5))
    with pytest.raises(ValueError):
        azuma_bound(100, 0.0)


def test_expected_fixed_uncoded():
    at0 = expected_fixed_uncoded(10, 0.0)
    assert (at0.miscounted_mean, at0.mean) == (20.0, 20.0)
    at1 = expected_fixed_uncoded(10, 1.0)
    assert at1.miscounted_mean == 10.0
    assert at1.mean == 0.0
    half = expected_fixed_uncoded(10, 0.5)
    assert half.miscounted_mean == pytest.approx(12.5)
    assert half.mean == pytest.approx(10.0)
    assert half.miscounted_mean - half.mean == pytest.approx(10 * 0.25)


@pytest.mark.parametrize(
    "call",
    [
        lambda: wilson_interval(0, 0),
        lambda: no_shuffle_threshold(0, 10),
        lambda: missing_message_prob(5, 5, 1.5),
        lambda: missing_message_prob(5, 5, float("nan")),
        lambda: fixed_assignment_threshold(10, 0.5),
        lambda: expected_fixed_uncoded(10, -0.1),
    ],
)
def test_closed_forms_reject_out_of_domain_arguments(call):
    with pytest.raises(ValueError):
        call()


def test_wilson_interval_contains_phat():
    lo, hi = wilson_interval(8, 10)
    assert lo < 0.8 < hi
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0 and hi > 0.0
    lo, hi = wilson_interval(10, 10)
    assert hi == pytest.approx(1.0) and lo < 1.0


# ---------------------------------------------------------------------------
# Monte Carlo estimators


def test_mc_no_shuffle_extremes():
    assert mc_no_shuffle(8, 6, 3, 2, 1.0, trials=50, seed=1).fraction == 1.0
    assert mc_no_shuffle(8, 6, 3, 2, 0.0, trials=50, seed=1).fraction == 0.0


def test_mc_no_shuffle_deterministic():
    a = mc_no_shuffle(20, 15, 5, 2, 0.45, trials=120, seed=9)
    b = mc_no_shuffle(20, 15, 5, 2, 0.45, trials=120, seed=9)
    assert a == b
    d = mc_no_shuffle(20, 15, 5, 2, 0.45, trials=120, seed=10)
    assert a != d


def test_mc_no_shuffle_monotone_in_p():
    # same seed couples the placements, so the fractions are ordered pathwise
    ps = [0.2, 0.35, 0.5, 0.7]
    fr = [mc_no_shuffle(20, 15, 5, 2, p, trials=80, seed=3).fraction for p in ps]
    assert fr == sorted(fr)


def test_mc_uncovered_p0_constant():
    stats = mc_uncovered(10, 8, 4, 2, 0.0, trials=40, seed=2)
    assert stats.mean.mean == 4.0
    assert stats.mean.se == 0.0
    assert stats.counts[4] == 40


def test_mc_uncovered_mean_vs_exact_d1():
    m, n, K, p = 100, 100, 50, 0.05
    stats = mc_uncovered(m, n, K, 1, p, trials=400, seed=5)
    exact = expected_nowhere_covered(n, K, p)
    # the matching count dominates the nowhere-covered count
    assert stats.mean.mean >= exact - 3 * stats.mean.se
    assert stats.mean.mean == pytest.approx(exact, rel=0.05)


def test_mc_uncovered_tails_respect_bound():
    stats = mc_uncovered(60, 60, 30, 1, 0.08, trials=400, seed=6)
    for check in stats.tails:
        se = math.sqrt(check.empirical * (1 - check.empirical) / 400)
        assert check.empirical <= check.bound + 3 * se + 1e-12


def test_mc_outage_extremes():
    assert mc_outage(6, 8, 1.0, trials=50, seed=1).fraction == 0.0
    assert mc_outage(6, 8, 0.0, trials=50, seed=1).fraction == 1.0


def test_mc_outage_matches_closed_form():
    m, n, p, trials = 10, 20, 0.2, 3000
    est = mc_outage(m, n, p, trials=trials, seed=11)
    exact = missing_message_prob(m, n, p)
    se = math.sqrt(exact * (1 - exact) / trials)
    assert abs(est.fraction - exact) <= 3 * se


def test_mc_outage_closed_form_full_grid():
    # fully crossed m x n x p grid against the exact formula
    trials = 1500
    for mi, m in enumerate((5, 12, 25)):
        for ni, n in enumerate((8, 15, 30)):
            p_out = outage_threshold(m, n)
            for pi, mult in enumerate((0.6, 1.0, 1.8)):
                p = min(1.0, mult * p_out)
                est = mc_outage(m, n, p, trials=trials, seed=40 + 100 * mi + 10 * ni + pi)
                exact = missing_message_prob(m, n, p)
                se = math.sqrt(exact * (1 - exact) / trials)
                assert abs(est.fraction - exact) <= 3 * se + 1e-12


def test_mc_fixed_uncoded_matches_corrected_formula():
    K, p, trials = 50, 0.5, 4000
    est = mc_fixed_uncoded(K, p, trials=trials, seed=13)
    expect = expected_fixed_uncoded(K, p)
    assert abs(est.mean - expect.mean) <= 3 * est.se
    assert abs(est.mean - expect.miscounted_mean) > 3 * est.se


@pytest.mark.parametrize(
    "estimator",
    [
        lambda trials: mc_no_shuffle(8, 6, 3, 2, 0.5, trials=trials, seed=1),
        lambda trials: mc_uncovered(8, 6, 3, 2, 0.5, trials=trials, seed=1),
        lambda trials: mc_outage(6, 8, 0.5, trials=trials, seed=1),
        lambda trials: mc_fixed_uncoded(3, 0.5, trials=trials, seed=1),
    ],
    ids=["mc_no_shuffle", "mc_uncovered", "mc_outage", "mc_fixed_uncoded"],
)
@pytest.mark.parametrize("trials", [0, -1])
def test_estimators_need_a_trial(estimator, trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        estimator(trials)


def test_fixed_assignment_nodes_disjoint():
    groups = fixed_assignment_nodes(K=4, n=12, nodes_per_function=3)
    flat = [i for g in groups for i in g]
    assert len(flat) == len(set(flat)) == 12
    with pytest.raises(ValueError):
        fixed_assignment_nodes(K=5, n=8, nodes_per_function=2)


@pytest.mark.parametrize("nodes_per_function", [0, -1])
def test_fixed_assignment_nodes_needs_one_node_per_function(nodes_per_function):
    with pytest.raises(ValueError):
        fixed_assignment_nodes(K=4, n=12, nodes_per_function=nodes_per_function)


def test_mc_fixed_no_shuffle_below_flexible():
    args = dict(m=24, n=12, K=5, d=2, p=0.6, trials=150, seed=21)
    fixed = mc_fixed_no_shuffle(**args)
    flexible = mc_no_shuffle(**args)
    assert fixed.fraction <= flexible.fraction


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_rows_and_determinism():
    configs = [(12, 10, 4, 2)]
    ps = [0.2, 0.5, 0.9]
    a = sweep(configs, ps, trials=60, seed=17, compare_fixed=True)
    b = sweep(configs, ps, trials=60, seed=17, compare_fixed=True)
    assert a == b
    assert len(a) == 3
    fr = [pt.no_shuffle_fraction for pt in a]
    assert fr == sorted(fr)
    for pt in a:
        assert pt.fixed_no_shuffle_fraction <= pt.no_shuffle_fraction
        assert pt.error == ""


def test_sweep_records_errors_and_continues():
    # K > available pair count is infeasible; the next point still runs
    pts = sweep([(3, 4, 5, 2), (8, 6, 3, 2)], [0.5], trials=20, seed=1)
    assert pts[0].error.startswith("Infeasible")
    assert (pts[0].m, pts[0].n, pts[0].K, pts[0].d, pts[0].p) == (3, 4, 5, 2, 0.5)
    floats = [f.name for f in fields(SweepPoint) if f.type == "float" and f.name != "p"]
    assert len(floats) == 12
    assert all(math.isnan(getattr(pts[0], name)) for name in floats)
    assert pts[1].error == ""


def test_sweep_greedy_infeasible_when_k_exceeds_n():
    # every trial leaves a function uncovered, and greedy refuses K > n
    pts = sweep([(20, 4, 6, 2)], [0.9], trials=3, seed=1)
    assert pts[0].error == "Infeasible: K=6 functions but only n=4 nodes"


def test_sweep_builds_one_coverage_graph_per_trial(monkeypatch):
    calls = []
    build = flexshuffle.coverage.build_coverage_graph

    def counted(instance):
        calls.append(instance)
        return build(instance)

    monkeypatch.setattr(flexshuffle.coverage, "build_coverage_graph", counted)
    (pt,) = sweep([(40, 40, 20, 2)], [0.25], trials=30, seed=5)
    assert pt.error == ""
    assert 0 < pt.mean_uncovered and pt.mean_tun_greedy > 0
    assert len(calls) == 30


def test_sweep_csv_schema():
    pts = sweep([(8, 6, 3, 2)], [0.4, 0.8], trials=30, seed=2)
    text = sweep_to_csv(pts)
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "schema"
    assert "no_shuffle_fraction" in header
    assert len(lines) == 3
    for line in lines[1:]:
        assert line.split(",")[0] == str(CSV_SCHEMA_VERSION)
    # byte-identical on rerun
    assert sweep_to_csv(sweep([(8, 6, 3, 2)], [0.4, 0.8], trials=30, seed=2)) == text
