"""Closed-form thresholds and seeded Monte Carlo estimators.

All logarithms are natural.  Every estimator derives the RNG stream of
trial t from (master seed, t), so results do not depend on execution order.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields

import numpy as np

from .coverage import uncovered_count
from .errors import Outage
from .instance import Instance, derive_seeds, random_instance
from .shuffle import greedy_raw_broadcasts

Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class ProportionEstimate:
    fraction: float
    lo: float
    hi: float
    trials: int

    @property
    def halfwidth(self) -> float:
        return (self.hi - self.lo) / 2.0


@dataclass(frozen=True)
class MeanEstimate:
    mean: float
    se: float
    trials: int

    @property
    def halfwidth(self) -> float:
        return Z95 * self.se


@dataclass(frozen=True)
class TailCheck:
    """Empirical lower-tail probability versus the bounded-difference bound."""

    deviation: float
    empirical: float
    bound: float


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError("trials must be >= 1")


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at 95% confidence.

    Its lower end at zero successes and its upper end at ``trials``
    successes are exactly 0 and 1, which the formula misses by rounding.
    """
    _check_trials(trials)
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in [0, {trials}], got {successes}")
    phat = successes / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = Z95 * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def _proportion(successes: int, trials: int) -> ProportionEstimate:
    lo, hi = wilson_interval(successes, trials)
    return ProportionEstimate(fraction=successes / trials, lo=lo, hi=hi, trials=trials)


def _mean(values) -> MeanEstimate:
    arr = np.asarray(values, dtype=float)
    se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return MeanEstimate(mean=float(arr.mean()), se=se, trials=len(arr))


# ---------------------------------------------------------------------------
# Closed forms


def _check_p(p: float) -> None:
    # Written so that nan fails too.
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")


def no_shuffle_threshold(n: int, K: int) -> float:
    """Allocation probability sqrt(ln(K)/n) above which a flexible
    assignment almost surely needs no communication, clamped to <= 1."""
    if K < 2:
        raise ValueError(f"threshold needs K >= 2, got {K}")
    _check_n(n)
    return min(1.0, math.sqrt(math.log(K) / n))


def outage_threshold(m: int, n: int) -> float:
    """Allocation probability ln(m)/n below which some message is almost
    surely held by nobody, clamped to <= 1."""
    if m < 2:
        raise ValueError(f"outage threshold needs m >= 2, got {m}")
    _check_n(n)
    return min(1.0, math.log(m) / n)


def missing_message_prob(m: int, n: int, p: float) -> float:
    """Exact probability that at least one of m messages is held by no
    node: 1 - (1 - (1-p)^n)^m."""
    _check_p(p)
    return 1.0 - (1.0 - (1.0 - p) ** n) ** m


def fixed_assignment_threshold(K: int, nodes_per_function: float) -> float:
    """Threshold 1 - (ln(K)/K)^(1/C) for pre-placed assignments averaging
    C nodes per function."""
    if K < 2:
        raise ValueError(f"threshold needs K >= 2, got {K}")
    if nodes_per_function < 1:
        raise ValueError("need at least one node per function")
    return 1.0 - (math.log(K) / K) ** (1.0 / nodes_per_function)


def expected_nowhere_covered(n: int, K: int, p: float) -> float:
    """Exact expected number of functions no single node can compute:
    K(1-p^2)^n."""
    _check_p(p)
    return K * (1.0 - p * p) ** n


def no_shuffle_failure_bound(n: int, K: int, p: float) -> float:
    """Union bound K(1-p^2)^(n-K) on the probability that some function
    stays uncovered under the best flexible assignment (needs K <= n/2 for
    the regime it was derived in)."""
    _check_p(p)
    return min(1.0, K * (1.0 - p * p) ** (n - K))


def azuma_bound(n: int, deviation: float) -> float:
    """exp(-a^2 / 2n): lower-tail bound for a 1-Lipschitz function of n
    independently exposed nodes."""
    _check_n(n)
    # Written so that nan fails too.
    if not deviation > 0:
        raise ValueError(f"deviation must be positive, got {deviation}")
    return math.exp(-deviation * deviation / (2.0 * n))


@dataclass(frozen=True)
class FixedUncodedExpectation:
    """Expected uncoded transmissions when one pre-placed node serves each
    function.

    ``mean`` is the operational value 2K(1-p).  ``miscounted_mean`` is the
    often-quoted K(2-2p+p^2), which prices the one-missing case at
    1-(1-p)^2 instead of 2p(1-p); the two disagree by K*p^2.
    """

    mean: float
    miscounted_mean: float


def expected_fixed_uncoded(K: int, p: float) -> FixedUncodedExpectation:
    _check_p(p)
    return FixedUncodedExpectation(
        mean=2.0 * K * (1.0 - p),
        miscounted_mean=K * (2.0 - 2.0 * p + p * p),
    )


# ---------------------------------------------------------------------------
# Monte Carlo estimators


def mc_no_shuffle(m, n, K, d, p, trials, seed) -> ProportionEstimate:
    """Fraction of random instances where a flexible assignment covers every
    function with zero communication."""
    covered = sum(
        uncovered_count(random_instance(m, n, K, d, p, seed, t)) == 0 for t in range(trials)
    )
    return _proportion(covered, trials)


@dataclass(frozen=True)
class UncoveredStats:
    mean: MeanEstimate
    counts: tuple[int, ...]  # histogram of the uncovered count, index = value
    tails: tuple[TailCheck, ...]


def mc_uncovered(
    m, n, K, d, p, trials, seed,
    deviations=(5.0, 10.0, 15.0, 20.0),
) -> UncoveredStats:
    """Sample statistics of the minimum uncovered-function count.

    Tail checks report P(mean - Y >= a) against exp(-a^2/2n); the sample
    mean stands in for the expectation, so quote them with the Monte Carlo
    standard error.
    """
    _check_trials(trials)
    ys = np.asarray(
        [uncovered_count(random_instance(m, n, K, d, p, seed, t)) for t in range(trials)],
        dtype=np.int64,
    )
    counts = np.bincount(ys, minlength=K + 1)
    mean = _mean(ys)
    tails = tuple(
        TailCheck(
            deviation=float(a),
            empirical=float(np.mean(mean.mean - ys >= a)),
            bound=azuma_bound(n, float(a)),
        )
        for a in deviations
    )
    return UncoveredStats(mean=mean, counts=tuple(int(c) for c in counts), tails=tails)


def mc_outage(m, n, p, trials, seed) -> ProportionEstimate:
    """Fraction of random placements leaving at least one of the m messages
    held by no node; compare with missing_message_prob.  Trial t draws the
    cells of ``generate_placement(m, n, p, derive_seeds(seed, t)[0])``."""
    _check_p(p)
    if m < 1 or n < 1:
        raise ValueError(f"m and n must be >= 1, got m={m}, n={n}")

    def outage(t):
        cells = np.random.default_rng(derive_seeds(seed, t)[0]).random((n, m)) < p
        return not cells.any(axis=0).all()

    return _proportion(sum(outage(t) for t in range(trials)), trials)


def mc_fixed_uncoded(K, p, trials, seed) -> MeanEstimate:
    """Mean uncoded transmissions when function k is served only by its own
    pre-placed node: per function, 2 minus the inputs that node holds."""
    _check_trials(trials)

    def trial(t):
        rng = np.random.default_rng(derive_seeds(seed, t)[0])
        held = rng.random((K, 2)) < p
        return float((2 - held.sum(axis=1)).sum())

    return _mean([trial(t) for t in range(trials)])


def fixed_assignment_nodes(K: int, n: int, nodes_per_function: int) -> tuple[tuple[int, ...], ...]:
    """Disjoint pre-placed node groups, function k -> nodes k*C .. k*C+C-1."""
    C = nodes_per_function
    if C < 1:
        raise ValueError(f"need at least one node per function, got {C}")
    if K * C > n:
        raise ValueError(f"need K*C={K * C} distinct nodes, have n={n}")
    return tuple(tuple(k * C + o for o in range(C)) for k in range(K))


def _fixed_covered(instance: Instance, nodes: np.ndarray) -> bool:
    """Whether every function k has a node in row k of the (K, C) ``nodes``
    holding both of its inputs."""
    cells = instance.placement.cells
    inputs = instance.workload.inputs
    return bool((cells[nodes, inputs[:, :1]] & cells[nodes, inputs[:, 1:]]).any(axis=1).all())


def mc_fixed_no_shuffle(
    m, n, K, d, p, trials, seed, nodes_per_function: int = 1
) -> ProportionEstimate:
    """Fraction of instances where every function is covered by one of its
    pre-placed nodes (chosen before the placement is revealed)."""
    nodes = np.array(fixed_assignment_nodes(K, n, nodes_per_function), dtype=np.intp)
    covered = sum(
        _fixed_covered(random_instance(m, n, K, d, p, seed, t), nodes) for t in range(trials)
    )
    return _proportion(covered, trials)


# ---------------------------------------------------------------------------
# Parameter sweeps


@dataclass(frozen=True)
class SweepPoint:
    m: int
    n: int
    K: int
    d: int
    p: float
    trials: int
    seed: int
    no_shuffle_fraction: float = math.nan
    no_shuffle_halfwidth: float = math.nan
    mean_uncovered: float = math.nan
    mean_uncovered_halfwidth: float = math.nan
    mean_tun_greedy: float = math.nan
    mean_tun_greedy_halfwidth: float = math.nan
    outage_fraction: float = math.nan
    outage_halfwidth: float = math.nan
    fixed_no_shuffle_fraction: float = math.nan
    fixed_no_shuffle_halfwidth: float = math.nan
    fixed_mean_uncoded: float = math.nan
    fixed_mean_uncoded_halfwidth: float = math.nan
    error: str = ""


def sweep(
    configs,
    p_values,
    trials: int,
    seed: int,
    compare_fixed: bool = False,
    nodes_per_function: int = 1,
) -> list[SweepPoint]:
    """One SweepPoint per ((m, n, K, d), p) pair.

    Each point gets its own seed derived from (seed, config index, p index);
    a failing point is recorded in its ``error`` column, with NaN in every
    float column but ``p``, and the sweep moves on.  The greedy broadcast
    mean is taken over non-outage trials only and is NaN if every trial
    outaged; fixed-assignment columns are NaN unless ``compare_fixed`` is
    set.
    """
    points = []
    for ci, (m, n, K, d) in enumerate(configs):
        for pi, p in enumerate(p_values):
            point_seed = derive_seeds(seed, ci, pi)[0]
            try:
                point = _sweep_point(
                    m, n, K, d, p, trials, point_seed, compare_fixed, nodes_per_function
                )
            except Exception as exc:  # recorded, sweep continues
                point = SweepPoint(
                    m=m, n=n, K=K, d=d, p=p, trials=trials, seed=point_seed,
                    error=f"{type(exc).__name__}: {exc}",
                )
            points.append(point)
    return points


def _sweep_point(
    m, n, K, d, p, trials, point_seed, compare_fixed, nodes_per_function
) -> SweepPoint:
    nodes = (
        np.array(fixed_assignment_nodes(K, n, nodes_per_function), dtype=np.intp)
        if compare_fixed else None
    )

    def trial(t):
        """Y, the greedy plan size (None on outage) and fixed coverage."""
        inst = random_instance(m, n, K, d, p, point_seed, t)
        covered_fixed = _fixed_covered(inst, nodes) if nodes is not None else False
        try:
            plan = greedy_raw_broadcasts(inst)
        except Outage:
            return uncovered_count(inst), None, covered_fixed
        return plan.uncovered, plan.size, covered_fixed

    rows = [trial(t) for t in range(trials)]
    ys = [r[0] for r in rows]
    greedy_sizes = [r[1] for r in rows if r[1] is not None]
    no_shuffle = _proportion(sum(1 for y in ys if y == 0), trials)
    outage = _proportion(trials - len(greedy_sizes), trials)
    mean_y = _mean(ys)
    columns = dict(
        m=m, n=n, K=K, d=d, p=p, trials=trials, seed=point_seed,
        no_shuffle_fraction=no_shuffle.fraction,
        no_shuffle_halfwidth=no_shuffle.halfwidth,
        mean_uncovered=mean_y.mean,
        mean_uncovered_halfwidth=mean_y.halfwidth,
        outage_fraction=outage.fraction,
        outage_halfwidth=outage.halfwidth,
    )
    if greedy_sizes:
        mean_greedy = _mean(greedy_sizes)
        columns.update(
            mean_tun_greedy=mean_greedy.mean,
            mean_tun_greedy_halfwidth=mean_greedy.halfwidth,
        )
    if compare_fixed:
        fixed_cov = _proportion(sum(1 for r in rows if r[2]), trials)
        fixed_tx = mc_fixed_uncoded(K, p, trials, point_seed)
        columns.update(
            fixed_no_shuffle_fraction=fixed_cov.fraction,
            fixed_no_shuffle_halfwidth=fixed_cov.halfwidth,
            fixed_mean_uncoded=fixed_tx.mean,
            fixed_mean_uncoded_halfwidth=fixed_tx.halfwidth,
        )
    return SweepPoint(**columns)


CSV_SCHEMA_VERSION = 1


def _format_value(v) -> str:
    if isinstance(v, float):
        return "nan" if math.isnan(v) else f"{v:.6g}"
    return str(v)


def sweep_to_csv(points) -> str:
    """RFC-4180 CSV with a leading schema column; floats use 6 significant
    digits."""
    buf = io.StringIO()
    names = [f.name for f in fields(SweepPoint)]
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["schema"] + names)
    for pt in points:
        writer.writerow(
            [str(CSV_SCHEMA_VERSION)] + [_format_value(getattr(pt, name)) for name in names]
        )
    return buf.getvalue()
