"""The benchmark's workloads: inputs, one timed operation, and the checks.

Each workload builds its inputs from the workload seed when it is created
(this is the set-up that ``setup_s`` times), then runs operations by index.
``call`` is the only part that is timed: it calls into flexshuffle and
nothing else.  ``check`` verifies one operation's output and reduces it to
a comparable summary; ``gates`` checks the statistics over all operations.

Program functions are always reached as ``<module>.<name>`` so that the
tracer, which rebinds module attributes, sees every call.  The oracles and
closed forms the checks use are bound at import time instead, so checking
stays outside the traced layers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import signal
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from flexshuffle import analysis, cli, coding, coverage, engine, instance, shuffle
from flexshuffle.analysis import (
    expected_fixed_uncoded,
    expected_nowhere_covered,
    missing_message_prob,
    no_shuffle_threshold,
)
from flexshuffle.engine import common_friends
from flexshuffle.errors import BudgetExceeded, CapExceeded


@dataclass
class Outcome:
    """Result of checking one operation."""

    failed: bool
    summary: tuple  # compared between the traced and the untraced run
    detail: str = ""


def _seeds(*entropy, count: int = 1) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(entropy).generate_state(count, np.uint64)]


class _Workload:
    tracer = None  # set by a traced run

    def close(self) -> None:
        pass

    def boundary(self, i: int) -> bool:
        """Whether a run may stop before operation ``i``."""
        return True

    @staticmethod
    def same(a: tuple, b: tuple) -> bool:
        return a == b

    def gates(self, summaries) -> list[tuple[str, bool, str]]:
        return []


# ---------------------------------------------------------------------------
# percolation


class Percolation(_Workload):
    """The c03 calls: ``analysis.mc_no_shuffle`` at 0.2, 1 and 5 times p_th
    and ``mc_uncovered`` at 0.2 p_th, one trial each.

    One operation is one cycle of the four calls.  The ``uncovered`` call
    reuses the seed of ``no_shuffle`` at the same p, so both see the same
    trial and must agree on whether it needed no communication.  The calls
    differ fourfold in cost; timing whole cycles made the throughput and
    the 95th percentile steadier from run to run than timing each call.
    """

    name = "percolation"
    MULTS = (0.2, 1.0, 5.0)

    def __init__(self, seed: int, tiny: bool = False, workdir=None):
        self.seed = seed
        self.m = self.n = 30 if tiny else 200
        self.K = 10 if tiny else 100
        self.d = 2
        self.p_th = no_shuffle_threshold(self.n, self.K)
        self.p = [min(1.0, mult * self.p_th) for mult in self.MULTS]

    def params(self) -> dict:
        return {
            "m": self.m, "n": self.n, "K": self.K, "d": self.d, "p_th": self.p_th,
            "p_values": self.p, "trials_per_call": 1,
            "calls_per_op": ["mc_no_shuffle@0.2p_th", "mc_uncovered@0.2p_th",
                             "mc_no_shuffle@1p_th", "mc_no_shuffle@5p_th"],
        }

    def prepare(self, i: int):
        return _seeds(self.seed, i, count=len(self.p))

    def call(self, seeds):
        m, n, K, d = self.m, self.n, self.K, self.d
        low = analysis.mc_no_shuffle(m, n, K, d, self.p[0], trials=1, seed=seeds[0])
        uncovered = analysis.mc_uncovered(m, n, K, d, self.p[0], trials=1, seed=seeds[0])
        mid, high = (
            analysis.mc_no_shuffle(m, n, K, d, p, trials=1, seed=s)
            for p, s in zip(self.p[1:], seeds[1:])
        )
        return low, uncovered, mid, high

    def check(self, seeds, result) -> Outcome:
        low, uncovered, mid, high = result
        y = uncovered.counts.index(1) if sum(uncovered.counts) == 1 else -1
        ok = (
            all(r.trials == 1 and r.fraction in (0.0, 1.0) for r in (low, mid, high))
            and 0 <= y <= self.K
            and uncovered.mean.mean == y
            and (low.fraction == 1.0) == (y == 0)
        )
        return Outcome(not ok, (low.fraction, y, mid.fraction, high.fraction))

    def gates(self, summaries) -> list[tuple[str, bool, str]]:
        low, ys, _, high = zip(*summaries) if summaries else ((),) * 4
        y_floor = 0.9 * expected_nowhere_covered(self.n, self.K, self.p[0])

        def mean(values):
            return float(np.mean(values)) if len(values) else math.nan

        return [
            ("no_shuffle@5p_th>=0.98", mean(high) >= 0.98, f"{mean(high):.4f} over {len(high)}"),
            ("no_shuffle@0.2p_th<=0.02", mean(low) <= 0.02, f"{mean(low):.4f} over {len(low)}"),
            ("mean_Y@0.2p_th>=0.9K(1-p^2)^n", mean(ys) >= y_floor, f"{mean(ys):.3f} vs {y_floor:.3f}"),
        ]


# ---------------------------------------------------------------------------
# sweep


class Sweep(_Workload):
    """One ``flexshuffle sweep`` invocation per operation, through
    ``cli.main`` in process: the three p values, one trial each, with
    ``--compare-fixed``.  The CSV is captured in memory and checked."""

    name = "sweep"
    MULTS = (0.2, 0.5, 1.0)

    def __init__(self, seed: int, tiny: bool = False, workdir=None):
        self.seed = seed
        self.m = self.n = 30 if tiny else 100
        self.K = 10 if tiny else 50
        self.d = 2
        self.p_th = no_shuffle_threshold(self.n, self.K)
        self.p = [mult * self.p_th for mult in self.MULTS]

    def params(self) -> dict:
        return {
            "m": self.m, "n": self.n, "K": self.K, "d": self.d, "p_th": self.p_th,
            "p_values": self.p, "trials_per_point": 1, "flags": ["--compare-fixed"],
        }

    def prepare(self, i: int):
        return [
            "sweep", "--m", str(self.m), "--n", str(self.n), "--K", str(self.K),
            "--d", str(self.d), "--p-values", ",".join(map(repr, self.p)), "--trials", "1",
            "--seed", str(_seeds(self.seed, i)[0]), "--compare-fixed",
        ]

    def call(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(self, argv, result) -> Outcome:
        code, text = result
        rows = list(csv.DictReader(io.StringIO(text)))
        if code != 0 or len(rows) != len(self.p):
            return Outcome(True, (text,), f"exit {code}, {len(rows)} rows")
        points, problems = [], []
        for p, row in zip(self.p, rows):
            if row["error"]:
                problems.append(row["error"])
                continue
            outage = float(row["outage_fraction"])
            y = float(row["mean_uncovered"])
            greedy = float(row["mean_tun_greedy"])
            fixed_tx = float(row["fixed_mean_uncoded"])
            if not (
                float(row["p"]) == float(f"{p:.6g}")
                and row["trials"] == "1"
                and outage in (0.0, 1.0)
                and float(row["no_shuffle_fraction"]) == float(y == 0)
                and 0 <= y <= self.K
                and 0 <= fixed_tx <= 2 * self.K
                and (math.isnan(greedy) if outage else not math.isnan(greedy) and (greedy == 0) == (y == 0))
            ):
                problems.append(f"inconsistent row at p={p:.4g}")
            points.append((outage, fixed_tx))
        return Outcome(bool(problems), (tuple(points), text), "; ".join(problems))

    def gates(self, summaries) -> list[tuple[str, bool, str]]:
        out = []
        N = len(summaries)
        if N == 0:
            return [("sweep points", False, "no successful invocations")]
        for level, p in enumerate(self.p):
            # missing_message_prob(u) is the outage chance when u messages are
            # needed; a trial needs between ceil(2K/d) and min(m, 2K) of them.
            outage = np.mean([points[level][0] for points, _ in summaries])
            lo = missing_message_prob(-(-2 * self.K // self.d), self.n, p)
            hi = missing_message_prob(min(self.m, 2 * self.K), self.n, p)
            tol = 5 * math.sqrt(max(lo * (1 - lo), hi * (1 - hi)) / N) + 2 / N
            out.append((f"outage@p={p:.4g}", lo - tol <= outage <= hi + tol,
                        f"{outage:.4f} in [{lo:.4f}, {hi:.4f}] +- {tol:.4f} over {N}"))
            fixed = np.mean([points[level][1] for points, _ in summaries])
            mean = expected_fixed_uncoded(self.K, p).mean
            tol = 5 * math.sqrt(2 * self.K * p * (1 - p) / N) + 1e-9
            out.append((f"fixed_uncoded@p={p:.4g}", abs(fixed - mean) <= tol,
                        f"{fixed:.3f} vs 2K(1-p) {mean:.3f} +- {tol:.3f}"))
        return out


# ---------------------------------------------------------------------------
# solve


class DeadlineExceeded(Exception):
    """A solve ran past the per-solve deadline."""


class Deadline:
    """One-shot wall-clock deadline delivered by SIGALRM to the main thread.

    The handler raises at most once per arming.  While ``tracer.busy`` is
    set it re-arms for 0.1 ms instead, so a span is never half recorded.
    """

    def __init__(self, seconds: float, tracer=None):
        self.seconds = seconds
        self.tracer = tracer
        self.armed = False

    def _on_alarm(self, signum, frame):
        if not self.armed:
            return
        if self.tracer is not None and self.tracer.busy:
            signal.setitimer(signal.ITIMER_REAL, 1e-4)
            return
        self.armed = False
        raise DeadlineExceeded(f"deadline of {self.seconds} s")

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


@dataclass(frozen=True)
class Solved:
    """What one pipeline run produced; ``error`` is set if it was cut short."""

    instance: object = None
    Y: int | None = None
    raw: object = None
    raw_exact: bool = True
    inter: object = None
    coded: object = None
    coded_status: str = "skipped"  # answered | refused | timed_out | skipped
    transcripts: tuple = ()
    error: str = ""


class Solve(_Workload):
    """Instance files through load, Y, T_raw, T_int, T_code and execution.

    The instance set is a fixed corpus drawn once from ``CORPUS_SEED`` in two
    classes: ``coded`` instances drawn as ``demos/coded_vs_uncoded.py`` draws
    them, and ``readme`` instances at the README's m=40, n=20, K=10 size with
    coded search skipped.  The workload seed draws the friend-list payloads
    and the order in which the corpus is solved.  The corpus is fixed because
    per-instance cost is heavy-tailed: a handful of instances take most of
    the time, and a fresh draw per seed would move the throughput by more
    than any bound worth setting.  Runs end on whole passes over the corpus.
    """

    name = "solve"
    CORPUS_SEED = 1705
    DEADLINE_S = 3.0
    RAW_BUDGET = 8
    PAYLOAD_ENTRIES = 200
    USERS = 1000

    def __init__(self, seed: int, tiny: bool = False, workdir=None, deadline_s=None):
        self.seed = seed
        self.deadline_s = self.DEADLINE_S if deadline_s is None else deadline_s
        self.n_coded, self.n_readme = (6, 3) if tiny else (150, 100)
        self.readme_size = (12, 8, 4) if tiny else (40, 20, 10)
        self._tmp = tempfile.TemporaryDirectory(prefix="solve-", dir=workdir)
        self.dir = Path(self._tmp.name)
        self.corpus = self._write_corpus()
        rng = np.random.default_rng([seed, 1])
        users = [f"user{u:04d}" for u in range(self.USERS)]
        max_m = max(m for _, _, m in self.corpus)
        friends = [sorted(rng.choice(self.USERS, self.PAYLOAD_ENTRIES, replace=False)) for _ in range(max_m)]
        all_payloads = {
            j: engine.MessagePayload(owner=f"m{j}", friends=tuple(users[u] for u in f))
            for j, f in enumerate(friends)
        }
        self.payloads = {
            m: {j: all_payloads[j] for j in range(m)} for m in {m for _, _, m in self.corpus}
        }
        self.order = [int(k) for k in rng.permutation(len(self.corpus))]

    def close(self) -> None:
        self._tmp.cleanup()

    def _write_corpus(self) -> list[tuple[Path, str, int]]:
        rng = np.random.default_rng(self.CORPUS_SEED)
        corpus = []

        def draw(cls, m, n, K, p, iseed):
            inst = instance.Instance(
                placement=instance.generate_placement(m, n, p, iseed),
                workload=instance.generate_functions(m, K, 2, iseed + 1),
            )
            if shuffle.missing_messages(inst):  # outage: solvers refuse it, redraw
                return
            path = self.dir / f"{len(corpus):04d}-{cls}.txt"
            instance.save_instance(inst, path)
            corpus.append((path, cls, m))

        while len(corpus) < self.n_coded:
            m, n = int(rng.integers(5, 9)), int(rng.integers(3, 7))
            K = int(rng.integers(1, min(4, n) + 1))
            p = float(rng.uniform(0.2, 0.5))
            draw("coded", m, n, K, p, int(rng.integers(0, 2**31)))
        m, n, K = self.readme_size
        while len(corpus) < self.n_coded + self.n_readme:
            draw("readme", m, n, K, float(rng.uniform(0.2, 0.4)), int(rng.integers(0, 2**31)))
        return corpus

    def params(self) -> dict:
        m, n, K = self.readme_size
        return {
            "corpus_seed": self.CORPUS_SEED,
            "classes": {
                "coded": {"count": self.n_coded, "m": [5, 8], "n": [3, 6], "K": "1..min(4,n)",
                          "d": 2, "p": [0.2, 0.5]},
                "readme": {"count": self.n_readme, "m": m, "n": n, "K": K, "d": 2,
                           "p": [0.2, 0.4], "coded_search": "skipped"},
            },
            "deadline_s": self.deadline_s, "raw_budget": self.RAW_BUDGET,
            "payload_entries": self.PAYLOAD_ENTRIES, "payload_users": self.USERS,
        }

    def boundary(self, i: int) -> bool:
        return i % len(self.corpus) == 0

    def prepare(self, i: int):
        path, cls, m = self.corpus[self.order[i % len(self.corpus)]]
        return path, cls, self.payloads[m]

    def call(self, args) -> Solved:
        path, cls, payloads = args
        state: dict = {}
        try:
            with Deadline(self.deadline_s, self.tracer):
                self._pipeline(state, path, cls, payloads)
        except DeadlineExceeded as exc:
            if "transcripts" not in state:  # else it fired as the pipeline ended
                state["error"] = f"{exc}, reached {sorted(state)}"
        return Solved(**state)

    @staticmethod
    def _pipeline(state: dict, path, cls: str, payloads) -> None:
        inst = state["instance"] = instance.load_instance(path)
        state["Y"] = coverage.uncovered_count(inst)
        try:
            state["raw"] = shuffle.min_raw_broadcasts(inst, budget=Solve.RAW_BUDGET)
        except BudgetExceeded:
            state["raw_exact"] = False
            state["raw"] = shuffle.greedy_raw_broadcasts(inst)
        state["inter"] = shuffle.min_intermediate_broadcasts(inst)
        if cls == "coded":
            # A stopped or refused coded search is reported like `solve`
            # reports an over-cap one: no T_code, the rest still runs.
            try:
                state["coded"] = coding.best_coded_plan(inst)
                state["coded_status"] = "answered"
            except CapExceeded:
                state["coded_status"] = "refused"
            except DeadlineExceeded:
                state["coded_status"] = "timed_out"
        plans = [
            (engine.transmissions_from_uncoded_plan, state["raw"]),
            (engine.transmissions_from_intermediate_plan, state["inter"]),
        ]
        if state.get("coded") is not None:
            plans.append((engine.transmissions_from_coded_plan, state["coded"]))
        state["transcripts"] = tuple(
            engine.run_plan(inst, payloads, transmissions(inst, payloads, plan), plan.assignment)
            for transmissions, plan in plans
        )

    def check(self, args, s: Solved) -> Outcome:
        path, cls, payloads = args
        if s.error:
            return Outcome(True, (path.name, "error"), s.error)
        K = s.instance.k
        t_raw, t_int = s.raw.size, s.inter.total
        t_code = s.coded.count if s.coded is not None else None
        problems = []
        if not t_raw <= 2 * K or not t_int <= 2 * K:
            problems.append("T_raw and T_int must be <= 2K")
        if s.raw_exact and not t_raw <= t_int:
            problems.append("T_raw <= T_int")
        if t_code is not None and not t_code <= t_raw:
            problems.append("T_code <= T_raw")
        if (s.Y == 0) != (t_raw == 0):
            problems.append("Y == 0 iff T_raw == 0")
        if not s.Y <= t_int:
            problems.append("Y <= T_int")
        for transcript in s.transcripts:
            for k, pair in enumerate(s.instance.workload.functions):
                if transcript.outputs.get(k) != common_friends(payloads, pair):
                    problems.append(f"function {k} output differs from common_friends")
        uncoded = (path.name, cls, s.Y, t_raw, s.raw_exact, t_int,
                   s.transcripts[0].total_bytes, s.transcripts[1].total_bytes)
        coded = (s.coded_status, t_code, s.transcripts[2].total_bytes if t_code is not None else None)
        return Outcome(bool(problems), uncoded + coded, "; ".join(problems))

    @staticmethod
    def same(a: tuple, b: tuple) -> bool:
        """Equal summaries; a coded search stopped by the deadline in either
        run leaves only the uncoded part comparable."""
        if "timed_out" in (a[-3:-2] + b[-3:-2]):
            return a[:-3] == b[:-3]
        return a == b


WORKLOADS = {w.name: w for w in (Percolation, Sweep, Solve)}
