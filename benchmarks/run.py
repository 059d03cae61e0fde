#!/usr/bin/env python3
"""Run one flexshuffle benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload percolation --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it records the environment, the workload's parameters and the
correctness gates.  Working files go to ``.bench_build/`` in the checkout.
The exit code is 0 when every output checked correct, 1 when one did not,
and 2 when the checkout has no ``src/flexshuffle``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = ROOT / ".bench_build" / "flexshuffle-bench"
SETUP_REPEATS = 3


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("percolation", "sweep", "solve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for the smoke tests")
    parser.add_argument(
        "--setup-only", action="store_true",
        help="import and build the inputs, then exit; setup_s times this",
    )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    src = ROOT / "src"
    if not (src / "flexshuffle" / "__init__.py").is_file():
        print(f"no flexshuffle package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH)]
    import harness  # noqa: E402  (needs the paths above)

    WORKDIR.mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        harness.build(args.workload, args.seed, args.tiny, WORKDIR).close()
        return 0
    record, result = harness.run(args.workload, args.seed, args.seconds, args.trace, args.tiny, WORKDIR)
    record["env"] = environment(args.seed)
    if not args.trace:
        setup = [time_setup(args) for _ in range(1 if args.tiny else SETUP_REPEATS)]
        record["setup_s_samples"] = setup
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["metrics"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    record["result"] = result
    size = "-tiny" if args.tiny else ""
    out = WORKDIR / f"result-{args.workload}{size}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def time_setup(args) -> float:
    """Wall time of a fresh interpreter importing flexshuffle and building
    this workload's inputs."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    t0 = perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit_hash(),
        "seed": seed,
    }


def commit_hash() -> str:
    """HEAD of the checkout's git repository, read from ``.git`` directly."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
