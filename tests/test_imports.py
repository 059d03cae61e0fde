"""Only a T_int solve loads scipy: importing the package, the Monte Carlo
estimators, the coded search and the CLI's other commands do not."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"

SCRIPT = textwrap.dedent(
    """
    import contextlib
    import io
    import sys

    from flexshuffle import analysis, cli, coding, instance, shuffle

    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    assert scipy_modules() == [], scipy_modules()[:3]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen", "--m", "8", "--n", "5", "--K", "3", "--p", "0.4"]) == 0
        assert cli.main([
            "sweep", "--m", "20", "--n", "20", "--K", "5", "--p-values", "0.3,0.6",
            "--trials", "3", "--compare-fixed",
        ]) == 0
        assert cli.main(["demo"]) == 0
    analysis.mc_no_shuffle(20, 20, 5, 2, 0.4, 3, 1)
    analysis.mc_uncovered(20, 20, 5, 2, 0.4, 3, 1)
    analysis.mc_outage(20, 20, 0.1, 3, 1)
    coding.best_coded_plan(instance.random_instance(7, 5, 3, 2, 0.4, seed=1))
    assert scipy_modules() == [], scipy_modules()[:3]

    plan = shuffle.min_intermediate_broadcasts(instance.demo_instance())
    assert "scipy.optimize" in sys.modules
    print(plan.assignment.pairs, plan.cost_per_function)
    """
)


def test_scipy_loads_only_for_the_intermediate_count():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "((0, 0), (1, 1), (2, 2)) (1, 1, 1)"
