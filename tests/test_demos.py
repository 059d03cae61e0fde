"""Golden file pinning the printed output of three demo scripts.

``demos/common_friends.py`` and ``demos/coded_vs_uncoded.py`` between them
run the coverage graph, all four solvers and the engine, and
``demos/percolation_curve.py`` runs greedy on 1,350 sweep trials, so any
change of internal representation must leave their output byte-identical.  To
inspect the rendering:

    PYTHONPATH=src python tests/test_demos.py
"""

from __future__ import annotations

import contextlib
import io
import runpy
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"
GOLDEN = Path(__file__).parent / "data" / "demos.golden"
SCRIPTS = ("common_friends.py", "coded_vs_uncoded.py", "percolation_curve.py")


def render() -> str:
    out = []
    for name in SCRIPTS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            runpy.run_path(str(DEMOS / name), run_name="__main__")
        out.append(f"## demos/{name}\n{buf.getvalue()}")
    return "".join(out)


def test_demos_match_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.stdout.write(render())
