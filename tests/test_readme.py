"""The README's library tour runs as written, and its instance file loads."""

import re
from pathlib import Path

import numpy as np

from flexshuffle.instance import demo_instance, instance_from_text

README = Path(__file__).parent.parent / "README.md"


def tour_blocks(text: str) -> list[str]:
    """The ```python blocks between "## Library tour" and the next section."""
    tour = text.split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", tour, flags=re.S | re.M)


def test_library_tour_runs():
    blocks = tour_blocks(README.read_text(encoding="utf-8"))
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_tour_blocks_are_found():
    text = (
        "# x\n## Library tour\n```python\na = 1\n```\ntext\n```sh\nls\n```\n"
        "## Next\n```python\nb\n```\n"
    )
    assert tour_blocks(text) == ["a = 1\n"]


def test_format_example_is_the_demo_instance():
    section = README.read_text(encoding="utf-8").split("\n## Instance file format\n", 1)[1]
    example = re.search(r"^```\n(.*?)^```$", section, flags=re.S | re.M).group(1)
    inst, demo = instance_from_text(example), demo_instance()
    assert np.array_equal(inst.placement.cells, demo.placement.cells)
    assert inst.workload.functions == demo.workload.functions
