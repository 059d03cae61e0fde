"""The README's library tour runs as written."""

import re
from pathlib import Path

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
