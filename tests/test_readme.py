"""The README's library quickstart runs as written, so a renamed or removed
public name it uses fails here."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:python", "exec"), {})
