"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) >= 2
    namespace = {}  # one namespace: later blocks use earlier imports
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
