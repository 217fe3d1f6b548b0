"""The README's Python examples and `gqsearch` commands run as written."""

import re
from pathlib import Path

from gqsearch.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), flags=re.S | re.M)


def test_readme_python_blocks_run(capsys):
    blocks = _blocks("python")
    assert len(blocks) >= 2
    namespace = {}  # one namespace: later blocks use earlier imports
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_commands_run(capsys, tmp_path):
    commands = [
        line.split()[1:]
        for block in _blocks("sh")
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("gqsearch ")
    ]
    assert len(commands) >= 10
    for argv in commands:
        out_path = None
        if "--out" in argv:
            i = argv.index("--out") + 1
            out_path = tmp_path / argv[i]
            argv[i] = str(out_path)
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        assert (out_path.stat().st_size if out_path else len(out)) > 0, argv
