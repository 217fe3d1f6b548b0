"""The README's Python examples and `gqsearch` commands run as written, the
names its package layout lists exist, and it lists every public function."""

import importlib
import inspect
import re
from pathlib import Path

import gqsearch
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


def _layout_names():
    """(module, name) for every backticked name in a "Package layout" bullet.

    A name is a backticked identifier, or one followed by a call such as
    `parallel_plan(dec, k)`; formulas like `n / P_k(n)` are not names.
    """
    text = README.read_text().split("## Package layout\n", 1)[1].split("\n## ", 1)[0]
    for module, body in re.findall(r"^- `gqsearch\.(\w+)`:(.*?)(?=^- |^$)", text,
                                   flags=re.S | re.M):
        for name in re.findall(r"`(\w+)(?:\([^`]*\))?`", body):
            yield module, name


def test_readme_layout_names_exist():
    names = list(_layout_names())
    assert {module for module, _ in names} == {
        "statevector", "analytic", "strategy", "montecarlo", "cli"
    }
    missing = [
        f"gqsearch.{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(f"gqsearch.{module}"), name)
    ]
    assert missing == []
    # and every public function is named in one of them
    listed = {name for _, name in names}
    unlisted = [
        name for name in gqsearch.__all__
        if inspect.isfunction(getattr(gqsearch, name)) and name not in listed
    ]
    assert unlisted == []
