"""The documentation runs: every Python block of README.md and PAPER.md
executes, and every ``mwsync`` line of the README's CLI block exits with
the code its comment states (0 where none is stated)."""

import re
import shlex
from pathlib import Path

import pytest

from mwsync.cli import main

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "PAPER.md")


def _blocks(doc, lang):
    text = (ROOT / doc).read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


def _commands():
    """``mwsync`` lines of the README with their continuations joined."""
    for block in _blocks("README.md", "sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("mwsync "):
                yield line


@pytest.mark.parametrize(
    "doc, index",
    [(doc, i) for doc in DOCS for i in range(len(_blocks(doc, "python")))],
)
def test_python_block_runs(doc, index):
    code = _blocks(doc, "python")[index]
    exec(compile(code, f"{doc}[python block {index}]", "exec"), {})


COMMANDS = list(_commands())


def test_readme_has_a_cli_block():
    assert COMMANDS


@pytest.mark.parametrize(
    "line", COMMANDS, ids=[f"{i}-{line.split()[1]}" for i, line in enumerate(COMMANDS)]
)
def test_cli_line_exits_as_stated(line, tmp_path, monkeypatch):
    stated = re.search(r"#.*\bexits (\d)", line)
    (tmp_path / "scenarios").symlink_to(ROOT / "scenarios")
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line, comments=True)[1:]
    assert main(argv) == (int(stated.group(1)) if stated else 0)
