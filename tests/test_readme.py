"""The README's CLI block runs as written.

Each `totaldp ...` line of the sh block under `## CLI` runs in order, in
one scratch directory, and must exit 0, so the block cannot name a
removed command or read a file that no earlier line writes.
`reproduce all` is skipped: `test_acceptance.py` runs every scenario.
"""

import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from totaldp.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_lines() -> list[list[str]]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("totaldp ")]


def test_cli_block_runs(tmp_path, monkeypatch):
    lines = cli_lines()
    assert lines
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    for args in lines:
        if args == ["reproduce", "all"]:
            continue
        out = runner.invoke(main, args)
        assert out.exit_code == 0, (args, out.output)
