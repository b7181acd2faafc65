"""README.md stays executable: its Python examples run and every command
of its "Command line" block exits 0."""

import re
import shlex
from pathlib import Path
from textwrap import dedent

import pytest

from symprod import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_blocks(lang, text=README):
    """The bodies of the ```lang blocks, indented ones (in lists) too."""
    return [dedent(body) for body in
            re.findall(r"^ *```%s\n(.*?)^ *```" % lang, text, re.M | re.S)]


def command_lines():
    section = README.split("## Command line", 1)[1]
    return [shlex.split(line, comments=True)[1:]
            for line in fenced_blocks("sh", section)[0].splitlines()
            if line.startswith("symprod ")]


@pytest.mark.parametrize("block", fenced_blocks("python"),
                         ids=lambda block: block.splitlines()[-1])
def test_python_example_runs(block):
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("argv", command_lines(), ids=" ".join)
def test_command_line_example_exits_0(capsys, argv):
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 0 and "Traceback" not in err
