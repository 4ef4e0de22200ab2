"""Every mobmeta command line in README.md parses.

Nothing is run: each command in a `sh` block, with its backslash-continued
lines joined, goes through cli.parse_args, so an example that names a
removed option fails here rather than for a reader.
"""

import re
import shlex
from pathlib import Path

import pytest

from mobmeta import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("mobmeta "):
                commands.append(shlex.split(line, comments=True))
    return commands


COMMANDS = readme_commands()


def test_readme_shows_every_command():
    assert {argv[1] for argv in COMMANDS} == set(cli.COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS,
                         ids=[f"{i}-{a[1]}" for i, a in enumerate(COMMANDS)])
def test_readme_command_parses(argv):
    try:
        cli.parse_args(argv[1:])
    except SystemExit:
        pytest.fail(f"README command does not parse: {shlex.join(argv)}")
