"""The README's examples: every command line parses, the config loads, the code runs."""

from __future__ import annotations

import pathlib
import re
import shlex

import pytest

from donorsim.cli import build_parser
from donorsim.config import parse_config_text
from donorsim.seqdsl import HAHN_TEXT

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
#: (language, text) of each fenced block.
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.MULTILINE | re.DOTALL)


def blocks(language: str) -> list[str]:
    return [text for kind, text in BLOCKS if kind == language]


def numbered(language: str):
    """``blocks(language)`` as parameters named by language and position."""
    return [pytest.param(text, id=f"{language}{i}") for i, text in enumerate(blocks(language))]


def donorsim_commands() -> list[list[str]]:
    """The argv after ``donorsim`` of each command line in a ``sh`` block."""
    commands = []
    for block in blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["donorsim"]:
                commands.append(words[1:])
    return commands


def test_readme_has_each_kind_of_example():
    assert donorsim_commands() and blocks("ini") and blocks("python")


@pytest.mark.parametrize("argv", donorsim_commands(), ids=lambda argv: argv[0])
def test_readme_command_parses(argv):
    build_parser().parse_args(argv)  # a usage error is SystemExit, a bad value ConfigError


@pytest.mark.parametrize("text", numbered("ini"))
def test_readme_config_loads(text):
    parse_config_text(text, source="README.md")


@pytest.mark.parametrize("text", numbered("python"))
def test_readme_python_runs(text):
    exec(compile(text, "README.md", "exec"), {})


def test_readme_sequence_text_is_the_built_in_echo():
    section = README.split("## Sequence text\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^```text\n(.*?)^```", section, re.MULTILINE | re.DOTALL) == [HAHN_TEXT]
