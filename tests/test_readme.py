"""The README's examples: the library block prints what its comments say, and
every `hyperb` command line in the CLI block parses."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from hyperb import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first fenced `lang` block after the `## heading` line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    match = re.search(rf"```{lang}\n(.*?)```", section, re.S)
    assert match, f"no {lang} block under {heading!r}"
    return match.group(1)


def _command_lines() -> list[str]:
    return [
        line for line in _block("Command line", "sh").splitlines()
        if line.startswith("hyperb ")
    ]


def test_library_example_prints_its_comments():
    code = _block("Library example", "python")
    expected = [
        line.split("# ", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert expected == ["71", "73", "8 True"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_cli_block_is_not_empty():
    assert len(_command_lines()) == 16


@pytest.mark.parametrize("theorem", list(cli._THEOREMS))
def test_every_theorem_has_a_cli_line(theorem):
    assert any(f"--theorem {theorem} " in line + " " for line in _command_lines())


@pytest.mark.parametrize("line", _command_lines())
def test_cli_example_parses(line):
    argv = shlex.split(line, comments=True)[1:]
    args = cli.build_parser().parse_args(argv)
    assert args.command == argv[0]
