"""The README's command-line and library examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from braidact.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, lang: str) -> str:
    """The first fenced code block of this language after the heading."""
    section = README[README.index(heading) :]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _cli_commands() -> list[list[str]]:
    """Each `braidact` line of the command-line block as argv, without its
    trailing comment; an optional `[--flag]` gives one command without the
    flag and one with it."""
    commands = []
    for line in _block("## Command line", "sh").splitlines():
        words = shlex.split(line.split(" #")[0])
        assert words[0] == "braidact", line
        optional = [w for w in words if w.startswith("[")]
        plain = [w for w in words[1:] if w not in optional]
        commands.append(plain)
        if optional:
            commands.append(plain + [w.strip("[]") for w in optional])
    return commands


CLI_COMMANDS = _cli_commands()


@pytest.mark.parametrize("argv", CLI_COMMANDS, ids=[" ".join(a) for a in CLI_COMMANDS])
def test_cli_example_exits_zero(argv, tmp_path, capsys):
    argv = [str(tmp_path / "out.dot") if a == "out.dot" else a for a in argv]
    assert main(argv) == 0
    assert capsys.readouterr().out


def test_cli_block_is_found():
    assert [a[0] for a in CLI_COMMANDS] == [
        "verify",
        "verify",
        "classify",
        "catalog",
        "catalog",
        "gamma",
        "act",
        "invariant",
        "check-stab",
    ]


def test_type_b_stabilization_is_reported_violated(capsys):
    assert "`check-stab --rep wada:B1` reports \"stabilization properties: violated\"" in README
    main(["check-stab", "--rep", "wada:B1"])
    assert "stabilization properties: violated" in capsys.readouterr().out.splitlines()


def test_library_quick_start_prints_its_comment(capsys):
    code = _block("## Library quick start", "python")
    expected = code.rstrip().splitlines()[-1].removeprefix("# ")
    assert expected == "abelianization Z; hom counts S3: 12"
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == expected + "\n"
