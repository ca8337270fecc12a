"""The README's CLI examples parse with the parser as it is, its CLI
section names every flag and the prefix of a flag file, and its numerical
notes name no flag the parser lacks, so the two cannot drift apart. The
commands are parsed and validated, not run."""
import argparse
import re
import shlex
from pathlib import Path

import pytest

from circbound import testpoints
from circbound.cli import _build_parser, _int, _make_spec, _trio
from circbound.testpoints import TestPointConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(title: str) -> str:
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _named_flags(text: str) -> set[str]:
    return set(re.findall(r"--[a-z](?:[a-z-]*[a-z])?", text))


def _parser_flags() -> set[str]:
    (sub,) = (a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {option for command in sub.choices.values()
            for option in command._option_string_actions if option.startswith("--")}


def _cli_commands() -> list[list[str]]:
    """The argv of every `circbound ...` line of the README's CLI block,
    with backslash continuations joined."""
    block = _section("CLI").split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("circbound ")]


def test_block_has_every_command():
    commands = {argv[0] for argv in _cli_commands()}
    assert commands == {"wwb", "bcrb", "zzb", "map-sim", "sweep", "testpoints"}


@pytest.mark.parametrize("argv", _cli_commands(), ids=" ".join)
def test_command_parses_into_a_valid_spec(argv):
    args = _build_parser().parse_args(argv)
    if args.command == "testpoints":
        testpoints.build(TestPointConfig(*_trio(args.config)), _int(args.k, "k"))
    else:
        _make_spec(args).validate()


def test_cli_section_names_every_flag():
    # the section's prose also names `--flag=value` (argparse's form for a
    # negative list) and `--kap` (an abbreviation of --kappa), which are not flags
    named = _named_flags(_section("CLI")) - {"--flag", "--kap"}
    assert named == _parser_flags() - {"--help"}


def test_cli_section_names_the_flag_file_prefix():
    # a flag file is named in the prose as `circbound <command> <prefix>name`
    prefix = re.escape(_build_parser().fromfile_prefix_chars)
    assert re.search(rf"`circbound [a-z-]+ {prefix}\w", _section("CLI"))


def test_numerical_notes_name_only_parser_flags():
    assert _named_flags(_section("Numerical notes")) <= _parser_flags()
