"""README's command-line synopsis lists exactly the options of the parser,
and the ``--method`` names of ``hgs count`` in the parser's order."""

import argparse
import re
from pathlib import Path

from hgs.cli import _build_parser
from hgs.counting import METHODS

README = Path(__file__).resolve().parent.parent / "README.md"
OPTION = re.compile(r"(?<![\w-])--?[A-Za-z][\w-]*")


def _synopsis() -> dict[str, set[str]]:
    """Options per subcommand in the fenced block under ``## Command line``."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("```", 2)[1]
    listed: dict[str, set[str]] = {}
    command = None
    for line in block.splitlines():
        if line.startswith("hgs "):
            command = line.split()[1]
            listed[command] = set()
        if command is not None:
            listed[command] |= set(OPTION.findall(line))
    return listed


def _parser_options() -> dict[str, set[str]]:
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {opt for action in p._actions for opt in action.option_strings
                   if opt not in ("-h", "--help")}
            for name, p in sub.choices.items()}


def test_readme_synopsis_matches_the_parser():
    listed = _synopsis()
    assert set(listed) == {"info", "count", "screen", "verify", "catalog"}
    assert listed == _parser_options()


def test_readme_method_list_matches_the_parser_and_the_table():
    text = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    listed = re.search(r"--method (\S+)", text.split("```", 2)[1]).group(1).split("|")
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    method = next(a for a in sub.choices["count"]._actions if a.dest == "method")
    assert listed == list(method.choices) == list(METHODS)
