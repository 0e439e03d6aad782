"""README drift: what the README documents must exist in the package."""

import argparse
import pathlib
import re

import recurseries
from recurseries.cli import _build_parser

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def section(heading):
    """The README text from a "## " heading up to the next one."""
    start = README.index(f"\n## {heading}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def test_library_names_import():
    paragraph = README[README.index("Lower-level pieces are importable too"):]
    paragraph = paragraph[:paragraph.index("\n\n")]
    names = re.findall(r"`(\w+)`", paragraph)
    assert names
    missing = [name for name in names if not hasattr(recurseries, name)]
    assert missing == []


def test_command_line_flags_exist():
    flags = set(re.findall(r"--[a-z][a-z0-9-]*", section("Command line")))
    assert {"--f", "--taylor", "--orbit-csv", "--json"} <= flags
    options = set()
    for action in _build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                for option in sub._actions:
                    options.update(option.option_strings)
    assert sorted(flags - options) == []
