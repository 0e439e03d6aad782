"""README drift: what the README documents must exist in the package."""

import argparse
import contextlib
import inspect
import io
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


# what the Library section's receivers stand for; rows is the caller's own
# row consumer, which has no signature here
RECEIVERS = {"table": recurseries.Samples, "germ": recurseries.Germ}
NOT_OURS = {"rows"}


def test_library_signatures_match_the_code():
    # each call written with bare names or name=default gives the callable's
    # parameters in order, self aside
    calls = re.findall(r"`([\w.]+)\(([^`]*)\)`", " ".join(section("Library").split()))
    checked = []
    for name, given in calls:
        params = [part.split("=")[0].strip() for part in given.split(",")]
        if name in NOT_OURS or not all(re.fullmatch(r"\w+", p) for p in params):
            continue
        receiver, _, attr = name.rpartition(".")
        fn = getattr(RECEIVERS[receiver], attr) if receiver else getattr(recurseries, name)
        names = [p for p in inspect.signature(fn).parameters if p != "self"]
        assert params == names, name
        checked.append(name)
    assert {"Samples", "iterate", "analyze", "evaluator"} <= set(checked)


def test_library_example_prints_what_its_comments_say():
    block = re.search(r"^```python\n(.*?)^```", README, re.M | re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    expected = [line.split("# ")[1].strip() for line in block.splitlines()
                if line.startswith("print(")]
    assert out.getvalue().splitlines() == expected


FLAG = r"--[a-z][a-z0-9-]*"


def subcommand_options():
    """Each subcommand's option strings, --help aside."""
    options = {}
    for action in _build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                options[name] = {
                    flag for option in sub._actions for flag in option.option_strings
                } - {"-h", "--help"}
    return options


def test_command_line_flags_exist():
    flags = set(re.findall(FLAG, section("Command line")))
    assert {"--f", "--taylor", "--orbit-csv", "--json"} <= flags
    options = set().union(*subcommand_options().values())
    assert sorted(flags - options) == []


def test_each_subcommand_lists_exactly_its_options():
    # the list item "- `name`: ..." names every option of the subcommand
    text = section("Command line")
    options = subcommand_options()
    listed = dict(re.findall(r"^- `(\w+)`: (.*?)(?=^\S|\Z)", text, re.M | re.S))
    assert sorted(listed) == sorted(options)
    for name, item in listed.items():
        assert set(re.findall(FLAG, item)) == options[name], name
    # and every example command line uses only options of its subcommand
    examples = re.findall(r"^\$ recurseries (\w+)(.*)$", README, re.M)
    assert {name for name, _ in examples} == set(options)
    for name, line in examples:
        assert set(re.findall(FLAG, line)) <= options[name], line
