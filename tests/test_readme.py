"""README drift guards: the exported names and every documented CLI flag."""

import argparse
import os
import re

import qlbatch
from qlbatch.cli import _build_parser

_README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
_HEAD = "The names exported by `qlbatch` (`qlbatch.__all__`):"


def _readme():
    with open(_README, encoding="utf-8") as fh:
        return fh.read()


def _listed_names():
    text = _readme()
    assert _HEAD in text
    # the bullet list that follows the heading line, up to the blank line
    block = text.split(_HEAD, 1)[1].strip().split("\n\n", 1)[0]
    # the text before each colon names the group, not an export
    return [
        name
        for bullet in block.split("\n- ")
        for name in re.findall(r"`([^`]+)`", bullet.split(":", 1)[1])
    ]


def test_readme_export_list_is_all():
    names = _listed_names()
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(qlbatch.__all__)


def test_readme_names_every_cli_flag():
    # every visible option of every subcommand, matched as a whole flag so
    # that --t-min does not count for --t
    text = _readme()
    (subparsers,) = [
        action
        for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    missing = [
        f"{name} {flag}"
        for name, sub in subparsers.choices.items()
        for action in sub._actions
        if action.help != argparse.SUPPRESS
        for flag in action.option_strings
        if flag not in ("-h", "--help")
        and not re.search(re.escape(flag) + r"(?![\w-])", text)
    ]
    assert missing == []
