"""README drift guard: its list of exported names is the package's __all__."""

import os
import re

import qlbatch

_README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
_HEAD = "The names exported by `qlbatch` (`qlbatch.__all__`):"


def _listed_names():
    with open(_README, encoding="utf-8") as fh:
        text = fh.read()
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
