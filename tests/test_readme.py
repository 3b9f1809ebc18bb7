"""The README's library example runs as written and prints what its
comments say, and its flags per command are the parser's."""

import argparse
import contextlib
import io
import re
from pathlib import Path

from cosmopoly.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^## Library\n\n```python\n(.*?)^```", text, re.M | re.S)
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_flags_per_command_match_the_parser():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^Flags per command(?:.+\n)+\n((?:- .+\n)+)", text, re.M)
    listed = {}
    for line in block.splitlines():
        commands, flags = line[2:].split(": ", 1)
        for command in re.findall(r"`([a-z-]+)`", commands):
            listed[command] = sorted(re.findall(r"(--[a-z-]+)", flags))
    (subparsers,) = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    parsed = {
        name: sorted(
            opt for a in p._actions for opt in a.option_strings if opt not in ("-h", "--help")
        )
        for name, p in subparsers.choices.items()
    }
    assert listed == parsed
