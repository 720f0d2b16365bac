"""The README's numbers are executed: its library example runs as a doctest
and its sample table is compared with the CLI's output."""

import doctest
import re
from pathlib import Path

from mertens.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    result = doctest.testfile(
        str(README), module_relative=False, optionflags=doctest.ELLIPSIS, verbose=False
    )
    assert result.attempted >= 5
    assert result.failed == 0


def test_sample_table_matches_cli(capsys):
    text = README.read_text(encoding="utf-8")
    match = re.search(
        r"Sample table \(`mertens table --n-max 1e6`\):\n\n```\n(.*?)```", text, re.S
    )
    assert match is not None
    assert main(["table", "--n-max", "1e6"]) == 0
    assert capsys.readouterr().out == match.group(1)
