"""The command line examples in README.md, run through ``cli.main``.

Every ``$ echo '<document>' | truncmod <command>`` example is run on its
quoted document, and the JSON result, without ``meta``, must equal the
output shown under the command, so a stale example fails the suite."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from truncmod.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLE = re.compile(r"^\$ echo '(?P<document>.*?)' \| truncmod (?P<command>\S+)\n",
                     re.MULTILINE | re.DOTALL)


def _examples():
    text = README.read_text(encoding="utf-8")
    examples = []
    for match in EXAMPLE.finditer(text):
        shown, _ = json.JSONDecoder().raw_decode(text, match.end())
        examples.append(pytest.param(match["command"], match["document"], shown,
                                     id=match["command"]))
    return examples


def test_readme_has_examples():
    assert len(_examples()) >= 4


@pytest.mark.parametrize("command, document, shown", _examples())
def test_readme_example(command, document, shown, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(document))
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main([command])
    result = json.loads(buffer.getvalue())
    assert code == 0
    result.pop("meta")
    shown.pop("meta", None)
    assert result == shown
