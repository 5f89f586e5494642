"""The README's examples stay true: its library tour prints what its comments
say, and its CLI lines parse and, run in order, succeed."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from sloccrank.cli import build_parser, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def test_library_tour_prints_what_it_shows():
    code = "\n".join(fenced("python"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    printed = out.getvalue().splitlines()
    assert printed == ["F{3,3,3}@{I,(1,3),(1,4)}", "3", "[4, 64, 4]", "2"]
    comments = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert len(comments) == len(printed)
    for shown, got in zip(comments, printed):
        assert shown.startswith(got)


CLI_LINES = [
    line
    for block in fenced("sh")
    for line in block.splitlines()
    if line.startswith("sloccrank ")
]


def test_readme_shows_every_verb():
    verbs = {shlex.split(line)[1] for line in CLI_LINES}
    assert verbs == {"gen", "rank", "signature", "classify", "matrix",
                     "capacity", "table1", "verify", "scan"}


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_line_parses(line):
    args = build_parser().parse_args(shlex.split(line)[1:])
    assert callable(args.func)


def test_cli_lines_run_in_order(tmp_path, monkeypatch, capsys):
    # each line may read what an earlier line wrote
    monkeypatch.chdir(tmp_path)
    for line in CLI_LINES:
        code = main(shlex.split(line)[1:])
        assert code == 0, (line, capsys.readouterr().err)
