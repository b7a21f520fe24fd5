"""The README's examples run, and what it quotes matches the code and the tests."""

import json
import re
import shlex
from pathlib import Path

import pytest

from dualvit import cli, training
from tests.mutants import node_source

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")


def section(title: str) -> str:
    """The README's text under ``## title``, up to the next ``##`` heading."""
    return re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", TEXT, re.S | re.M).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    snippet = re.search(r"```python\n(.*?)```", section("Library"), re.S).group(1)
    train_toy = training.train_toy
    monkeypatch.setattr(training, "train_toy",
                        lambda *args, **kwargs: train_toy(*args, **{**kwargs, "steps": 2}))
    monkeypatch.chdir(tmp_path)
    exec(compile(snippet, str(README), "exec"), {})
    assert (tmp_path / "model.dvcp").is_file()


def test_the_preset_table_quotes_what_count_prints(capsys):
    rows = re.findall(r"^\| (\w+) \| [\d/]+ \| [\d/]+ \| (\S+) \| (\S+) \|$", TEXT, re.M)
    assert [preset for preset, _, _ in rows] == ["S", "B", "L"]
    for preset, params, gmacs in rows:
        assert cli.main(["count", "--preset", preset, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (params, gmacs) == (f"{report['params'] / 1e6:.1f}M",
                                   f"{report['macs'] / 1e9:.2f}"), preset


def test_every_test_the_readme_cites_exists():
    cited = re.findall(r"tests/\w+\.py::[\w:\[\]-]+", TEXT)
    assert cited
    assert [node_id for node_id in cited if node_source(node_id) is None] == []


def test_each_convention_cites_a_test_and_quotes_no_measured_figure():
    """A figure no test pins goes stale: the Conventions state what holds and
    leave measurements to CHANGES.md and the commands that print them."""
    conventions = section("Conventions")
    bullets = re.split(r"^- ", conventions, flags=re.M)[1:]
    assert bullets and all(re.search(r"tests/\w+\.py::\w", b) for b in bullets)
    figures = re.findall(r"\d[\d.,]*\s?(?:MiB|MB|KB|ms|GMAC)\b|\d[\d.,]*K\b", conventions)
    assert figures == []


def test_every_line_of_the_cli_block_parses():
    block = re.search(r"```\n(.*?)```", section("CLI"), re.S).group(1)
    parser = cli.build_parser()
    for line in block.splitlines():
        argv = shlex.split(line.split("#")[0])
        assert argv[0] == "dualvit", line
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"the README's CLI line {line!r} does not parse")
