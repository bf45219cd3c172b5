"""The README's Quickstart commands run as written."""

import json
import re
import shlex
from pathlib import Path

from subteam.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_commands() -> list[list[str]]:
    """The ``subteam`` commands of the Quickstart's shell block, continuations joined."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quickstart.*?```sh\n(.*?)```", text, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("subteam ")]


def test_quickstart_runs(tmp_path, monkeypatch, capsys):
    commands = quickstart_commands()
    assert [argv[0] for argv in commands] == ["synth", "train", "recommend", "evaluate"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0, " ".join(argv)
    report = json.loads((tmp_path / "data" / "report.json").read_text())
    assert set(report["methods"]) == {"genius", "kernel"}
    for method, doc in report["methods"].items():
        assert doc["d2_cases"] > 0, method
