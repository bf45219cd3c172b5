"""The README's Quickstart commands run as written."""

import importlib
import json
import pkgutil
import re
import shlex
from pathlib import Path

import subteam
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


def test_cited_dotted_names_resolve():
    """Every dotted name the README cites in inline code is a package object or a file name."""
    for info in pkgutil.iter_modules(subteam.__path__):
        importlib.import_module(f"subteam.{info.name}")
    cited = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)", README.read_text(encoding="utf-8"))
    resolved = []
    for dotted in cited:
        head, *rest = dotted.removeprefix("subteam.").split(".")
        if not hasattr(subteam, head):
            assert re.fullmatch(r"\w+\.(tsv|txt|json|log)", dotted), f"{dotted} names nothing"
            continue
        obj = getattr(subteam, head)
        for attr in rest:  # a dataclass field counts, though its class lacks the attribute
            fields = getattr(obj, "__dataclass_fields__", {})
            assert hasattr(obj, attr) or attr in fields, f"{dotted} does not resolve"
            obj = getattr(obj, attr, None)
        resolved.append(dotted)
    assert {"kernels.GED_MAX_NODES", "subteam.recommender.CHUNK", "ClusterModel.build"} <= set(
        resolved
    )
