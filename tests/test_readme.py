"""The README's Quickstart commands run as written."""

import importlib
import json
import pkgutil
import re
import shlex
from pathlib import Path

import subteam
from conftest import strict_json
from subteam.cli import build_parser, main

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
    report = strict_json((tmp_path / "data" / "report.json").read_text())
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


def test_quoted_constants_hold_their_values():
    """Each dotted name quoted as `name` = N, and each constant as `NAME` (N), is the code's N."""
    modules = [
        importlib.import_module(f"subteam.{info.name}")
        for info in pkgutil.iter_modules(subteam.__path__)
    ]
    text = README.read_text(encoding="utf-8")
    end = r"(\d[\d,]*)(?![\w^]|\.\d)"  # 2^27 and 1.5 are not quoted counts
    quoted = re.findall(rf"`([A-Za-z_]\w*(?:\.\w+)+)` = {end}", text)
    quoted += re.findall(rf"`([A-Z][A-Z\d_]*)` \({end}\)", text)
    checked = set()
    for name, value in quoted:
        head, *rest = name.removeprefix("subteam.").split(".")
        if rest:
            obj = getattr(subteam, head)
            for attr in rest:
                obj = getattr(obj, attr)
            found = {obj}
        else:  # a bare name: the value every module that holds it agrees on
            found = {getattr(module, name) for module in modules if hasattr(module, name)}
        assert found == {int(value.replace(",", ""))}, f"README quotes {name} as {value}"
        checked.add(name.rsplit(".", 1)[-1])
    assert {"DEFAULT_SEARCH_BUDGET", "BASELINE_BUDGET", "GED_MAX_NODES", "GED_MAX_EXPANDED"} <= checked


def test_cited_flags_exist():
    """Every ``--flag`` the README cites, outside its pip commands, is a ``subteam`` command's."""
    _, commands = build_parser()
    flags = {flag for p in commands.values() for a in p._actions for flag in a.option_strings}
    text = re.sub(r"pip install[^`\n]*", "", README.read_text(encoding="utf-8"))
    cited = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", text))
    assert {"--data", "--features", "--config"} <= cited
    assert cited <= flags, f"not a flag of any command: {sorted(cited - flags)}"
