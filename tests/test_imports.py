"""Every name a program module imports is referenced in that module, and only graph.py
reads the setting predicates, so every numeric refusal takes graph's one wording."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "subteam"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads.

    An attribute chain such as ``np.zeros`` starts from a name, so it counts
    ``np``; ``from __future__ import`` binds no name and is exempt.
    """
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom dataclasses import asdict, dataclass\n"
        "@dataclass\nclass A:\n    x: np.ndarray\n"
    )
    assert unused_imports(source) == ["asdict", "os"]
    assert {"encoder.py", "trainer.py", "evaluate.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# the setting predicates; graph.check_integer and graph.check_real hold them and word
# every refusal, so no other module may name one
PREDICATES = {"_finite", "_integer_at_least", "_finite_floats"}


def predicates_named(source: str) -> list[str]:
    """The setting predicates that ``source`` imports or reads, as a name or an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return sorted(names & PREDICATES)


def test_the_predicate_check_finds_what_it_should():
    source = "from .graph import _finite as real\nfrom . import graph\ngraph._integer_at_least(1)\n"
    assert predicates_named(source) == ["_finite", "_integer_at_least"]


@pytest.mark.parametrize(
    "path",
    sorted(path for path in PACKAGE.glob("*.py") if path.name != "graph.py"),
    ids=lambda path: path.name,
)
def test_only_graph_reads_the_setting_predicates(path):
    assert predicates_named(path.read_text(encoding="utf-8")) == []


# the walk reads its pools alone; which nodes a position may draw (the model's
# hard clusters today) is chosen by the pool rule in recommend
WALK = {"_search", "_canonical_pieces"}
CLUSTER_ATTRIBUTES = {"hard", "containers"}


def cluster_reads_in_walk(source: str) -> list[str]:
    """``function.attribute`` for each cluster attribute that a walk function reads, as an
    attribute or a ``getattr`` name; a walk function missing from ``source`` is listed too."""
    reads, defined = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name in WALK:
            defined.add(node.name)
            inner = list(ast.walk(node))
            names = {n.attr for n in inner if isinstance(n, ast.Attribute)}
            names |= {n.value for n in inner if isinstance(n, ast.Constant)}
            reads.update(f"{node.name}.{name}" for name in names & CLUSTER_ATTRIBUTES)
    return sorted(reads | {f"{name} is missing" for name in WALK - defined})


def test_the_walk_check_finds_what_it_should():
    source = (
        "def recommend(model):\n    return model.containers\n"
        "def _search(team, remaining, pools, model):\n    return model.hard\n"
        "def _canonical_pieces(pools, keys):\n    return getattr(pools, 'containers')\n"
    )
    assert cluster_reads_in_walk(source) == ["_canonical_pieces.containers", "_search.hard"]
    assert cluster_reads_in_walk("def _search(pools):\n    return pools\n") == [
        "_canonical_pieces is missing"
    ]


def test_the_walk_reads_no_cluster():
    assert cluster_reads_in_walk((PACKAGE / "recommender.py").read_text(encoding="utf-8")) == []
