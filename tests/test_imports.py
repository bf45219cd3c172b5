"""Every name a program module imports is referenced in that module."""

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
