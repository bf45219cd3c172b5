"""The benchmark's tracer wraps program functions by name; each of those names must exist.

``perfbench/tracing.py`` swaps a wrapper into ``(module, attribute)`` for every
entry of ``TRACED``. A rename or a deleted import in the package would break the
traced run; this test makes it fail the unit suite as well.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = [site for _, entry_sites, _, _ in tracing.TRACED for site in entry_sites]
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr in sites
        if not callable(getattr(module, attr, None))
    ]
    assert sites and not missing
