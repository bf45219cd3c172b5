"""The benchmark's tracer wraps program functions by name; each of those names must exist.

``perfbench/tracing.py`` swaps a wrapper into ``(module, attribute)`` for every
entry of ``TRACED``. A rename or a deleted import in the package would break the
traced run, and a wrapped name that the program no longer calls would read 0
calls; these tests make either fail the unit suite as well.
"""

import importlib.util
from pathlib import Path

from subteam.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# wrapped names that nothing in the pipeline calls: the model is built from the
# checkpoint without encode, and the baseline and the metric pass solve stacked
# kernels without the one-pair random-walk and marginalized functions
UNCALLED = {"encoder.encode", "kernels.random_walk_kernel", "kernels.marginalized_kernel"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    tracing = load_tracing()
    sites = [site for _, entry_sites, _, _ in tracing.TRACED for site in entry_sites]
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr in sites
        if not callable(getattr(module, attr, None))
    ]
    assert sites and not missing


def test_a_traced_pipeline_calls_every_traced_name(tmp_path, capsys):
    tracing = load_tracing()
    data = tmp_path / "data"
    ckpt = str(data / "checkpoint.json")
    with tracing.Tracer() as tracer:
        synth = ["synth", "--n", "24", "--d", "8", "--clusters", "4", "--teams", "12"]
        assert main(synth + ["--seed", "7", "--out", str(data)]) == 0
        train = ["train", "--data", str(data), "--epochs", "3", "--hidden", "8", "8"]
        assert main(train + ["--clusters", "4", "--seed", "1"]) == 0
        team = (data / "teams.txt").read_text().split("\n")[0].split()
        recommend = ["recommend", "--data", str(data), "--checkpoint", ckpt]
        assert main(recommend + ["--team", *team, "--departing", team[0]]) == 0
        evaluate = ["evaluate", "--data", str(data), "--checkpoint", ckpt, "--percent", "50"]
        assert main(evaluate + ["--decay", "0.005", "--termination", "0.95"]) == 0
    capsys.readouterr()
    metrics = tracer.metrics()
    uncalled = {name for name, *_ in tracing.TRACED if metrics[f"{name}.calls"] == 0}
    assert uncalled == UNCALLED
