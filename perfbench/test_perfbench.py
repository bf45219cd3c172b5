"""Self-test of the benchmark at tiny sizes: ``python3 -m pytest -q perfbench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--scale", "tiny", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_unit_and_check_passes(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--trace", trace)
    out = result(proc)
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in out["metrics"].items()}
    for m in wanted:
        assert f"{workload} {m['name']} = " in proc.stdout
    assert f"{workload} fail_ratio = 0.0 ratio" in proc.stdout
    if trace == "1":
        assert "counters repeat exactly" in proc.stdout
    else:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def _perturb(doc):
    """Change the first number found in a reference document."""
    if isinstance(doc, list):
        for i, item in enumerate(doc):
            if isinstance(item, (int, float)) and not isinstance(item, bool):
                doc[i] = item + 1
                return True
            if isinstance(item, (list, dict)) and _perturb(item):
                return True
    elif isinstance(doc, dict):
        for key, item in doc.items():
            if key.endswith("_size") or key == "ged":
                doc[key] = str(float(item or 0) + 1)
                return True
            if isinstance(item, (list, dict)) and _perturb(item):
                return True
    return False


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_reference_counts_as_failed(workload, tmp_path):
    name = f"{workload}.tiny.seed0.json"
    doc = json.loads((HERE / "refs" / name).read_text(encoding="utf-8"))
    assert _perturb(doc)
    (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    proc = bench("--workload", workload, "--seed", "0", "--trace", "0", "--refs", str(tmp_path))
    out = result(proc)
    assert not out["correct"] and out["failed"] >= 1
    assert "fail_ratio = 0.0 " not in proc.stdout


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
