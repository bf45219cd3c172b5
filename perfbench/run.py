"""Benchmark entry point for the subteam pipeline.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (``train``, ``recommend`` or ``eval-kernel``, see
``README.md``) in a fresh child process with the OpenBLAS thread count
pinned, checks its outputs, prints every metric by name and unit, and ends with
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs the workload twice under the span recorder, asserts that the
deterministic counters repeat, and reports the per-layer metrics.
``--capture-refs`` writes the reference outputs for the seed instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train", "recommend", "eval-kernel")
BLAS_THREADS = 1  # at most nproc; one keeps the single client free of BLAS thread contention
CHILD_TIMEOUT_S = 150
TRACED_CHILD_TIMEOUT_S = 75

# Per-workload names of the end-to-end numbers, printed alongside the metrics.
ALIASES = {
    "train": [("train_s", "s", lambda m, c: m["op_ms_p50"] / 1e3)],
    "recommend": [
        ("query_ms_p50", "ms", lambda m, c: m["op_ms_p50"]),
        ("query_ms_p99", "ms", lambda m, c: m["op_ms_p99"]),
        ("queries_per_s", "1/s", lambda m, c: m["ops_per_s"]),
    ],
    "eval-kernel": [("cases_per_s", "1/s", lambda m, c: m["ops_per_s"] * c["test_teams"] * len(c["percent"]))],
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_child(cfg: dict, timeout: float) -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env.update(
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
        PYTHONPATH=str(ROOT / "src"),
    )
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), json.dumps(cfg)],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(child: dict) -> dict[str, float]:
    """Timings are scaled to the nominal machine speed measured by the calibration work."""
    lat_ms = [t * 1e3 * f for t, f in zip(child["latency_s"], child["factor"])]
    return {
        "setup_s": statistics.median(t * f for t, f in zip(child["setup_s"], child["setup_factor"])),
        "op_ms_p50": quantile(lat_ms, 0.5),
        "op_ms_p99": quantile(lat_ms, 0.99),
        "ops_per_s": len(lat_ms) / (sum(lat_ms) / 1e3),
        "peak_rss_mb": child["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny inputs for the self-test")
    parser.add_argument("--refs", default=str(HERE / "refs"), help="directory of reference outputs")
    parser.add_argument("--capture-refs", action="store_true", help="write reference outputs for this seed")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "subteam" / "__init__.py").is_file():
        print(f"error: no subteam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    work = ROOT / ".perfbench_work"
    workdir = work / f"{args.workload}-{os.getpid()}"
    cfg = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "refs": args.refs,
        "workdir": str(workdir),
        "spans_dir": str(work / "spans"),
        "trace": bool(args.trace),
        "capture": args.capture_refs,
    }
    try:
        if args.trace:
            (work / "spans").mkdir(parents=True, exist_ok=True)
            runs = [run_child({**cfg, "child": k}, TRACED_CHILD_TIMEOUT_S) for k in (1, 2)]
        else:
            runs = [run_child(cfg, CHILD_TIMEOUT_S)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = runs[0]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for problem in (p for r in runs for p in r["problems"]):
        print(f"# mismatch: {problem}")
    print("# env " + json.dumps(first["env"], sort_keys=True))

    if args.capture_refs:
        if failed:
            print("error: invariants failed; no reference written", file=sys.stderr)
            return 1
        path = Path(args.refs) / f"{args.workload}.{args.scale}.seed{args.seed}.json"
        path.write_text(json.dumps(first["records"]) + "\n", encoding="utf-8")
        print(f"# wrote {path}")

    if args.trace:
        wanted = spec["per_layer"]
        a, b = (r["counters"] for r in runs)
        if a != b:
            failed += 1
            diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
            print(f"# counter mismatch between traced runs: {diff}")
        else:
            print(f"# counters repeat exactly in both traced runs ({len(a)} counters)")
        attempted += 1
        values = {m["name"]: statistics.mean(r["layers"][m["name"]] for r in runs) for m in wanted}
        print("# spans: " + ", ".join(r["spans_file"] for r in runs))
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(first)
        env = first["env"]
        print(f"# ops={first['attempted']} calibration_ms_p50={quantile(first['calibration_ms'], 0.5):.4f} "
              f"raw_op_ms_p50={quantile(first['latency_s'], 0.5) * 1e3:.4f}")
        for name, unit, fn in ALIASES[args.workload]:
            print(f"{args.workload} {name} = {fn(values, env['inputs'])!r} {unit}")

    fail_ratio = failed / attempted if attempted else 1.0
    print(f"{args.workload} fail_ratio = {fail_ratio!r} ratio ({failed} failed of {attempted})")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{args.workload} {m['name']} = {values[m['name']]!r} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
