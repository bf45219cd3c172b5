"""Benchmark workloads, run one per fresh process by ``run.py``.

Usage: ``python3 perfbench/workloads.py '<json config>'`` with ``src`` on
``PYTHONPATH``. The last line of standard output is a JSON document with the
run's measurements, checks and environment record.

Every workload builds its inputs from the seed, times each call into the
program from outside, and checks each output against seed-independent
invariants and, where ``refs/`` holds a capture for the seed, against the
reference captured at the commit that introduced the benchmark.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import subteam.cli
import subteam.encoder
import subteam.recommender
import subteam.trainer
from subteam.encoder import ClusterModel, build_containers, init_params
from subteam.graph import Team, generate_synthetic, planted_blocks, save_teams
from subteam.kernels import KernelConfig

from tracing import DETERMINISTIC_SUFFIXES, Tracer

SETUP_REPEATS = 5
REL_TOL = 1e-6  # loss logs differ in the last bits between OpenBLAS thread counts
SIM_TOL = 1e-9

SIZES = {
    "full": {
        "train": dict(n=1600, d=64, k=16, p_in=0.3, p_out=0.005, teams=400, hidden=(32, 32), epochs=1),
        "recommend": dict(n=1200, d=120, k=60, p_in=0.5, p_out=0.01, teams=1200, hidden=(16, 16)),
        "eval-kernel": dict(n=48, d=16, k=4, p_in=1.0, teams=40, team_size=4, epochs=200, hidden=(16, 16), splits=16),
    },
    "tiny": {
        "train": dict(n=64, d=16, k=4, p_in=0.5, p_out=0.05, teams=30, hidden=(8, 8), epochs=2),
        "recommend": dict(n=120, d=24, k=6, p_in=0.5, p_out=0.05, teams=60, hidden=(8, 8)),
        "eval-kernel": dict(n=24, d=8, k=2, p_in=1.0, teams=20, team_size=4, epochs=5, hidden=(4, 4), splits=2),
    },
}
R3_SHARE, R2_SHARE = 0.15, 0.25  # the rest depart one member
R3_CROSS_SHARE = 0.25
KERNEL_PERCENT = ("25", "50")
KERNEL_SPLIT = ("0.9", "0.05", "0.05")  # two of the 40 teams held out per evaluate call
KERNEL_CFG = KernelConfig(decay=0.005, termination=0.95)


def rig_model(net, hidden, k: int, seed: int) -> ClusterModel:
    """Seeded untrained embeddings with the planted blocks as hard clusters.

    A trained model is not used: a collapsed clustering makes a three-member
    search unbounded.
    """
    rng = np.random.default_rng([seed, 1])
    z = subteam.encoder.encode(net, init_params(net.d, hidden, k, rng))
    hard = planted_blocks(net.n, k) + 1
    soft = np.zeros((net.n, k))
    soft[np.arange(net.n), hard - 1] = 1.0
    return ClusterModel(embeddings=z, soft=soft, hard=hard, containers=build_containers(hard, k))


def close(a, b, tol) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


class Workload:
    """One workload: ``setup`` builds inputs, ``run_op(i)`` is the timed call.

    ``pool`` ops exist and are cycled; a run stops only at a multiple of
    ``pass_len`` ops, so every measured pass holds the same mix. ``unit`` is
    the fixed op count of one traced pass.
    """

    pass_len = 1
    unit = 1
    pool = 1
    reference = "python"

    def __init__(self, seed: int, params: dict, workdir: Path, refs):
        self.seed = seed
        self.p = params
        self.workdir = workdir
        self.refs = refs

    def check(self, i: int, output) -> list[str]:
        problems = self.invariants(i, output)
        if self.refs is not None:
            problems += self.compare(self.refs[i], self.record(i, output))
        return problems

    def inputs(self) -> dict:
        return {key: list(v) if isinstance(v, tuple) else v for key, v in self.p.items()}


class Train(Workload):
    reference = "blas"

    def setup(self):
        p = self.p
        self.net, self.teams = generate_synthetic(
            n=p["n"], d=p["d"], k_planted=p["k"], p_in=p["p_in"], p_out=p["p_out"],
            teams=p["teams"], seed=self.seed,
        )
        self.cfg = subteam.trainer.TrainConfig(epochs=p["epochs"], hidden=p["hidden"], seed=self.seed)

    def run_op(self, i):
        return subteam.trainer.train(self.net, self.teams, self.cfg)[1]

    def invariants(self, i, log):
        problems = []
        if len(log) != self.cfg.epochs:
            problems.append(f"{len(log)} epochs logged, expected {self.cfg.epochs}")
        for e in log:
            values = [e.contra, e.skill, e.structural, e.clustering, e.total, e.val_contra]
            if not all(math.isfinite(v) for v in values if v is not None):
                problems.append(f"non-finite loss at epoch {e.epoch}")
        return problems

    def record(self, i, log):
        return [[e.contra, e.skill, e.structural, e.clustering, e.total, e.val_contra] for e in log]

    def compare(self, ref, got):
        if len(ref) != len(got):
            return [f"loss log has {len(got)} epochs, reference {len(ref)}"]
        return [
            f"epoch {e + 1} losses {row} differ from reference {ref_row}"
            for e, (ref_row, row) in enumerate(zip(ref, got))
            if not all(close(a, b, REL_TOL) for a, b in zip(ref_row, row))
        ]

    def inputs(self):
        return {**super().inputs(), "cluster_count": subteam.encoder.default_cluster_count(self.p["n"])}


class Recommend(Workload):
    """Closed loop, one client: each team yields one query, with the work per pass fixed.

    Per pass, exactly R3_SHARE of the queries depart three members and
    R2_SHARE two. A three-member query whose members sit in two clusters
    makes about three times the distinct candidates of one inside a single
    cluster, so exactly R3_CROSS_SHARE of them take one foreign member and
    two of its home block, and the rest three home members.
    """

    def setup(self):
        p = self.p
        self.net, teams = generate_synthetic(
            n=p["n"], d=p["d"], k_planted=p["k"], p_in=p["p_in"], p_out=p["p_out"],
            teams=p["teams"], seed=self.seed,
        )
        self.model = rig_model(self.net, p["hidden"], p["k"], self.seed)
        blocks = planted_blocks(p["n"], p["k"])
        rng = np.random.default_rng([self.seed, 2])
        r3 = round(R3_SHARE * len(teams))
        cross = round(R3_CROSS_SHARE * r3)
        same = r3 - cross
        r2 = round(R2_SHARE * len(teams))
        self.queries = []
        for idx in rng.permutation(len(teams)):
            members = np.asarray(teams[idx].members)
            home_block = np.bincount(blocks[members]).argmax()
            home, foreign = members[blocks[members] == home_block], members[blocks[members] != home_block]
            if cross and len(members) > 3 and len(foreign) == 1:
                departing, cross = [foreign[0], *rng.choice(home, 2, replace=False)], cross - 1
            elif same and len(members) > 3 and len(home) >= 3:
                departing, same = rng.choice(home, 3, replace=False), same - 1
            elif r2 and len(members) > 2:
                departing, r2 = rng.choice(members, 2, replace=False), r2 - 1
            else:
                departing = rng.choice(members, 1)
            self.queries.append((teams[idx], Team(tuple(sorted(int(v) for v in departing)))))
        rng.shuffle(self.queries)
        self.pool = self.pass_len = self.unit = len(self.queries)

    def run_op(self, i):
        team, departing = self.queries[i]
        return subteam.recommender.recommend(team, departing, self.model, self.net)

    def invariants(self, i, res):
        team, departing = self.queries[i]
        if not res.found:
            return [f"query {i}: no candidate"]
        problems = []
        if len(res.subteam) > len(departing) or set(res.subteam) & set(team.members):
            problems.append(f"query {i}: subteam {res.subteam} breaks the size or team bound")
        z = self.model.embeddings
        remaining = sorted(set(team.members) - set(departing.members))
        u, v = z[remaining].mean(axis=0), z[list(res.subteam)].mean(axis=0)
        cos = float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
        if not close(cos, res.similarity, SIM_TOL):
            problems.append(f"query {i}: similarity {res.similarity} != recomputed {cos}")
        return problems

    def record(self, i, res):
        return [list(res.subteam) if res.found else None, res.candidates_examined, res.similarity]

    def compare(self, ref, got):
        if ref[:2] != got[:2] or not close(ref[2], got[2], SIM_TOL):
            return [f"recommend result {got} differs from reference {ref}"]
        return []

    def inputs(self):
        rs = [len(d) for _, d in self.queries]
        return {
            **super().inputs(),
            "cluster_sizes": sorted({len(c) for c in self.model.containers.values()}),
            "r_counts": {f"r{r}": rs.count(r) for r in (1, 2, 3)},
            "team_sizes": sorted({len(t) for t, _ in self.queries}),
        }


class EvalKernel(Workload):
    """The README quickstart through the in-process CLI, with complete blocks and teams of one size.

    Every seed then asks the kernel baseline for the same number of candidate
    teams, and the fixed-point solves take nearly the same number of steps.
    Each op evaluates two held-out teams; the split seed cycles over a pool,
    so a run covers many teams in ops short enough to calibrate.
    """

    def setup(self):
        p, d = self.p, self.workdir / "data"
        shutil.rmtree(d, ignore_errors=True)
        self.cli("synth", "--n", p["n"], "--d", p["d"], "--clusters", p["k"], "--p-in", p["p_in"],
                 "--teams", p["teams"], "--seed", self.seed, "--out", d)
        blocks = planted_blocks(p["n"], p["k"])
        rng = np.random.default_rng([self.seed, 3])
        teams = []
        for _ in range(p["teams"]):
            home = np.flatnonzero(blocks == rng.integers(p["k"]))
            teams.append(Team(tuple(int(v) for v in rng.choice(home, p["team_size"], replace=False))))
        save_teams(teams, d / "teams.txt")
        self.cli("train", "--data", d, "--epochs", p["epochs"], "--hidden", *p["hidden"], "--seed", self.seed)
        self.report = d / "report.tsv"
        self.argv = [
            "evaluate", "--data", d, "--checkpoint", d / "checkpoint.json", "--train-log", d / "train.log",
            "--methods", "genius,kernel", "--percent", *KERNEL_PERCENT, "--decay", KERNEL_CFG.decay,
            "--termination", KERNEL_CFG.termination, "--split", *KERNEL_SPLIT, "--format", "table",
            "--out", self.report,
        ]
        self.test_teams = int(float(KERNEL_SPLIT[2]) * p["teams"])
        self.pool = p["splits"]

    def split_seed(self, i: int) -> int:
        return self.seed * 100 + i

    @staticmethod
    def cli(*argv):
        code = subteam.cli.main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"subteam {argv[0]} exited {code}")

    def run_op(self, i):
        return subteam.cli.main([str(a) for a in self.argv] + ["--seed", str(self.split_seed(i))])

    def rows(self):
        lines = self.report.read_text(encoding="utf-8").splitlines()
        header = lines[0].split("\t")
        return [dict(zip(header, line.split("\t"))) for line in lines[1:]]

    def invariants(self, i, code):
        if code != 0:
            return [f"evaluate exited {code}"]
        rows = self.rows()
        seen = {}
        for row in rows:
            key = (row["case_id"], row["method"])
            seen[key] = seen.get(key, 0) + 1
            if row["status"] not in ("ok", "refused", "no-candidate"):
                return [f"case {key}: unknown status {row['status']}"]
        expected = {(str(c), m) for c in range(self.test_teams * len(KERNEL_PERCENT)) for m in ("genius", "kernel")}
        if set(seen) != expected or set(seen.values()) != {1}:
            return [f"report lists {len(rows)} outcomes, expected one per case and method ({len(expected)})"]
        return []

    def record(self, i, code):
        return [{k: v for k, v in row.items() if not k.endswith("_ms")} for row in self.rows()]

    def compare(self, ref, got):
        if len(ref) != len(got):
            return [f"report has {len(got)} rows, reference {len(ref)}"]
        problems = []
        for r, g in zip(ref, got):
            exact = {k: v for k, v in g.items() if k not in ("d1", "d2")}
            loose = all(close(float(r[k]) if r[k] else None, float(g[k]) if g[k] else None, SIM_TOL)
                        for k in ("d1", "d2"))
            if exact != {k: v for k, v in r.items() if k not in ("d1", "d2")} or not loose:
                problems.append(f"report row {g} differs from reference {r}")
        return problems

    def inputs(self):
        return {**super().inputs(), "percent": list(KERNEL_PERCENT), "split": list(KERNEL_SPLIT),
                "test_teams": self.test_teams, "split_seeds": [self.split_seed(i) for i in range(self.pool)]}


WORKLOADS = {"train": Train, "recommend": Recommend, "eval-kernel": EvalKernel}


# Reference work matching each workload's mix: interpreted Python or dense BLAS.
NOMINAL_MS = {"python": 0.5, "blas": 3.0}


class Calibration:
    """Fixed reference work timed between operations.

    The hosts this runs on switch between speed states that differ by up to
    about 1.8x and last for seconds. Each op is therefore scaled by
    nominal / (mean reference time just before and just after it): the time
    it would have taken on a machine that runs the reference work in the
    nominal time.
    """

    EVERY_S = 0.02

    def __init__(self, kind: str):
        self.kind = kind
        rng = np.random.default_rng(0)
        self.small = rng.random((48, 48))
        self.big = rng.random((800, 800))
        self.thin = rng.random((800, 16))
        self.square = rng.random((256, 256))
        self.nominal_ms = NOMINAL_MS[kind]
        self.at: list[float] = []
        self.ms: list[float] = []

    def _work(self):
        if self.kind == "blas":  # like the trainer: one large product, then n x n elementwise passes
            self.square @ self.square
            self.big @ self.thin
            (self.big * self.big).sum()
            return
        seen = set()
        for i in range(400):
            key = frozenset((i % 97, i % 89, i % 83))
            if key not in seen:
                seen.add(key)
        for _ in range(20):
            self.small @ self.small

    def sample(self, force: bool = False):
        now = time.perf_counter()
        if not force and self.at and now - self.at[-1] < self.EVERY_S:
            return
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            self._work()
            best = min(best, time.perf_counter() - t0)
        self.at.append(time.perf_counter())
        self.ms.append(best * 1e3)

    def factors(self, spans) -> list[float]:
        """Scale factor for each (start, end) span: the references just before and just after it."""
        at = np.asarray(self.at)
        ms = np.asarray(self.ms)
        out = []
        for start, end in spans:
            before = ms[max(int(np.searchsorted(at, start)) - 1, 0)]
            after = ms[min(int(np.searchsorted(at, end)), len(ms) - 1)]
            out.append(2 * self.nominal_ms / (before + after))
        return out


def environment(workload: Workload, cfg: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": cfg["seed"],
        "scale": cfg["scale"],
        "inputs": workload.inputs(),
    }


def load_refs(cfg: dict):
    path = Path(cfg["refs"]) / f"{cfg['workload']}.{cfg['scale']}.seed{cfg['seed']}.json"
    if cfg.get("capture") or not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def measure(cfg: dict, make) -> dict:
    """Untraced run: repeated setups, then ops until ``seconds`` have passed."""
    cal = Calibration(WORKLOADS[cfg["workload"]].reference)
    setups, setup_spans = [], []
    for _ in range(SETUP_REPEATS):
        cal.sample(force=True)
        start = time.perf_counter()
        w = make()
        w.setup()
        setup_spans.append((start, time.perf_counter()))
        cal.sample(force=True)
    op_spans, problems, records = [], [], {}
    failed = 0
    capture = cfg.get("capture")
    start = time.perf_counter()
    i = 0
    while (i == 0 or i % w.pass_len or time.perf_counter() - start < cfg["seconds"]
           or (capture and i < w.pool)):
        op = i % w.pool
        cal.sample()
        t0 = time.perf_counter()
        try:
            out = w.run_op(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            out, found = None, [f"op {op}: {type(exc).__name__}: {exc}"]
        else:
            found = None
        op_spans.append((t0, time.perf_counter()))
        cal.sample()
        found = found if found is not None else w.check(op, out)
        if found:
            failed += 1
            problems += found[:2]
        elif capture and op not in records:
            records[op] = w.record(op, out)
        i += 1
    cal.sample(force=True)
    return {
        "attempted": len(op_spans),
        "failed": failed,
        "problems": problems[:20],
        "setup_s": [b - a for a, b in setup_spans],
        "setup_factor": cal.factors(setup_spans),
        "latency_s": [b - a for a, b in op_spans],
        "factor": cal.factors(op_spans),
        "calibration_ms": cal.ms,
        "records": [records[k] for k in sorted(records)] if capture else None,
        "env": environment(w, cfg),
    }


def timed_pass(w: Workload, ops, cal: Calibration):
    """Run ``ops`` back to back; return outputs, raw ms and calibrated ms."""
    outputs, spans = [], []
    for op in ops:
        cal.sample()
        start = time.perf_counter()
        outputs.append(w.run_op(op))
        spans.append((start, time.perf_counter()))
        cal.sample()
    cal.sample(force=True)
    raw = [(b - a) * 1e3 for a, b in spans]
    return outputs, sum(raw), sum(t * f for t, f in zip(raw, cal.factors(spans)))


def traced(cfg: dict, make) -> dict:
    """Traced run: one untraced pass, then setup and the same pass under the tracer."""
    cal = Calibration(WORKLOADS[cfg["workload"]].reference)
    w = make()
    w.setup()
    ops = [i % w.pool for i in range(w.unit)]
    w.run_op(ops[0])  # warm-up, so that neither pass pays first-call costs
    _, _, untraced_ms = timed_pass(w, ops, cal)
    with Tracer() as tracer:
        w = make()
        w.setup()
        outputs, unit_ms, traced_ms = timed_pass(w, ops, cal)
    failed, problems = 0, []
    for op, out in zip(ops, outputs):
        found = w.check(op, out)
        failed += bool(found)
        problems += found[:2]
    spans = Path(cfg["spans_dir"]) / f"{cfg['workload']}-seed{cfg['seed']}-run{cfg['child']}.jsonl"
    tracer.write(spans)
    layers = tracer.metrics()
    layers["trace.unit_ms"] = unit_ms
    layers["trace.overhead_pct"] = (traced_ms / untraced_ms - 1.0) * 100.0
    return {
        "attempted": len(ops),
        "failed": failed,
        "problems": problems[:20],
        "layers": layers,
        "counters": {k: v for k, v in layers.items() if k.endswith(DETERMINISTIC_SUFFIXES)},
        "spans_file": str(spans),
        "env": environment(w, cfg),
    }


def main(argv) -> int:
    cfg = json.loads(argv[1])
    workdir = Path(cfg["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    refs = load_refs(cfg)
    params = SIZES[cfg["scale"]][cfg["workload"]]

    def make():
        return WORKLOADS[cfg["workload"]](cfg["seed"], params, workdir, refs)

    result = traced(cfg, make) if cfg["trace"] else measure(cfg, make)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
