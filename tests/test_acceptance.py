"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line per
criterion with the measured values.
"""

import collections
import gc
import itertools
import json
import math
import time

import numpy as np

from conftest import net_from_dense
from oracles import (
    exhaustive_oracle,
    gradient_check_report,
    random_labeled_graph,
    rw_kernel_dense,
    rw_kernel_series,
)
from subteam.cli import main as cli_main
from subteam.encoder import (
    ClusterModel,
    build_containers,
    encode,
    init_params,
    row_softmax,
)
from subteam.evaluate import evaluate_case_metrics, feature_subsample
from subteam.graph import Team, generate_synthetic, planted_blocks
from subteam.kernels import KernelConfig, kernel_baseline_replace, random_walk_kernel
from subteam.objectives import clustering_loss, structural_loss
from subteam.recommender import recommend
from subteam.trainer import TrainConfig, train

SYNTH_KERNEL_CFG = KernelConfig(decay=0.005, termination=0.95)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def timed_ms(fn, *args) -> float:
    """Wall milliseconds of the whole call ``fn(*args)``; searches do not time themselves."""
    start = time.perf_counter()
    fn(*args)
    return (time.perf_counter() - start) * 1e3


def rig_model(z, hard, clusters) -> ClusterModel:
    hard = np.asarray(hard, dtype=int)
    soft = np.zeros((len(hard), clusters))
    soft[np.arange(len(hard)), hard - 1] = 1.0
    return ClusterModel(
        embeddings=np.asarray(z, dtype=float),
        soft=soft,
        hard=hard,
        containers=build_containers(hard, clusters),
    )


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    net, teams = generate_synthetic(
        n=30, d=8, k_planted=5, p_in=0.8, p_out=0.1, teams=15, seed=2
    )
    params = init_params(8, (8, 8), 4, np.random.default_rng(0))
    errors = gradient_check_report(net, teams, params, eps=1e-4)
    elapsed = time.perf_counter() - start
    worst = max(errors.values())
    ok = worst < 1e-4 and elapsed < 60
    detail = (
        f"max relative error {worst:.3e} (<1e-4) over terms "
        f"{ {k: f'{v:.1e}' for k, v in errors.items()} }, runtime {elapsed:.1f}s (<60s)"
    )
    report(1, "gradient correctness", ok, detail)


def test_criterion_2_size_bound():
    rng = np.random.default_rng(42)
    calls = violations = shrink_cases = 0
    for _ in range(25):
        n = int(rng.integers(5, 11)) * 4
        net, _ = generate_synthetic(
            n=n,
            d=8,
            k_planted=4,
            p_in=0.8,
            p_out=0.1,
            teams=0,
            seed=int(rng.integers(1 << 30)),
        )
        params = init_params(8, (6, 4), 4, np.random.default_rng(int(rng.integers(1 << 30))))
        model = ClusterModel.build(net, params)
        for _ in range(41):
            size = int(rng.integers(3, 7))
            team = Team(tuple(rng.choice(n, size=size, replace=False)))
            # untrained assignments can lump most nodes into one cluster, so
            # cap the departing size to keep the tuple product tractable
            dep_size = int(rng.integers(1, 3))
            departing = Team(tuple(rng.choice(team.members, size=dep_size, replace=False)))
            result = recommend(team, departing, model, net)
            calls += 1
            if result.found:
                if len(result.subteam) > len(departing):
                    violations += 1
                if len(result.subteam) < len(departing):
                    shrink_cases += 1
    # deterministic same-cluster fixture: both departing members share the one
    # cluster whose only outsider is node 3, so the pick must shrink to size 1
    z = np.array([[1.0, 0], [1, 0], [1, 0], [1, 0]])
    model = rig_model(z, [1, 1, 1, 1], 2)
    fixture_net = net_from_dense(np.zeros((4, 4)), np.ones((4, 2)))
    fixture = recommend(Team((0, 1, 2)), Team((0, 1)), model, fixture_net)
    if fixture.found and len(fixture.subteam) < 2:
        shrink_cases += 1
    calls += 1
    ok = calls >= 1000 and violations == 0 and shrink_cases >= 1
    report(
        2,
        "replacement never exceeds departing size",
        ok,
        f"{calls} randomized calls, {violations} violations, {shrink_cases} strict shrinks",
    )


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(7)
    checked = agree_members = unique_tops = 0
    attempts = 0
    while checked < 100 and attempts < 1200:
        attempts += 1
        n = int(rng.integers(4, 8)) * 4  # 16..28, always <= 30
        net, _ = generate_synthetic(
            n=n,
            d=8,
            k_planted=4,
            p_in=0.7,
            p_out=0.1,
            teams=0,
            seed=int(rng.integers(1 << 30)),
        )
        params = init_params(8, (6, 4), 4, np.random.default_rng(int(rng.integers(1 << 30))))
        model = ClusterModel.build(net, params)
        team = Team(tuple(rng.choice(n, size=5, replace=False)))
        by_cluster = collections.defaultdict(list)
        for t in team.members:
            by_cluster[int(model.hard[t])].append(t)
        shared = [ids for ids in by_cluster.values() if 2 <= len(ids) < len(team)]
        if not shared:
            continue
        departing = Team(tuple(shared[0][:2]))
        union_space = sorted(
            set().union(*(model.containers[int(model.hard[t])] for t in departing))
            - set(team.members)
        )
        result = recommend(team, departing, model, net)
        if not union_space:
            assert not result.found
            continue
        oracle = exhaustive_oracle(team, departing, model, net, union_space, len(departing))
        if result.similarity != oracle.similarity:
            report(
                3,
                "oracle equivalence",
                False,
                f"score mismatch {result.similarity!r} vs {oracle.similarity!r}",
            )
        # member sets must agree whenever the top score is unique
        from subteam.objectives import cosine, team_embedding

        remaining = tuple(sorted(set(team.members) - set(departing.members)))
        reference = team_embedding(remaining, model.embeddings)
        scores = [
            cosine(reference, team_embedding(combo, model.embeddings))
            for size in (1, 2)
            for combo in itertools.combinations(union_space, size)
        ]
        top = max(scores)
        if scores.count(top) == 1:
            unique_tops += 1
            if result.subteam == oracle.subteam:
                agree_members += 1
        checked += 1
    ok = checked >= 100 and agree_members == unique_tops
    report(
        3,
        "oracle equivalence",
        ok,
        f"{checked} instances, scores all equal exactly; member sets agree on "
        f"{agree_members}/{unique_tops} unique-top cases",
    )


def test_criterion_4_within_cluster_speedup():
    start = time.perf_counter()
    net, _ = generate_synthetic(
        n=200, d=16, k_planted=10, p_in=0.6, p_out=0.02, teams=0, seed=13
    )
    params = init_params(16, (8, 8), 10, np.random.default_rng(4))
    blocks = planted_blocks(200, 10)
    model = rig_model(encode(net, params), blocks + 1, 10)
    rng = np.random.default_rng(1)
    within_ms = exhaustive_ms = 0.0
    for _ in range(10):
        b1, b2 = rng.choice(10, size=2, replace=False)
        pool1 = np.flatnonzero(blocks == b1)
        pool2 = np.flatnonzero(blocks == b2)
        members = tuple(rng.choice(pool1, 3, replace=False)) + tuple(
            rng.choice(pool2, 3, replace=False)
        )
        team = Team(members)
        departing = Team((members[0], members[3]))
        within_ms += timed_ms(recommend, team, departing, model, net)
        space = [v for v in range(net.n) if v not in team.members]
        exhaustive_ms += timed_ms(exhaustive_oracle, team, departing, model, net, space, 2)
    elapsed = time.perf_counter() - start
    ratio = exhaustive_ms / within_ms
    ok = ratio >= 20 and elapsed < 300
    report(
        4,
        "within-cluster speedup",
        ok,
        f"within {within_ms:.1f}ms vs exhaustive {exhaustive_ms:.1f}ms -> "
        f"{ratio:.1f}x (>=20x), runtime {elapsed:.1f}s (<300s)",
    )


def test_criterion_5_random_walk_kernel_correctness():
    rng = np.random.default_rng(55)
    cfg = KernelConfig(decay=0.1)
    worst_series = worst_dense = 0.0
    for _ in range(50):
        g1 = random_labeled_graph(rng, 4, 3, label_scale=0.3)
        g2 = random_labeled_graph(rng, 4, 3, label_scale=0.3)
        value = random_walk_kernel(g1, g2, cfg)
        worst_series = max(worst_series, abs(value - rw_kernel_series(g1, g2, 0.1, 50)))
        worst_dense = max(worst_dense, abs(value - rw_kernel_dense(g1, g2, 0.1)))
    ok = worst_series < 1e-8 and worst_dense < 1e-10
    report(
        5,
        "random-walk kernel correctness",
        ok,
        f"50 pairs at decay 0.1: |solver-series| max {worst_series:.2e} (<1e-8), "
        f"|solver-dense| max {worst_dense:.2e} (<1e-10)",
    )


def test_criterion_6_loss_analytics():
    rng = np.random.default_rng(3)
    failures = []

    c_mat = row_softmax(np.maximum(rng.normal(size=(40, 6)) @ rng.normal(size=(6, 5)), 0.0))
    if not np.allclose(c_mat.sum(axis=1), 1.0, atol=1e-9):
        failures.append("softmax row sums")

    one_hot = np.zeros((6, 4))
    one_hot[np.arange(6), rng.integers(0, 4, size=6)] = 1.0
    if abs(clustering_loss(one_hot)[0]) > 1e-12:
        failures.append("clustering loss at one-hot")
    uniform = np.full((5, 4), 0.25)
    if abs(clustering_loss(uniform)[0] - math.log(4)) > 1e-12:
        failures.append("clustering loss at uniform")

    if structural_loss(np.eye(4), np.eye(4))[0] != 0.0:
        failures.append("structural loss on identity one-hot fixture")
    if structural_loss(np.ones((2, 2)), np.array([[1.0], [1.0]]))[0] != 0.0:
        failures.append("structural loss on single-block fixture")

    net, teams = generate_synthetic(
        n=24, d=8, k_planted=4, p_in=0.9, p_out=0.1, teams=8, seed=21
    )
    team = next(t for t in teams if len(t) >= 3)
    metrics = evaluate_case_metrics(net, team, [team], SYNTH_KERNEL_CFG)[0]
    if any(metrics[m] != 0.0 for m in ("ged", "d1", "d2")):
        failures.append(f"identity replacement disparities {metrics}")

    report(
        6,
        "loss analytics",
        not failures,
        "softmax sums, entropy endpoints, structural fixtures, identity disparities all exact"
        if not failures
        else "; ".join(failures),
    )


def test_criterion_7_training_descent_and_purity():
    start = time.perf_counter()
    net, teams = generate_synthetic(
        n=40, d=16, k_planted=4, p_in=0.8, p_out=0.05, teams=30, seed=11
    )
    params, log = train(net, teams, TrainConfig(epochs=200, seed=0))
    model = ClusterModel.build(net, params)
    blocks = planted_blocks(40, 4)
    matched = sum(
        collections.Counter(blocks[v] for v in nodes).most_common(1)[0][1]
        for nodes in model.containers.values()
        if nodes.size
    )
    purity = matched / net.n
    elapsed = time.perf_counter() - start
    ok = log[-1].total < log[0].total and purity >= 0.8 and elapsed < 300
    report(
        7,
        "training descent",
        ok,
        f"total loss {log[0].total:.1f} -> {log[-1].total:.1f}, purity {purity:.2f} "
        f"(>=0.8), runtime {elapsed:.1f}s (<300s)",
    )


def test_criterion_8_feature_scaling_trend():
    grid = (8, 32, 128)
    net, _ = generate_synthetic(
        n=60, d=128, k_planted=6, p_in=0.8, p_out=0.05, teams=0, seed=5
    )
    rng = np.random.default_rng(0)
    blocks = planted_blocks(60, 6)
    teams = []
    for rep in range(30):
        b = rep % 6
        own = np.flatnonzero(blocks == b)
        other = np.flatnonzero(blocks != b)
        teams.append(
            Team(
                tuple(rng.choice(own, size=10, replace=False))
                + tuple(rng.choice(other, size=16, replace=False))
            )
        )
    cfg = KernelConfig(decay=1e-4, termination=0.95)
    subs = {d: feature_subsample(net, d, seed=1) for d in grid}
    models = {
        d: rig_model(
            encode(subs[d], init_params(d, (8, 8), 6, np.random.default_rng(2))),
            blocks + 1,
            6,
        )
        for d in grid
    }

    def departing_of(team):
        own_block = blocks[team.members[0]]
        cross = next(m for m in team.members if blocks[m] != own_block)
        return Team((team.members[0], cross))

    for d in grid:  # warmup
        kernel_baseline_replace(teams[0], departing_of(teams[0]), subs[d], cfg)
        recommend(teams[0], departing_of(teams[0]), models[d], subs[d])

    kernel_sums = {d: 0.0 for d in grid}
    genius_sums = {d: 0.0 for d in grid}
    gc.disable()
    try:
        for team in teams:
            departing = departing_of(team)
            # the baseline scores ~560 combinations per call, which averages
            # its own noise away; the sub-millisecond embedding search gets an
            # untimed warm call and then counts the best of three warm calls,
            # so one call slowed by the host does not set a grid point's mean
            for d in grid:
                kernel_sums[d] += timed_ms(kernel_baseline_replace, team, departing, subs[d], cfg)
            for d in grid:
                recommend(team, departing, models[d], subs[d])
                genius_sums[d] += min(
                    timed_ms(recommend, team, departing, models[d], subs[d]) for _ in range(3)
                )
    finally:
        gc.enable()
    kernel_means = {d: kernel_sums[d] / len(teams) for d in grid}
    genius_means = {d: genius_sums[d] / len(teams) for d in grid}
    strict = kernel_means[8] < kernel_means[32] < kernel_means[128]
    spread = (max(genius_means.values()) - min(genius_means.values())) / min(
        genius_means.values()
    )
    ok = strict and spread < 0.5
    report(
        8,
        "feature-scaling robustness",
        ok,
        f"kernel means ms {{8: {kernel_means[8]:.1f}, 32: {kernel_means[32]:.1f}, "
        f"128: {kernel_means[128]:.1f}}} strictly increasing={strict}; "
        f"embedding-search variation {spread * 100:.0f}% (<50%)",
    )


def test_criterion_9_determinism(tmp_path, capsys):
    def mask(doc):
        if isinstance(doc, dict):
            return {k: (None if k.endswith("_ms") else mask(v)) for k, v in doc.items()}
        if isinstance(doc, list):
            return [mask(v) for v in doc]
        return doc

    synth = ["synth", "--n", "24", "--d", "8", "--clusters", "4", "--teams", "10", "--seed", "3"]
    train_args = ["train", "--epochs", "12", "--hidden", "8", "8", "--clusters", "4", "--seed", "2"]
    failures = []
    artifacts = {}
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli_main(synth + ["--out", str(out)]) == 0
        assert cli_main(train_args + ["--data", str(out)]) == 0
        team = (out / "teams.txt").read_text().splitlines()[0].split()
        capsys.readouterr()
        code = cli_main(
            [
                "recommend",
                "--data",
                str(out),
                "--checkpoint",
                str(out / "checkpoint.json"),
                "--team",
                *team,
                "--departing",
                team[0],
                "--json",
            ]
        )
        assert code == 0
        recommendation = mask(json.loads(capsys.readouterr().out))
        report_out = out / "report.json"
        assert (
            cli_main(
                [
                    "evaluate",
                    "--data",
                    str(out),
                    "--checkpoint",
                    str(out / "checkpoint.json"),
                    "--methods",
                    "genius,kernel",
                    "--percent",
                    "25",
                    "--seed",
                    "2",
                    "--decay",
                    "0.005",
                    "--termination",
                    "0.95",
                    "--out",
                    str(report_out),
                ]
            )
            == 0
        )
        artifacts[run] = {
            "files": {
                name: (out / name).read_bytes()
                for name in ("edges.tsv", "features.tsv", "teams.txt", "checkpoint.json")
            },
            "recommendation": recommendation,
            "report": mask(json.loads(report_out.read_text())),
        }
    for name in artifacts["a"]["files"]:
        if artifacts["a"]["files"][name] != artifacts["b"]["files"][name]:
            failures.append(f"{name} differs across identical runs")
    if artifacts["a"]["recommendation"] != artifacts["b"]["recommendation"]:
        failures.append("recommendations differ after masking timing fields")
    if artifacts["a"]["report"] != artifacts["b"]["report"]:
        failures.append("evaluation reports differ after masking timing fields")
    report(
        9,
        "determinism",
        not failures,
        "checkpoints, recommendations, and reports byte-identical (timing masked)"
        if not failures
        else "; ".join(failures),
    )
