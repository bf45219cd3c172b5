from collections import Counter

import sys

import numpy as np
import pytest

from conftest import net_from_dense, strict_json
from oracles import per_case_comparison
from subteam import evaluate, kernels
from subteam.encoder import ClusterModel, init_params
from subteam.errors import ValidationError
from subteam.evaluate import (
    CaseOutcome,
    EvalReport,
    draw_cases,
    evaluate_case_metrics,
    feature_subsample,
    normalize_methods,
    run_comparison,
)
from subteam.graph import Team, generate_synthetic, induced_subgraph
from subteam.kernels import GED_MAX_NODES, KernelConfig


@pytest.fixture(scope="module")
def eval_instance():
    net, teams = generate_synthetic(
        n=24, d=8, k_planted=4, p_in=0.9, p_out=0.1, teams=12, seed=21
    )
    params = init_params(net.d, (6, 4), 4, np.random.default_rng(2))
    model = ClusterModel.build(net, params)
    return net, teams, model


# synthetic label dot products reach ~8, so termination must damp harder than
# the small-label default for the marginalized solve to converge
KCFG = KernelConfig(decay=0.005, termination=0.95)


class TestDisparities:
    def test_identity_team_gives_zero(self, eval_instance):
        net, teams, _ = eval_instance
        team = next(t for t in teams if len(t) >= 3)
        metrics = evaluate_case_metrics(net, team, [team], KCFG)[0]
        assert metrics["d1"] == 0.0
        assert metrics["d2"] == 0.0

    def test_hand_evaluated_ratio(self, eval_instance):
        net, teams, _ = eval_instance
        from subteam.kernels import shortest_path_kernel

        team_a = next(t for t in teams if len(t) >= 3)
        team_b = next(t for t in teams if t != team_a and len(t) >= 3)
        t0 = induced_subgraph(net, team_a)
        t1 = induced_subgraph(net, team_b)
        self_k = shortest_path_kernel(t0, t0)
        cross = shortest_path_kernel(t0, t1)
        metrics = evaluate_case_metrics(net, team_a, [team_b], KCFG)[0]
        assert metrics["d1"] == pytest.approx(abs(cross - self_k) / self_k)

    def test_zero_self_kernel_skips_d1(self):
        net = net_from_dense(np.zeros((4, 4)), np.eye(4))
        team = Team((0, 1))
        metrics = evaluate_case_metrics(net, team, [team], KCFG)[0]
        assert metrics["d1"] == "ZeroSelfKernelError"

    def test_zero_marginalized_self_kernel_skips_d2(self):
        net = net_from_dense(np.ones((3, 3)) - np.eye(3), [[0.0], [0.0], [1.0]])
        metrics = evaluate_case_metrics(net, Team((0, 1)), [Team((1, 2))], KCFG)[0]
        assert metrics["d2"] == "ZeroSelfKernelError"


class TestEvaluateCaseMetrics:
    def test_identity_replacement_all_zero(self, eval_instance):
        net, teams, _ = eval_instance
        team = next(t for t in teams if len(t) >= 3)
        metrics = evaluate_case_metrics(net, team, [team], KCFG)[0]
        assert metrics == {"ged": 0.0, "d1": 0.0, "d2": 0.0}

    @pytest.mark.parametrize("limit", ["node-budget", "size"])
    def test_ged_refusal_skips_as_refusal_error(self, eval_instance, monkeypatch, limit):
        net, teams, _ = eval_instance
        if limit == "node-budget":
            monkeypatch.setattr(kernels, "GED_MAX_EXPANDED", 0)
            team = next(t for t in teams if len(t) >= 3)
        else:
            team = Team(tuple(range(GED_MAX_NODES + 1)))
        metrics = evaluate_case_metrics(net, team, [team], KCFG)[0]
        assert metrics["ged"] == "RefusalError"
        assert metrics["d1"] == 0.0


class TestFeatureSubsample:
    def test_full_subset_unchanged(self, eval_instance):
        net, _, _ = eval_instance
        sub = feature_subsample(net, net.d, seed=0)
        assert sub == net

    def test_single_column(self, eval_instance):
        net, _, _ = eval_instance
        sub = feature_subsample(net, 1, seed=0)
        assert sub.d == 1
        assert (sub.adjacency != net.adjacency).nnz == 0

    def test_deterministic(self, eval_instance):
        net, _, _ = eval_instance
        assert feature_subsample(net, 4, seed=5) == feature_subsample(net, 4, seed=5)

    def test_oversized_rejected(self, eval_instance):
        net, _, _ = eval_instance
        with pytest.raises(ValidationError):
            feature_subsample(net, net.d + 1, seed=0)


class TestDrawCases:
    def test_shared_cases_are_seed_deterministic(self, eval_instance):
        _, teams, _ = eval_instance
        a = draw_cases(teams[:5], [25.0, 50.0], seed=3)
        b = draw_cases(teams[:5], [25.0, 50.0], seed=3)
        assert a == b

    def test_departing_is_strict_subset(self, eval_instance):
        _, teams, _ = eval_instance
        for _, team, pct, departing in draw_cases(teams, [1.0, 50.0], seed=1):
            assert set(departing) < set(team.members)
            assert 1 <= len(departing) <= len(team) - 1

    @pytest.mark.parametrize("seed", [0, 1, 7, 11, 2**31 + 5])
    def test_same_draws_as_choosing_from_the_members(self, monkeypatch, seed):
        # the shared subset draw indexes positions, which takes the same random
        # stream as rng.choice over each team's members
        teams = [Team(tuple(range(3 * i, 3 * i + size))) for i, size in enumerate(range(1, 40))]
        percentages = [0.5, 1.0, 10.0, 25.0, 33.3, 50.0, 62.5, 75.0, 99.0, 100.0]
        made, default_rng = [], np.random.default_rng

        def recording_rng(seed_seq):
            made.append(default_rng(seed_seq))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        cases = draw_cases(teams, percentages, seed)
        monkeypatch.undo()
        slow = np.random.default_rng([seed, 3])
        want = []
        for team in teams:
            if len(team) < 2:
                continue
            for pct in percentages:
                k = int(round(pct / 100.0 * len(team)))
                k = min(max(k, 1), len(team) - 1)
                chosen = slow.choice(np.asarray(team.members), k, replace=False)
                want.append((len(want), team, pct, tuple(sorted(int(v) for v in chosen))))
        assert cases == want
        assert [rng.bit_generator.state for rng in made] == [slow.bit_generator.state]


class TestNormalizeMethods:
    def test_aliases(self):
        assert normalize_methods(["genius", "kernel_baseline"]) == ["genius", "kernel"]
        assert normalize_methods(["kernel"]) == ["kernel"]

    def test_unknown_rejected(self):
        with pytest.raises(ValidationError):
            normalize_methods(["genius", "mystery"])


class TestRunComparison:
    def test_both_methods_share_cases_and_report(self, eval_instance):
        net, teams, model = eval_instance
        held_out = teams[:4]
        report = run_comparison(
            net,
            held_out,
            ["genius", "kernel"],
            [25.0],
            seed=2,
            model=model,
            kernel_cfg=KCFG,
            training_time_ms=800.0,
        )
        assert set(report.methods) == {"genius", "kernel"}
        by_case = {}
        for case in report.cases:
            by_case.setdefault(case.case_id, {})[case.method] = case
        for case_id, methods in by_case.items():
            assert set(methods) == {"genius", "kernel"}
            assert methods["genius"].departing == methods["kernel"].departing
        genius = report.methods["genius"]
        kernel = report.methods["kernel"]
        assert genius["cases"] == kernel["cases"] > 0
        # amortized training time flows into the trained method's total only
        assert genius["mean_total_ms"] > genius["mean_inference_ms"]
        assert kernel["mean_total_ms"] == pytest.approx(kernel["mean_inference_ms"])

    def test_means_invariant_under_method_order(self, eval_instance):
        net, teams, model = eval_instance
        held_out = teams[:4]
        kwargs = dict(seed=2, model=model, kernel_cfg=KCFG)
        fwd = run_comparison(net, held_out, ["genius", "kernel"], [25.0], **kwargs)
        rev = run_comparison(net, held_out, ["kernel", "genius"], [25.0], **kwargs)
        for name in ("genius", "kernel"):
            assert fwd.methods[name]["mean_ged"] == rev.methods[name]["mean_ged"]
            assert fwd.methods[name]["mean_d1"] == rev.methods[name]["mean_d1"]
            assert fwd.methods[name]["mean_d2"] == rev.methods[name]["mean_d2"]

    def test_refusals_recorded_not_dropped(self, eval_instance, monkeypatch):
        net, teams, model = eval_instance
        held_out = teams[:3]
        monkeypatch.setattr(kernels, "BASELINE_BUDGET", 0)
        report = run_comparison(
            net, held_out, ["kernel"], [50.0], seed=2, model=model, kernel_cfg=KCFG
        )
        kernel = report.methods["kernel"]
        assert kernel["refusals"] == {
            "RefusalError": len([c for c in report.cases if c.method == "kernel"])
        }
        assert kernel["cases"] == 0
        assert all(c.status == "refused" for c in report.cases)

    def test_empty_split_rejected(self, eval_instance):
        net, _, model = eval_instance
        with pytest.raises(ValidationError):
            run_comparison(
                net, (), ["genius"], [25.0], seed=0, model=model
            )

    def test_table_and_document_round_out(self, eval_instance):
        net, teams, model = eval_instance
        held_out = teams[:3]
        report = run_comparison(
            net, held_out, ["genius"], [25.0], seed=4, model=model, kernel_cfg=KCFG
        )
        doc = report.to_document()
        assert doc["config"]["methods"] == ["genius"]
        table = report.to_table()
        header, *rows = table.strip().split("\n")
        assert header.split("\t") == list(report.TABLE_COLUMNS)
        assert len(rows) == len(report.cases)


def test_document_counts_why_metrics_were_skipped(eval_instance, monkeypatch):
    net, teams, model = eval_instance
    held_out = teams[:3]
    monkeypatch.setattr(kernels, "GED_MAX_EXPANDED", 0)  # every edit distance refuses
    report = run_comparison(
        net,
        held_out,
        ["genius"],
        [25.0, 50.0],
        seed=4,
        model=model,
        kernel_cfg=KernelConfig(decay=0.005, termination=0.1),  # D2 diverges on these labels
    )
    doc = report.to_document()["methods"]["genius"]
    assert doc["cases"] > 0
    assert doc["ged_skipped"] == {"RefusalError": doc["cases"]}
    assert doc["d2_skipped"] == {"ConvergenceError": doc["cases"]}
    for metric in ("ged", "d1", "d2"):
        assert doc[f"{metric}_cases"] + sum(doc[f"{metric}_skipped"].values()) == doc["cases"]


def test_self_kernels_computed_once_per_team(eval_instance, monkeypatch):
    net, teams, model = eval_instance
    sp_pairs, stacks, single = [], [], []
    sp, stacked = evaluate.shortest_path_kernel, evaluate._marginalized_scores

    def counted_sp(g1, g2):
        sp_pairs.append(g1 is g2)
        return sp(g1, g2)

    def counted_stack(g1, graphs, cfg):
        stacks.append((g1, graphs))
        return stacked(g1, graphs, cfg)

    monkeypatch.setattr(evaluate, "shortest_path_kernel", counted_sp)
    monkeypatch.setattr(evaluate, "_marginalized_scores", counted_stack)
    monkeypatch.setattr(evaluate, "marginalized_kernel", lambda *args: single.append(args))
    held_out = teams[:4]
    report = run_comparison(
        net, held_out, ["genius", "kernel"], [25.0, 50.0], seed=2, model=model, kernel_cfg=KCFG
    )
    ok = [case for case in report.cases if case.status == "ok"]
    completed_teams = {case.team for case in ok}
    # some team completes both percentages, so the sharing spans cases
    assert len({case.case_id for case in ok}) > len(completed_teams)
    # one shortest-path self-kernel per held-out team, one cross kernel per completed method
    assert sp_pairs.count(True) == len(completed_teams)
    assert sp_pairs.count(False) == len(ok)
    # one marginalized stack per held-out team: its self-kernel, then every rebuilt team
    assert len(stacks) == len(completed_teams)
    assert all(graphs[0] is g1 for g1, graphs in stacks)
    assert sum(len(graphs) - 1 for _, graphs in stacks) == len(ok)
    assert not single


def test_every_deep_solve_in_an_evaluation_is_pruned(eval_instance, monkeypatch):
    """The solver has one convergence test, which reduces every slice of every step;
    a deep stack stays cheap only because the baseline prunes it. A caller that
    solves a deep stack without a bound to prune by fails here."""
    net, teams, model = eval_instance
    solves = []
    solve = kernels._product_space_solve

    def spied(rhs, scale, m1, m2t, bound=None, floor=-np.inf):
        solves.append((len(rhs), bound is not None))
        return solve(rhs, scale, m1, m2t, bound, floor)

    monkeypatch.setattr(kernels, "_product_space_solve", spied)
    report = run_comparison(
        net, teams[:4], ["genius", "kernel"], [25.0, 50.0], seed=2, model=model, kernel_cfg=KCFG
    )
    assert {case.status for case in report.cases} == {"ok"}
    deep = [bounded for depth, bounded in solves if depth >= kernels._PRUNE_MIN_DEPTH]
    assert len(deep) >= 2 and all(deep)


@pytest.mark.parametrize(
    "termination, max_iters, sp_max_nodes, ged_budget",
    [
        (0.95, None, None, None),
        (0.6, None, None, None),
        (0.1, None, None, None),
        (0.95, 12, None, None),
        (0.95, None, 4, None),
        (0.95, None, None, 30),
    ],
    ids=[
        "d2-converges",
        "d2-refuses-some",
        "d2-refuses-all",
        "solves-stop-at-12-steps",
        "d1-refuses-some",
        "ged-refuses-some",
    ],
)
def test_outcomes_equal_the_per_case_oracle(
    eval_instance, monkeypatch, termination, max_iters, sp_max_nodes, ged_budget
):
    net, teams, model = eval_instance
    if max_iters is not None:  # slices that need more steps refuse, each on its own
        monkeypatch.setattr(kernels, "_SOLVE_MAX_ITERS", max_iters)
    if sp_max_nodes is not None:  # the larger teams' shortest-path self-kernels refuse
        monkeypatch.setattr(kernels, "SHORTEST_PATH_MAX_NODES", sp_max_nodes)
    if ged_budget is not None:  # the searches that expand more nodes refuse
        monkeypatch.setattr(kernels, "GED_MAX_EXPANDED", ged_budget)
    args = (net, teams[:6], ["genius", "kernel"], [25.0, 50.0], 2)
    cfg = KernelConfig(decay=0.005, termination=termination)
    report = run_comparison(*args, model=model, kernel_cfg=cfg)
    got = [
        dict(
            case_id=o.case_id, team=o.team, departing=o.departing, percent=o.percent,
            method=o.method, status=o.status, subteam=o.subteam, metrics=o.metrics,
            reason=o.reason,
        )
        for o in report.cases
    ]
    expected = per_case_comparison(*args, model, cfg)
    assert got == expected
    statuses = Counter(row["status"] for row in expected)
    assert statuses["ok"] > len(teams[:6])  # teams complete several cases
    completed = [row["metrics"] for row in expected if row["metrics"] is not None]
    d2 = Counter("skipped" if isinstance(metrics["d2"], str) else "value" for metrics in completed)
    assert d2["value"] > 0 or termination == 0.1
    assert d2["skipped"] > 0 or termination == 0.95 and max_iters is None
    d1 = Counter(m["d1"] if isinstance(m["d1"], str) else None for m in completed)
    assert set(d1) <= {None, "RefusalError"}
    assert (d1["RefusalError"] > 0) == (sp_max_nodes is not None)
    assert d1[None] > 0
    ged = Counter(m["ged"] if isinstance(m["ged"], str) else None for m in completed)
    assert set(ged) <= {None, "RefusalError"}
    assert (ged["RefusalError"] > 0) == (ged_budget is not None)
    assert ged[None] > 0


def test_refused_searches_keep_the_reason_the_oracle_records(eval_instance, monkeypatch):
    net, teams, model = eval_instance
    monkeypatch.setattr(kernels, "BASELINE_BUDGET", 100)  # the larger departing sets refuse
    args = (net, teams[:6], ["genius", "kernel"], [25.0, 50.0], 2)
    report = run_comparison(*args, model=model, kernel_cfg=KCFG)
    got = [(o.case_id, o.method, o.status, o.reason) for o in report.cases]
    expected = per_case_comparison(*args, model, KCFG)
    assert got == [(r["case_id"], r["method"], r["status"], r["reason"]) for r in expected]
    reasons = Counter((status, reason) for _, _, status, reason in got)
    assert set(reasons) == {("ok", None), ("refused", "RefusalError")}
    refused = reasons["refused", "RefusalError"]
    assert report.methods["kernel"]["refusals"] == {"RefusalError": refused}


def hand_outcome(
    case_id, method, status, metrics=None, inference_ms=0.0, total_ms=0.0, reason=None
):
    subteam = (9,) if status == "ok" else None
    return CaseOutcome(
        case_id, (1, 2, 3), (2,), 50.0, method, status, subteam, metrics, inference_ms, total_ms,
        reason,
    )


def test_means_cover_only_cases_every_method_completed():
    cases = [
        hand_outcome(0, "genius", "ok", {"ged": 2.0, "d1": 0.5, "d2": "ConvergenceError"}, 1, 3),
        hand_outcome(0, "kernel", "ok", {"ged": 4.0, "d1": "RefusalError", "d2": 0.25}, 10, 10),
        # kernel refused case 1 and genius found nothing in case 2: neither case
        # adds to the other method's cases, means or skip counts
        hand_outcome(1, "genius", "ok", {"ged": 1.0, "d1": 0.25, "d2": 0.5}, 3, 5),
        hand_outcome(1, "kernel", "refused", inference_ms=0.5, reason="RefusalError"),
        hand_outcome(2, "genius", "no-candidate", inference_ms=0.5),
        hand_outcome(2, "kernel", "ok", {"ged": "RefusalError", "d1": 0.75, "d2": 0.125}, 7, 7),
        hand_outcome(
            3, "genius", "ok", {"ged": "RefusalError", "d1": "ZeroSelfKernelError", "d2": 0.5}, 2, 4
        ),
        hand_outcome(3, "kernel", "ok", {"ged": 1.0, "d1": 0.25, "d2": "ConvergenceError"}, 6, 6),
    ]
    report = EvalReport(config={"methods": ["kernel", "genius"]}, cases=cases)
    assert list(report.methods) == ["genius", "kernel"]
    assert report.methods["genius"] == {
        "cases": 2,
        "refusals": {},
        "no_candidates": 1,
        "mean_ged": 2.0,
        "ged_cases": 1,
        "ged_skipped": {"RefusalError": 1},
        "mean_d1": 0.5,
        "d1_cases": 1,
        "d1_skipped": {"ZeroSelfKernelError": 1},
        "mean_d2": 0.5,
        "d2_cases": 1,
        "d2_skipped": {"ConvergenceError": 1},
        "mean_inference_ms": 1.5,
        "mean_total_ms": 3.5,
    }
    assert report.methods["kernel"] == {
        "cases": 2,
        "refusals": {"RefusalError": 1},
        "no_candidates": 0,
        "mean_ged": 2.5,
        "ged_cases": 2,
        "ged_skipped": {},
        "mean_d1": 0.25,
        "d1_cases": 1,
        "d1_skipped": {"RefusalError": 1},
        "mean_d2": 0.25,
        "d2_cases": 1,
        "d2_skipped": {"ConvergenceError": 1},
        "mean_inference_ms": 8.0,
        "mean_total_ms": 8.0,
    }
    assert report.to_document() == {"config": report.config, "methods": report.methods}


def overflow_net():
    """Six linked nodes with one feature: 1e-80 on nodes 0-2, 1e75 on nodes 3-5."""
    return net_from_dense(np.ones((6, 6)) - np.eye(6), [[1e-80]] * 3 + [[1e75]] * 3)


def test_an_overflowing_disparity_is_skipped_as_refusal_error():
    # the shortest-path self-kernel of {0, 1, 2} is about 3.6e-319, so the
    # baseline's (3, 4) made d1 inf and the strict JSON writer raised
    args = (overflow_net(), [Team((0, 1, 2))], ["kernel"], [67.0], 0)
    report = run_comparison(*args, kernel_cfg=KCFG)
    [outcome] = report.cases
    assert outcome.subteam == (3, 4)
    assert outcome.metrics["d1"] == "RefusalError" and np.isfinite(outcome.metrics["d2"])
    [expected] = per_case_comparison(*args, None, KCFG)
    assert outcome.metrics == expected["metrics"]
    entry = strict_json(report.to_json())["methods"]["kernel"]
    assert entry["mean_d1"] is None and entry["d1_skipped"] == {"RefusalError": 1}


@pytest.mark.parametrize(
    "values, mean",
    [([1e308, 1e308], 1e308), ([sys.float_info.max] * 3, sys.float_info.max), ([0.5, 0.25], 0.375)],
    ids=["sum-overflows", "divided-sum-overflows", "finite-sum"],
)
def test_a_mean_of_finite_values_is_finite(values, mean):
    # an overflowing sum made the mean inf, which the strict JSON writer refuses
    assert evaluate._mean(values, None) == mean
    metrics = [{"ged": v, "d1": v, "d2": v} for v in values]
    cases = [hand_outcome(i, "m", "ok", m) for i, m in enumerate(metrics)]
    doc = strict_json(EvalReport(config={"methods": ["m"]}, cases=cases).to_json())
    assert doc["methods"]["m"]["mean_ged"] == mean


def test_report_layout_is_pinned():
    doc = EvalReport(config={"methods": ["m"]}, cases=[]).to_document()["methods"]["m"]
    assert list(doc) == [
        "cases",
        "refusals",
        "no_candidates",
        "mean_ged",
        "ged_cases",
        "ged_skipped",
        "mean_d1",
        "d1_cases",
        "d1_skipped",
        "mean_d2",
        "d2_cases",
        "d2_skipped",
        "mean_inference_ms",
        "mean_total_ms",
    ]
    assert list(EvalReport.TABLE_COLUMNS) == [
        "case_id",
        "method",
        "percent",
        "team_size",
        "departing_size",
        "status",
        "subteam_size",
        "ged",
        "d1",
        "d2",
        "inference_ms",
        "total_ms",
    ]
