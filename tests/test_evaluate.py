from collections import Counter

import numpy as np
import pytest

from conftest import net_from_dense
from oracles import per_case_comparison
from subteam import evaluate, kernels
from subteam.encoder import ClusterModel, init_params
from subteam.errors import ValidationError, ZeroSelfKernelError
from subteam.evaluate import (
    EvalCaps,
    EvalReport,
    MethodAggregate,
    OriginalTeam,
    disparity_marg,
    disparity_sp,
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
        original = OriginalTeam.build(net, team, KCFG)
        assert disparity_sp(original, original.graph) == 0.0
        assert disparity_marg(original, original.graph) == 0.0

    def test_hand_evaluated_ratio(self, eval_instance):
        net, teams, _ = eval_instance
        from subteam.kernels import shortest_path_kernel

        team_a = next(t for t in teams if len(t) >= 3)
        team_b = next(t for t in teams if t != team_a and len(t) >= 3)
        t0 = induced_subgraph(net, team_a)
        t1 = induced_subgraph(net, team_b)
        self_k = shortest_path_kernel(t0, t0)
        cross = shortest_path_kernel(t0, t1)
        original = OriginalTeam.build(net, team_a, KCFG)
        assert disparity_sp(original, t1) == pytest.approx(abs(cross - self_k) / self_k)

    def test_zero_self_kernel_raises(self):
        net = net_from_dense(np.zeros((4, 4)), np.eye(4))
        original = OriginalTeam.build(net, Team((0, 1)), KCFG)
        with pytest.raises(ZeroSelfKernelError):
            disparity_sp(original, original.graph)

    def test_zero_marginalized_self_kernel_raises(self):
        net = net_from_dense(np.ones((3, 3)) - np.eye(3), [[0.0], [0.0], [1.0]])
        original = OriginalTeam.build(net, Team((0, 1)), KCFG)
        with pytest.raises(ZeroSelfKernelError):
            disparity_marg(original, induced_subgraph(net, Team((1, 2))))


class TestEvaluateCaseMetrics:
    def test_identity_replacement_all_zero(self, eval_instance):
        net, teams, _ = eval_instance
        team = next(t for t in teams if len(t) >= 3)
        metrics = evaluate_case_metrics(net, OriginalTeam.build(net, team, KCFG), team, EvalCaps())
        assert metrics.values["ged"] == 0.0
        assert metrics.values["d1"] == 0.0
        assert metrics.values["d2"] == 0.0

    def test_ged_size_cap_counted(self, eval_instance):
        net, teams, _ = eval_instance
        team = next(t for t in teams if len(t) >= 3)
        original = OriginalTeam.build(net, team, KCFG)
        metrics = evaluate_case_metrics(net, original, team, EvalCaps(ged_max_nodes=1))
        assert metrics.values.get("ged") is None
        assert metrics.skipped["ged"] == "size-cap"


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
        assert genius.cases == kernel.cases > 0
        # amortized training time flows into the trained method's total only
        assert genius.mean_total_ms > genius.mean_inference_ms
        assert kernel.mean_total_ms == pytest.approx(kernel.mean_inference_ms)

    def test_means_invariant_under_method_order(self, eval_instance):
        net, teams, model = eval_instance
        held_out = teams[:4]
        kwargs = dict(seed=2, model=model, kernel_cfg=KCFG)
        fwd = run_comparison(net, held_out, ["genius", "kernel"], [25.0], **kwargs)
        rev = run_comparison(net, held_out, ["kernel", "genius"], [25.0], **kwargs)
        for name in ("genius", "kernel"):
            assert fwd.methods[name].mean("ged") == rev.methods[name].mean("ged")
            assert fwd.methods[name].mean("d1") == rev.methods[name].mean("d1")
            assert fwd.methods[name].mean("d2") == rev.methods[name].mean("d2")

    def test_refusals_recorded_not_dropped(self, eval_instance):
        net, teams, model = eval_instance
        held_out = teams[:3]
        report = run_comparison(
            net,
            held_out,
            ["kernel"],
            [50.0],
            seed=2,
            caps=EvalCaps(baseline_budget=0),
            model=model,
            kernel_cfg=KCFG,
        )
        kernel = report.methods["kernel"]
        assert kernel.refusals == len([c for c in report.cases if c.method == "kernel"])
        assert kernel.cases == 0
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


def test_document_counts_why_metrics_were_skipped(eval_instance):
    net, teams, model = eval_instance
    held_out = teams[:3]
    report = run_comparison(
        net,
        held_out,
        ["genius"],
        [25.0, 50.0],
        seed=4,
        caps=EvalCaps(ged_max_nodes=0),
        model=model,
        kernel_cfg=KernelConfig(decay=0.005, termination=0.1),  # D2 diverges on these labels
    )
    doc = report.to_document()["methods"]["genius"]
    assert doc["cases"] > 0
    assert doc["ged_skipped"] == {"size-cap": doc["cases"]}
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


@pytest.mark.parametrize(
    "termination, max_iters",
    [(0.95, None), (0.6, None), (0.1, None), (0.95, 12)],
    ids=["d2-converges", "d2-refuses-some", "d2-refuses-all", "solves-stop-at-12-steps"],
)
def test_outcomes_equal_the_per_case_oracle(eval_instance, monkeypatch, termination, max_iters):
    net, teams, model = eval_instance
    if max_iters is not None:  # slices that need more steps refuse, each on its own
        monkeypatch.setattr(kernels, "_SOLVE_MAX_ITERS", max_iters)
    args = (net, teams[:6], ["genius", "kernel"], [25.0, 50.0], 2, EvalCaps(ged_max_nodes=4))
    cfg = KernelConfig(decay=0.005, termination=termination)
    report = run_comparison(*args, model=model, kernel_cfg=cfg)
    got = [
        dict(
            case_id=o.case_id, team=o.team, departing=o.departing, percent=o.percent,
            method=o.method, status=o.status, subteam=o.subteam,
            values=o.metrics and o.metrics.values, skipped=o.metrics and o.metrics.skipped,
        )
        for o in report.cases
    ]
    expected = per_case_comparison(*args, model, cfg)
    assert got == expected
    statuses = Counter(row["status"] for row in expected)
    assert statuses["ok"] > len(teams[:6])  # teams complete several cases
    completed = [row for row in expected if row["values"] is not None]
    d2 = Counter("value" if "d2" in row["values"] else "skipped" for row in completed)
    assert d2["value"] > 0 or termination == 0.1
    assert d2["skipped"] > 0 or termination == 0.95 and max_iters is None


@pytest.mark.parametrize(
    "kwargs",
    [{"ged_max_nodes": GED_MAX_NODES + 1}, {"ged_max_nodes": -1}, {"baseline_budget": -1}],
)
def test_caps_outside_their_range_rejected(kwargs):
    # a GED cap above GED_MAX_NODES would reach graph_edit_distance's own refusal mid-run
    with pytest.raises(ValidationError):
        EvalCaps(**kwargs)


def test_report_layout_is_pinned():
    doc = EvalReport(config={}, methods={"m": MethodAggregate()}).to_document()["methods"]["m"]
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
