"""Multi-metric comparison of replacement methods on a held-out test split.

Each test case (team, percentage, drawn departing subteam) is generated once
and fed to every method, so all methods see identical inputs. Per-case
disparities are computed between the original team graph and the rebuilt team
graph; refusals and undefined metrics are counted, never silently dropped.
Aggregate means cover only cases every method completed, keeping the
per-method rows comparable.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .encoder import ClusterModel
from .errors import (
    ConvergenceError,
    RefusalError,
    ValidationError,
    ZeroSelfKernelError,
)
from .graph import SocialNetwork, Team, TeamGraph, induced_subgraph
from .kernels import (
    GED_MAX_NODES,
    KernelConfig,
    LabeledGraph,
    graph_edit_distance,
    kernel_baseline_replace,
    marginalized_kernel,
    shortest_path_kernel,
)
from .recommender import recommend

KNOWN_METHODS = ("genius", "kernel")
_METHOD_ALIASES = {"genius": "genius", "kernel": "kernel", "kernel_baseline": "kernel"}


@dataclass(frozen=True)
class TestSplit:
    """Held-out teams plus the seed that produced the split."""

    __test__ = False  # not a pytest class, despite the name

    teams: tuple[Team, ...]
    seed: int


@dataclass(frozen=True)
class EvalCaps:
    ged_max_nodes: int = GED_MAX_NODES
    baseline_budget: int = 200_000


def disparity_sp(t0: TeamGraph, t1: TeamGraph) -> float:
    """Normalized shortest-path-kernel deviation of t1 from t0's self-kernel."""
    g0 = LabeledGraph.from_team_graph(t0)
    self_kernel = shortest_path_kernel(g0, g0)
    if self_kernel <= 0:
        raise ZeroSelfKernelError("shortest-path self-kernel is zero")
    cross = shortest_path_kernel(g0, LabeledGraph.from_team_graph(t1))
    return abs(cross - self_kernel) / self_kernel


def disparity_marg(t0: TeamGraph, t1: TeamGraph, cfg: KernelConfig | None = None) -> float:
    """Normalized marginalized-kernel deviation of t1 from t0's self-kernel."""
    cfg = cfg or KernelConfig()
    g0 = LabeledGraph.from_team_graph(t0)
    self_kernel = marginalized_kernel(g0, g0, cfg)
    if self_kernel <= 0:
        raise ZeroSelfKernelError("marginalized self-kernel is zero")
    cross = marginalized_kernel(g0, LabeledGraph.from_team_graph(t1), cfg)
    return abs(cross - self_kernel) / self_kernel


@dataclass
class CaseMetrics:
    ged: float | None
    ged_skipped: str | None
    d1: float | None
    d1_skipped: str | None
    d2: float | None
    d2_skipped: str | None


def evaluate_case_metrics(
    net: SocialNetwork,
    team: Team,
    new_team: Team,
    caps: EvalCaps,
    kernel_cfg: KernelConfig,
) -> CaseMetrics:
    """GED / shortest-path / marginalized disparities between two teams."""
    t0 = induced_subgraph(net, team)
    t1 = induced_subgraph(net, new_team)
    ged = ged_skipped = None
    if max(t0.size, t1.size) <= caps.ged_max_nodes:
        ged = graph_edit_distance(
            LabeledGraph.from_team_graph(t0), LabeledGraph.from_team_graph(t1)
        )
    else:
        ged_skipped = "size-cap"
    d1 = d1_skipped = None
    try:
        d1 = disparity_sp(t0, t1)
    except (ZeroSelfKernelError, RefusalError) as exc:
        d1_skipped = type(exc).__name__
    d2 = d2_skipped = None
    try:
        d2 = disparity_marg(t0, t1, kernel_cfg)
    except (ZeroSelfKernelError, ConvergenceError, RefusalError) as exc:
        d2_skipped = type(exc).__name__
    return CaseMetrics(ged, ged_skipped, d1, d1_skipped, d2, d2_skipped)


@dataclass
class CaseOutcome:
    case_id: int
    team: tuple[int, ...]
    departing: tuple[int, ...]
    percent: float
    method: str
    status: str  # ok | refused | no-candidate
    subteam: tuple[int, ...] | None = None
    metrics: CaseMetrics | None = None
    inference_ms: float = 0.0
    total_ms: float = 0.0


@dataclass
class MethodAggregate:
    cases: int = 0
    refusals: int = 0
    no_candidates: int = 0
    mean_ged: float | None = None
    ged_cases: int = 0
    mean_d1: float | None = None
    d1_cases: int = 0
    mean_d2: float | None = None
    d2_cases: int = 0
    mean_inference_ms: float = 0.0
    mean_total_ms: float = 0.0


@dataclass
class EvalReport:
    config: dict
    methods: dict[str, MethodAggregate]
    cases: list[CaseOutcome] = field(default_factory=list)

    def to_document(self) -> dict:
        return {
            "config": self.config,
            "methods": {
                name: {
                    "cases": agg.cases,
                    "refusals": agg.refusals,
                    "no_candidates": agg.no_candidates,
                    "mean_ged": agg.mean_ged,
                    "ged_cases": agg.ged_cases,
                    "mean_d1": agg.mean_d1,
                    "d1_cases": agg.d1_cases,
                    "mean_d2": agg.mean_d2,
                    "d2_cases": agg.d2_cases,
                    "mean_inference_ms": agg.mean_inference_ms,
                    "mean_total_ms": agg.mean_total_ms,
                }
                for name, agg in sorted(self.methods.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_document(), indent=2) + "\n"

    TABLE_COLUMNS = (
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
    )

    def to_table(self) -> str:
        lines = ["\t".join(self.TABLE_COLUMNS)]
        for case in self.cases:
            m = case.metrics
            row = (
                case.case_id,
                case.method,
                case.percent,
                len(case.team),
                len(case.departing),
                case.status,
                len(case.subteam) if case.subteam is not None else "",
                m.ged if m and m.ged is not None else "",
                m.d1 if m and m.d1 is not None else "",
                m.d2 if m and m.d2 is not None else "",
                case.inference_ms,
                case.total_ms,
            )
            lines.append("\t".join(str(v) for v in row))
        return "\n".join(lines) + "\n"


def feature_subsample(net: SocialNetwork, d_sub: int, seed: int) -> SocialNetwork:
    """Keep a uniform random subset of feature columns (in ascending order)."""
    if d_sub < 0 or d_sub > net.d:
        raise ValidationError(f"d_sub={d_sub} outside [0, {net.d}]")
    cols = np.sort(np.random.default_rng(seed).choice(net.d, size=d_sub, replace=False))
    return SocialNetwork(
        adjacency=net.adjacency,
        features=net.features[:, cols],
        node_names=net.node_names,
    )


def draw_cases(split: TestSplit, percentages, seed: int):
    """Shared (team, percent, departing) cases: one draw per team and percentage."""
    rng = np.random.default_rng([seed, 3])
    cases = []
    case_id = 0
    for team in split.teams:
        if len(team) < 2:
            continue
        for pct in percentages:
            k = int(round(pct / 100.0 * len(team)))
            k = min(max(k, 1), len(team) - 1)
            departing = tuple(
                sorted(int(v) for v in rng.choice(np.asarray(team.members), k, replace=False))
            )
            cases.append((case_id, team, float(pct), departing))
            case_id += 1
    return cases


def _run_method(
    method: str,
    net: SocialNetwork,
    team: Team,
    departing: Team,
    model: ClusterModel | None,
    kernel_cfg: KernelConfig,
    caps: EvalCaps,
):
    if method == "genius":
        if model is None:
            raise ValidationError("the embedding method needs a trained model")
        return recommend(team, departing, model, net)
    return kernel_baseline_replace(team, departing, net, kernel_cfg, caps.baseline_budget)


def normalize_methods(methods) -> list[str]:
    out = []
    for raw in methods:
        name = _METHOD_ALIASES.get(str(raw).strip().lower())
        if name is None:
            raise ValidationError(
                f"unknown method {raw!r}; expected one of {sorted(set(_METHOD_ALIASES))}"
            )
        if name not in out:
            out.append(name)
    if not out:
        raise ValidationError("no methods selected")
    return out


def run_comparison(
    net: SocialNetwork,
    split: TestSplit,
    methods,
    percentages,
    seed: int,
    caps: EvalCaps | None = None,
    *,
    model: ClusterModel | None = None,
    kernel_cfg: KernelConfig | None = None,
    training_time_ms: float = 0.0,
    config_echo: dict | None = None,
) -> EvalReport:
    """Evaluate every method on identical cases and aggregate per-method means.

    Training time is amortized over the test teams and added to the trained
    method's total time. Means are over the cases all methods completed;
    refusals and no-candidate outcomes are tallied per method.
    """
    caps = caps or EvalCaps()
    kernel_cfg = kernel_cfg or KernelConfig()
    method_names = normalize_methods(methods)
    if not split.teams:
        raise ValidationError("empty test split")
    cases = draw_cases(split, percentages, seed)
    amortized_ms = training_time_ms / len(split.teams)

    def run_case(case) -> list[CaseOutcome]:
        case_id, team, pct, departing = case
        outcomes = []
        for method in method_names:
            start = time.perf_counter()
            try:
                result = _run_method(
                    method, net, team, Team(departing), model, kernel_cfg, caps
                )
            except (RefusalError, ConvergenceError):
                outcomes.append(
                    CaseOutcome(
                        case_id=case_id,
                        team=team.members,
                        departing=departing,
                        percent=pct,
                        method=method,
                        status="refused",
                        inference_ms=(time.perf_counter() - start) * 1e3,
                    )
                )
                continue
            if not result.found:
                outcomes.append(
                    CaseOutcome(
                        case_id=case_id,
                        team=team.members,
                        departing=departing,
                        percent=pct,
                        method=method,
                        status="no-candidate",
                        inference_ms=result.elapsed_ms,
                    )
                )
                continue
            new_team = Team(tuple(set(team.members) - set(departing)) + result.subteam)
            metrics = evaluate_case_metrics(net, team, new_team, caps, kernel_cfg)
            inference_ms = result.elapsed_ms
            total_ms = inference_ms + (amortized_ms if method == "genius" else 0.0)
            outcomes.append(
                CaseOutcome(
                    case_id=case_id,
                    team=team.members,
                    departing=departing,
                    percent=pct,
                    method=method,
                    status="ok",
                    subteam=result.subteam,
                    metrics=metrics,
                    inference_ms=inference_ms,
                    total_ms=total_ms,
                )
            )
        return outcomes

    per_case = [run_case(case) for case in cases]

    complete = {
        outcomes[0].case_id
        for outcomes in per_case
        if all(o.status == "ok" for o in outcomes)
    }
    aggregates = {name: MethodAggregate() for name in method_names}
    sums = {name: {"ged": 0.0, "d1": 0.0, "d2": 0.0, "inf": 0.0, "tot": 0.0} for name in method_names}
    all_outcomes: list[CaseOutcome] = []
    for outcomes in per_case:
        for o in outcomes:
            all_outcomes.append(o)
            agg = aggregates[o.method]
            if o.status == "refused":
                agg.refusals += 1
                continue
            if o.status == "no-candidate":
                agg.no_candidates += 1
                continue
            if o.case_id not in complete:
                continue
            agg.cases += 1
            sums[o.method]["inf"] += o.inference_ms
            sums[o.method]["tot"] += o.total_ms
            if o.metrics.ged is not None:
                agg.ged_cases += 1
                sums[o.method]["ged"] += o.metrics.ged
            if o.metrics.d1 is not None:
                agg.d1_cases += 1
                sums[o.method]["d1"] += o.metrics.d1
            if o.metrics.d2 is not None:
                agg.d2_cases += 1
                sums[o.method]["d2"] += o.metrics.d2
    for name, agg in aggregates.items():
        if agg.cases:
            agg.mean_inference_ms = sums[name]["inf"] / agg.cases
            agg.mean_total_ms = sums[name]["tot"] / agg.cases
        agg.mean_ged = sums[name]["ged"] / agg.ged_cases if agg.ged_cases else None
        agg.mean_d1 = sums[name]["d1"] / agg.d1_cases if agg.d1_cases else None
        agg.mean_d2 = sums[name]["d2"] / agg.d2_cases if agg.d2_cases else None

    config = {
        "methods": method_names,
        "percentages": [float(p) for p in percentages],
        "seed": seed,
        "ged_max_nodes": caps.ged_max_nodes,
        "baseline_budget": caps.baseline_budget,
        "decay": kernel_cfg.decay,
        "termination": kernel_cfg.termination,
        "n": net.n,
        "d": net.d,
        "test_teams": len(split.teams),
        "cases": len(cases),
        "training_time_ms": training_time_ms,
    }
    if config_echo:
        config.update(config_echo)
    return EvalReport(config=config, methods=aggregates, cases=all_outcomes)
