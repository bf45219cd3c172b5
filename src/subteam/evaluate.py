"""Multi-metric comparison of replacement methods on a held-out test split.

Each test case (team, percentage, drawn departing subteam) is generated once
and fed to every method, so all methods see identical inputs. Per-case
disparities are computed between the original team graph and the rebuilt team
graph, with the original team's self-kernels computed once per case and shared
by every method; refusals and undefined metrics are counted, never silently
dropped. Aggregate means cover only cases every method completed, keeping the
per-method rows comparable.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

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


@dataclass(frozen=True)
class OriginalTeam:
    """A case's original team graph, shared by every method of the case.

    Each self-kernel is computed on first use and kept. One that refuses or
    diverges is not kept, so every method that asks for it gets the same
    exception, reported as that method's skip reason.
    """

    graph: TeamGraph
    labeled: LabeledGraph
    kernel_cfg: KernelConfig

    @classmethod
    def build(cls, net: SocialNetwork, team: Team, kernel_cfg: KernelConfig) -> "OriginalTeam":
        t0 = induced_subgraph(net, team)
        return cls(t0, LabeledGraph.from_team_graph(t0), kernel_cfg)

    @cached_property
    def sp_self(self) -> float:
        return shortest_path_kernel(self.labeled, self.labeled)

    @cached_property
    def marg_self(self) -> float:
        return marginalized_kernel(self.labeled, self.labeled, self.kernel_cfg)


def disparity_sp(original: OriginalTeam, t1: TeamGraph) -> float:
    """Normalized shortest-path-kernel deviation of t1 from the original's self-kernel."""
    self_kernel = original.sp_self
    if self_kernel <= 0:
        raise ZeroSelfKernelError("shortest-path self-kernel is zero")
    cross = shortest_path_kernel(original.labeled, LabeledGraph.from_team_graph(t1))
    return abs(cross - self_kernel) / self_kernel


def disparity_marg(original: OriginalTeam, t1: TeamGraph) -> float:
    """Normalized marginalized-kernel deviation of t1 from the original's self-kernel."""
    self_kernel = original.marg_self
    if self_kernel <= 0:
        raise ZeroSelfKernelError("marginalized self-kernel is zero")
    cross = marginalized_kernel(
        original.labeled, LabeledGraph.from_team_graph(t1), original.kernel_cfg
    )
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
    original: OriginalTeam,
    new_team: Team,
    caps: EvalCaps,
) -> CaseMetrics:
    """GED / shortest-path / marginalized disparities between two teams."""
    t0 = original.graph
    t1 = induced_subgraph(net, new_team)
    ged = ged_skipped = None
    if max(t0.size, t1.size) <= caps.ged_max_nodes:
        ged = graph_edit_distance(original.labeled, LabeledGraph.from_team_graph(t1))
    else:
        ged_skipped = "size-cap"
    d1 = d1_skipped = None
    try:
        d1 = disparity_sp(original, t1)
    except (ZeroSelfKernelError, RefusalError) as exc:
        d1_skipped = type(exc).__name__
    d2 = d2_skipped = None
    try:
        d2 = disparity_marg(original, t1)
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
    """Per-method tallies over the cases every method completed.

    Each of those cases either has a metric (``*_cases``) or counts once
    under the reason the metric was skipped (``*_skipped``).
    """

    cases: int = 0
    refusals: int = 0
    no_candidates: int = 0
    mean_ged: float | None = None
    ged_cases: int = 0
    ged_skipped: Counter = field(default_factory=Counter)
    mean_d1: float | None = None
    d1_cases: int = 0
    d1_skipped: Counter = field(default_factory=Counter)
    mean_d2: float | None = None
    d2_cases: int = 0
    d2_skipped: Counter = field(default_factory=Counter)
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
                    "ged_skipped": dict(sorted(agg.ged_skipped.items())),
                    "mean_d1": agg.mean_d1,
                    "d1_cases": agg.d1_cases,
                    "d1_skipped": dict(sorted(agg.d1_skipped.items())),
                    "mean_d2": agg.mean_d2,
                    "d2_cases": agg.d2_cases,
                    "d2_skipped": dict(sorted(agg.d2_skipped.items())),
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
        original = None  # built once, when the first method completes the case
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
            original = original or OriginalTeam.build(net, team, kernel_cfg)
            metrics = evaluate_case_metrics(net, original, new_team, caps)
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
            else:
                agg.ged_skipped[o.metrics.ged_skipped] += 1
            if o.metrics.d1 is not None:
                agg.d1_cases += 1
                sums[o.method]["d1"] += o.metrics.d1
            else:
                agg.d1_skipped[o.metrics.d1_skipped] += 1
            if o.metrics.d2 is not None:
                agg.d2_cases += 1
                sums[o.method]["d2"] += o.metrics.d2
            else:
                agg.d2_skipped[o.metrics.d2_skipped] += 1
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
