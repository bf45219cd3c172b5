"""Multi-metric comparison of replacement methods on a held-out test split.

Each test case (team, percentage, drawn departing subteam) is generated once
and fed to every method, so all methods see identical inputs. Per-case
disparities are computed between the original team graph and the rebuilt team
graph, with the original team's self-kernels computed once per case and shared
by every method; refusals and undefined metrics are counted, never silently
dropped. Aggregate means cover only cases every method completed, keeping the
per-method rows comparable.

``METRICS`` names the disparities once, in report order: ``ged`` (exact graph
edit distance), ``d1`` (shortest-path kernel) and ``d2`` (marginalized kernel).
Each method's JSON entry holds ``cases``, ``refusals`` and ``no_candidates``,
then ``mean_<m>``, ``<m>_cases`` and ``<m>_skipped`` for each metric ``m``, then
``mean_inference_ms`` and ``mean_total_ms``; the table has one column per metric.
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
from .graph import LabeledGraph, SocialNetwork, Team, check_seed, induced_subgraph
from .kernels import (
    GED_MAX_NODES,
    KernelConfig,
    graph_edit_distance,
    kernel_baseline_replace,
    marginalized_kernel,
    shortest_path_kernel,
)
from .recommender import recommend

METRICS = ("ged", "d1", "d2")
_METHOD_ALIASES = {"genius": "genius", "kernel": "kernel", "kernel_baseline": "kernel"}


@dataclass(frozen=True)
class EvalCaps:
    ged_max_nodes: int = GED_MAX_NODES
    baseline_budget: int = 200_000

    def __post_init__(self):
        if not 0 <= self.ged_max_nodes <= GED_MAX_NODES:
            raise ValidationError(
                f"ged_max_nodes must be in [0, {GED_MAX_NODES}], got {self.ged_max_nodes}"
            )
        if self.baseline_budget < 0:
            raise ValidationError(f"baseline_budget must be >= 0, got {self.baseline_budget}")


@dataclass(frozen=True)
class OriginalTeam:
    """A case's original team graph, shared by every method of the case.

    Each self-kernel is computed on first use and kept. One that refuses or
    diverges is not kept, so every method that asks for it gets the same
    exception, reported as that method's skip reason.
    """

    graph: LabeledGraph
    kernel_cfg: KernelConfig

    @classmethod
    def build(cls, net: SocialNetwork, team: Team, kernel_cfg: KernelConfig) -> "OriginalTeam":
        return cls(induced_subgraph(net, team), kernel_cfg)

    @cached_property
    def sp_self(self) -> float:
        return shortest_path_kernel(self.graph, self.graph)

    @cached_property
    def marg_self(self) -> float:
        return marginalized_kernel(self.graph, self.graph, self.kernel_cfg)


def _disparity(
    self_kernel: float, kernel, original: OriginalTeam, t1: LabeledGraph, *args
) -> float:
    """|kernel(original, t1) - self_kernel| / self_kernel; a zero self-kernel refuses first."""
    if self_kernel <= 0:
        raise ZeroSelfKernelError("self-kernel is zero")
    cross = kernel(original.graph, t1, *args)
    return abs(cross - self_kernel) / self_kernel


def disparity_sp(original: OriginalTeam, t1: LabeledGraph) -> float:
    """Normalized shortest-path-kernel deviation of t1 from the original's self-kernel."""
    return _disparity(original.sp_self, shortest_path_kernel, original, t1)


def disparity_marg(original: OriginalTeam, t1: LabeledGraph) -> float:
    """Normalized marginalized-kernel deviation of t1 from the original's self-kernel."""
    return _disparity(original.marg_self, marginalized_kernel, original, t1, original.kernel_cfg)


@dataclass
class CaseMetrics:
    """Each metric of ``METRICS`` is either in ``values`` or, with the reason, in ``skipped``."""

    values: dict[str, float]
    skipped: dict[str, str]


def evaluate_case_metrics(
    net: SocialNetwork,
    original: OriginalTeam,
    new_team: Team,
    caps: EvalCaps,
) -> CaseMetrics:
    """GED / shortest-path / marginalized disparities between two teams."""
    t1 = induced_subgraph(net, new_team)
    metrics = CaseMetrics({}, {})
    ged, *kernel_metrics = METRICS
    if max(original.graph.size, t1.size) <= caps.ged_max_nodes:
        metrics.values[ged] = graph_edit_distance(original.graph, t1)
    else:
        metrics.skipped[ged] = "size-cap"
    for name, disparity in zip(kernel_metrics, (disparity_sp, disparity_marg)):
        try:
            metrics.values[name] = disparity(original, t1)
        except (ZeroSelfKernelError, ConvergenceError, RefusalError) as exc:
            metrics.skipped[name] = type(exc).__name__
    return metrics


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

    Each of those cases either adds to a metric's ``sums`` and ``counts`` or
    counts once in ``skipped`` under the reason the metric was skipped. Means
    are the sums divided by the counts, read when the report is written.
    """

    cases: int = 0
    refusals: int = 0
    no_candidates: int = 0
    sums: dict[str, float] = field(default_factory=lambda: dict.fromkeys(METRICS, 0.0))
    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(METRICS, 0))
    skipped: dict[str, Counter] = field(default_factory=lambda: {m: Counter() for m in METRICS})
    inference_ms: float = 0.0
    total_ms: float = 0.0

    def add(self, outcome: CaseOutcome, complete: bool) -> None:
        """Tally one outcome; only a case every method completed adds metrics and times."""
        if outcome.status == "refused":
            self.refusals += 1
        elif outcome.status == "no-candidate":
            self.no_candidates += 1
        elif complete:
            self.cases += 1
            self.inference_ms += outcome.inference_ms
            self.total_ms += outcome.total_ms
            for name, value in outcome.metrics.values.items():
                self.sums[name] += value
                self.counts[name] += 1
            for name, reason in outcome.metrics.skipped.items():
                self.skipped[name][reason] += 1

    def mean(self, metric: str) -> float | None:
        return self.sums[metric] / self.counts[metric] if self.counts[metric] else None

    @property
    def mean_inference_ms(self) -> float:
        return self.inference_ms / self.cases if self.cases else 0.0

    @property
    def mean_total_ms(self) -> float:
        return self.total_ms / self.cases if self.cases else 0.0

    def to_document(self) -> dict:
        doc = {"cases": self.cases, "refusals": self.refusals, "no_candidates": self.no_candidates}
        for name in METRICS:
            doc[f"mean_{name}"] = self.mean(name)
            doc[f"{name}_cases"] = self.counts[name]
            doc[f"{name}_skipped"] = dict(sorted(self.skipped[name].items()))
        doc["mean_inference_ms"] = self.mean_inference_ms
        doc["mean_total_ms"] = self.mean_total_ms
        return doc


@dataclass
class EvalReport:
    config: dict
    methods: dict[str, MethodAggregate]
    cases: list[CaseOutcome] = field(default_factory=list)

    def to_document(self) -> dict:
        return {
            "config": self.config,
            "methods": {name: agg.to_document() for name, agg in sorted(self.methods.items())},
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
        *METRICS,
        "inference_ms",
        "total_ms",
    )

    def to_table(self) -> str:
        lines = ["\t".join(self.TABLE_COLUMNS)]
        for case in self.cases:
            values = case.metrics.values if case.metrics else {}
            row = (
                case.case_id,
                case.method,
                case.percent,
                len(case.team),
                len(case.departing),
                case.status,
                len(case.subteam) if case.subteam is not None else "",
                *(values.get(name, "") for name in METRICS),
                case.inference_ms,
                case.total_ms,
            )
            lines.append("\t".join(str(v) for v in row))
        return "\n".join(lines) + "\n"


def feature_subsample(net: SocialNetwork, d_sub: int, seed: int) -> SocialNetwork:
    """Keep a uniform random subset of feature columns (in ascending order)."""
    if d_sub < 0 or d_sub > net.d:
        raise ValidationError(f"d_sub={d_sub} outside [0, {net.d}]")
    check_seed(seed)
    cols = np.sort(np.random.default_rng(seed).choice(net.d, size=d_sub, replace=False))
    return SocialNetwork(adjacency=net.adjacency, features=net.features[:, cols])


def draw_cases(teams, percentages, seed: int):
    """Shared (team, percent, departing) cases: one draw per team and percentage.

    Each percentage must lie in (0, 100]; the departing count rounds it to at
    least one member and at most all but one.
    """
    for pct in percentages:
        if not 0 < pct <= 100:
            raise ValidationError(f"percentages must be in (0, 100], got {pct}")
    rng = np.random.default_rng([seed, 3])
    cases = []
    case_id = 0
    for team in teams:
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
    teams,
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
    """Evaluate every method on identical cases drawn from the held-out ``teams``.

    Training time is amortized over the test teams and added to the trained
    method's total time. Means are over the cases all methods completed;
    refusals and no-candidate outcomes are tallied per method.
    """
    caps = caps or EvalCaps()
    kernel_cfg = kernel_cfg or KernelConfig()
    method_names = normalize_methods(methods)
    if not teams:
        raise ValidationError("empty test split")
    cases = draw_cases(teams, percentages, seed)
    amortized_ms = training_time_ms / len(teams)

    def run_case(case) -> list[CaseOutcome]:
        case_id, team, pct, departing = case
        outcomes = []
        original = None  # built once, when the first method completes the case
        for method in method_names:
            outcome = CaseOutcome(case_id, team.members, departing, pct, method, "refused")
            outcomes.append(outcome)
            start = time.perf_counter()
            try:
                result = _run_method(method, net, team, Team(departing), model, kernel_cfg, caps)
            except (RefusalError, ConvergenceError):
                outcome.inference_ms = (time.perf_counter() - start) * 1e3
                continue
            outcome.inference_ms = result.elapsed_ms
            if not result.found:
                outcome.status = "no-candidate"
                continue
            new_team = Team(tuple(set(team.members) - set(departing)) + result.subteam)
            original = original or OriginalTeam.build(net, team, kernel_cfg)
            outcome.status = "ok"
            outcome.subteam = result.subteam
            outcome.metrics = evaluate_case_metrics(net, original, new_team, caps)
            outcome.total_ms = result.elapsed_ms + (amortized_ms if method == "genius" else 0.0)
        return outcomes

    per_case = [run_case(case) for case in cases]
    complete = {
        outcomes[0].case_id
        for outcomes in per_case
        if all(o.status == "ok" for o in outcomes)
    }
    aggregates = {name: MethodAggregate() for name in method_names}
    all_outcomes = [o for outcomes in per_case for o in outcomes]
    for o in all_outcomes:
        aggregates[o.method].add(o, o.case_id in complete)

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
        "test_teams": len(teams),
        "cases": len(cases),
        "training_time_ms": training_time_ms,
    }
    if config_echo:
        config.update(config_echo)
    return EvalReport(config=config, methods=aggregates, cases=all_outcomes)
