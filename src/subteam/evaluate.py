"""Multi-metric comparison of replacement methods on a held-out test split.

Each test case (team, percentage, drawn departing subteam) is generated once
and fed to every method, so all methods see identical inputs. The cases come
grouped by held-out team, and each team is evaluated in one pass straight
after its cases run, one :func:`evaluate_case_metrics` call that returns a
dict per rebuilt team: its original graph and both self-kernels are computed
once, and the marginalized kernels of its rebuilt teams are one stacked solve.

Every result is a value or the class name of the error that refused it
(``RefusalError`` or ``ConvergenceError``), from the search to the report: a
refused search is a ``refused`` outcome with that name as its ``reason``, and
a refused metric is skipped under it. Each kernel disparity is
|k(T0, T1) - k(T0, T0)| / k(T0, T0): a refused self-kernel skips every case of
the team, a zero one skips every case next (``ZeroSelfKernelError``), and a
refused cross kernel skips its own case. A disparity that overflows float64
(a tiny self-kernel against a large cross kernel) is skipped as
``RefusalError``, the name the shortest-path kernel gives its own overflow,
and a mean whose sum overflows is summed again from the values divided by
their count, so the report holds no non-finite number.

``METRICS`` names the disparities once, in report order: ``ged`` (exact graph
edit distance), ``d1`` (shortest-path kernel) and ``d2`` (marginalized kernel).
A report holds its config and one outcome per case and method. Each method's
JSON entry is computed from the outcomes: ``cases``, ``refusals`` and
``no_candidates``, then ``mean_<m>``, ``<m>_cases`` and ``<m>_skipped`` for
each metric ``m``, then ``mean_inference_ms`` and ``mean_total_ms``; ``refusals``
and ``<m>_skipped`` count the names. Metrics and times cover only the cases
every method completed; refusals and no-candidate outcomes count on every
outcome. The table has one column per metric.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter
from dataclasses import dataclass
from math import isfinite

import numpy as np

from .encoder import ClusterModel
from .errors import ConvergenceError, RefusalError, ValidationError
from .graph import LabeledGraph, SocialNetwork, Team, check_seed, draw_subset, induced_subgraph
# perfbench/tracing.py wraps marginalized_kernel under this module's name, so
# the name stays here although the comparison solves through _marginalized_scores
from .kernels import (
    KernelConfig,
    _marginalized_scores,
    graph_edit_distance,
    kernel_baseline_replace,
    marginalized_kernel,
    shortest_path_kernel,
)
from .objectives import ordered_sum
from .recommender import recommend

METRICS = ("ged", "d1", "d2")
_METHOD_ALIASES = {"genius": "genius", "kernel": "kernel", "kernel_baseline": "kernel"}


def _value_or_refusal(call, *args):
    """``call(*args)``, or the class name of the RefusalError or ConvergenceError it raises."""
    try:
        return call(*args)
    except (RefusalError, ConvergenceError) as exc:
        return type(exc).__name__


def _disparities(kernels: list[float | str]) -> list[float | str]:
    """|k(T0, T1) - k(T0, T0)| / k(T0, T0) for each cross kernel, or why it is skipped.

    ``kernels`` holds k(T0, T0), then one cross kernel per new team, each a value
    or the name of what refused it; skips follow the module docstring's precedence.
    """
    self_kernel, *cross = kernels
    if isinstance(self_kernel, str):
        return [self_kernel] * len(cross)
    if self_kernel <= 0:
        return ["ZeroSelfKernelError"] * len(cross)
    ratios = [k if isinstance(k, str) else abs(k - self_kernel) / self_kernel for k in cross]
    return [r if isinstance(r, str) or isfinite(r) else RefusalError.__name__ for r in ratios]


def evaluate_case_metrics(
    net: SocialNetwork,
    team: Team,
    new_teams: list[Team],
    kernel_cfg: KernelConfig,
) -> list[dict[str, float | str]]:
    """GED, D1 and D2 between the original ``team`` and each new team.

    One dict per new team maps each metric to its value or, as a string, why
    it was skipped. The original's graph and both self-kernels are computed
    once; its marginalized self-kernel and every new team's are one stacked solve.
    """
    t0 = induced_subgraph(net, team)
    stack = [t0, *(induced_subgraph(net, new_team) for new_team in new_teams)]
    marg, _ = _marginalized_scores(t0, stack, kernel_cfg)  # NaN where a pair refused
    ged = [_value_or_refusal(graph_edit_distance, t0, t1) for t1 in stack[1:]]
    d1 = _disparities([_value_or_refusal(shortest_path_kernel, t0, g) for g in stack])
    d2 = _disparities([ConvergenceError.__name__ if np.isnan(k) else k for k in marg.tolist()])
    return [dict(zip(METRICS, row)) for row in zip(ged, d1, d2)]


@dataclass
class CaseOutcome:
    case_id: int
    team: tuple[int, ...]
    departing: tuple[int, ...]
    percent: float
    method: str
    status: str  # ok | refused | no-candidate
    subteam: tuple[int, ...] | None = None
    metrics: dict[str, float | str] | None = None  # each metric's value or skip reason
    inference_ms: float = 0.0
    total_ms: float = 0.0
    reason: str | None = None  # on a refused outcome, the name of the error that refused it


def _mean(values: list[float], empty: float | None) -> float | None:
    """Summed in order from 0.0; the built-in ``sum`` compensates from Python 3.12 on.

    The values are finite and non-negative. When their sum overflows, the mean
    is summed from the values divided by their count, and capped at their
    largest, so it stays finite.
    """
    if not values:
        return empty
    mean = ordered_sum([0.0, *values]) / len(values)
    if not isfinite(mean):
        mean = min(ordered_sum([0.0, *(v / len(values) for v in values)]), max(values))
    return mean


def _method_entry(outcomes: list[CaseOutcome], incomplete: set[int]) -> dict:
    """One method's JSON entry; only cases outside ``incomplete`` add metrics and times."""
    refusals = Counter(o.reason for o in outcomes if o.status == "refused")
    kept = [o for o in outcomes if o.status == "ok" and o.case_id not in incomplete]
    entry = {
        "cases": len(kept),
        "refusals": dict(sorted(refusals.items())),
        "no_candidates": sum(o.status == "no-candidate" for o in outcomes),
    }
    for name in METRICS:
        outcomes_of_metric = [o.metrics[name] for o in kept]
        values = [v for v in outcomes_of_metric if not isinstance(v, str)]
        skipped = Counter(v for v in outcomes_of_metric if isinstance(v, str))
        entry[f"mean_{name}"] = _mean(values, None)
        entry[f"{name}_cases"] = len(values)
        entry[f"{name}_skipped"] = dict(sorted(skipped.items()))
    entry["mean_inference_ms"] = _mean([o.inference_ms for o in kept], 0.0)
    entry["mean_total_ms"] = _mean([o.total_ms for o in kept], 0.0)
    return entry


@dataclass
class EvalReport:
    config: dict
    cases: list[CaseOutcome]

    @property
    def methods(self) -> dict[str, dict]:
        """Each method's JSON entry, computed from the outcomes, in sorted method order."""
        incomplete = {o.case_id for o in self.cases if o.status != "ok"}
        return {
            name: _method_entry([o for o in self.cases if o.method == name], incomplete)
            for name in sorted(self.config["methods"])
        }

    def to_document(self) -> dict:
        return {"config": self.config, "methods": self.methods}

    def to_json(self) -> str:
        return json.dumps(self.to_document(), indent=2, allow_nan=False) + "\n"

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
            metrics = [(case.metrics or {}).get(name, "") for name in METRICS]
            row = (
                case.case_id,
                case.method,
                case.percent,
                len(case.team),
                len(case.departing),
                case.status,
                len(case.subteam) if case.subteam is not None else "",
                *("" if isinstance(v, str) else v for v in metrics),  # a skip reason prints blank
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

    Each percentage must lie in (0, 100]; :func:`subteam.graph.draw_subset` rounds
    it to at least one member and at most all but one.
    """
    for pct in percentages:
        if not 0 < pct <= 100:
            raise ValidationError(f"percentages must be in (0, 100], got {pct}")
    rng = np.random.default_rng([seed, 3])
    cases = []
    for team in teams:
        if len(team) < 2:
            continue
        members = np.asarray(team.members)
        for pct in percentages:
            departing = draw_subset(members, pct / 100.0, rng)
            cases.append((len(cases), team, float(pct), departing))
    return cases


def _run_method(
    method: str,
    net: SocialNetwork,
    team: Team,
    departing: Team,
    model: ClusterModel | None,
    kernel_cfg: KernelConfig,
):
    if method == "genius":
        if model is None:
            raise ValidationError("the embedding method needs a trained model")
        return recommend(team, departing, model, net)
    return kernel_baseline_replace(team, departing, net, kernel_cfg)


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
    *,
    model: ClusterModel | None = None,
    kernel_cfg: KernelConfig | None = None,
    training_time_ms: float = 0.0,
) -> EvalReport:
    """Evaluate every method on identical cases drawn from the held-out ``teams``.

    Each outcome's ``inference_ms`` is the wall clock around its method's
    call, refused or not. Training time is amortized over the test teams and
    added to the trained method's total time. Means are over the cases all
    methods completed; refusals and no-candidate outcomes are counted per method.
    A network without features is refused: every kernel on it is 0.
    """
    kernel_cfg = kernel_cfg or KernelConfig()
    method_names = normalize_methods(methods)
    if not teams:
        raise ValidationError("empty test split")
    if net.d == 0:
        raise ValidationError("cannot evaluate on a network without features (d = 0)")
    cases = draw_cases(teams, percentages, seed)
    amortized_ms = training_time_ms / len(teams)
    outcomes: list[CaseOutcome] = []
    for team, team_cases in itertools.groupby(cases, key=lambda case: case[1]):
        completed: list[CaseOutcome] = []
        new_teams: list[Team] = []  # the rebuilt team of each completed outcome
        for (case_id, _, pct, departing), method in itertools.product(team_cases, method_names):
            start = time.perf_counter()
            result = _value_or_refusal(
                _run_method, method, net, team, Team(departing), model, kernel_cfg
            )
            outcome = CaseOutcome(case_id, team.members, departing, pct, method, "refused")
            outcome.inference_ms = (time.perf_counter() - start) * 1e3
            outcomes.append(outcome)
            if isinstance(result, str):
                outcome.reason = result
                continue
            if not result.found:
                outcome.status = "no-candidate"
                continue
            outcome.status = "ok"
            outcome.subteam = result.subteam
            outcome.total_ms = outcome.inference_ms + (amortized_ms if method == "genius" else 0.0)
            kept = tuple(set(team.members) - set(departing))
            completed.append(outcome)
            new_teams.append(Team(kept + result.subteam))
        if completed:
            metrics = evaluate_case_metrics(net, team, new_teams, kernel_cfg)
            for outcome, case_metrics in zip(completed, metrics):
                outcome.metrics = case_metrics
    config = {
        "methods": method_names,
        "percentages": [float(p) for p in percentages],
        "seed": seed,
        "decay": kernel_cfg.decay,
        "termination": kernel_cfg.termination,
        "n": net.n,
        "d": net.d,
        "test_teams": len(teams),
        "cases": len(cases),
        "training_time_ms": training_time_ms,
    }
    return EvalReport(config=config, cases=outcomes)
