"""Attributed-graph similarity: walk kernels, shortest-path kernel, exact GED.

Every kernel and the edit distance compare two :class:`~subteam.graph.LabeledGraph`
values, the dense team graphs that :func:`~subteam.graph.induced_subgraph` returns.

The random-walk and marginalized kernels solve linear systems on the product
space of the two graphs without ever materializing a Kronecker product: a
matrix-vector product against A1 (x) A2 is evaluated as A1 @ V @ A2.T on the
matrix reshape of the product-space vector. Convergence is guaranteed by an
explicit spectral guard checked before iterating.

One fixed-point solver serves both walk kernels. It works on a stack of
second graphs against one shared first graph, and each slice of the stack
stops on its own tolerance, so a slice's arithmetic is the same in any batch.
The single-pair kernels call it with a batch of one; the whole-network
baseline gathers its candidate teams as stacked arrays, in chunks of
``BASELINE_BATCH``, and scores each chunk in one solve. A dense direct solve
was measured and rejected: at team size 26 the product space has 676 unknowns,
and one dense ``np.linalg.solve`` costs over a hundred times what a candidate
costs in a batched fixed-point solve.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from math import comb, isfinite

import numpy as np

from .errors import ConvergenceError, RefusalError, ValidationError
# perfbench/tracing.py wraps induced_subgraph under this module's name, so the
# baseline must call it through that name
from .graph import LabeledGraph, SocialNetwork, Team, _dense_rows, induced_subgraph
from .recommender import ReplacementResult, _check_replacement_inputs

SHORTEST_PATH_MAX_NODES = 64
GED_MAX_NODES = 12
_SOLVE_TOL = 1e-14
_SOLVE_MAX_ITERS = 500_000
BASELINE_BATCH = 64  # candidate teams per batched solve; keeps each stack small


@dataclass(frozen=True)
class KernelConfig:
    """Walk-kernel knobs: random-walk decay and marginalized-walk termination."""

    decay: float = 0.1
    termination: float = 0.1

    def __post_init__(self):
        if not (isfinite(self.decay) and self.decay > 0):
            raise ValidationError(f"decay must be finite and positive, got {self.decay}")
        if not (0 < self.termination < 1):
            raise ValidationError(f"termination must be in (0,1), got {self.termination}")


def _require_compatible(g1: LabeledGraph, g2: LabeledGraph) -> None:
    if g1.labels.shape[1] != g2.labels.shape[1]:
        raise ValidationError(
            f"label dimensions differ: {g1.labels.shape[1]} vs {g2.labels.shape[1]}"
        )
    if g1.size == 0 or g2.size == 0:
        raise ValidationError("kernels are undefined for empty graphs")


def _product_space_solve(rhs: np.ndarray, scale: np.ndarray, m1, m2t) -> np.ndarray:
    """Fixed-point solve of W_b = rhs_b + scale_b * (m1 @ W_b @ m2t_b) for every slice b.

    ``rhs``, ``scale`` and ``m2t`` are stacked along a leading batch axis and
    ``m1`` is shared. A slice stops iterating once its step is within the
    tolerance while the others go on, so its result does not depend on the
    batch. Converges geometrically whenever the max row sum of the implied
    iteration matrix is below 1 (checked by callers); refuses loudly otherwise.
    """
    out = np.empty_like(rhs)
    live = np.arange(len(rhs))
    w = rhs.copy()
    for _ in range(_SOLVE_MAX_ITERS):
        w_next = rhs + scale * (m1 @ w @ m2t)
        delta = np.abs(w_next - w).max(axis=(1, 2))
        w = w_next
        done = delta <= _SOLVE_TOL * np.maximum(1.0, np.abs(w).max(axis=(1, 2)))
        if done.any():
            out[live[done]] = w[done]
            if done.all():
                return out
            going = ~done
            live, w, rhs, scale, m2t = live[going], w[going], rhs[going], scale[going], m2t[going]
    raise ConvergenceError(f"product-space solve did not converge in {_SOLVE_MAX_ITERS} steps")


def _random_walk_scores(
    g1: LabeledGraph, adjacency: np.ndarray, labels: np.ndarray, cfg: KernelConfig
) -> np.ndarray:
    """Random-walk kernel of ``g1`` against each graph of a stack.

    ``adjacency`` is (B, m, m) and ``labels`` (B, m, d). The spectral guard is
    checked for the whole stack first; the error names the first graph that
    breaks it.
    """
    lx = g1.labels @ labels.transpose(0, 2, 1)
    rs1 = g1.adjacency.sum(axis=1)
    rs2 = adjacency.sum(axis=2)
    bound = cfg.decay * (lx * (rs1[:, None] * rs2[:, None, :])).max(axis=(1, 2))
    broken = bound >= 1
    if broken.any():
        raise ConvergenceError(
            f"decay * max row sum of the walk matrix is {bound[np.argmax(broken)]:.6g} >= 1; "
            f"lower the decay (currently {cfg.decay})"
        )
    mass = 1.0 / (g1.size * adjacency.shape[1])
    rhs = lx * mass  # Lx @ x in matrix form
    w = _product_space_solve(rhs, cfg.decay * lx, g1.adjacency, adjacency)
    return w.reshape(len(w), -1).sum(axis=1) * mass  # y . w with uniform y


def random_walk_kernel(g1: LabeledGraph, g2: LabeledGraph, cfg: KernelConfig) -> float:
    """Label-weighted common-walk similarity with uniform start/stop vectors.

    Solves (I - decay * Lx (A1 (x) A2)) w = Lx x iteratively, where Lx is the
    diagonal of pairwise label dot products, and returns y . w.
    """
    _require_compatible(g1, g2)
    return float(_random_walk_scores(g1, g2.adjacency[None], g2.labels[None], cfg)[0])


def _floyd_warshall(adjacency: np.ndarray) -> np.ndarray:
    n = adjacency.shape[0]
    dist = np.where(adjacency > 0, adjacency.astype(np.float64), np.inf)
    np.fill_diagonal(dist, 0.0)
    for k in range(n):
        dist = np.minimum(dist, dist[:, [k]] + dist[[k], :])
    return dist


def shortest_path_kernel(g1: LabeledGraph, g2: LabeledGraph) -> float:
    """Sum over pairs of equal-length shortest paths of endpoint label products.

    Paths are ordered node pairs (u, v), u != v, with finite Floyd-Warshall
    distance over edge weights; a matching pair contributes
    (l1[u].l2[u']) * (l1[v].l2[v']).
    """
    _require_compatible(g1, g2)
    if g1.size > SHORTEST_PATH_MAX_NODES or g2.size > SHORTEST_PATH_MAX_NODES:
        raise RefusalError(
            f"shortest-path kernel capped at {SHORTEST_PATH_MAX_NODES} nodes, "
            f"got {g1.size} and {g2.size}"
        )
    d1 = _floyd_warshall(g1.adjacency)
    d2 = _floyd_warshall(g2.adjacency)
    off1 = ~np.eye(g1.size, dtype=bool) & np.isfinite(d1)
    off2 = ~np.eye(g2.size, dtype=bool) & np.isfinite(d2)
    lab = g1.labels @ g2.labels.T
    lengths = np.intersect1d(d1[off1], d2[off2])
    total = 0.0
    for value in lengths:
        p1 = (d1 == value) & off1
        p2 = (d2 == value) & off2
        total += float((lab * (p1.astype(np.float64) @ lab @ p2.astype(np.float64).T)).sum())
    return total


def marginalized_kernel(g1: LabeledGraph, g2: LabeledGraph, cfg: KernelConfig) -> float:
    """Expected label-product over synchronized terminating random walks.

    Both walkers start uniformly, stop with probability ``cfg.termination``
    after each visited pair (or when either node has no neighbors), and
    otherwise step to a neighbor with probability proportional to the edge
    weight. Each visited pair multiplies the label dot product into the walk's
    contribution. Solved as a fixed point on the product space.
    """
    _require_compatible(g1, g2)
    gamma = cfg.termination
    k = g1.labels @ g2.labels.T

    def _transition(adj: np.ndarray) -> np.ndarray:
        rows = adj.sum(axis=1, keepdims=True)
        return np.divide(adj, rows, out=np.zeros_like(adj), where=rows > 0)

    p1 = _transition(g1.adjacency)
    p2 = _transition(g2.adjacency)
    live = np.outer(g1.adjacency.sum(axis=1) > 0, g2.adjacency.sum(axis=1) > 0)
    bound = (1.0 - gamma) * float((k * live).max()) if live.any() else 0.0
    if bound >= 1:
        raise ConvergenceError(
            f"spectral radius bound {bound:.6g} >= 1 after termination damping "
            f"(gamma={gamma}); walk values would diverge"
        )
    r = _product_space_solve(k[None], ((1.0 - gamma) * k)[None], p1, p2.T[None])[0]
    return float(r.mean())  # uniform start over node pairs


def graph_edit_distance(g1: LabeledGraph, g2: LabeledGraph) -> float:
    """Exact minimum edit cost via depth-first branch and bound over assignments.

    Unit costs for node and edge insertion/deletion; substituting a node is
    free when the label rows are equal (1 otherwise), and substituting an edge
    is free when the weights are equal (1 otherwise).
    """
    if g1.size > GED_MAX_NODES or g2.size > GED_MAX_NODES:
        raise RefusalError(
            f"exact edit distance capped at {GED_MAX_NODES} nodes, "
            f"got {g1.size} and {g2.size}"
        )
    n1, n2 = g1.size, g2.size
    a1, a2 = g1.adjacency, g2.adjacency
    if n1 and n2:
        label_eq = np.array(
            [[np.array_equal(g1.labels[u], g2.labels[v]) for v in range(n2)] for u in range(n1)]
        )
    else:
        label_eq = np.zeros((n1, n2), dtype=bool)

    # suffix edge counts of g1: edges with both endpoints >= u
    e1_suffix = np.zeros(n1 + 1, dtype=np.int64)
    for u in range(n1 - 1, -1, -1):
        e1_suffix[u] = e1_suffix[u + 1] + int(np.count_nonzero(a1[u, u + 1 :]))
    edges2 = [(i, j) for i in range(n2) for j in range(i + 1, n2) if a2[i, j] > 0]

    best = float("inf")
    assignment = np.full(n1, -1, dtype=np.int64)  # g2 target or -1 for deletion
    used = np.zeros(n2, dtype=bool)

    def completion_cost() -> float:
        extra = 0.0
        for v in range(n2):
            if not used[v]:
                extra += 1.0
        for i, j in edges2:
            if not (used[i] and used[j]):
                extra += 1.0
        return extra

    def lower_bound(depth: int, avail: int) -> float:
        remaining = n1 - depth
        e2_avail = sum(1 for i, j in edges2 if not used[i] and not used[j])
        return abs(remaining - avail) + abs(int(e1_suffix[depth]) - e2_avail)

    def edge_cost(u: int, target: int) -> float:
        cost = 0.0
        for v in range(u):
            w1 = a1[u, v]
            tv = assignment[v]
            if target < 0:
                if w1 > 0:
                    cost += 1.0
                continue
            if tv < 0:
                if w1 > 0:
                    cost += 1.0
                continue
            w2 = a2[target, tv]
            if w1 > 0 and w2 > 0:
                if w1 != w2:
                    cost += 1.0
            elif w1 > 0 or w2 > 0:
                cost += 1.0
        return cost

    def dfs(depth: int, cost: float, avail: int) -> None:
        nonlocal best
        if cost + lower_bound(depth, avail) >= best:
            return
        if depth == n1:
            total = cost + completion_cost()
            if total < best:
                best = total
            return
        targets = sorted(
            (v for v in range(n2) if not used[v]),
            key=lambda v: (not label_eq[depth, v], v),
        )
        for v in targets:
            step = (0.0 if label_eq[depth, v] else 1.0) + edge_cost(depth, v)
            assignment[depth] = v
            used[v] = True
            dfs(depth + 1, cost + step, avail - 1)
            used[v] = False
            assignment[depth] = -1
        # deletion branch
        step = 1.0 + edge_cost(depth, -1)
        assignment[depth] = -1
        dfs(depth + 1, cost + step, avail)
        assignment[depth] = -1

    dfs(0, 0.0, n2)
    return best


def _candidate_graphs(net: SocialNetwork, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (B, m, m) adjacency and (B, m, d) labels of the teams in the rows of ``members``.

    Each row must be sorted, as a ``Team`` is. Both stacks are gathered from the
    dense restriction of the network to the nodes the rows use.
    """
    nodes = np.unique(members)
    local = np.searchsorted(nodes, members)
    adjacency = _dense_rows(net.adjacency, nodes, nodes)[local[:, :, None], local[:, None, :]]
    return adjacency, _dense_rows(net.features, nodes)[local]


def kernel_baseline_replace(
    team: Team,
    departing: Team,
    net: SocialNetwork,
    cfg: KernelConfig,
    budget: int,
) -> ReplacementResult:
    """Whole-network baseline: best fixed-size replacement by random-walk kernel.

    Enumerates every size-|departing| combination of non-team nodes, rebuilds
    the candidate team, and keeps the combination whose new team graph has the
    highest kernel value against the original team graph. Ties keep the first
    combination in lexicographic order. ``similarity`` holds the raw kernel
    value, which is not bounded by 1. Candidates are scored
    ``BASELINE_BATCH`` at a time in one batched solve; each score equals
    ``random_walk_kernel`` of the original and the candidate team graph.
    """
    team.validate_for(net)
    remaining = _check_replacement_inputs(team, departing)
    in_team = np.zeros(net.n, dtype=bool)
    in_team[list(team.members)] = True
    outside = np.flatnonzero(~in_team).tolist()
    r = len(departing)
    total = comb(len(outside), r)
    if total > budget:
        raise RefusalError(
            f"kernel baseline over {total} combinations exceeds budget {budget}"
        )
    original = induced_subgraph(net, team)

    start = time.perf_counter()
    best_members: tuple[int, ...] | None = None
    best_score = -np.inf
    combos = itertools.combinations(outside, r)
    while chunk := list(itertools.islice(combos, BASELINE_BATCH)):
        members = np.sort(np.hstack([np.tile(remaining, (len(chunk), 1)), chunk]), axis=1)
        scores = _random_walk_scores(original, *_candidate_graphs(net, members), cfg)
        top = int(np.argmax(scores))
        if scores[top] > best_score:
            best_score = float(scores[top])
            best_members = chunk[top]
    return ReplacementResult(
        subteam=best_members,
        similarity=None if best_members is None else best_score,
        candidates_examined=total,
        elapsed_ms=(time.perf_counter() - start) * 1e3,
    )
