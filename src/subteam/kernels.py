"""Attributed-graph similarity: walk kernels, shortest-path kernel, exact GED.

The random-walk and marginalized kernels solve linear systems on the product
space of the two graphs without ever materializing a Kronecker product: a
matrix-vector product against A1 (x) A2 is evaluated as A1 @ V @ A2.T on the
matrix reshape of the product-space vector. Convergence is guaranteed by an
explicit spectral guard checked before iterating.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ConvergenceError, RefusalError, ValidationError
from .graph import SocialNetwork, Team, TeamGraph, induced_subgraph
from .recommender import ReplacementResult, _check_replacement_inputs

SHORTEST_PATH_MAX_NODES = 64
GED_MAX_NODES = 12
_SOLVE_TOL = 1e-14
_SOLVE_MAX_ITERS = 500_000


@dataclass(frozen=True, eq=False)
class LabeledGraph:
    """Symmetric weighted adjacency plus a non-negative label row per node."""

    adjacency: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.float64)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValidationError(f"adjacency must be square, got {adj.shape}")
        if labels.ndim != 2 or labels.shape[0] != adj.shape[0]:
            raise ValidationError(
                f"labels must have one row per node, got {labels.shape} for n={adj.shape[0]}"
            )
        if adj.size and not np.array_equal(adj, adj.T):
            raise ValidationError("adjacency must be symmetric")
        if (adj.size and adj.min() < 0) or (labels.size and labels.min() < 0):
            raise ValidationError("adjacency and labels must be non-negative")
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.adjacency.shape[0]

    @classmethod
    def from_team_graph(cls, tg: TeamGraph) -> "LabeledGraph":
        return cls(adjacency=tg.adjacency, labels=tg.features)


@dataclass(frozen=True)
class KernelConfig:
    """Walk-kernel knobs: random-walk decay and marginalized-walk termination."""

    decay: float = 0.1
    termination: float = 0.1

    def __post_init__(self):
        if self.decay <= 0:
            raise ValidationError(f"decay must be positive, got {self.decay}")
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
    """Fixed-point solve of W = rhs + scale * (m1 @ W @ m2t) on the product space.

    Converges geometrically whenever the max row sum of the implied iteration
    matrix is below 1 (checked by callers); refuses loudly otherwise.
    """
    w = rhs.copy()
    for _ in range(_SOLVE_MAX_ITERS):
        w_next = rhs + scale * (m1 @ w @ m2t)
        delta = np.max(np.abs(w_next - w))
        w = w_next
        if delta <= _SOLVE_TOL * max(1.0, float(np.max(np.abs(w)))):
            return w
    raise ConvergenceError(f"product-space solve did not converge in {_SOLVE_MAX_ITERS} steps")


def random_walk_kernel(g1: LabeledGraph, g2: LabeledGraph, cfg: KernelConfig) -> float:
    """Label-weighted common-walk similarity with uniform start/stop vectors.

    Solves (I - decay * Lx (A1 (x) A2)) w = Lx x iteratively, where Lx is the
    diagonal of pairwise label dot products, and returns y . w.
    """
    _require_compatible(g1, g2)
    n1, n2 = g1.size, g2.size
    lx = g1.labels @ g2.labels.T
    rs1 = g1.adjacency.sum(axis=1)
    rs2 = g2.adjacency.sum(axis=1)
    bound = cfg.decay * float((lx * np.outer(rs1, rs2)).max())
    if bound >= 1:
        raise ConvergenceError(
            f"decay * max row sum of the walk matrix is {bound:.6g} >= 1; "
            f"lower the decay (currently {cfg.decay})"
        )
    mass = 1.0 / (n1 * n2)
    rhs = lx * mass  # Lx @ x in matrix form
    w = _product_space_solve(rhs, cfg.decay * lx, g1.adjacency, g2.adjacency)
    return float(w.sum() * mass)  # y . w with uniform y


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
    r = _product_space_solve(k, (1.0 - gamma) * k, p1, p2.T)
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


def team_kernel_graph(net: SocialNetwork, team: Team) -> LabeledGraph:
    return LabeledGraph.from_team_graph(induced_subgraph(net, team))


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
    value, which is not bounded by 1.
    """
    team.validate_for(net)
    remaining = _check_replacement_inputs(team, departing)
    outside = [v for v in range(net.n) if v not in set(team.members)]
    r = len(departing)
    total = comb(len(outside), r)
    if total > budget:
        raise RefusalError(
            f"kernel baseline over {total} combinations exceeds budget {budget}"
        )
    original = team_kernel_graph(net, team)

    start = time.perf_counter()
    best_members: tuple[int, ...] | None = None
    best_score = -np.inf
    for combo in itertools.combinations(outside, r):
        candidate = Team(tuple(remaining) + combo)
        score = random_walk_kernel(original, team_kernel_graph(net, candidate), cfg)
        if score > best_score:
            best_score = score
            best_members = combo
    elapsed_ms = (time.perf_counter() - start) * 1e3
    if best_members is None:
        return ReplacementResult(
            subteam=None, similarity=None, candidates_examined=total, elapsed_ms=elapsed_ms
        )
    return ReplacementResult(
        subteam=best_members,
        similarity=float(best_score),
        candidates_examined=total,
        elapsed_ms=elapsed_ms,
    )
