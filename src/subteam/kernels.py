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
baseline gathers its candidate teams as stacked arrays and scores each chunk of
them in one solve. Its label products are formed once per query, one row per
network node, straight from the sparse feature rows, and each chunk gathers its
stack from them; the random-walk kernel forms its products the same way, so
every baseline score equals the single-pair kernel bit for bit. A chunk holds as
many candidates as keep each array it allocates within ``BASELINE_ENTRIES``
entries, so at team sizes of a few members one query's candidates form a single
stack at any feature width. A dense direct solve was measured and rejected: at
team size 26 the product space has 676 unknowns, and one dense
``np.linalg.solve`` costs over a hundred times what a candidate costs in a
batched fixed-point solve.

The exact edit distance assigns g1's nodes in order by depth-first branch and
bound. One extra target stands for deleting a node: a zero row and column
added to g2's adjacency, never used up, whose node cost is always 1. With it
every step is priced by one formula, the node cost plus one for each earlier
g1 node whose edge weight to this one differs from the weight between their
targets. Unused g2 nodes and the edges that touch them are inserted at the end.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from math import comb, isfinite, isqrt

import numpy as np
import scipy.sparse as sp

from .errors import ConvergenceError, RefusalError, ValidationError
# perfbench/tracing.py wraps induced_subgraph under this module's name, so the
# baseline must call it through that name
from .graph import LabeledGraph, SocialNetwork, Team, _dense_rows, induced_subgraph
from .recommender import ReplacementResult, _check_replacement_inputs

SHORTEST_PATH_MAX_NODES = 64
GED_MAX_NODES = 12
_SOLVE_TOL = 1e-14
_SOLVE_MAX_ITERS = 500_000
BASELINE_ENTRIES = 1 << 16  # float64 entries per array one baseline chunk allocates


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


def _label_products(features: sp.csr_array, g1: LabeledGraph) -> np.ndarray:
    """(n, m1) label dot products of each CSR feature row with ``g1``'s labels.

    Each entry sums over the row's nonzeros in column order, so equal rows give
    equal bits wherever they come from, whatever the BLAS build.
    """
    return features @ g1.labels.T


def _random_walk_scores(
    g1: LabeledGraph, adjacency: np.ndarray, lx: np.ndarray, cfg: KernelConfig
) -> np.ndarray:
    """Random-walk kernel of ``g1`` against each graph of a stack.

    ``adjacency`` is (B, m, m) and ``lx`` (B, m1, m) holds each graph's label
    products from ``_label_products``. The spectral guard is checked for the
    whole stack first; the error names the first graph that breaks it.
    """
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
    lx = np.ascontiguousarray(_label_products(sp.csr_array(g2.labels), g1).T[None])
    return float(_random_walk_scores(g1, g2.adjacency[None], lx, cfg)[0])


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
    is free when the weights are equal (1 otherwise). Self-loops are ignored.
    """
    n1, n2 = g1.size, g2.size
    if n1 > GED_MAX_NODES or n2 > GED_MAX_NODES:
        raise RefusalError(
            f"exact edit distance capped at {GED_MAX_NODES} nodes, got {n1} and {n2}"
        )
    a1 = g1.adjacency.tolist()
    # target n2 deletes a node: a zero row and column of g2 that is never used up
    a2 = [row + [0.0] for row in g2.adjacency.tolist()] + [[0.0] * (n2 + 1)]
    same = [[np.array_equal(x, y) for y in g2.labels] for x in g1.labels]
    # e1[d]: edges of g1 with both endpoints >= d
    edges1 = [u for u in range(n1) for v in range(u + 1, n1) if a1[u][v] > 0]
    e1 = [sum(u >= d for u in edges1) for d in range(n1 + 1)]
    edges2 = [(i, j) for i in range(n2) for j in range(i + 1, n2) if a2[i][j] > 0]
    assignment, used = [n2] * n1, [False] * (n2 + 1)
    best = float("inf")

    def dfs(depth: int, cost: int, avail: int) -> None:
        nonlocal best
        free = sum(not (used[i] or used[j]) for i, j in edges2)
        if cost + abs(n1 - depth - avail) + abs(e1[depth] - free) >= best:
            return
        if depth == n1:
            best = min(best, cost + avail + sum(not (used[i] and used[j]) for i, j in edges2))
            return
        row = a1[depth]
        targets = sorted((v for v in range(n2) if not used[v]), key=lambda v: not same[depth][v])
        for v in [*targets, n2]:
            assignment[depth], used[v] = v, v < n2
            step = (v == n2 or not same[depth][v]) + sum(
                row[u] != a2[v][assignment[u]] for u in range(depth)
            )
            dfs(depth + 1, cost + step, avail - (v < n2))
            used[v] = False

    dfs(0, 0, n2)
    del dfs  # dfs refers to itself; unbinding it frees the search's lists now, not at a gc pass
    return float(best)


def _baseline_batch(m: int, r: int, outside: int) -> int:
    """Candidates per baseline chunk: the most whose arrays fit ``BASELINE_ENTRIES``.

    A chunk of B candidate teams of m members, r of them drawn from ``outside``
    nodes, is solved on (B, m, m) stacks. Its adjacency stack is gathered from
    the dense adjacency block (nodes x nodes) of the chunk's nodes, at most
    (m - r) + min(B * r, outside) of them. Each of these stays within the budget
    unless one candidate alone exceeds it; the batch is never below 1.
    """
    batch = BASELINE_ENTRIES // (m * m)
    side = isqrt(BASELINE_ENTRIES) - (m - r)  # new nodes
    if outside > side:
        batch = min(batch, side // r)
    return max(1, batch)


def _candidate_graphs(
    net: SocialNetwork, members: np.ndarray, products: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (B, m, m) adjacency and (B, m1, m) label products of ``members``' teams.

    Each row must be sorted, as a ``Team`` is. The adjacency stack is gathered
    from the dense restriction of the network to the nodes the rows use, and
    the label stack from ``products``, the (n, m1) ``_label_products`` of the
    network's feature rows.
    """
    nodes = np.unique(members)
    local = np.searchsorted(nodes, members)
    adjacency = _dense_rows(net.adjacency, nodes, nodes)[local[:, :, None], local[:, None, :]]
    # a contiguous copy: the solver's elementwise steps run about 10% slower on a view
    return adjacency, np.ascontiguousarray(products[members].transpose(0, 2, 1))


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
    value, which is not bounded by 1. Candidates are scored in chunks sized by
    ``_baseline_batch``, each in one batched solve, and every array a chunk
    allocates stays within ``BASELINE_ENTRIES`` entries; each score equals
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
    products = _label_products(net.features, original)
    batch = _baseline_batch(len(team), r, len(outside))
    combos = itertools.combinations(outside, r)
    while chunk := list(itertools.islice(combos, batch)):
        members = np.sort(np.hstack([np.tile(remaining, (len(chunk), 1)), chunk]), axis=1)
        scores = _random_walk_scores(original, *_candidate_graphs(net, members, products), cfg)
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
