"""Attributed-graph similarity: walk kernels, shortest-path kernel, exact GED.

Every kernel and the edit distance compare two :class:`~subteam.graph.LabeledGraph`
values, the dense team graphs that :func:`~subteam.graph.induced_subgraph` returns.
The shortest-path and marginalized kernels and the edit distance refuse
(``ValidationError``) label rows of two different widths.

The random-walk and marginalized kernels solve linear systems on the product
space of the two graphs without ever materializing a Kronecker product: a
matrix-vector product against A1 (x) A2 is evaluated as A1 @ V @ A2.T on the
matrix reshape of the product-space vector. Convergence is guaranteed by an
explicit spectral guard checked before iterating.

One fixed-point solver serves both walk kernels, and each kernel scores one
first graph against a stack of second graphs; a pair is a stack of one. Each
slice of a stack stops on its own tolerance, so a slice's arithmetic is the
same in any batch, and the solver iterates in buffers it allocates once per
call. :func:`random_walk_kernel` takes its stack as arrays.
:func:`marginalized_kernel` takes a collection of graphs (in the evaluation, a
held-out team's original graph against itself and each of its rebuilt teams),
solves once per graph size, and scores NaN for a pair that its spectral guard
or the step cap refuses. The whole-network baseline refuses (``RefusalError``)
a query over more than ``BASELINE_BUDGET`` candidate teams. It gathers the
candidates as stacked arrays and scores each chunk of them in one random-walk
solve. Its label products, the sparse feature rows times the original team's
labels, are formed once per query, and each chunk gathers its stack from
them. Each solve is a branch and bound for the best candidate: weights and
features are nonnegative, so every iterate bounds its candidate's score from
below and the spectral guard's bound caps what the steps still to come can
add. A candidate whose upper bound falls below the best lower bound so
far, in its chunk or an earlier one, stops iterating and scores -inf. Every
other candidate's score equals its score alone bit for bit, so the winner is
the exhaustive search's. At teams of 4 replacing 2 of 44 outside nodes, all
but a few of the 946 candidates stop before the second step. A chunk holds as
many candidates as keep each array it allocates within ``BASELINE_ENTRIES``
entries, so at team sizes of a few members one query's candidates form a
single stack at any feature width. The dense adjacency block of a chunk's
nodes caps a chunk at (256 - (m - r)) // r candidates for a team of m
replacing r once more than 256 - (m - r) nodes lie outside the team, that is
on any network of more than 256 + r nodes. At r >= 2 that cap is at most
127, below ``_PRUNE_MIN_DEPTH`` (128), so on such a network no solve is
pruned: six r = 2 queries at n = 400 made 3,708 solves and pruned none. A
dense direct solve was measured and rejected: at team size 26 the product
space has 676 unknowns, and one dense ``np.linalg.solve`` costs over a
hundred times what a candidate costs in a batched fixed-point solve.

The exact edit distance assigns g1's nodes in order by depth-first branch and
bound. One extra target stands for deleting a node: a zero row and column
added to g2's adjacency, never used up, whose node cost is always 1. With it
every step is priced by one formula, the node cost plus one for each earlier
g1 node whose edge weight to this one differs from the weight between their
targets. Unused g2 nodes and the edges that touch them are inserted at the end.
It refuses (``RefusalError``) a graph above ``GED_MAX_NODES`` nodes, and a search
past ``GED_MAX_EXPANDED`` expanded nodes, a count that depends only on the graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, isfinite, isqrt, log

import numpy as np

from .errors import ConvergenceError, RefusalError, ValidationError
# perfbench/tracing.py wraps induced_subgraph under this module's name, so the
# baseline must call it through that name
from .graph import (
    LabeledGraph,
    SocialNetwork,
    Team,
    _dense_rows,
    check_collection,
    check_real,
    induced_subgraph,
    remainder,
)
from .recommender import ReplacementResult

SHORTEST_PATH_MAX_NODES = 64
GED_MAX_NODES = 12
GED_MAX_EXPANDED = 300_000  # about a second at the 190-290k nodes/s measured on 2 cores
_SOLVE_TOL = 1e-14
_SOLVE_MAX_ITERS = 500_000
# candidates per query: 0.58-2.34 s at full budget on 2 cores (2.9-11.7 us a candidate),
# more at larger teams and in denser networks (teams of 4 and 6, sparse and dense synthetic)
BASELINE_BUDGET = 200_000
BASELINE_ENTRIES = 1 << 16  # float64 entries per array one baseline chunk allocates
# the solver prunes only stacks at least this deep; the value is inherited, not
# tuned, and pruning shallower stacks was measured faster (see _pruning)
_PRUNE_MIN_DEPTH = 128


@dataclass(frozen=True)
class KernelConfig:
    """Walk-kernel knobs: random-walk decay and marginalized-walk termination."""

    decay: float = 0.1
    termination: float = 0.1

    def __post_init__(self):
        check_real("decay", self.decay, "a finite real > 0", lambda decay: decay > 0)
        check_real("termination", self.termination, "a real in (0, 1)", lambda t: 0 < t < 1)


def _require_same_width(g1: LabeledGraph, g2: LabeledGraph) -> None:
    if g1.labels.shape[1] != g2.labels.shape[1]:
        raise ValidationError(
            f"label dimensions differ: {g1.labels.shape[1]} vs {g2.labels.shape[1]}"
        )


def _require_compatible(g1: LabeledGraph, g2: LabeledGraph) -> None:
    _require_same_width(g1, g2)
    if g1.size == 0 or g2.size == 0:
        raise ValidationError("kernels are undefined for empty graphs")


def _product_space_solve(
    rhs: np.ndarray, scale: np.ndarray, m1, m2t, bound=None, floor: float = -np.inf
) -> np.ndarray:
    """Fixed-point solve of W_b = rhs_b + scale_b * (m1 @ W_b @ m2t_b) for every slice b.

    ``rhs``, ``scale`` and ``m2t`` are stacked along a leading batch axis and
    ``m1`` is shared. A slice stops iterating once its step is within the
    tolerance while the others go on, so its result does not depend on the
    batch. Each step writes into two buffers allocated once. Converges
    geometrically whenever the max row sum of the implied iteration matrix is
    below 1 (checked by callers); a slice still moving after
    ``_SOLVE_MAX_ITERS`` steps is returned as NaN.

    ``bound``, each slice's bound on that row sum, asks only for the slice of
    largest sum, if it beats ``floor``: a slice that provably ends below the
    largest sum some slice reaches (or below ``floor``) stops and comes back as
    -inf. A slice that goes on iterates exactly as it would alone, so the slice
    of largest sum, and the first of several tied, keeps its bits. See
    ``_beaten`` for the rule and ``_pruning`` for the stacks it applies to.
    """
    out = np.empty_like(rhs)
    live = np.arange(len(rhs))
    tail, margin = _pruning(rhs, m1, bound)
    if tail is not None:
        # before the first step the iterate is rhs, and so is its move from zero. The stack
        # is cut here only if at least half of it is beaten: then the copies of the rest
        # hold no more than the step buffers they save. Otherwise the first step cuts it.
        beaten, floor = _beaten(rhs, rhs, tail, margin, floor)
        if 2 * np.count_nonzero(beaten) >= len(rhs):
            out[beaten] = -np.inf
            live = np.flatnonzero(~beaten)
            if not len(live):
                return out
            rhs, scale, m2t, tail = rhs[live], scale[live], m2t[live], tail[live]
    w = rhs.copy()
    step, w_next = np.empty_like(rhs), np.empty_like(rhs)
    for _ in range(_SOLVE_MAX_ITERS):
        # out passed by position: the keyword costs about 0.3 us a call, which tiny stacks notice
        np.matmul(m1, w, step)
        np.matmul(step, m2t, w_next)
        w_next *= scale
        w_next += rhs
        np.subtract(w_next, w, step)
        np.abs(step, step)
        w, w_next = w_next, w  # the old w is scratch from here on
        done = step.max(axis=(1, 2)) <= _SOLVE_TOL * np.maximum(
            1.0, np.abs(w, w_next).max(axis=(1, 2))
        )
        leaving = done
        if tail is not None and len(live) > 1:  # a lone slice costs as much to bound as to step
            beaten, floor = _beaten(w, step, tail, margin, floor)
            out[live[beaten]] = -np.inf
            done &= ~beaten
            leaving = done | beaten
        if leaving.any():
            out[live[done]] = w[done]
            if leaving.all():
                return out
            going = ~leaving
            live, rhs, scale, m2t = live[going], rhs[going], scale[going], m2t[going]
            w, w_next = np.compress(going, w, axis=0, out=w_next[: len(live)]), w[: len(live)]
            step = step[: len(live)]
            if tail is not None:
                tail = tail[going]
    out[live] = np.nan
    return out


def _pruning(rhs: np.ndarray, m1: np.ndarray, bound) -> tuple[np.ndarray | None, float]:
    """Each slice's tail factor and the relative margin ``_beaten`` uses, or (None, 0).

    The solver prunes only a stack at least ``_PRUNE_MIN_DEPTH`` deep. That
    depth came with the convergence screen it once shared, not from a
    measurement: pruning at every depth gives the same answers and cut
    criterion 8's baseline time by about a third, but it flattens the growth
    with d that criterion 8 requires, so the gate stays. It prunes only where
    no slice can reach the step cap either, so that a pruned slice never hides
    a refusal: with every row-sum bound at most q, the k-th step moves no
    entry more than q ** (k + 1) times the largest entry of rhs, which passes
    the stop rule once k + 1 >= log(tol) / log(q); two steps more leave room
    for rounding.

    The tail factor of a slice with bound q_b and S entries is S q_b / (1 - q_b).
    The margin covers rounding. Every entry of a step is a sum of nonnegative
    terms through m1 (m1 of them), then m2t (m2), a product and a sum, so it is
    within g = (m1 + m2 + 2) eps of its exact value (relative). Iterating the
    map inflated by 1 + g, a monotone contraction of factor (1 + g) q, bounds
    every later iterate; it adds at most about 3 g S / (1 - q) to a slice's
    upper bound, relative, and the sums that compare bounds round by less than
    S eps. A margin of 4 g S / (1 - q) covers both, and ``_beaten`` adds it
    times the smallest normal number for sums in the subnormal range. With the
    stop rule's tolerance and the default step cap, 1 - q is at least about
    6e-5, so at teams of 4 (S = 16) the margin is at most about 2e-9.
    """
    if bound is None or len(rhs) < _PRUNE_MIN_DEPTH:
        return None, 0.0
    q = float(bound.max())
    if q > 0 and log(_SOLVE_TOL) / log(q) + 2 > _SOLVE_MAX_ITERS:
        return None, 0.0
    size = rhs[0].size
    rounding = (m1.shape[0] + rhs.shape[2] + 2) * np.finfo(rhs.dtype).eps
    return size * bound / (1 - bound), 4 * rounding * size / (1 - q)


def _beaten(w: np.ndarray, moved: np.ndarray, tail: np.ndarray, margin: float, floor: float):
    """Which slices provably end below the largest sum, and that sum's lower bound.

    ``w`` holds each slice's iterate and ``moved`` its last step. Inputs are
    nonnegative, so iterates never decrease and a slice's sum is a lower bound
    on its final sum; ``floor`` is raised to the largest. The iteration map T
    of a slice with row-sum bound q_b has |T(X)|_max <= q_b |X|_max, so the
    steps still to come add at most q_b / (1 - q_b) times the largest entry of
    the last step to each entry, and the sum's upper bound is its sum plus the
    tail factor times that entry. A slice whose upper bound, raised by the
    relative ``margin`` of ``_pruning``, is below the floor cannot win or tie.
    """
    flat = w.reshape(len(w), -1)
    sums = flat @ np.ones(flat.shape[1])
    floor = max(floor, float(sums.max()))
    reach = sums + tail * moved.reshape(len(moved), -1).max(axis=1)
    return reach * (1 + margin) + margin * np.finfo(w.dtype).tiny < floor, floor


def random_walk_kernel(
    g1: LabeledGraph, adjacency: np.ndarray, lx: np.ndarray, cfg: KernelConfig, best=None
) -> np.ndarray:
    """Label-weighted common-walk similarity of ``g1`` against each graph of a stack.

    With uniform start and stop vectors, each graph's score solves
    (I - decay * Lx (A1 (x) A2)) w = Lx x iteratively, where Lx is the diagonal
    of pairwise label dot products, and is y . w. ``adjacency`` is (B, m, m)
    and ``lx`` (B, m1, m) holds each graph's label products with ``g1``'s,
    ``g1.labels @ labels.T``. The spectral guard is checked for the whole stack
    first; the error names the first graph that breaks it. A graph still
    moving at the solver's step cap raises :class:`ConvergenceError`. Given
    ``best``, the best score found so far (-inf for none), only the largest
    score is asked for: a graph that provably scores below ``best`` or below
    another graph of the stack is pruned and scores -inf. Other shapes, or
    empty graphs, raise :class:`ValidationError`; an empty stack scores nothing.
    """
    m = adjacency.shape[-1] if adjacency.ndim == 3 else 0
    if not (g1.size and m and adjacency.shape[1] == m and lx.shape == (len(adjacency), g1.size, m)):
        raise ValidationError(
            f"need a non-empty g1, adjacency (B, m, m) and label products (B, {g1.size}, m) "
            f"with m >= 1, got adjacency {adjacency.shape} and label products {lx.shape}"
        )
    if not len(adjacency):
        return np.zeros(0)
    rs1 = g1.adjacency.sum(axis=1)
    rs2 = adjacency.sum(axis=2)
    walk = lx * (rs1[:, None] * rs2[:, None, :])
    peak = walk.max(axis=(1, 2))
    del walk  # not held through the solve
    bound = cfg.decay * peak
    broken = ~(bound < 1)  # a NaN bound breaks the guard too
    if broken.any():
        at = np.argmax(broken)
        advice = (
            f"lower the decay (currently {cfg.decay})"
            if np.isfinite(peak[at])
            else "its label products times row sums overflow float64, so no decay can help"
        )
        raise ConvergenceError(
            f"decay * max row sum of the walk matrix is {bound[at]:.6g}, not below 1; {advice}"
        )
    mass = 1.0 / (g1.size * adjacency.shape[1])
    rhs = lx * mass  # Lx @ x in matrix form
    floor = -np.inf if best is None else best / mass
    bound = None if best is None else bound  # the solver prunes only given a best to beat
    w = _product_space_solve(rhs, cfg.decay * lx, g1.adjacency, adjacency, bound, floor)
    scores = w.reshape(len(w), -1).sum(axis=1) * mass  # y . w with uniform y
    if np.isnan(scores).any():
        raise ConvergenceError(f"product-space solve did not converge in {_SOLVE_MAX_ITERS} steps")
    return scores


def shortest_path_kernel(g1: LabeledGraph, g2: LabeledGraph) -> float:
    """Sum over pairs of equal-length shortest paths of endpoint label products.

    Paths are ordered node pairs (u, v), u != v, with finite Floyd-Warshall
    distance over edge weights; a matching pair contributes
    (l1[u].l2[u']) * (l1[v].l2[v']). Refuses past the node cap or on a float64 overflow.
    Each graph's distances are computed once, on its first call (``LabeledGraph.distances``).
    """
    _require_compatible(g1, g2)
    if g1.size > SHORTEST_PATH_MAX_NODES or g2.size > SHORTEST_PATH_MAX_NODES:
        raise RefusalError(
            f"shortest-path kernel capped at {SHORTEST_PATH_MAX_NODES} nodes, "
            f"got {g1.size} and {g2.size}"
        )
    d1, d2 = g1.distances, g2.distances
    off1 = ~np.eye(g1.size, dtype=bool) & np.isfinite(d1)
    off2 = ~np.eye(g2.size, dtype=bool) & np.isfinite(d2)
    lengths = np.intersect1d(d1[off1], d2[off2])
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        lab = g1.labels @ g2.labels.T
        for value in lengths:
            p1 = (d1 == value) & off1
            p2 = (d2 == value) & off2
            total += float((lab * (p1.astype(np.float64) @ lab @ p2.astype(np.float64).T)).sum())
    if not isfinite(total):
        raise RefusalError(f"shortest-path kernel is {total}: the label products overflow float64")
    return total


def _transition(adjacency: np.ndarray) -> np.ndarray:
    """Each row divided by its sum; a row without neighbors stays zero."""
    rows = adjacency.sum(axis=-1, keepdims=True)
    return np.divide(adjacency, rows, out=np.zeros_like(adjacency), where=rows > 0)


def marginalized_kernel(g1: LabeledGraph, graphs, cfg: KernelConfig) -> np.ndarray:
    """Expected label product over synchronized terminating random walks, per graph.

    One score for ``g1`` against each graph of ``graphs``. Both walkers start
    uniformly, stop with probability ``cfg.termination`` after each visited
    pair (or when either node has no neighbors), and otherwise step to a
    neighbor with probability proportional to the edge weight. Each visited
    pair multiplies the label dot product into the walk's contribution.
    Solved as a fixed point on the product space: the graphs of one size are
    stacked and solved in one call that shares g1's transition matrix. A pair
    whose spectral bound is not below 1 (NaN included) is left out of its
    stack and scores NaN, as does one whose solve does not converge. ``graphs``
    is read once, so a generator serves; one graph that is not in a collection is refused.
    """
    graphs = check_collection("graphs", graphs, "a collection of LabeledGraph")
    for g2 in graphs:
        _require_compatible(g1, g2)
    damping = 1.0 - cfg.termination
    p1 = _transition(g1.adjacency)
    live1 = g1.adjacency.sum(axis=1) > 0
    scores = np.full(len(graphs), np.nan)
    by_size: dict[int, list[int]] = {}
    for i, g2 in enumerate(graphs):
        by_size.setdefault(g2.size, []).append(i)
    for group in by_size.values():
        adjacency = np.stack([graphs[i].adjacency for i in group])
        k = np.stack([g1.labels @ graphs[i].labels.T for i in group])
        live = live1[:, None] & (adjacency.sum(axis=2) > 0)[:, None, :]
        solved = damping * (k * live).max(axis=(1, 2)) < 1
        if solved.any():
            k = k[solved]
            # a transposed view, not a copy: the solver's matrix products round
            # differently on a transposed copy, which would change the scores' bits
            m2t = _transition(adjacency[solved]).transpose(0, 2, 1)
            r = _product_space_solve(k, damping * k, p1, m2t)
            scores[np.asarray(group)[solved]] = r.reshape(len(r), -1).mean(axis=1)  # uniform start
    return scores


def graph_edit_distance(g1: LabeledGraph, g2: LabeledGraph) -> float:
    """Exact minimum edit cost via depth-first branch and bound over assignments.

    Unit costs for node and edge insertion/deletion; substituting a node is
    free when the label rows are equal (1 otherwise), and substituting an edge
    is free when the weights are equal (1 otherwise). Self-loops are ignored.
    Empty graphs are allowed; label rows of two widths raise :class:`ValidationError`.
    Raises :class:`RefusalError` past ``GED_MAX_NODES`` nodes or ``GED_MAX_EXPANDED`` expanded.
    """
    _require_same_width(g1, g2)
    n1, n2 = g1.size, g2.size
    if n1 > GED_MAX_NODES or n2 > GED_MAX_NODES:
        raise RefusalError(
            f"exact edit distance capped at {GED_MAX_NODES} nodes, got {n1} and {n2}"
        )
    a1 = g1.adjacency.tolist()
    # target n2 deletes a node: a zero row and column of g2 that is never used up
    a2 = [row + [0.0] for row in g2.adjacency.tolist()] + [[0.0] * (n2 + 1)]
    same = (g1.labels[:, None] == g2.labels).all(axis=2).tolist()
    # e1[d]: edges of g1 with both endpoints >= d
    edges1 = [u for u in range(n1) for v in range(u + 1, n1) if a1[u][v] > 0]
    e1 = [sum(u >= d for u in edges1) for d in range(n1 + 1)]
    edges2 = [(i, j) for i in range(n2) for j in range(i + 1, n2) if a2[i][j] > 0]
    assignment, used = [n2] * n1, [False] * (n2 + 1)
    best = float("inf")
    left = GED_MAX_EXPANDED

    def dfs(depth: int, cost: int, avail: int) -> None:
        nonlocal best, left
        if left <= 0:
            raise RefusalError(f"exact edit distance stopped after {GED_MAX_EXPANDED} search nodes")
        left -= 1
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

    try:
        dfs(0, 0, n2)
    finally:
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
    the label stack from ``products``, the (n, m1) label products
    ``net.features @ g1.labels.T`` of the network's feature rows.
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
) -> ReplacementResult:
    """Whole-network baseline: best fixed-size replacement by random-walk kernel.

    Enumerates every size-|departing| combination of non-team nodes, rebuilds
    the candidate team, and keeps the combination whose new team graph has the
    highest kernel value against the original team graph. Ties keep the first
    combination in lexicographic order. ``similarity`` holds the raw kernel
    value, which is not bounded by 1. Candidates are scored in chunks sized by
    ``_baseline_batch``, each in one batched solve, and every array a chunk
    allocates stays within ``BASELINE_ENTRIES`` entries. Each solve carries the
    best score of the chunks before it and stops a candidate once bounds show it
    cannot reach the best; the winner's score, and that of every candidate that
    could still tie it, equals ``random_walk_kernel`` of the original and the
    candidate team graph alone, and a candidate that would reach the solver's
    step cap still refuses the query. The result holds no timing; a caller that
    wants one times the whole call.
    Raises :class:`RefusalError` before scoring past ``BASELINE_BUDGET`` combinations.
    """
    team.validate_for(net)
    remaining = remainder(team, departing)
    in_team = np.zeros(net.n, dtype=bool)
    in_team[list(team.members)] = True
    outside = np.flatnonzero(~in_team)
    r = len(departing)
    total = comb(len(outside), r)
    if total > BASELINE_BUDGET:
        raise RefusalError(
            f"kernel baseline over {total} combinations exceeds budget {BASELINE_BUDGET}"
        )
    original = induced_subgraph(net, team)
    best_members: tuple[int, ...] | None = None
    best_score = -np.inf
    # (n, m1); each CSR entry sums its row's nonzeros in column order, so equal rows
    # give equal bits wherever they come from, whatever the BLAS build
    products = net.features @ original.labels.T
    batch = _baseline_batch(len(team), r, len(outside))
    # each combination as a row of positions in outside, a chunk of rows at a time;
    # fromiter over the flat positions, as a subarray dtype fills rows 2.5x slower
    combos = itertools.combinations(range(len(outside)), r)
    flat = itertools.chain.from_iterable
    while len(picks := np.fromiter(flat(itertools.islice(combos, batch)), np.intp)):
        chunk = outside[picks.reshape(-1, r)]
        members = np.sort(np.hstack([np.tile(remaining, (len(chunk), 1)), chunk]), axis=1)
        graphs = _candidate_graphs(net, members, products)
        scores = random_walk_kernel(original, *graphs, cfg, best_score)
        top = int(np.argmax(scores))
        if scores[top] > best_score:
            best_score = float(scores[top])
            best_members = tuple(chunk[top].tolist())
    return ReplacementResult(
        subteam=best_members,
        similarity=None if best_members is None else best_score,
        candidates_examined=total,
    )
