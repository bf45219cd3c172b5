"""Network data model, file ingestion, dense team graphs, and the synthetic generator.

A team's dense graph is a :class:`LabeledGraph`, the one type that
:func:`induced_subgraph` returns and every kernel in :mod:`subteam.kernels` takes.

The on-disk formats are plain UTF-8 text:

* edge file: ``src<TAB>dst<TAB>weight`` per line, weight optional (default 1.0)
* feature file: ``node<TAB>feature<TAB>value`` per line
* team file: one team per line, space-separated node ids

Indices are 0-based decimal integers; ``#``-prefixed and blank lines are
skipped in all three formats. Fields may be separated by any whitespace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ParseError, ValidationError

# load_network sets n and d from the largest ids it reads, and training holds
# dense n x d arrays, so one stray huge id would exhaust memory; ids at or above
# these caps are refused instead.
MAX_NODES = 1_000_000
MAX_FEATURES = 100_000
# generate_synthetic draws every node pair at once: 33 bytes per pair at its
# traced peak, up to 221 when every pair becomes an edge (p_in = 1, one block).
# This cap (n <= 4000) holds that peak under 1.8 GB; larger n is refused.
MAX_SYNTH_PAIRS = 8_000_000


def _canonical_csr(m) -> sp.csr_array:
    """Copy to float64 CSR with summed duplicates, no explicit zeros, sorted indices."""
    out = sp.csr_array(m, dtype=np.float64, copy=True)
    out.sum_duplicates()
    out.eliminate_zeros()
    out.sort_indices()
    return out


def _csr_equal(a: sp.csr_array, b: sp.csr_array) -> bool:
    return a.shape == b.shape and (a != b).nnz == 0


@dataclass(frozen=True, eq=False)
class SocialNetwork:
    """Whole-graph view: symmetric weighted adjacency plus sparse node features.

    Both matrices are stored row-compressed; dense views are only materialized
    for small node sets: a team's :class:`LabeledGraph` (:func:`induced_subgraph`)
    or one chunk of the kernel baseline's candidate teams. Instances are
    immutable after construction and safe to share across threads.
    """

    adjacency: sp.csr_array
    features: sp.csr_array

    def __post_init__(self):
        adj = _canonical_csr(self.adjacency)
        feats = _canonical_csr(self.features)
        if adj.shape[0] != adj.shape[1]:
            raise ValidationError(f"adjacency must be square, got {adj.shape}")
        if feats.shape[0] != adj.shape[0]:
            raise ValidationError(
                f"feature rows ({feats.shape[0]}) != node count ({adj.shape[0]})"
            )
        if (adj != adj.T).nnz != 0:
            raise ValidationError("adjacency must be symmetric")
        if adj.nnz and adj.data.min() < 0:
            raise ValidationError("edge weights must be non-negative")
        if feats.nnz and feats.data.min() < 0:
            raise ValidationError("feature values must be non-negative")
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "features", feats)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SocialNetwork):
            return NotImplemented
        return (
            _csr_equal(self.adjacency, other.adjacency)
            and _csr_equal(self.features, other.features)
        )


@dataclass(frozen=True)
class Team:
    """A set of member node ids, stored as a strictly increasing tuple.

    The constructor deduplicates and sorts, so ``Team((3, 1, 2, 2))`` holds
    ``(1, 2, 3)``.
    """

    members: tuple[int, ...]

    def __post_init__(self):
        members = tuple(sorted({int(m) for m in self.members}))
        if not members:
            raise ValidationError("team must be non-empty")
        if members[0] < 0:
            raise ValidationError(f"negative node id in team: {members[0]}")
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, node) -> bool:
        return node in self.members

    def validate_for(self, net: SocialNetwork) -> None:
        if self.members[-1] >= net.n:
            raise ValidationError(
                f"team references node {self.members[-1]} but network has n={net.n}"
            )


@dataclass(frozen=True, eq=False)
class LabeledGraph:
    """Dense team graph: symmetric weighted adjacency plus a non-negative label row per node.

    :func:`induced_subgraph` returns one for a team, with the team's feature
    rows as labels, and every kernel and the edit distance take it.
    """

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


def _data_lines(path):
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield line_no, line


def check_seed(seed: int) -> None:
    """Refuse a negative random seed, which numpy's generators reject."""
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")


def _check_id(path, line_no: int, kind: str, value: int, cap: int) -> None:
    if not 0 <= value < cap:
        raise ValidationError(f"{path}:{line_no}: {kind} id {value} out of range [0, {cap})")


def load_network(edge_path, feature_path) -> SocialNetwork:
    """Load a network from an edge file and a feature file.

    The node count is one plus the largest node index seen in either file and
    the feature dimension is one plus the largest feature index; node ids must
    lie below ``MAX_NODES`` and feature ids below ``MAX_FEATURES``. If an edge is
    declared in both directions (or repeatedly), the stored undirected weight
    is the maximum of the declared weights. Repeated feature triples
    accumulate.
    """
    edges: dict[tuple[int, int], float] = {}
    max_node = -1
    for line_no, line in _data_lines(edge_path):
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(edge_path, line_no, f"expected 'src dst [weight]', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise ParseError(edge_path, line_no, str(exc)) from exc
        _check_id(edge_path, line_no, "node", i, MAX_NODES)
        _check_id(edge_path, line_no, "node", j, MAX_NODES)
        if not math.isfinite(w) or w < 0:
            raise ValidationError(f"{edge_path}:{line_no}: bad edge weight {w!r}")
        key = (i, j) if i <= j else (j, i)
        edges[key] = max(edges.get(key, 0.0), w)
        max_node = max(max_node, i, j)

    frows: list[int] = []
    fcols: list[int] = []
    fvals: list[float] = []
    max_feat = -1
    for line_no, line in _data_lines(feature_path):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(
                feature_path, line_no, f"expected 'node feature value', got {line!r}"
            )
        try:
            node, feat = int(parts[0]), int(parts[1])
            val = float(parts[2])
        except ValueError as exc:
            raise ParseError(feature_path, line_no, str(exc)) from exc
        _check_id(feature_path, line_no, "node", node, MAX_NODES)
        _check_id(feature_path, line_no, "feature", feat, MAX_FEATURES)
        if not math.isfinite(val) or val < 0:
            raise ValidationError(f"{feature_path}:{line_no}: bad feature value {val!r}")
        frows.append(node)
        fcols.append(feat)
        fvals.append(val)
        max_node = max(max_node, node)
        max_feat = max(max_feat, feat)

    n = max_node + 1
    d = max_feat + 1
    arows: list[int] = []
    acols: list[int] = []
    avals: list[float] = []
    for (i, j), w in edges.items():
        arows.append(i)
        acols.append(j)
        avals.append(w)
        if i != j:
            arows.append(j)
            acols.append(i)
            avals.append(w)
    adjacency = sp.coo_array((avals, (arows, acols)), shape=(n, n)).tocsr()
    features = sp.coo_array((fvals, (frows, fcols)), shape=(n, d)).tocsr()
    return SocialNetwork(adjacency=adjacency, features=features)


def save_network(net: SocialNetwork, edge_path, feature_path) -> None:
    """Write a network in the load formats so that a reload reproduces it exactly.

    Nodes with neither edges nor features get an explicit zero feature marker
    so the node count round-trips; the same trick pins the feature dimension.
    """
    triu = sp.triu(net.adjacency).tocoo()
    order = np.lexsort((triu.col, triu.row))
    with open(edge_path, "w", encoding="utf-8") as fh:
        fh.write("# src\tdst\tweight\n")
        for k in order:
            fh.write(f"{triu.row[k]}\t{triu.col[k]}\t{float(triu.data[k])!r}\n")

    feats = net.features.tocoo()
    covered = np.zeros(net.n, dtype=bool)
    covered[feats.row] = True
    deg = net.adjacency.indptr[1:] - net.adjacency.indptr[:-1]
    covered[deg > 0] = True
    missing = np.flatnonzero(~covered)
    feat_cols = set(feats.col.tolist())
    need_d_marker = net.d > 0 and (net.d - 1) not in feat_cols
    if net.d == 0 and missing.size:
        raise ValidationError("cannot mark isolated nodes in a network with d=0")
    if net.n == 0 and net.d > 0:
        raise ValidationError("cannot mark the feature dimension of an empty network")
    forder = np.lexsort((feats.col, feats.row))
    with open(feature_path, "w", encoding="utf-8") as fh:
        fh.write("# node\tfeature\tvalue\n")
        for k in forder:
            fh.write(f"{feats.row[k]}\t{feats.col[k]}\t{float(feats.data[k])!r}\n")
        for node in missing:
            fh.write(f"{node}\t0\t0.0\n")
        if need_d_marker:
            fh.write(f"0\t{net.d - 1}\t0.0\n")


def load_teams(team_path, net: SocialNetwork) -> list[Team]:
    """Load one team per non-empty line; ids are deduplicated and sorted."""
    teams = []
    for line_no, line in _data_lines(team_path):
        try:
            ids = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise ParseError(team_path, line_no, str(exc)) from exc
        bad = [i for i in ids if i < 0 or i >= net.n]
        if bad:
            raise ValidationError(
                f"{team_path}:{line_no}: node id {bad[0]} out of range (n={net.n})"
            )
        teams.append(Team(tuple(ids)))
    return teams


def save_teams(teams, team_path) -> None:
    with open(team_path, "w", encoding="utf-8") as fh:
        for team in teams:
            fh.write(" ".join(str(m) for m in team) + "\n")


def _dense_rows(csr: sp.csr_array, ix: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
    """Dense copy of the CSR rows ``ix``; with ``cols`` (sorted, non-empty), only those columns.

    One vectorized walk over the rows' nonzeros: no scipy fancy indexing and no
    array as long as the network, so the many tiny extractions stay cheap.
    """
    lo = csr.indptr[ix]
    counts = csr.indptr[ix + 1] - lo
    row = np.repeat(np.arange(len(ix)), counts)
    at = np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    col, val = csr.indices[at], csr.data[at]
    if cols is None:
        out = np.zeros((len(ix), csr.shape[1]))
    else:
        local = np.searchsorted(cols, col)
        keep = cols[np.minimum(local, len(cols) - 1)] == col
        row, col, val = row[keep], local[keep], val[keep]
        out = np.zeros((len(ix), len(cols)))
    out[row, col] = val
    return out


def induced_subgraph(net: SocialNetwork, members: Team) -> LabeledGraph:
    """Dense restriction of the network to the team, rows in member order, features as labels."""
    members.validate_for(net)
    ix = np.asarray(members.members, dtype=np.intp)
    return LabeledGraph(_dense_rows(net.adjacency, ix, ix), _dense_rows(net.features, ix))


def normalize_adjacency(net: SocialNetwork) -> sp.csr_array:
    """Symmetric degree normalization of the self-looped adjacency.

    Self-loops exist only in the returned matrix, never in the stored data;
    isolated nodes reduce to a single diagonal 1. Each stored entry is scaled
    in place as ``(s_i * a_ij) * s_j`` with ``s = 1/sqrt(deg)``, the product
    that ``diag(s) @ A @ diag(s)`` forms, so the bits match that form.
    """
    with_loops = (net.adjacency + sp.eye_array(net.n, format="csr")).tocsr()
    deg = np.asarray(with_loops.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(deg)
    with_loops.sort_indices()
    rows = np.repeat(np.arange(net.n), np.diff(with_loops.indptr))
    with_loops.data = (inv_sqrt[rows] * with_loops.data) * inv_sqrt[with_loops.indices]
    return with_loops


def planted_blocks(n: int, k_planted: int) -> np.ndarray:
    """Ground-truth block label per node for a generated planted-partition graph."""
    return np.repeat(np.arange(k_planted), n // k_planted)


def generate_synthetic(
    n: int,
    d: int,
    k_planted: int,
    p_in: float,
    p_out: float,
    teams: int,
    seed: int,
) -> tuple[SocialNetwork, list[Team]]:
    """Planted-partition network with block-banded features and block-local teams.

    Nodes are split into ``k_planted`` equal blocks; within-block pairs get an
    edge with probability ``p_in``, cross-block pairs with ``p_out``. Each
    block owns a disjoint band of feature columns; every node activates a few
    in-band features plus occasional low-value cross-band noise. Teams draw
    members from a home block, with each seat having a 10% chance of being
    filled cross-block. Output is a pure function of the arguments. More than
    ``MAX_SYNTH_PAIRS`` node pairs, or more than ``MAX_FEATURES`` features, are
    refused before anything is allocated.
    """
    if not (0 <= p_out < p_in <= 1):
        raise ValidationError(f"need 0 <= p_out < p_in <= 1, got p_in={p_in}, p_out={p_out}")
    if n <= 0 or k_planted <= 0 or n % k_planted != 0:
        raise ValidationError(f"k_planted={k_planted} must divide n={n}")
    if d < k_planted:
        raise ValidationError(f"need at least one feature per block (d={d}, k={k_planted})")
    if d > MAX_FEATURES:
        raise ValidationError(f"d={d} is over the feature cap of {MAX_FEATURES}")
    if teams < 0:
        raise ValidationError("team count must be non-negative")
    check_seed(seed)
    pairs = n * (n - 1) // 2
    if pairs > MAX_SYNTH_PAIRS:
        raise ValidationError(
            f"n={n} has {pairs} node pairs to draw, over the cap of {MAX_SYNTH_PAIRS}"
        )
    block_size = n // k_planted
    if block_size < 2:
        raise ValidationError("blocks need at least 2 nodes to host teams")
    block = planted_blocks(n, k_planted)
    rng = np.random.default_rng(seed)

    iu, ju = np.triu_indices(n, k=1)
    prob = np.where(block[iu] == block[ju], p_in, p_out)
    keep = rng.random(iu.size) < prob
    ei, ej = iu[keep], ju[keep]
    rows = np.concatenate([ei, ej])
    cols = np.concatenate([ej, ei])
    vals = np.ones(rows.size)
    adjacency = sp.coo_array((vals, (rows, cols)), shape=(n, n)).tocsr()

    band_lo = np.array([b * d // k_planted for b in range(k_planted)])
    band_hi = np.array([(b + 1) * d // k_planted for b in range(k_planted)])
    frows: list[int] = []
    fcols: list[int] = []
    fvals: list[float] = []
    for v in range(n):
        lo, hi = band_lo[block[v]], band_hi[block[v]]
        width = hi - lo
        count = 1 + int(rng.binomial(min(width - 1, 4), 0.6)) if width > 1 else 1
        own = rng.choice(np.arange(lo, hi), size=count, replace=False)
        for f in own:
            frows.append(v)
            fcols.append(int(f))
            fvals.append(float(rng.uniform(0.5, 1.5)))
        if rng.random() < 0.3:
            foreign = np.setdiff1d(np.arange(d), np.arange(lo, hi))
            if foreign.size:
                f = int(rng.choice(foreign))
                frows.append(v)
                fcols.append(f)
                fvals.append(float(rng.uniform(0.02, 0.1)))
    features = sp.coo_array((fvals, (frows, fcols)), shape=(n, d)).tocsr()

    size_lo, size_hi = min(3, block_size), min(6, block_size)
    team_list = []
    for _ in range(teams):
        home = int(rng.integers(k_planted))
        size = int(rng.integers(size_lo, size_hi + 1))
        cross = rng.random(size) < 0.1
        in_pool = np.flatnonzero(block == home)
        out_pool = np.flatnonzero(block != home)
        m_out = int(cross.sum()) if out_pool.size else 0
        m_out = min(m_out, size // 3, out_pool.size) if m_out > 0 else 0
        m_in = size - m_out
        chosen = list(rng.choice(in_pool, size=m_in, replace=False))
        if m_out:
            chosen.extend(rng.choice(out_pool, size=m_out, replace=False))
        team_list.append(Team(tuple(int(v) for v in chosen)))
    return SocialNetwork(adjacency=adjacency, features=features), team_list
