"""Within-cluster replacement search.

Candidate tuples are drawn from the clusters of the departing members, so a
search touches at most (largest cluster)^(departing size) tuples instead of
the whole network. A tuple's candidate is its set of members outside the
original team, so the recommended set is never larger than the departing one.
Departing members that share a cluster draw from one pool, and only the
tuples whose pool indices do not decrease along each such group are scored:
every member multiset is scored once. Those tuples are generated directly:
the product of every position but the last is walked in numpy blocks of
``CHUNK`` prefixes, each kept prefix expands to a run of last-position
indices, and the runs are scored in pieces of ``CHUNK`` rows, so memory
stays bounded whatever the tuple count. The count of product tuples that
keep a member is the product's size minus the tuples drawn only from team
members, so it is known before the walk. A search over more than
``DEFAULT_SEARCH_BUDGET`` product tuples refuses before it starts instead of
running for hours.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import prod

import numpy as np

from .encoder import ClusterModel
from .errors import RefusalError, ValidationError
from .graph import SocialNetwork, Team
from .objectives import cosine_rows, ordered_sum, team_embedding

# counts product tuples: with 215-node clusters and 32-wide embeddings on one
# core, r=3 members departing from three clusters take 0.5-0.6 us per tuple
# (about 5 s), and from one shared cluster, which scores one tuple in six,
# 0.1 us per tuple (1 s)
DEFAULT_SEARCH_BUDGET = 10_000_000
# rows per scored piece, and prefixes per block of the walk; a search holds
# O(CHUNK * (r + d)) values at once
CHUNK = 2048


@dataclass(frozen=True, eq=False)
class ReplacementResult:
    """Outcome of one replacement search.

    ``subteam`` is None when every candidate tuple dissolved into the original
    team (the explicit no-candidate outcome); ``similarity`` is the cosine
    score for embedding searches and the raw kernel value for the graph-kernel
    baseline. ``elapsed_ms`` is the only timing field.
    """

    subteam: tuple[int, ...] | None
    similarity: float | None
    candidates_examined: int
    elapsed_ms: float

    @property
    def found(self) -> bool:
        return self.subteam is not None


def _check_replacement_inputs(team: Team, departing: Team) -> tuple[int, ...]:
    dep = set(departing.members)
    if not dep <= set(team.members):
        raise ValidationError(f"departing members {sorted(dep)} not all in team")
    remaining = tuple(sorted(set(team.members) - dep))
    if not remaining:
        raise ValidationError("departing set equals the team; remaining team is empty")
    return remaining


def recommend(
    team: Team,
    departing: Team,
    model: ClusterModel,
    net: SocialNetwork,
) -> ReplacementResult:
    """Best replacement set from the departing members' clusters.

    Enumerates the Cartesian product of the clusters the departing members are
    hard-assigned to (lexicographically over the sorted cluster lists), drops
    original-team members from each tuple, and scores each tuple's remaining
    member set by cosine against the remaining-team embedding. Ties keep the
    first candidate in enumeration order. Within a cluster that several
    departing members share, each member multiset is scored once, in product
    order, at the tuple whose pool indices do not decrease within the
    cluster. That tuple comes first among the multiset's orderings, which all
    get the identical score, so skipping the others never changes the
    answer. The scored tuples are generated in product order, as a run of
    last-position indices behind each kept prefix, and scored in pieces of
    at most ``CHUNK`` rows. ``candidates_examined`` counts every product
    tuple that keeps at least one member, duplicates included: the product's
    size minus the product of each pool's team-member count. Refuses with
    :class:`RefusalError`, before enumerating anything, when the product
    holds more than ``DEFAULT_SEARCH_BUDGET`` tuples.
    """
    team.validate_for(net)
    remaining = _check_replacement_inputs(team, departing)
    if model.n != net.n:
        raise ValidationError(f"model covers {model.n} nodes, network has {net.n}")
    clusters = [int(model.hard[t]) for t in departing]
    total = prod(len(model.containers[c]) for c in clusters)
    if total > DEFAULT_SEARCH_BUDGET:
        raise RefusalError(
            f"within-cluster search over {total} tuples exceeds budget {DEFAULT_SEARCH_BUDGET}"
        )
    z = model.embeddings
    reference = team_embedding(remaining, z)

    start = time.perf_counter()
    if total == 0:  # a departing member's cluster is empty, so no tuple exists
        return ReplacementResult(None, None, 0, (time.perf_counter() - start) * 1e3)
    # Departing members that share a cluster draw from one pool. Local ids index
    # a table of the pooled nodes' rows in ascending node order plus one zero
    # row, ``blank``, that stands for team members and repeats.
    pools = {c: np.asarray(model.containers[c], dtype=np.intp) for c in dict.fromkeys(clusters)}
    nodes = np.sort(np.concatenate(list(pools.values())))
    nodes = nodes[np.concatenate(([True], nodes[1:] != nodes[:-1]))]
    blank = len(nodes)
    table = np.zeros((blank + 1, z.shape[1]))
    # gather straight into the table: take's default mode would buffer a copy
    np.take(np.asarray(z, dtype=np.float64), nodes, axis=0, out=table[:blank], mode="clip")
    members = np.asarray(team.members, dtype=np.intp)
    at = np.minimum(np.searchsorted(members, nodes), len(members) - 1)
    local = np.where(members[at] == nodes, blank, np.arange(blank))
    pools = {c: local[np.searchsorted(nodes, pool)] for c, pool in pools.items()}
    in_team = {c: int(np.count_nonzero(pool == blank)) for c, pool in pools.items()}
    # a tuple keeps no member exactly when every position draws a team member
    examined = total - prod(in_team[c] for c in clusters)

    best_row: list[int] | None = None
    best_score = -np.inf
    for cols in _canonical_pieces([pools[c] for c in clusters], clusters):
        # sort each tuple with a bubble-sort network over the columns, then blank repeats
        for end in range(len(cols) - 1, 0, -1):
            for j in range(end):
                low, high = cols[j], cols[j + 1]
                cols[j], cols[j + 1] = np.minimum(low, high), np.maximum(low, high)
        for j in range(len(cols) - 1, 0, -1):
            cols[j] = np.where(cols[j] == cols[j - 1], blank, cols[j])
        counts = sum(col < blank for col in cols)
        # team_embedding's arithmetic: the rows summed in member order, then
        # divided by the count; adding the blank row's zeros is exact
        sums = ordered_sum(table[col] for col in cols)
        sums /= np.maximum(counts, 1)[:, None]
        scores = cosine_rows(reference, sums)
        scores[counts == 0] = -np.inf
        first = int(np.argmax(scores))
        if scores[first] > best_score:
            best_score = scores[first]
            best_row = [int(col[first]) for col in cols]
    found = best_row is not None
    return ReplacementResult(
        subteam=tuple(int(nodes[v]) for v in best_row if v < blank) if found else None,
        similarity=float(best_score) if found else None,
        candidates_examined=examined,
        elapsed_ms=(time.perf_counter() - start) * 1e3,
    )


def _canonical_pieces(pools: list[np.ndarray], clusters: list[int]):
    """The canonical tuples of the pools' product, in product order, as lists
    of columns of at most ``CHUNK`` rows.

    A tuple is canonical when its pool indices do not decrease along the
    positions that share a cluster. The prefixes (every position but the
    last) are walked in blocks of ``CHUNK`` product indices, and each kept
    prefix expands to a run of last-position indices: from its index at the
    previous position of the last one's cluster (or 0) to the end of the pool.
    A block's runs, laid end to end, are cut into pieces of ``CHUNK`` rows.
    """
    *heads, last = pools
    width = len(last)
    if not heads:
        for lo in range(0, width, CHUNK):
            yield [last[lo : lo + CHUNK]]
        return
    # link each position to the previous one of its cluster; the last
    # position's link is where its runs start
    seen, previous = {}, {}
    for j, c in enumerate(clusters):
        if c in seen:
            previous[j] = seen[c]
        seen[c] = j
    before = previous.pop(len(heads), None)
    shape = tuple(len(pool) for pool in heads)
    count = prod(shape)
    for lo in range(0, count, CHUNK):
        ix = np.unravel_index(np.arange(lo, min(lo + CHUNK, count)), shape)
        if previous:
            keep = np.logical_and.reduce([ix[i] <= ix[j] for j, i in previous.items()])
            if not keep.any():
                continue
            ix = [i[keep] for i in ix]
        # kept prefix p's run starts at ix[before][p] and fills block rows up to ends[p]
        ends = np.cumsum(width - ix[before] if before is not None else np.full(len(ix[0]), width))
        cols = [pool[i] for pool, i in zip(heads, ix)]
        rows = int(ends[-1])
        for piece in range(0, rows, CHUNK):
            row = np.arange(piece, min(piece + CHUNK, rows))
            p = np.searchsorted(ends, row, side="right")
            yield [col[p] for col in cols] + [last[row + (width - ends[p])]]
