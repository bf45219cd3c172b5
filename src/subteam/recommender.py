"""Within-cluster replacement search.

Candidate tuples are drawn from the clusters of the departing members, so a
search touches at most (largest cluster)^(departing size) tuples instead of
the whole network. A tuple's candidate is its set of members outside the
original team, so the recommended set is never larger than the departing one.
The product is walked in numpy blocks of ``CHUNK`` tuples, so memory stays
bounded whatever the tuple count. Departing members that share a cluster draw
from one pool, so a block scores only the tuples whose pool indices do not
decrease along each such group: every member multiset is scored once. The
count of product tuples that keep a member is the product's size minus the
tuples drawn only from team members, so it is known before the walk. A
search over more than ``DEFAULT_SEARCH_BUDGET`` product tuples refuses before
it starts instead of running for hours.
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

# counts product tuples: about 5 s at 0.5 us per tuple when r=3 members depart
# from three clusters (32-wide embeddings, one core), 1 s from one shared cluster
DEFAULT_SEARCH_BUDGET = 10_000_000
# product tuples per numpy block; a search holds O(CHUNK * (r + d)) values at once
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
    answer. ``candidates_examined`` counts every product tuple that keeps at
    least one member, duplicates included: the product's size minus the
    product of each pool's team-member count. Refuses with
    :class:`RefusalError`, before enumerating anything, when the product
    holds more than ``DEFAULT_SEARCH_BUDGET`` tuples.
    """
    team.validate_for(net)
    remaining = _check_replacement_inputs(team, departing)
    if model.n != net.n:
        raise ValidationError(f"model covers {model.n} nodes, network has {net.n}")
    clusters = [int(model.hard[t]) for t in departing]
    pools = [model.containers[c] for c in clusters]
    shape = tuple(len(pool) for pool in pools)
    total = prod(shape)
    if total > DEFAULT_SEARCH_BUDGET:
        raise RefusalError(
            f"within-cluster search over {total} tuples exceeds budget {DEFAULT_SEARCH_BUDGET}"
        )
    z = model.embeddings
    reference = team_embedding(remaining, z)

    start = time.perf_counter()
    # Local ids index a table of the pooled nodes' rows in ascending node order
    # plus one zero row, ``blank``, that stands for team members and repeats.
    pools = [np.asarray(pool, dtype=np.intp) for pool in pools]
    nodes = np.sort(np.concatenate(pools))
    nodes = nodes[np.concatenate(([True], nodes[1:] != nodes[:-1]))]
    blank = len(nodes)
    table = np.zeros((blank + 1, z.shape[1]))
    table[:blank] = z[nodes]
    members = np.asarray(team.members, dtype=np.intp)
    at = np.minimum(np.searchsorted(members, nodes), len(members) - 1)
    local = np.where(members[at] == nodes, blank, np.arange(blank))
    local_pools = [local[np.searchsorted(nodes, pool)] for pool in pools]
    # a tuple keeps no member exactly when every position draws a team member
    examined = total - prod(int(np.count_nonzero(pool == blank)) for pool in local_pools)
    # departing members that share a cluster draw from one pool; link each
    # position to the previous one of its group
    links = []
    for j, c in enumerate(clusters):
        group = [i for i in range(j) if clusters[i] == c]
        if group:
            links.append((group[-1], j))

    best_row: list[int] | None = None
    best_score = -np.inf
    for lo in range(0, total, CHUNK):
        ix = np.unravel_index(np.arange(lo, min(lo + CHUNK, total)), shape)
        if links:
            # keep the canonical tuples: pool indices non-decreasing along each group
            keep = np.logical_and.reduce([ix[prev] <= ix[j] for prev, j in links])
            if not keep.any():
                continue
            ix = [i[keep] for i in ix]
        cols = [pool[i] for pool, i in zip(local_pools, ix)]
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

