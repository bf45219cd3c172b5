"""Within-cluster replacement search.

Candidate tuples are drawn from the clusters of the departing members, so a
search touches at most (largest cluster)^(departing size) tuples instead of
the whole network. A tuple's candidate is its set of members outside the
original team, so the recommended set is never larger than the departing one.
The product is scored in numpy blocks of ``CHUNK`` tuples, so memory stays
bounded whatever the tuple count; a search over more than
``DEFAULT_SEARCH_BUDGET`` tuples refuses before it starts instead of running
for hours.
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

# about 3 s of scoring at 0.3 us per tuple (r=3, 32-wide embeddings, one core)
DEFAULT_SEARCH_BUDGET = 10_000_000
# tuples scored per numpy block; a search holds O(CHUNK * (r + d)) values at once
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
    first candidate in enumeration order. Tuples that name the same member
    set are scored again rather than skipped: they get the identical score,
    so they never change the answer, and ``candidates_examined`` counts every
    tuple that kept at least one member, duplicates included. Refuses with
    :class:`RefusalError`, before enumerating anything, when the product holds
    more than ``DEFAULT_SEARCH_BUDGET`` tuples.
    """
    team.validate_for(net)
    remaining = _check_replacement_inputs(team, departing)
    if model.n != net.n:
        raise ValidationError(f"model covers {model.n} nodes, network has {net.n}")
    pools = [model.containers[int(model.hard[t])] for t in departing]
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

    examined = 0
    best_row: list[int] | None = None
    best_score = -np.inf
    for lo in range(0, total, CHUNK):
        flat = np.arange(lo, min(lo + CHUNK, total))
        cols = [pool[ix] for pool, ix in zip(local_pools, np.unravel_index(flat, shape))]
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
        examined += int(np.count_nonzero(counts))
        first = int(np.argmax(scores))
        if scores[first] > best_score:
            best_score = scores[first]
            best_row = [int(col[first]) for col in cols]
    elapsed_ms = (time.perf_counter() - start) * 1e3
    if best_row is None:
        return ReplacementResult(
            subteam=None, similarity=None, candidates_examined=examined, elapsed_ms=elapsed_ms
        )
    return ReplacementResult(
        subteam=tuple(int(nodes[v]) for v in best_row if v < blank),
        similarity=float(best_score),
        candidates_examined=examined,
        elapsed_ms=elapsed_ms,
    )

