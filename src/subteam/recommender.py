"""Within-cluster replacement search.

Candidate tuples are drawn from one pool per departing member, so a search
touches at most (largest pool)^(departing size) tuples instead of the whole
network. :func:`recommend` builds the pools, each departing member's hard
cluster keyed by its cluster id, and :func:`_search` walks any pools: it
reads their keys and ids alone, never the clusters. A tuple's candidate is
its set of members outside the original team, so the recommended set is
never larger than the departing one. Positions with equal keys draw from one
pool, and only the tuples whose pool indices do not decrease along each such
group are scored: every member multiset is scored once. Those tuples are
generated directly: the product of every position but the last is walked in
numpy blocks of ``CHUNK`` prefixes, each kept prefix expands to a run of
last-position indices, and the runs are scored in pieces of ``CHUNK`` rows,
so memory stays bounded whatever the tuple count. Tuples hold global node
ids and are scored against the model's zero-padded embeddings
(``ClusterModel.padded``), whose zero row at id n stands for team members and
repeats, so a query builds no table of its own. A cluster pool is a
read-only ascending id array in ``ClusterModel.containers``, built once with
the model, and a query only blanks the team members in a copy, once per key.
Every piece gathers its rows into two buffers the query allocates once, at
``min(CHUNK, product size)`` rows, and sums them in place; a piece of
one-member tuples is scored on its rows as they are, since dividing a row by
1 is exact. The count of product tuples that keep a member is the product's
size minus the tuples drawn only from team members, so it is known before
the walk. A search over more than ``DEFAULT_SEARCH_BUDGET`` product tuples
refuses before it starts instead of running for hours.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .encoder import ClusterModel
from .errors import RefusalError, ValidationError
from .graph import SocialNetwork, Team, remainder
from .objectives import cosine_rows, team_embedding

# counts product tuples: with 215-node clusters and 32-wide embeddings on one
# core, r=3 members departing from three clusters take 0.16-0.2 us per tuple
# (about 2 s), and from one shared cluster, which scores one tuple in six,
# 0.03 us per tuple (0.3 s)
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
    baseline. It holds no timing: a caller that wants one times the whole call.
    """

    subteam: tuple[int, ...] | None
    similarity: float | None
    candidates_examined: int

    @property
    def found(self) -> bool:
        return self.subteam is not None


def recommend(
    team: Team,
    departing: Team,
    model: ClusterModel,
    net: SocialNetwork,
) -> ReplacementResult:
    """Best replacement set from the departing members' clusters.

    Each departing member's pool is its hard cluster (``model.containers``),
    keyed by cluster id, and :func:`_search` enumerates the pools' product
    (lexicographically over each pool's ascending ids), drops original-team
    members from each tuple, and scores each tuple's remaining member set by
    cosine against the remaining-team embedding. Ties keep the first
    candidate in enumeration order. Within a pool that several positions
    share (equal keys: departing members of one cluster), each member
    multiset is scored once, in product order, at the tuple whose pool
    indices do not decrease along the shared positions. That tuple comes
    first among the multiset's orderings, which all get the identical score,
    so skipping the others never changes the answer. The scored tuples are
    generated in product order, as a run of last-position indices behind
    each kept prefix, and scored in pieces of at most ``CHUNK`` rows.
    ``candidates_examined`` counts every product tuple that keeps at least
    one member, duplicates included: the product's size minus the product of
    each pool's team-member count. Refuses with :class:`RefusalError`, before
    enumerating anything, when the product holds more than
    ``DEFAULT_SEARCH_BUDGET`` tuples; the inputs are checked by
    :meth:`Team.validate_for` and :func:`subteam.graph.remainder`.
    """
    team.validate_for(net)
    remaining = remainder(team, departing)
    if model.n != net.n:
        raise ValidationError(f"model covers {model.n} nodes, network has {net.n}")
    pools = [(c, model.containers[c]) for c in model.hard.take(departing.members).tolist()]
    return _search(team, remaining, pools, model)


def _search(team: Team, remaining: tuple, pools: list, model: ClusterModel) -> ReplacementResult:
    """:func:`recommend`'s search over ``pools``: one ``(key, ascending array of ids below n)``
    pair per position, unchecked; positions with equal keys hold one array and draw each
    multiset once."""
    total = prod(len(pool) for _, pool in pools)
    if total > DEFAULT_SEARCH_BUDGET:
        raise RefusalError(
            f"within-cluster search over {total} tuples exceeds budget {DEFAULT_SEARCH_BUDGET}"
        )
    reference = team_embedding(remaining, model.embeddings)

    # Pools hold global node ids into ``model.padded``, whose zero row
    # ``blank = n`` stands for team members and repeats.
    z, blank = model.padded, model.n
    members = np.asarray(team.members, dtype=np.intp)
    blanked, in_team = {}, {}
    for key, pool in dict(pools).items():
        # the sorted members hold a pool id exactly where it would be inserted
        hit = members.take(members.searchsorted(pool), mode="clip") == pool
        blanked[key] = np.where(hit, blank, pool)
        in_team[key] = int(np.count_nonzero(hit))
    keys = [key for key, _ in pools]
    # a tuple keeps no member exactly when every position draws a team member
    examined = total - prod(in_team[key] for key in keys)

    # every piece's sums and gathers go into these, so a query allocates its rows
    # once; takes use mode="clip" because the ids are checked when the model is
    # built, and the default mode copies through a temporary when given ``out``
    sums, gathered = np.empty((2, min(CHUNK, total), z.shape[1]))
    best_row: list[int] | None = None
    best_score = -np.inf
    for cols in _canonical_pieces([blanked[key] for key in keys], keys):
        # sort each tuple with a bubble-sort network over the columns, then blank repeats
        for end in range(len(cols) - 1, 0, -1):
            for j in range(end):
                low, high = cols[j], cols[j + 1]
                cols[j], cols[j + 1] = np.minimum(low, high), np.maximum(low, high)
        for j in range(len(cols) - 1, 0, -1):
            cols[j] = np.where(cols[j] == cols[j - 1], blank, cols[j])
        means = sums[: len(cols[0])]
        z.take(cols[0], axis=0, out=means, mode="clip")
        if len(cols) == 1:  # a one-member mean is its row: dividing by 1 is exact
            empty = cols[0] == blank
        else:
            # team_embedding's arithmetic: the rows summed in member order, then
            # divided by the count; adding the blank row's zeros is exact
            counts = sum(col < blank for col in cols)
            row = gathered[: len(means)]
            for col in cols[1:]:
                z.take(col, axis=0, out=row, mode="clip")
                means += row
            means /= np.maximum(counts, 1)[:, None]
            empty = counts == 0
        scores = cosine_rows(reference, means)
        scores[empty] = -np.inf
        first = int(scores.argmax())
        if scores[first] > best_score:
            best_score = scores[first]
            best_row = [int(col[first]) for col in cols]
    if best_row is None:
        return ReplacementResult(None, None, examined)
    return ReplacementResult(tuple(v for v in best_row if v < blank), float(best_score), examined)


def _canonical_pieces(pools: list[np.ndarray], keys: list):
    """The canonical tuples of the pools' product, in product order, as lists
    of columns of at most ``CHUNK`` rows.

    A tuple is canonical when its pool indices do not decrease along the
    positions that share a key. The prefixes (every position but the
    last) are walked in blocks of ``CHUNK`` product indices, and each kept
    prefix expands to a run of last-position indices: from its index at the
    previous position of the last one's key (or 0) to the end of the pool.
    A block's runs, laid end to end, are cut into pieces of ``CHUNK`` rows.
    """
    *heads, last = pools
    width = len(last)
    if not heads:
        for lo in range(0, width, CHUNK):
            yield [last[lo : lo + CHUNK]]
        return
    # link each position to the previous one of its key; the last
    # position's link is where its runs start
    seen, previous = {}, {}
    for j, key in enumerate(keys):
        if key in seen:
            previous[j] = seen[key]
        seen[key] = j
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
        cols = [pool[i] for pool, i in zip(heads, ix)]
        # kept prefix p's run starts at its linked index (or 0) and fills block rows up to ends[p]
        start = np.zeros_like(ix[0]) if before is None else ix[before]
        ends = np.cumsum(width - start)
        rows = int(ends[-1])
        for piece in range(0, rows, CHUNK):
            row = np.arange(piece, min(piece + CHUNK, rows))
            p = np.searchsorted(ends, row, side="right")
            i = row + (width - ends[p])
            yield [col[p] for col in cols] + [last[i]]
