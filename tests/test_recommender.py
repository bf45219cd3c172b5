import dataclasses
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import net_from_dense
from oracles import exhaustive_oracle
from subteam import recommender
from subteam.encoder import ClusterModel, build_containers, init_params
from subteam.errors import RefusalError, ValidationError
from subteam.graph import SocialNetwork, Team, generate_synthetic
from subteam.objectives import cosine
from subteam.recommender import recommend


def rig_model(z: np.ndarray, hard, clusters: int) -> ClusterModel:
    """Cluster model with prescribed hard assignments (soft rows one-hot)."""
    hard = np.asarray(hard, dtype=int)
    soft = np.zeros((len(hard), clusters))
    soft[np.arange(len(hard)), hard - 1] = 1.0
    return ClusterModel(
        embeddings=np.asarray(z, dtype=float),
        soft=soft,
        hard=hard,
        containers=build_containers(hard, clusters),
    )


def blank_net(n, d=2):
    return net_from_dense(np.zeros((n, n)), np.ones((n, d)))


def count_scored_rows(monkeypatch) -> list[int]:
    """Record the row count of every ``cosine_rows`` call the search makes."""
    rows = []
    score = recommender.cosine_rows

    def counting(u, vs):
        rows.append(len(vs))
        return score(u, vs)

    monkeypatch.setattr(recommender, "cosine_rows", counting)
    return rows


def product_search_oracle(team, departing, model):
    """Independent re-enumeration of the per-member cluster product semantics.

    Returns the best member set, its score, and the count of tuples that kept
    at least one member outside the team.
    """
    z = model.embeddings
    team_set = set(team.members)
    rem = sorted(team_set - set(departing.members))
    r = z[rem].mean(axis=0)
    pools = [model.containers[int(model.hard[t])] for t in departing]
    best, best_score, examined = None, -math.inf, 0
    for tup in itertools.product(*pools):
        members = tuple(sorted(set(tup) - team_set))
        if not members:
            continue
        examined += 1
        score = cosine(r, z[list(members)].mean(axis=0))
        if score > best_score:
            best, best_score = members, score
    return best, best_score, examined


def random_pool_instance(seed: int):
    """Random hard clusters for 1-4 departing members: departing members that
    share a cluster, cluster ids that hold no node, team members inside the
    pools, and tied and zero embedding rows."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 16))
    z = rng.normal(size=(n, int(rng.integers(1, 5))))
    if rng.random() < 0.3:
        z = np.round(z, 1)  # exact ties between member sets
    z[rng.random(n) < 0.1] = 0.0
    team = Team(tuple(rng.choice(n, size=int(rng.integers(2, 7)), replace=False)))
    r = int(rng.integers(1, min(4, len(team) - 1) + 1))
    departing = Team(tuple(rng.choice(team.members, size=r, replace=False)))
    used = r + int(rng.integers(0, 3))  # at least r ids spread over the nodes keep pools small
    hard = rng.integers(1, used + 1, size=n)
    # the departing members draw from fewer clusters than they number: some share one
    hard[list(departing.members)] = rng.integers(1, int(rng.integers(1, r + 1)) + 1, size=r)
    clusters = used + int(rng.integers(0, 3))  # ids above the drawn ones hold no node
    return team, departing, rig_model(z, hard, clusters), blank_net(n)


class TestRecommend:
    def test_result_holds_no_timing(self):
        # callers time a search; the result carries its outcome alone
        names = [f.name for f in dataclasses.fields(recommender.ReplacementResult)]
        assert names == ["subteam", "similarity", "candidates_examined"]

    def test_forced_unique_candidate(self):
        # each departing member's cluster holds exactly one non-team node
        z = np.array([[1.0, 0], [0, 1], [1, 1], [2, 2], [0.5, 0.5]])
        hard = [1, 2, 1, 2, 1]  # node 4 shares cluster 1 with nodes 0, 2
        model = rig_model(z, hard, 2)
        net = blank_net(5)
        result = recommend(Team((0, 2)), Team((0,)), model, net)
        assert result.found and result.subteam == (4,)

    def test_same_cluster_departures_can_shrink(self):
        # both departing members in cluster 1; the only outsider is node 3,
        # so every surviving tuple dedups to {3}
        z = np.array([[1.0, 0], [1, 0], [1, 0], [1, 0]])
        model = rig_model(z, [1, 1, 1, 1], 2)
        net = blank_net(4)
        result = recommend(Team((0, 1, 2)), Team((0, 1)), model, net)
        assert result.subteam == (3,)
        assert len(result.subteam) < 2

    def test_no_candidate_when_clusters_inside_team(self):
        z = np.eye(3)
        model = rig_model(z, [1, 1, 2], 2)
        net = blank_net(3)
        # departing node 0's cluster is {0, 1}, both in the team
        result = recommend(Team((0, 1, 2)), Team((0,)), model, net)
        assert not result.found
        assert result.subteam is None and result.similarity is None
        assert result.candidates_examined == 0

    def test_candidate_count_accounting(self):
        # pools: cluster1 = {0,1,4,5}, cluster2 = {2,6}; team = {0,1,2,3}
        z = np.random.default_rng(0).normal(size=(7, 3))
        model = rig_model(z, [1, 1, 2, 3, 1, 1, 2], 3)
        net = blank_net(7)
        result = recommend(Team((0, 1, 2, 3)), Team((0, 2)), model, net)
        pools = [model.containers[int(model.hard[t])] for t in (0, 2)]
        total = len(pools[0]) * len(pools[1])
        skipped = sum(
            1
            for tup in itertools.product(*pools)
            if not (set(tup) - {0, 1, 2, 3})
        )
        assert result.candidates_examined == total - skipped

    @pytest.mark.parametrize(
        "containers",
        [
            {1: [1, 0], 2: [2, 3]},
            {1: [0, 1, 2], 2: [3]},
            {1: [0, 1], 2: [2, 3, 4]},
            {1: [-1, 0, 1], 2: [2, 3]},
            {1: [0, 1], 2: [2, 3.0]},
            {1: [0, 1], 2: [2, 2.5]},
            {1: [0, 1], 2: ["2", "3"]},
            {1: [0, 1]},
            {1: [0, 1], 2: [2, 3], 3: []},
        ],
        ids=[
            "unsorted", "wrong-cluster", "node-n", "negative-node", "float-node",
            "fractional-node", "string-node", "missing-cluster", "extra-cluster",
        ],
    )
    def test_containers_other_than_the_hard_clusters_rejected(self, containers):
        # id n would read the zero row that stands for team members, and a pool
        # that left out a member's own node would hide it from the search
        with pytest.raises(ValidationError, match="containers differ from the hard clusters 1..2"):
            ClusterModel(np.eye(4), np.eye(2)[[0, 0, 1, 1]], [1, 1, 2, 2], containers)

    @pytest.mark.parametrize(
        "hard, soft_rows, pool, match",
        [
            ([1, 1, 3, 2], 4, [2, 3], "cluster ids 1..3 outside 1..2"),
            ([1, 2], 4, [2, 3], "hard must be a 1-D integer array of length 4"),
            ([[1, 1, 2, 2]], 4, [2, 3], "hard must be a 1-D integer array of length 4"),
            ([1.0, 1.0, 2.0, 2.0], 4, [2, 3], "hard must be a 1-D integer array of length 4"),
            ([1, 1, 2, 2], 3, [2, 3], "soft must have 4 rows"),
        ],
        ids=["unknown-cluster", "too-short", "2-D", "float", "soft-rows"],
    )
    def test_model_parts_that_do_not_fit_rejected(self, hard, soft_rows, pool, match):
        # a cluster id past soft's width would have no pool, and a short hard made
        # recommend raise IndexError
        containers = {1: [0, 1], 2: pool}
        with pytest.raises(ValidationError, match=match):
            ClusterModel(np.eye(4), np.tile([1.0, 0.0], (soft_rows, 1)), hard, containers)

    @pytest.mark.parametrize("big", [1e155, 1e300, np.inf, np.nan])
    def test_embeddings_whose_sum_of_squares_is_not_finite_rejected(self, big):
        # a finite entry whose square overflows made every cosine NaN, and a NaN
        # score never beats the best, so the search reported no candidate
        z = np.eye(4)
        z[0, 0] = big
        with pytest.raises(ValidationError, match="sum of squares is not finite"):
            ClusterModel(z, np.tile([1.0, 0.0], (4, 1)), np.ones(4, dtype=int), {1: [0, 1, 2, 3]})

    def test_containers_cannot_be_edited_after_construction(self):
        # node 4 would read the zero row that stands for team members
        containers = {1: [0, 1], 2: [2, 3]}
        model = ClusterModel(np.eye(4), np.eye(2)[[0, 0, 1, 1]], [1, 1, 2, 2], containers)
        team, departing, net = Team((0, 2)), Team((2,)), blank_net(4)
        before = recommend(team, departing, model, net)
        containers[2].append(4)
        with pytest.raises(ValueError):
            model.containers[2][0] = 4
        with pytest.raises(TypeError):
            model.containers[2] = np.array([2, 3, 4])
        after = recommend(team, departing, model, net)
        assert model.containers[2].tolist() == [2, 3]
        assert (after.subteam, after.candidates_examined) == (before.subteam, before.candidates_examined) == ((3,), 1)

    def test_departing_must_be_strict_subset(self):
        z = np.eye(4)
        model = rig_model(z, [1, 1, 2, 2], 2)
        net = blank_net(4)
        with pytest.raises(ValidationError):
            recommend(Team((0, 1)), Team((0, 1)), model, net)
        with pytest.raises(ValidationError):
            recommend(Team((0, 1)), Team((2,)), model, net)

    def test_result_never_intersects_team(self):
        rng = np.random.default_rng(3)
        for trial in range(30):
            n = 12
            z = rng.normal(size=(n, 4))
            hard = rng.integers(1, 4, size=n)
            model = rig_model(z, hard, 3)
            net = blank_net(n)
            team = Team(tuple(rng.choice(n, size=5, replace=False)))
            departing = Team(team.members[:2])
            result = recommend(team, departing, model, net)
            if result.found:
                assert not set(result.subteam) & set(team.members)
                assert len(result.subteam) <= len(departing)

    def test_matches_product_semantics_oracle_mixed_clusters(self):
        rng = np.random.default_rng(17)
        for trial in range(40):
            n = 14
            z = rng.normal(size=(n, 3))
            hard = rng.integers(1, 5, size=n)
            model = rig_model(z, hard, 4)
            net = blank_net(n)
            team = Team(tuple(rng.choice(n, size=6, replace=False)))
            departing = Team(tuple(rng.choice(team.members, size=2, replace=False)))
            result = recommend(team, departing, model, net)
            expected_members, expected_score, _ = product_search_oracle(team, departing, model)
            if expected_members is None:
                assert not result.found
            else:
                assert result.similarity == expected_score
                assert result.subteam == expected_members

    def test_tie_keeps_first_in_enumeration_order(self):
        # nodes 2 and 3 have identical embeddings; 2 enumerates first
        z = np.array([[1.0, 0], [0, 1], [1, 1], [1, 1]])
        model = rig_model(z, [1, 2, 1, 1], 2)
        net = blank_net(4)
        result = recommend(Team((0, 1)), Team((0,)), model, net)
        assert result.subteam == (2,)

    @pytest.mark.parametrize("chunk", [recommender.CHUNK, 7])
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_chunked_search_equals_product_oracle(self, chunk, seed):
        team, departing, model, net = random_pool_instance(seed)
        with mock.patch.object(recommender, "CHUNK", chunk):
            result = recommend(team, departing, model, net)
        members, score, examined = product_search_oracle(team, departing, model)
        assert result.subteam == members
        assert result.candidates_examined == examined
        if members is None:
            assert result.similarity is None
        else:
            assert result.similarity == score

    def test_tie_across_chunk_boundary_keeps_the_earlier(self, monkeypatch):
        # pool 0..9: tuples 6 and 7 straddle the boundary of 7-tuple chunks and
        # tie exactly at the top score
        monkeypatch.setattr(recommender, "CHUNK", 7)
        z = np.full((11, 2), 0.1)
        z[:, 1] = np.linspace(0.5, 1.5, 11)
        z[6] = z[7] = [1.0, 0.0]
        z[10] = [1.0, 0.0]  # the remaining team
        model = rig_model(z, [1] * 10 + [2], 2)
        net = blank_net(11)
        result = recommend(Team((0, 10)), Team((0,)), model, net)
        assert result.subteam == (6,)
        assert result.similarity == 1.0
        assert result.candidates_examined == 9

    def test_peak_memory_set_by_chunk_not_by_tuple_count(self):
        # three 60-node clusters, one departing member in each: 216k tuples
        d = 8
        z = np.random.default_rng(5).normal(size=(181, d))
        model = rig_model(z, np.repeat([1, 2, 3, 4], [60, 60, 60, 1]), 4)
        team, departing = Team((0, 60, 120, 180)), Team((0, 60, 120))
        net = blank_net(181)
        tracemalloc.start()
        try:
            result = recommend(team, departing, model, net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.candidates_examined == 60**3 - 1
        # a few chunk-sized arrays of int64 ids and float64 rows
        bound = 8 * recommender.CHUNK * 8 * (len(departing) + d)
        assert peak < bound < 60**3 * 8 * (len(departing) + d) / 10

    def test_peak_memory_set_by_chunk_for_one_shared_pool(self):
        # all three departing members in one 150-node cluster: 3,375,000 tuples
        d = 8
        z = np.random.default_rng(7).normal(size=(151, d))
        model = rig_model(z, np.repeat([1, 2], [150, 1]), 2)
        team, departing = Team((0, 1, 2, 150)), Team((0, 1, 2))
        net = blank_net(151)
        tracemalloc.start()
        try:
            result = recommend(team, departing, model, net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 27 tuples made only of departing members collapse to nothing
        assert result.candidates_examined == 150**3 - 27
        bound = 8 * recommender.CHUNK * 8 * (len(departing) + d)
        assert peak < bound

    def test_peak_memory_set_by_chunk_for_a_large_pool(self):
        # one departing member in a 20,000-node cluster: its one run is about
        # ten pieces long, and the search gathers rows straight from the
        # model's padded embeddings, so it allocates no pool-sized float array
        n, d = 20_000, 16
        z = np.random.default_rng(10).normal(size=(n + 1, d))
        model = rig_model(z, np.repeat([1, 2], [n, 1]), 2)
        net = SocialNetwork(adjacency=sp.csr_array((n + 1, n + 1)), features=sp.csr_array((n + 1, 1)))
        team, departing = Team((0, n)), Team((0,))
        tracemalloc.start()
        try:
            result = recommend(team, departing, model, net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.candidates_examined == n - 1
        bound = 8 * recommender.CHUNK * 8 * (len(departing) + d)
        assert peak < bound

    def test_budget_refuses_before_enumerating(self, monkeypatch):
        z = np.random.default_rng(6).normal(size=(9, 3))
        model = rig_model(z, [1, 1, 1, 2, 2, 2, 3, 3, 3], 3)
        net = blank_net(9)
        team, departing = Team((0, 3, 6)), Team((0, 3))  # 3 * 3 tuples
        monkeypatch.setattr(recommender, "DEFAULT_SEARCH_BUDGET", 9)
        assert recommend(team, departing, model, net).found
        monkeypatch.setattr(recommender, "DEFAULT_SEARCH_BUDGET", 8)
        with pytest.raises(RefusalError, match="9 tuples exceeds budget 8"):
            recommend(team, departing, model, net)

    @pytest.mark.parametrize(
        "departing, scored",
        [
            ((0, 1, 2), math.comb(22, 3)),  # 1540 multisets of 20 nodes, not 8000 tuples
            ((0, 1, 20), math.comb(21, 2) * 20),  # 210 pairs of one pool times 20
            ((0,), 20),
        ],
        ids=["r3-one-cluster", "r3-two-clusters", "r1"],
    )
    def test_each_multiset_is_scored_once(self, monkeypatch, departing, scored):
        # clusters 0-19 and 20-39; node 40, alone in a third, stays in the team
        rows = count_scored_rows(monkeypatch)
        z = np.random.default_rng(8).normal(size=(41, 4))
        model = rig_model(z, np.repeat([1, 2, 3], [20, 20, 1]), 3)
        team = Team((*departing, 40))
        result = recommend(team, Team(departing), model, blank_net(41))
        assert sum(rows) == scored
        assert result.candidates_examined == product_search_oracle(team, Team(departing), model)[2]

    @pytest.mark.parametrize("chunk", [recommender.CHUNK, 7])
    def test_tie_rule_with_interleaved_groups(self, monkeypatch, chunk):
        # departing 1, 3, 5 sit in clusters A, B, A in position order; A has
        # 10 nodes and B 3, so 7-tuple chunks from flat index 280 keep none
        monkeypatch.setattr(recommender, "CHUNK", chunk)
        rows = count_scored_rows(monkeypatch)
        hard = [1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 2, 2, 3]
        z = np.random.default_rng(9).normal(size=(14, 2))
        # nodes 8 (in A) and 11 (in B) duplicate the remaining member's row, so
        # {8}, {11} and {8, 11} tie at the top; the first tie is the tuple
        # (1, 3, 8), which collapses onto team members 1 and 3 (the blank row)
        z[8] = z[11] = z[13] = [0.9, 0.3]
        model = rig_model(z, hard, 3)
        team, departing = Team((1, 3, 5, 13)), Team((1, 3, 5))
        result = recommend(team, departing, model, blank_net(14))
        members, score, examined = product_search_oracle(team, departing, model)
        assert members == (8,)
        assert result.subteam == members
        assert result.similarity == score
        assert result.candidates_examined == examined
        if chunk == 7:
            assert len(rows) < math.ceil(10 * 3 * 10 / chunk)  # a chunk was emptied

    def test_one_shared_cluster_is_scored_in_one_block(self, monkeypatch):
        # r=3 inside one 20-node cluster: 210 kept prefixes whose runs hold all
        # 1,540 multisets fit in one piece of CHUNK rows
        rows = count_scored_rows(monkeypatch)
        z = np.random.default_rng(8).normal(size=(21, 4))
        model = rig_model(z, np.repeat([1, 2], [20, 1]), 2)
        recommend(Team((0, 1, 2, 20)), Team((0, 1, 2)), model, blank_net(21))
        assert rows == [math.comb(22, 3)]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_container_type_does_not_change_the_answer(self, seed):
        # lists, tuples and int32 arrays equal to the hard clusters give identical answers
        team, departing, model, net = random_pool_instance(seed)
        answers = set()
        for kind in (list, tuple, lambda nodes: np.array(nodes, dtype=np.int32)):
            containers = {c: kind(nodes.tolist()) for c, nodes in model.containers.items()}
            rebuilt = ClusterModel(model.embeddings, model.soft, model.hard, containers)
            result = recommend(team, departing, rebuilt, net)
            members, score, examined = product_search_oracle(team, departing, rebuilt)
            assert result.subteam == members
            assert result.similarity == (None if members is None else score)
            assert result.candidates_examined == examined
            bits = None if result.similarity is None else result.similarity.hex()
            answers.add((result.subteam, result.candidates_examined, bits))
        assert len(answers) == 1

    @pytest.mark.parametrize("chunk", [1, 3])
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_run_pieces_equal_product_oracle(self, chunk, seed):
        # blocks of 1-3 prefixes, and runs split across pieces of 1 or 3 rows
        team, departing, model, net = random_pool_instance(seed)
        with mock.patch.object(recommender, "CHUNK", chunk):
            result = recommend(team, departing, model, net)
        members, score, examined = product_search_oracle(team, departing, model)
        assert result.subteam == members
        assert result.similarity == (None if members is None else score)
        assert result.candidates_examined == examined


class TestExhaustiveOracle:
    def test_single_candidate(self):
        z = np.eye(3)
        model = rig_model(z, [1, 1, 2], 2)
        net = blank_net(3)
        result = exhaustive_oracle(Team((0, 1)), Team((0,)), model, net, [2], 1)
        assert result.subteam == (2,)

    def test_zero_max_size_refused(self):
        z = np.eye(3)
        model = rig_model(z, [1, 1, 2], 2)
        with pytest.raises(RefusalError):
            exhaustive_oracle(Team((0, 1)), Team((0,)), model, blank_net(3), [2], 0)

    def test_subset_counting(self):
        # 8 candidates, max size 2 -> 8 + 28 = 36 subsets examined
        n = 10
        z = np.random.default_rng(1).normal(size=(n, 3))
        model = rig_model(z, np.ones(n, dtype=int), 1)
        net = blank_net(n)
        result = exhaustive_oracle(
            Team((8, 9)), Team((8,)), model, net, list(range(8)), 2
        )
        assert result.candidates_examined == 36

    def test_budget_refusal(self):
        n = 30
        z = np.random.default_rng(2).normal(size=(n, 3))
        model = rig_model(z, np.ones(n, dtype=int), 1)
        with pytest.raises(RefusalError, match="budget"):
            exhaustive_oracle(
                Team((0, 1)), Team((0,)), model, blank_net(n), list(range(2, 30)), 3, budget=100
            )

    def test_team_members_filtered_from_space(self):
        z = np.random.default_rng(3).normal(size=(5, 3))
        model = rig_model(z, np.ones(5, dtype=int), 1)
        net = blank_net(5)
        result = exhaustive_oracle(Team((0, 1)), Team((0,)), model, net, [0, 1, 2], 1)
        assert result.subteam == (2,)
        assert result.candidates_examined == 1

    def test_lexicographic_tie_break(self):
        z = np.array([[1.0, 0], [0, 1], [1, 1], [1, 1], [1, 1]])
        model = rig_model(z, np.ones(5, dtype=int), 1)
        net = blank_net(5)
        # candidates 3 and 4 tie; lexicographically smaller member list wins
        result = exhaustive_oracle(Team((0, 1)), Team((0,)), model, net, [4, 3], 1)
        assert result.subteam == (3,)


class TestOracleEquivalence:
    def test_same_cluster_equivalence_on_synthetic_instances(self):
        rng = np.random.default_rng(23)
        checked = 0
        trials = 0
        while checked < 30 and trials < 400:
            trials += 1
            n = int(rng.integers(12, 30))
            d = 8
            net, _ = generate_synthetic(
                n=n if n % 4 == 0 else (n // 4) * 4,
                d=d,
                k_planted=4,
                p_in=0.7,
                p_out=0.1,
                teams=0,
                seed=int(rng.integers(1 << 30)),
            )
            params = init_params(d, (6, 4), 4, np.random.default_rng(int(rng.integers(1 << 30))))
            model = ClusterModel.build(net, params)
            nodes = np.arange(net.n)
            team = Team(tuple(rng.choice(nodes, size=5, replace=False)))
            # draw departing members assigned to one shared cluster
            by_cluster = {}
            for t in team.members:
                by_cluster.setdefault(int(model.hard[t]), []).append(t)
            shared = [ids for ids in by_cluster.values() if 2 <= len(ids) < len(team)]
            if not shared:
                continue
            departing = Team(tuple(shared[0][:2]))
            result = recommend(team, departing, model, net)
            union_space = sorted(
                set().union(*(model.containers[int(model.hard[t])] for t in departing))
                - set(team.members)
            )
            if not union_space:
                assert not result.found
                continue
            oracle = exhaustive_oracle(
                team, departing, model, net, union_space, len(departing)
            )
            assert result.similarity == oracle.similarity
            checked += 1
        assert checked >= 30

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_size_bound_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 16))
        clusters = int(rng.integers(2, 5))
        z = rng.normal(size=(n, 3))
        hard = rng.integers(1, clusters + 1, size=n)
        model = rig_model(z, hard, clusters)
        net = blank_net(n)
        team_size = int(rng.integers(3, min(n, 7)))
        team = Team(tuple(rng.choice(n, size=team_size, replace=False)))
        dep_size = int(rng.integers(1, team_size))
        departing = Team(tuple(rng.choice(team.members, size=dep_size, replace=False)))
        result = recommend(team, departing, model, net)
        if result.found:
            assert 1 <= len(result.subteam) <= len(departing)
            assert -1 - 1e-12 <= result.similarity <= 1 + 1e-12
