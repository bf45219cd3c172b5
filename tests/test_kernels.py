import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import net_from_dense
from oracles import (
    ged_brute,
    marginalized_dense,
    marginalized_mc,
    random_labeled_graph,
    rw_kernel_dense,
    rw_kernel_series,
    sp_kernel_brute,
)
from subteam.errors import ConvergenceError, RefusalError, ValidationError
from subteam.evaluate import run_comparison
from subteam.graph import LabeledGraph, SocialNetwork, Team, induced_subgraph
from subteam.kernels import (
    BASELINE_BATCH,
    KernelConfig,
    _candidate_graphs,
    _random_walk_scores,
    graph_edit_distance,
    kernel_baseline_replace,
    marginalized_kernel,
    random_walk_kernel,
    shortest_path_kernel,
)

CFG = KernelConfig(decay=0.1)


def single_node(label):
    return LabeledGraph(adjacency=np.zeros((1, 1)), labels=np.array([label], dtype=float))


class TestRandomWalkKernel:
    def test_single_node_matching_labels(self):
        g = single_node([1.0, 0.0])
        assert random_walk_kernel(g, g, CFG) == pytest.approx(1.0)

    def test_single_node_disjoint_labels(self):
        a = single_node([1.0, 0.0])
        b = single_node([0.0, 1.0])
        assert random_walk_kernel(a, b, CFG) == 0.0

    def test_matches_power_series_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g1 = random_labeled_graph(rng, 4, 3)
            g2 = random_labeled_graph(rng, 4, 3)
            val = random_walk_kernel(g1, g2, CFG)
            assert val == pytest.approx(rw_kernel_series(g1, g2, 0.1, 50), abs=1e-8)

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            g1 = random_labeled_graph(rng, 4, 3)
            g2 = random_labeled_graph(rng, 3, 3)
            val = random_walk_kernel(g1, g2, CFG)
            assert val == pytest.approx(rw_kernel_dense(g1, g2, 0.1), abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g1 = random_labeled_graph(rng, 4, 2)
            g2 = random_labeled_graph(rng, 4, 2)
            assert random_walk_kernel(g1, g2, CFG) == pytest.approx(
                random_walk_kernel(g2, g1, CFG), abs=1e-10
            )

    def test_series_monotone_and_convergent(self):
        rng = np.random.default_rng(12)
        g1 = random_labeled_graph(rng, 4, 2)
        g2 = random_labeled_graph(rng, 4, 2)
        values = [rw_kernel_series(g1, g2, 0.1, k) for k in (1, 2, 5, 10, 25, 50)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(random_walk_kernel(g1, g2, CFG), abs=1e-10)

    def test_spectral_guard_raises(self):
        big = LabeledGraph(
            adjacency=np.array([[0.0, 5.0], [5.0, 0.0]]),
            labels=np.full((2, 2), 3.0),
        )
        with pytest.raises(ConvergenceError, match="decay"):
            random_walk_kernel(big, big, KernelConfig(decay=0.5))

    @pytest.mark.parametrize("decay", [0.0, math.nan, math.inf])
    def test_decay_must_be_finite_and_positive(self, decay):
        # a NaN decay would pass the spectral guard and spin the solver to its step cap
        with pytest.raises(ValidationError, match="decay"):
            KernelConfig(decay=decay)

    def test_label_dim_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            random_walk_kernel(single_node([1.0]), single_node([1.0, 0.0]), CFG)


class TestShortestPathKernel:
    def test_single_edge_self_similarity_positive(self):
        g = LabeledGraph(
            adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]),
            labels=np.array([[1.0, 0.0], [0.0, 1.0]]),
        )
        assert shortest_path_kernel(g, g) > 0

    def test_disjoint_label_supports_give_zero(self):
        g1 = LabeledGraph(
            adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]),
            labels=np.array([[1.0, 0.0], [1.0, 0.0]]),
        )
        g2 = LabeledGraph(
            adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]),
            labels=np.array([[0.0, 1.0], [0.0, 1.0]]),
        )
        assert shortest_path_kernel(g1, g2) == 0.0

    def test_path_graph_matches_brute_force(self):
        path = LabeledGraph(
            adjacency=np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float),
            labels=np.array([[1.0, 0.5], [0.2, 1.0], [0.7, 0.7]]),
        )
        assert shortest_path_kernel(path, path) == pytest.approx(
            sp_kernel_brute(path, path), abs=1e-10
        )

    def test_random_pairs_match_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            g1 = random_labeled_graph(rng, 4, 2, edge_p=0.5)
            g2 = random_labeled_graph(rng, 5, 2, edge_p=0.5)
            assert shortest_path_kernel(g1, g2) == pytest.approx(
                sp_kernel_brute(g1, g2), abs=1e-10
            )

    def test_size_cap_refused(self):
        big = LabeledGraph(adjacency=np.zeros((65, 65)), labels=np.ones((65, 1)))
        with pytest.raises(RefusalError):
            shortest_path_kernel(big, big)


class TestMarginalizedKernel:
    def test_single_node_matching_one_hot(self):
        g = single_node([1.0, 0.0])
        for gamma in (0.1, 0.5, 0.9):
            assert marginalized_kernel(g, g, KernelConfig(termination=gamma)) == pytest.approx(1.0)

    def test_disjoint_label_supports_give_zero(self):
        a = single_node([1.0, 0.0])
        b = single_node([0.0, 1.0])
        assert marginalized_kernel(a, b, CFG) == 0.0

    def test_matches_dense_product_space_solve(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            g1 = random_labeled_graph(rng, 3, 2)
            g2 = random_labeled_graph(rng, 4, 2)
            val = marginalized_kernel(g1, g2, KernelConfig(termination=0.3))
            assert val == pytest.approx(marginalized_dense(g1, g2, 0.3), abs=1e-10)

    def test_matches_monte_carlo_estimate(self):
        rng = np.random.default_rng(15)
        g1 = random_labeled_graph(rng, 3, 2)
        g2 = random_labeled_graph(rng, 3, 2)
        gamma = 0.3
        exact = marginalized_kernel(g1, g2, KernelConfig(termination=gamma))
        estimate, se = marginalized_mc(g1, g2, gamma, walks=1_000_000, seed=99)
        assert abs(estimate - exact) <= 3 * se

    def test_divergence_guard(self):
        hot = LabeledGraph(
            adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]),
            labels=np.full((2, 2), 4.0),
        )
        with pytest.raises(ConvergenceError, match="termination"):
            marginalized_kernel(hot, hot, KernelConfig(termination=0.1))


class TestGraphEditDistance:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(16)
        g = random_labeled_graph(rng, 5, 2)
        assert graph_edit_distance(g, g) == 0.0

    def test_single_node_vs_empty(self):
        empty = LabeledGraph(adjacency=np.zeros((0, 0)), labels=np.zeros((0, 2)))
        assert graph_edit_distance(single_node([1.0, 0.0]), empty) == 1.0

    def test_one_edge_difference(self):
        labels = np.ones((3, 2))
        a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        b = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        g1 = LabeledGraph(adjacency=a, labels=labels)
        g2 = LabeledGraph(adjacency=b, labels=labels)
        assert graph_edit_distance(g1, g2) == 1.0

    def test_matches_brute_force_on_small_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(12):
            n1 = int(rng.integers(1, 5))
            n2 = int(rng.integers(1, 5))
            # coarse labels so substitutions sometimes match
            g1 = LabeledGraph(
                adjacency=random_labeled_graph(rng, n1, 1).adjacency.round(),
                labels=rng.integers(0, 2, size=(n1, 2)).astype(float),
            )
            g2 = LabeledGraph(
                adjacency=random_labeled_graph(rng, n2, 1).adjacency.round(),
                labels=rng.integers(0, 2, size=(n2, 2)).astype(float),
            )
            assert graph_edit_distance(g1, g2) == ged_brute(g1, g2)

    def test_metric_properties_on_small_graphs(self):
        rng = np.random.default_rng(18)
        graphs = [
            LabeledGraph(
                adjacency=random_labeled_graph(rng, 3, 1).adjacency.round(),
                labels=rng.integers(0, 2, size=(3, 2)).astype(float),
            )
            for _ in range(4)
        ]
        for g1, g2 in itertools.combinations(graphs, 2):
            d12 = graph_edit_distance(g1, g2)
            d21 = graph_edit_distance(g2, g1)
            assert d12 >= 0
            assert d12 == d21
        for g in graphs:
            assert graph_edit_distance(g, g) == 0.0

    def test_size_cap_refused(self):
        big = LabeledGraph(adjacency=np.zeros((13, 13)), labels=np.ones((13, 1)))
        with pytest.raises(RefusalError):
            graph_edit_distance(big, big)


class TestKernelBaseline:
    @staticmethod
    def small_net(seed=19):
        rng = np.random.default_rng(seed)
        n = 8
        upper = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
        feats = rng.uniform(0, 0.4, size=(n, 3))
        return net_from_dense(upper + upper.T, feats)

    def test_single_combination(self):
        net = self.small_net()
        cfg = KernelConfig(decay=0.01)
        team = Team(tuple(range(7)))  # outside pool = {7}
        result = kernel_baseline_replace(team, Team((0,)), net, cfg, budget=100)
        assert result.subteam == (7,)
        assert result.candidates_examined == 1

    def test_reinjected_departing_member_achieves_self_kernel(self):
        net = self.small_net()
        cfg = KernelConfig(decay=0.01)
        team = Team((0, 1, 2, 3))
        departing = Team((3,))
        original = induced_subgraph(net, team)
        self_kernel = random_walk_kernel(original, original, cfg)
        result = kernel_baseline_replace(team, departing, net, cfg, budget=100)
        # scoring the original team against itself bounds nothing in general,
        # but re-scoring the winner must reproduce its reported similarity
        rebuilt = Team((0, 1, 2) + result.subteam)
        rescored = random_walk_kernel(original, induced_subgraph(net, rebuilt), cfg)
        assert rescored == result.similarity
        if result.subteam == (3,):
            assert result.similarity == pytest.approx(self_kernel)

    def test_agrees_with_independent_reenumeration(self):
        net = self.small_net(seed=20)
        cfg = KernelConfig(decay=0.01)
        team = Team((0, 1, 2))
        departing = Team((1,))
        result = kernel_baseline_replace(team, departing, net, cfg, budget=100)
        original = induced_subgraph(net, team)
        best, best_score = None, -math.inf
        for v in range(net.n):
            if v in team.members:
                continue
            candidate = Team((0, 2, v))
            score = random_walk_kernel(original, induced_subgraph(net, candidate), cfg)
            if score > best_score:
                best, best_score = (v,), score
        assert result.subteam == best
        assert result.similarity == best_score

    def test_budget_refusal(self):
        net = self.small_net()
        with pytest.raises(RefusalError):
            kernel_baseline_replace(
                Team((0, 1)), Team((0,)), net, KernelConfig(decay=0.01), budget=2
            )


class TestBatchedBaseline:
    CFG = KernelConfig(decay=0.01)

    @pytest.mark.parametrize("departing", [(4,), (4, 10), (4, 10, 13)])
    def test_every_batched_score_equals_single_pair_kernel(self, departing):
        rng = np.random.default_rng(21)
        n = 16
        # nearly complete, with real weights, so the rounding depends on node order
        upper = np.triu((rng.random((n, n)) < 0.95) * rng.uniform(0.5, 1.5, (n, n)), 1)
        net = net_from_dense(upper + upper.T, rng.uniform(0, 0.4, size=(n, 3)))
        team = Team((1, 4, 7, 10, 13))
        remaining = tuple(v for v in team.members if v not in departing)
        outside = [v for v in range(n) if v not in team]  # new members sort between old ones
        combos = list(itertools.combinations(outside, len(departing)))
        original = induced_subgraph(net, team)
        singles = [
            random_walk_kernel(original, induced_subgraph(net, Team(remaining + c)), self.CFG)
            for c in combos
        ]
        # one stack of every candidate, unlike the baseline's chunks
        members = np.sort(np.hstack([np.tile(remaining, (len(combos), 1)), combos]), axis=1)
        batched = _random_walk_scores(original, *_candidate_graphs(net, members), self.CFG)
        assert all(b == s for b, s in zip(batched, singles))
        result = kernel_baseline_replace(team, Team(departing), net, self.CFG, budget=1000)
        best = int(np.argmax(singles))
        assert result.subteam == combos[best]
        assert result.similarity == singles[best]
        if len(departing) == 3:
            assert len(combos) > BASELINE_BATCH

    @staticmethod
    def hot_net():
        """Team (0, 1, 2) on a path; outside nodes 70 and 75 tie to all of it by heavy edges."""
        n = 80
        adjacency = np.zeros((n, n))
        adjacency[0, 1] = adjacency[1, 0] = adjacency[1, 2] = adjacency[2, 1] = 1.0
        for hot, weight in ((70, 60.0), (75, 90.0)):
            adjacency[hot, :3] = adjacency[:3, hot] = weight
        return net_from_dense(adjacency, np.full((n, 2), 0.5))

    def test_guard_error_names_first_offending_combination(self):
        net = self.hot_net()
        team = Team((0, 1, 2))
        original = induced_subgraph(net, team)
        messages = []
        for hot in (70, 75):
            with pytest.raises(ConvergenceError) as single:
                random_walk_kernel(original, induced_subgraph(net, Team((0, 1, hot))), self.CFG)
            messages.append(str(single.value))
        assert messages[0] != messages[1]
        # node 70 is the 68th outside node, so it is scored in the second chunk
        with pytest.raises(ConvergenceError) as batched:
            kernel_baseline_replace(team, Team((2,)), net, self.CFG, budget=1000)
        assert str(batched.value) == messages[0]

    def test_guard_failure_is_refused_by_the_comparison(self):
        net = self.hot_net()
        teams = (Team((0, 1, 2)),)
        report = run_comparison(net, teams, ["kernel"], [34.0], seed=0, kernel_cfg=self.CFG)
        assert [case.status for case in report.cases] == ["refused"]
        assert report.methods["kernel"].refusals == 1


def test_baseline_allocates_no_n_by_n_array():
    n = 20_000
    ring = np.arange(n)
    nxt = (ring + 1) % n
    net = SocialNetwork(
        adjacency=sp.coo_array(
            (np.ones(2 * n), (np.r_[ring, nxt], np.r_[nxt, ring])), shape=(n, n)
        ),
        features=sp.coo_array(
            (np.random.default_rng(0).uniform(0.1, 0.4, n), (ring, ring % 4)), shape=(n, 4)
        ),
    )
    tracemalloc.start()
    try:
        result = kernel_baseline_replace(Team((0, 1, 2)), Team((1,)), net, CFG, budget=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.candidates_examined == n - 3
    assert peak < n * n * 8 / 1000, f"traced peak {peak / 1e6:.1f} MB"
