import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import net_from_dense
from oracles import (
    ged_brute,
    marginalized_dense,
    marginalized_kernel_reference,
    marginalized_mc,
    product_space_solve_reference,
    random_labeled_graph,
    rw_kernel_dense,
    rw_kernel_series,
    sp_kernel_brute,
)
from subteam import kernels
from subteam.errors import ConvergenceError, RefusalError, ValidationError
from subteam.evaluate import run_comparison
from subteam.graph import (
    MAX_FEATURES,
    LabeledGraph,
    SocialNetwork,
    Team,
    generate_synthetic,
    induced_subgraph,
)
from subteam.kernels import (
    BASELINE_ENTRIES,
    KernelConfig,
    _baseline_batch,
    _candidate_graphs,
    _label_products,
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
        assert "distances" not in vars(big)  # refused before any path is computed

    def test_distances_computed_once_and_read_only(self):
        rng = np.random.default_rng(13)
        g1, g2 = random_labeled_graph(rng, 4, 2, edge_p=0.5), random_labeled_graph(rng, 5, 2)
        first = shortest_path_kernel(g1, g2)
        distances = g1.distances
        assert shortest_path_kernel(g1, g2) == first and g1.distances is distances
        assert not distances.flags.writeable


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


@st.composite
def weighted_graphs(draw):
    """0-5 nodes, edge weights from {1, 2}, self-loops, label rows from {0, 1}^2."""
    n = draw(st.integers(0, 5))
    weights = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=n * n, max_size=n * n))
    upper = np.triu(np.array(weights).reshape(n, n))  # keeps the diagonal: self-loops
    label = st.sampled_from([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])
    rows = draw(st.lists(label, min_size=n, max_size=n))
    return LabeledGraph(
        adjacency=upper + np.triu(upper, 1).T, labels=np.array(rows).reshape(n, 2)
    )


@st.composite
def walk_graphs(draw, min_nodes: int = 1):
    """1-6 nodes, zero or fractional edge weights (isolated nodes likely), fractional labels."""
    n = draw(st.integers(min_nodes, 6))
    weight = st.sampled_from([0.0, 0.0, 0.0, 0.3, 0.7, 1.0, 1.9])
    upper = np.triu(np.array(draw(st.lists(weight, min_size=n * n, max_size=n * n))).reshape(n, n))
    labels = draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 1.0]), min_size=2 * n, max_size=2 * n))
    return LabeledGraph(
        adjacency=upper + np.triu(upper, 1).T, labels=np.array(labels).reshape(n, 2)
    )


@st.composite
def marginalized_stacks(draw):
    """g1 whose node 0 is labeled and has a neighbor (itself, if g1 has one node); a stack of
    1-6 other graphs, g1 itself and a hot graph that g1's spectral guard refuses, in drawn
    order; a termination drawn so that ordinary graphs refuse too."""
    g1 = draw(walk_graphs())
    adjacency, labels = g1.adjacency.copy(), g1.labels.copy()
    adjacency[0, -1] = adjacency[-1, 0] = 1.0
    labels[0] = 1.0
    g1 = LabeledGraph(adjacency=adjacency, labels=labels)
    hot = LabeledGraph(adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]), labels=np.full((2, 2), 1e3))
    others = draw(st.lists(walk_graphs(), min_size=1, max_size=6))
    graphs = draw(st.permutations([*others, g1, hot]))
    return g1, graphs, KernelConfig(termination=draw(st.sampled_from([0.3, 0.6, 0.9])))


@given(marginalized_stacks())
@settings(max_examples=150, deadline=None)
def test_stacked_marginalized_scores_equal_the_single_pair_kernel(stack):
    g1, graphs, cfg = stack
    scores, bounds = kernels._marginalized_scores(g1, graphs, cfg)
    refused = 0
    for g2, score, bound in zip(graphs, scores, bounds):
        try:
            expected = marginalized_kernel_reference(g1, g2, cfg.termination)
        except ConvergenceError:
            assert np.isnan(score) and bound >= 1
            with pytest.raises(ConvergenceError, match="termination"):
                marginalized_kernel(g1, g2, cfg)
            refused += 1
        else:
            assert score == expected
            assert marginalized_kernel(g1, g2, cfg) == expected
    assert refused >= 1


@pytest.mark.parametrize("m1", [1, 5, 26])
def test_stacked_marginalized_scores_on_team_sized_graphs(m1):
    # float weights and labels at sizes up to a criterion-8 team, where the solver's matrix
    # products round differently on a transposed copy than on the transposed view
    rng = np.random.default_rng(m1)
    g1 = random_labeled_graph(rng, m1, 3)
    graphs = [random_labeled_graph(rng, m, 3) for m in (1, 4, 17, 26, 26, 4) for _ in range(2)]
    scores, _ = kernels._marginalized_scores(g1, [g1, *graphs], CFG)
    expected = [marginalized_kernel_reference(g1, g2, CFG.termination) for g2 in [g1, *graphs]]
    assert scores.tolist() == expected


def solver_inputs(batch: int, m: int, kind: str, seed: int = 0):
    """A stack of ``batch`` product-space systems on m-node graphs, as each walk kernel builds
    them: the random walk's symmetric adjacency stack, or the marginalized kernel's
    transposed view of row-stochastic transitions; isolated nodes included."""
    rng = np.random.default_rng([batch, m, seed])

    def adjacency(*shape):
        weights = rng.uniform(0.5, 1.5, (*shape, m, m))
        upper = np.triu((rng.random((*shape, m, m)) < 0.5) * weights, 1)
        return upper + np.swapaxes(upper, -1, -2)

    a1, a2 = adjacency(), adjacency(batch)
    lx = rng.uniform(0.0, 1.0, (batch, m, m))
    if kind == "random-walk":
        decay = 0.9 / max((lx * a1.sum(1)[:, None] * a2.sum(2)[:, None, :]).max(), 1.0)
        return lx / (m * m), decay * lx, a1, a2
    rows1, rows2 = a1.sum(1, keepdims=True), a2.sum(2, keepdims=True)
    p1 = np.divide(a1, rows1, out=np.zeros_like(a1), where=rows1 > 0)
    p2 = np.divide(a2, rows2, out=np.zeros_like(a2), where=rows2 > 0)
    return lx, 0.3 * lx, p1, p2.transpose(0, 2, 1)


@pytest.mark.parametrize("kind", ["random-walk", "marginalized"])
@pytest.mark.parametrize(
    "batch, m", [(946, 4), (44, 4), (1, 4), (200, 8), (400, 12), (96, 26), (8, 26), (1, 26)]
)
def test_solver_equals_the_allocating_reference(batch, m, kind):
    args = solver_inputs(batch, m, kind)
    assert np.array_equal(kernels._product_space_solve(*args), product_space_solve_reference(*args))


@pytest.mark.parametrize("batch", [20, 130])  # below and above the pruning depth
def test_solver_returns_nan_for_each_slice_still_moving_at_the_step_cap(batch, monkeypatch):
    rhs, scale, m1, m2t = solver_inputs(batch, 4, "random-walk", seed=1)
    mixed = 0
    for cap in range(4, 40, 4):
        expected = []
        for b in range(batch):
            one = (rhs[b : b + 1], scale[b : b + 1], m1, m2t[b : b + 1])
            try:
                expected.append(product_space_solve_reference(*one, max_iters=cap)[0])
            except ConvergenceError:
                expected.append(np.full((4, 4), np.nan))
        monkeypatch.setattr(kernels, "_SOLVE_MAX_ITERS", cap)
        got = kernels._product_space_solve(rhs, scale, m1, m2t)
        assert np.array_equal(got, np.stack(expected), equal_nan=True), cap
        nan = np.isnan(got).any(axis=(1, 2))
        mixed += 0 < nan.sum() < batch
    assert mixed >= 3


def edited_pair(seed):
    """A random 6-10-node graph and a node-permuted copy with about a tenth of it redrawn."""
    rng = np.random.default_rng(seed)

    def draw(n):
        upper = np.triu(rng.choice([0.0, 1.0, 2.0], size=(n, n), p=[0.6, 0.25, 0.15]))
        return upper + np.triu(upper, 1).T, rng.integers(0, 2, size=(n, 3)).astype(float)

    n1 = int(rng.integers(6, 11))
    a1, l1 = draw(n1)
    n2 = int(np.clip(n1 + rng.integers(-2, 3), 6, 10))
    a2, l2 = draw(n2)
    m = min(n1, n2)
    keep = np.triu(rng.random((m, m)) < 0.9)
    keep |= np.triu(keep, 1).T
    a2[:m, :m] = np.where(keep, a1[:m, :m], a2[:m, :m])
    l2[:m] = np.where(rng.random((m, 1)) < 0.9, l1[:m], l2[:m])
    order = rng.permutation(n2)
    return (
        LabeledGraph(adjacency=a1, labels=l1),
        LabeledGraph(adjacency=a2[np.ix_(order, order)], labels=l2[order]),
    )


# (seed, distance) for edited_pair(seed), computed with the search that preceded
# the deletion-target rewrite
PINNED_GED = [
    (0, 3.0), (1, 5.0), (2, 1.0), (3, 9.0), (4, 8.0),
    (5, 3.0), (6, 9.0), (7, 2.0), (8, 6.0), (9, 5.0),
    (10, 9.0), (11, 1.0), (12, 7.0), (13, 5.0), (14, 2.0),
    (15, 11.0), (16, 10.0), (17, 2.0), (18, 3.0), (19, 7.0),
]


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

    @given(weighted_graphs(), weighted_graphs())
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_on_small_graphs(self, g1, g2):
        assert graph_edit_distance(g1, g2) == ged_brute(g1, g2)

    @pytest.mark.parametrize("seed, expected", PINNED_GED, ids=[str(s) for s, _ in PINNED_GED])
    def test_pinned_distances_on_larger_graphs(self, seed, expected):
        distance = graph_edit_distance(*edited_pair(seed))
        assert type(distance) is float
        assert distance == expected

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

    def test_refuses_past_its_node_budget(self, monkeypatch):
        monkeypatch.setattr(kernels, "GED_MAX_EXPANDED", 1000)
        with pytest.raises(RefusalError, match="1000 search nodes"):
            graph_edit_distance(*edited_pair(15))

    def test_largest_pinned_pair_needs_under_half_the_budget(self, monkeypatch):
        # pair 15 expands the most of the pinned pairs (113,146 nodes)
        monkeypatch.setattr(kernels, "GED_MAX_EXPANDED", kernels.GED_MAX_EXPANDED // 2)
        assert graph_edit_distance(*edited_pair(15)) == 11.0

    def test_ten_node_random_pair_refuses(self):
        # two random graphs, edge probability 0.5, one of 3 label classes per
        # node, seed 0: the search needs about 1.7 million nodes to finish
        rng = np.random.default_rng(0)

        def draw(n):
            upper = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
            return LabeledGraph(adjacency=upper + upper.T, labels=np.eye(3)[rng.integers(0, 3, n)])

        with pytest.raises(RefusalError, match="search nodes"):
            graph_edit_distance(draw(10), draw(10))


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
        result = kernel_baseline_replace(team, Team((0,)), net, cfg)
        assert result.subteam == (7,)
        assert result.candidates_examined == 1

    def test_reinjected_departing_member_achieves_self_kernel(self):
        net = self.small_net()
        cfg = KernelConfig(decay=0.01)
        team = Team((0, 1, 2, 3))
        departing = Team((3,))
        original = induced_subgraph(net, team)
        self_kernel = random_walk_kernel(original, original, cfg)
        result = kernel_baseline_replace(team, departing, net, cfg)
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
        result = kernel_baseline_replace(team, departing, net, cfg)
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

    def test_budget_refusal(self, monkeypatch):
        net = self.small_net()
        args = (Team((0, 1)), Team((0,)), net, KernelConfig(decay=0.01))  # 6 combinations
        monkeypatch.setattr(kernels, "BASELINE_BUDGET", 5)
        with pytest.raises(RefusalError, match="6 combinations exceeds budget 5"):
            kernel_baseline_replace(*args)
        monkeypatch.setattr(kernels, "BASELINE_BUDGET", 6)
        assert kernel_baseline_replace(*args).candidates_examined == 6


class TestBatchedBaseline:
    CFG = KernelConfig(decay=0.01)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense-features", "sparse-features"])
    @pytest.mark.parametrize("departing", [(4,), (4, 10), (4, 10, 13)])
    def test_every_batched_score_equals_single_pair_kernel(self, departing, sparse, monkeypatch):
        rng = np.random.default_rng(21)
        n = 16
        # nearly complete, with real weights, so the rounding depends on node order
        upper = np.triu((rng.random((n, n)) < 0.95) * rng.uniform(0.5, 1.5, (n, n)), 1)
        if sparse:
            # rows of several nonzeros with zeros between them, so the exact
            # comparison covers the order in which each row's nonzeros are summed
            features = (rng.random((n, 12)) < 0.5) * rng.uniform(0.01, 0.3, (n, 12))
            assert ((features > 0).sum(axis=1) >= 3).all()
            assert ((features[:, :-2] > 0) & (features[:, 1:-1] == 0) & (features[:, 2:] > 0)).any()
        else:
            features = rng.uniform(0, 0.4, size=(n, 3))
        net = net_from_dense(upper + upper.T, features)
        team = Team((1, 4, 7, 10, 13))
        remaining = tuple(v for v in team.members if v not in departing)
        outside = [v for v in range(n) if v not in team]  # new members sort between old ones
        combos = list(itertools.combinations(outside, len(departing)))
        original = induced_subgraph(net, team)
        singles = [
            random_walk_kernel(original, induced_subgraph(net, Team(remaining + c)), self.CFG)
            for c in combos
        ]
        members = np.sort(np.hstack([np.tile(remaining, (len(combos), 1)), combos]), axis=1)
        stacks = _candidate_graphs(net, members, _label_products(net.features, original))
        batched = _random_walk_scores(original, *stacks, self.CFG)
        assert all(b == s for b, s in zip(batched, singles))
        best = int(np.argmax(singles))
        batch = _baseline_batch(len(team), len(departing), len(outside))
        assert batch >= len(combos)  # the baseline scores them in one stack
        one_stack = kernel_baseline_replace(team, Team(departing), net, self.CFG)
        monkeypatch.setattr(kernels, "BASELINE_ENTRIES", 400)
        if len(departing) == 3:
            batch = _baseline_batch(len(team), 3, len(outside))
            assert math.ceil(len(combos) / batch) >= 3
        chunked = kernel_baseline_replace(team, Team(departing), net, self.CFG)
        fields = lambda r: (r.subteam, r.similarity, r.candidates_examined)
        assert fields(chunked) == fields(one_stack)
        assert one_stack.subteam == combos[best]
        assert one_stack.similarity == singles[best]
        assert all(type(member) is int for member in one_stack.subteam)

    @pytest.mark.parametrize("entries", [27, BASELINE_ENTRIES], ids=["straddling", "one-stack"])
    def test_tie_keeps_the_first_combination(self, entries, monkeypatch):
        """Twins 5 and 6 gather identical stacks; 5 wins, even across a chunk boundary."""
        n = 12
        adjacency = np.zeros((n, n))
        adjacency[0, 1] = adjacency[1, 0] = 1.0
        for v in range(3, n):
            adjacency[v, 0] = adjacency[0, v] = 1.0
        for twin in (5, 6):
            adjacency[twin, 1] = adjacency[1, twin] = 1.0
        net = net_from_dense(adjacency, np.full((n, 2), 0.5))
        team, departing = Team((0, 1, 2)), Team((2,))
        original = induced_subgraph(net, team)
        singles = {
            v: random_walk_kernel(original, induced_subgraph(net, Team((0, 1, v))), self.CFG)
            for v in range(3, n)
        }
        assert singles[5] == singles[6] == max(singles.values())
        assert sum(s == singles[5] for s in singles.values()) == 2
        monkeypatch.setattr(kernels, "BASELINE_ENTRIES", entries)
        batch = _baseline_batch(3, 1, n - 3)
        # 5 and 6 are the outside nodes at positions 2 and 3
        assert (2 // batch != 3 // batch) == (entries == 27)
        result = kernel_baseline_replace(team, departing, net, self.CFG)
        assert result.subteam == (5,)
        assert result.similarity == singles[5]

    def test_featureless_network_scores_zero(self):
        net = SocialNetwork(
            adjacency=sp.csr_array(np.ones((6, 6)) - np.eye(6)), features=sp.csr_array((6, 0))
        )
        result = kernel_baseline_replace(Team((0, 1, 2)), Team((2,)), net, self.CFG)
        assert result.subteam == (3,)
        assert result.similarity == 0.0

    @staticmethod
    def hot_net():
        """Team (0, 1, 2) on a path; outside nodes 70 and 75 tie to all of it by heavy edges."""
        n = 80
        adjacency = np.zeros((n, n))
        adjacency[0, 1] = adjacency[1, 0] = adjacency[1, 2] = adjacency[2, 1] = 1.0
        for hot, weight in ((70, 60.0), (75, 90.0)):
            adjacency[hot, :3] = adjacency[:3, hot] = weight
        return net_from_dense(adjacency, np.full((n, 2), 0.5))

    @pytest.mark.parametrize("entries", [144, BASELINE_ENTRIES], ids=["later-chunk", "one-stack"])
    def test_guard_error_names_first_offending_combination(self, entries, monkeypatch):
        net = self.hot_net()
        team = Team((0, 1, 2))
        original = induced_subgraph(net, team)
        messages = []
        for hot in (70, 75):
            with pytest.raises(ConvergenceError) as single:
                random_walk_kernel(original, induced_subgraph(net, Team((0, 1, hot))), self.CFG)
            messages.append(str(single.value))
        assert messages[0] != messages[1]
        monkeypatch.setattr(kernels, "BASELINE_ENTRIES", entries)
        batch = _baseline_batch(3, 1, 77)
        # nodes 70 and 75 are the outside nodes at positions 67 and 72
        if entries == 144:
            assert 0 < 67 // batch < 72 // batch
        else:
            assert 72 < batch
        with pytest.raises(ConvergenceError) as batched:
            kernel_baseline_replace(team, Team((2,)), net, self.CFG)
        assert str(batched.value) == messages[0]

    def test_guard_failure_is_refused_by_the_comparison(self):
        net = self.hot_net()
        teams = (Team((0, 1, 2)),)
        report = run_comparison(net, teams, ["kernel"], [34.0], seed=0, kernel_cfg=self.CFG)
        assert [case.status for case in report.cases] == ["refused"]
        assert report.methods["kernel"]["refusals"] == {"ConvergenceError": 1}


def overflowing_label_net() -> SocialNetwork:
    """Path 0-1-2 and edge 3-4, every feature 1 but node 0's first, 1e160.

    Every input is finite, but node 0's label product with itself overflows to
    inf, and inf times a zero row sum puts a NaN into a spectral bound.
    """
    adjacency = np.zeros((5, 5))
    for u, v in ((0, 1), (1, 2), (3, 4)):
        adjacency[u, v] = adjacency[v, u] = 1.0
    features = np.ones((5, 2))
    features[0, 0] = 1e160
    return net_from_dense(adjacency, features)


@pytest.mark.parametrize("kernel", ["baseline", "marginalized"])
def test_nan_spectral_bound_is_refused_by_the_guard(kernel):
    net = overflowing_label_net()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConvergenceError) as refused:
        if kernel == "baseline":  # node 3 has no edge inside the team
            kernel_baseline_replace(Team((0, 1, 3)), Team((1,)), net, CFG)
        else:  # neither node has an edge inside the team
            team_graph = induced_subgraph(net, Team((0, 3)))
            marginalized_kernel(team_graph, team_graph, KernelConfig())
    assert "nan" in str(refused.value) and "did not converge" not in str(refused.value)


@pytest.mark.parametrize("kernel", ["baseline", "random-walk", "marginalized"])
def test_overflowing_label_products_get_no_decay_advice(kernel):
    # a 5-cycle, every feature 1 but node 0's first, 1e160: node 0's label product
    # with itself is inf before any decay or damping applies, so none can help
    cycle = np.roll(np.eye(5), 1, axis=1)
    features = np.ones((5, 2))
    features[0, 0] = 1e160
    net = net_from_dense(cycle + cycle.T, features)
    team_graph = induced_subgraph(net, Team((0, 1, 2)))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConvergenceError) as refused:
        if kernel == "baseline":
            kernel_baseline_replace(Team((0, 1, 2)), Team((2,)), net, KernelConfig(decay=0.005))
        elif kernel == "random-walk":
            random_walk_kernel(team_graph, team_graph, KernelConfig(decay=1e-300))
        else:
            marginalized_kernel(team_graph, team_graph, KernelConfig(termination=0.999999))
    message = str(refused.value)
    assert "inf" in message and "label products" in message and "overflow" in message
    assert "lower the decay" not in message and "termination damping" not in message


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
        result = kernel_baseline_replace(Team((0, 1, 2)), Team((1,)), net, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.candidates_examined == n - 3
    assert peak < n * n * 8 / 1000, f"traced peak {peak / 1e6:.1f} MB"


def test_baseline_batch_keeps_every_chunk_array_within_the_budget():
    for m, r, outside in itertools.product(range(1, 27), range(1, 4), (1, 44, 20_000)):
        if r > m:
            continue

        def sizes(batch):
            nodes = (m - r) + min(batch * r, outside)
            return batch * m * m, nodes * nodes

        batch = _baseline_batch(m, r, outside)
        assert batch >= 1
        assert batch == 1 or max(sizes(batch)) <= BASELINE_ENTRIES, (m, r, outside)
        # the largest such batch: one more candidate breaks a bound
        assert max(sizes(batch + 1)) > BASELINE_ENTRIES, (m, r, outside)


def wide_ring(d: int, n: int = 500) -> SocialNetwork:
    """A ring of n nodes, each with one feature out of d."""
    ring = np.arange(n)
    nxt = (ring + 1) % n
    return SocialNetwork(
        adjacency=sp.coo_array(
            (np.ones(2 * n), (np.r_[ring, nxt], np.r_[nxt, ring])), shape=(n, n)
        ),
        features=sp.coo_array(
            (np.random.default_rng(0).uniform(0.1, 0.4, n), (ring, ring * 7 % d)), shape=(n, d)
        ),
    )


def test_baseline_label_stack_is_bounded_for_wide_features():
    net = wide_ring(2_000)
    team = Team(tuple(range(8)))
    tracemalloc.start()
    try:
        result = kernel_baseline_replace(team, Team((3,)), net, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.candidates_examined == net.n - 8
    assert peak < 3 * BASELINE_ENTRIES * 8, f"traced peak {peak / 1e6:.2f} MB"


def test_baseline_chunks_do_not_depend_on_feature_width(monkeypatch):
    solves = []

    def counted(*args):
        solves.append(args[1].shape[0])
        return _random_walk_scores(*args)

    monkeypatch.setattr(kernels, "_random_walk_scores", counted)
    chunks = []
    for d in (16, MAX_FEATURES):
        solves.clear()
        result = kernel_baseline_replace(Team(tuple(range(8))), Team((3,)), wide_ring(d), CFG)
        assert sum(solves) == result.candidates_examined == 492
        chunks.append(len(solves))
    assert chunks[0] == chunks[1]


def candidate_graphs(net: SocialNetwork, team: Team, departing: Team):
    """The original team graph, and each combination of outside nodes with its team graph,
    in the baseline's order."""
    remaining = tuple(v for v in team.members if v not in departing.members)
    outside = [v for v in range(net.n) if v not in team.members]
    combos = list(itertools.combinations(outside, len(departing)))
    graphs = [induced_subgraph(net, Team(remaining + c)) for c in combos]
    return induced_subgraph(net, team), combos, graphs


def walk_peak(original: LabeledGraph, graphs) -> float:
    """The largest label product times row sums over the candidates: decay times it is the
    spectral guard's bound."""
    rs1 = original.adjacency.sum(axis=1)
    return max(
        float((original.labels @ g.labels.T * np.outer(rs1, g.adjacency.sum(axis=1))).max())
        for g in graphs
    )


@st.composite
def baseline_queries(draw):
    """A nonnegative network, a team of 2-4 and 1-3 departing members, a decay as a share
    of the spectral guard's limit, and a chunk count.

    The outside nodes give a stack above or below the pruning depth. With two or three
    departing members a deep stack split in two gives two deep chunks; with one, the
    baseline's node-block rule splits it into shallow ones. The last 0-2 outside
    nodes are twins: they copy a departing member's edges and triple its features, so they
    are likely to win and their candidates tie exactly. Features are scaled from 1e-9, where
    every step is under the stop rule's absolute floor, to 1e2, and the decay runs from far
    below the guard's limit to close to it."""
    m = draw(st.integers(2, 4))
    r = draw(st.integers(1, min(3, m - 1)))
    deep = draw(st.booleans())
    outside = {1: (136, 30), 2: (24, 9), 3: (14, 7)}[r][0 if deep else 1]
    twins = draw(st.integers(0, 2))
    n = m + outside
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    integral = draw(st.booleans())
    weights = rng.choice([1.0, 2.0], (n, n)) if integral else rng.uniform(0.5, 1.5, (n, n))
    upper = np.triu((rng.random((n, n)) < draw(st.sampled_from([0.4, 0.1, 0.9]))) * weights, 1)
    adjacency = upper + upper.T
    features = (rng.random((n, 3)) < 0.7) * rng.uniform(0.1, 1.0, (n, 3))
    team = Team(tuple(rng.choice(n - twins, m, replace=False).tolist()))
    for a, b in zip(team.members, team.members[1:]):  # the team is connected, so walks count
        adjacency[a, b] = adjacency[b, a] = 1.0
    departing = Team(tuple(rng.choice(team.members, r, replace=False).tolist()))
    gone = departing.members[0]
    for twin in range(n - twins, n):  # the largest ids, so twins sort alike in every team
        adjacency[twin, :] = adjacency[:, twin] = adjacency[gone, :]
        features[twin] = 3 * features[gone]
    adjacency[n - twins :, n - twins :] = 0.0
    features *= 10.0 ** draw(st.sampled_from([0, -9, -4, 2]))
    net = net_from_dense(adjacency, features)
    guard = draw(st.sampled_from([0.3, 1e-3, 0.05, 0.7, 0.9]))
    return net, team, departing, guard, draw(st.integers(1, 2))


@given(baseline_queries())
@settings(max_examples=100, deadline=None)
def test_pruned_baseline_equals_the_first_best_single_pair_kernel(query):
    net, team, departing, guard, chunks = query
    original, combos, graphs = candidate_graphs(net, team, departing)
    peak = walk_peak(original, graphs)
    cfg = KernelConfig(decay=guard / peak if peak > 0 else 0.1)
    singles = [random_walk_kernel(original, g, cfg) for g in graphs]
    best = int(np.argmax(singles))
    # two chunks of equal size: the second is pruned by the first one's best
    entries = math.ceil(len(combos) / chunks) * len(team) ** 2 if chunks > 1 else BASELINE_ENTRIES
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "BASELINE_ENTRIES", entries)
        result = kernel_baseline_replace(team, departing, net, cfg)
    assert result.subteam == combos[best]
    assert result.similarity == singles[best]


def parity_net() -> tuple[SocialNetwork, Team, Team]:
    """Teams of 4 among 18 outside nodes, 2 departing: 153 candidates, one stack."""
    rng = np.random.default_rng(4)
    n = 22
    upper = np.triu((rng.random((n, n)) < 0.5) * rng.uniform(0.5, 1.5, (n, n)), 1)
    net = net_from_dense(upper + upper.T, rng.uniform(0.1, 1.0, (n, 3)))
    return net, Team((2, 7, 11, 16)), Team((7, 16))


def test_pruned_baseline_is_refused_exactly_when_a_single_pair_kernel_is(monkeypatch):
    net, team, departing = parity_net()
    original, combos, graphs = candidate_graphs(net, team, departing)
    assert len(combos) >= kernels._PRUNE_MIN_DEPTH
    cfg = KernelConfig(decay=0.4 / walk_peak(original, graphs))
    winner = int(np.argmax([random_walk_kernel(original, g, cfg) for g in graphs]))
    outcomes = set()
    for cap in range(4, 41):
        monkeypatch.setattr(kernels, "_SOLVE_MAX_ITERS", cap)
        refused = set()
        for i, g in enumerate(graphs):
            try:
                random_walk_kernel(original, g, cfg)
            except ConvergenceError:
                refused.add(i)
        if refused:
            with pytest.raises(ConvergenceError, match="did not converge"):
                kernel_baseline_replace(team, departing, net, cfg)
        else:
            assert kernel_baseline_replace(team, departing, net, cfg).subteam == combos[winner]
        outcomes.add("none" if not refused else "winner" if winner in refused else "losers only")
    # at caps 12-16 only candidates that pruning stops reach the cap; the step-cap rule keeps
    # them iterating. From cap 38 the rule lets the solver prune.
    assert outcomes == {"none", "winner", "losers only"}


class SolverSteps:
    """numpy as ``kernels`` sees it: records, for each solve, how many slices each step
    iterates."""

    def __init__(self):
        self.solves = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, *out):
        if a.ndim == 2 and b.ndim == 3:  # the step's first product, m1 @ W
            self.solves[-1].append(len(b))
        return np.matmul(a, b, *out)


@pytest.mark.parametrize("entries", [BASELINE_ENTRIES, 473 * 16], ids=["one-stack", "two-chunks"])
def test_baseline_iterates_only_candidates_that_can_win(entries, monkeypatch):
    """The eval-kernel benchmark's shape: teams of 4 in a 48-node network of four complete
    blocks, 2 members replaced from 44 outside nodes, 946 candidates."""
    net = generate_synthetic(48, 16, 4, 1.0, 0.05, 40, seed=0)[0]
    cfg = KernelConfig(decay=0.005)
    steps = SolverSteps()
    solve = kernels._product_space_solve

    def recorded(*args):
        steps.solves.append([])
        return solve(*args)

    monkeypatch.setattr(kernels, "BASELINE_ENTRIES", entries)
    monkeypatch.setattr(kernels, "_product_space_solve", recorded)
    stopped_chunk = False
    for block in range(4):
        team = Team(tuple(range(12 * block, 12 * block + 12, 3)))
        departing = Team(team.members[1:3])
        original, combos, _ = candidate_graphs(net, team, departing)
        members = np.sort(np.hstack([np.tile(team.members[::3], (946, 1)), combos]), axis=1)
        stacks = _candidate_graphs(net, members, _label_products(net.features, original))
        unpruned = _random_walk_scores(original, *stacks, cfg)
        steps.solves.clear()
        with monkeypatch.context() as spied:
            spied.setattr(kernels, "np", steps)
            result = kernel_baseline_replace(team, departing, net, cfg)
        best = int(np.argmax(unpruned))
        assert (result.subteam, result.similarity) == (combos[best], unpruned[best])
        assert len(steps.solves) == (1 if entries == BASELINE_ENTRIES else 2)
        for depths in steps.solves:
            first, *later = depths or [0]
            assert first < 946 // 4 and max(later, default=0) <= 10, depths
        stopped_chunk |= [] in steps.solves
    # the first chunk's best stops every candidate of a later one before its first step
    assert stopped_chunk == (entries != BASELINE_ENTRIES)


def test_pruning_keeps_a_winner_whose_upper_bound_is_exact():
    """Team (0, 1, 2) is a triangle and outside node 3 closes another with 0 and 1. With
    every label 1, each step of that candidate moves every entry by the same factor, so its
    upper bound equals its score from the start. Isolated node 4, with label 4.5, converges
    faster to just below it, and 130 isolated nodes with small labels deepen the stack."""
    n = 135
    adjacency = np.zeros((n, n))
    for u, v in ((0, 1), (0, 2), (1, 2), (3, 0), (3, 1)):
        adjacency[u, v] = adjacency[v, u] = 1.0
    features = np.full((n, 1), 0.01)
    features[:4], features[4] = 1.0, 4.5
    net = net_from_dense(adjacency, features)
    team, cfg = Team((0, 1, 2)), KernelConfig(decay=0.15)
    original, combos, graphs = candidate_graphs(net, team, Team((2,)))
    singles = [random_walk_kernel(original, g, cfg) for g in graphs]
    assert len(combos) >= kernels._PRUNE_MIN_DEPTH
    assert 0.98 * singles[0] < singles[1] < singles[0] == max(singles)
    result = kernel_baseline_replace(team, Team((2,)), net, cfg)
    assert (result.subteam, result.similarity) == ((3,), singles[0])
