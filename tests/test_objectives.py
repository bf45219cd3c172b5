import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    contrastive_term_oracle,
    dense_skill_term,
    dense_structural_term,
    naive_clustering_loss,
    naive_contrastive,
    naive_cosine,
    naive_skill_loss,
    naive_structural_loss,
)
from subteam.encoder import row_softmax
from subteam.errors import ValidationError
from subteam.graph import Team
from subteam.objectives import (
    COSINE_NORM_FLOOR,
    clustering_loss,
    contrastive_loss,
    cosine_rows,
    feature_factor,
    skill_loss,
    structural_loss,
    team_embedding,
)
from subteam.trainer import TrainConfig


class TestTeamEmbedding:
    def test_single_member(self):
        z = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(team_embedding((1,), z), [3.0, 4.0])

    def test_mean_of_two(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(team_embedding((0, 1), z), [0.5, 0.5])

    def test_identical_rows_idempotent(self):
        z = np.tile([2.0, 5.0], (4, 1))
        assert np.array_equal(team_embedding(Team((0, 1, 2, 3)), z), [2.0, 5.0])

    def test_rows_added_in_member_order(self):
        # numpy's mean adds a one-column array of 8 or more rows pairwise; a team
        # embedding adds its rows one after another at every width, as the
        # within-cluster search's batched means do
        rng = np.random.default_rng(3)
        pairwise_differs = False
        for d in (1, 2, 5):
            for k in range(1, 30):
                z = rng.normal(size=(k, d)) * 10.0 ** rng.integers(-3, 4, size=(k, 1))
                total = z[0]
                for row in z[1:]:
                    total = total + row
                assert np.array_equal(team_embedding(range(k), z), total / k)
                pairwise_differs |= not np.array_equal(z.mean(axis=0), total / k)
        assert pairwise_differs

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            team_embedding((), np.eye(2))

    def test_team_and_tuple_agree(self):
        z = np.random.default_rng(4).normal(size=(6, 3))
        assert np.array_equal(team_embedding(Team((4, 1, 2)), z), team_embedding((1, 2, 4), z))


def pair_cosine(u, v):
    """The score of one pair, a stack of one."""
    return cosine_rows(u, v[None])[0]


class TestCosine:
    def test_self_similarity(self):
        v = np.array([1.0, 2.0, -3.0])
        assert pair_cosine(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert pair_cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_analytic_value(self):
        assert pair_cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(
            0.70710678, abs=1e-8
        )

    def test_zero_vector_convention(self):
        assert pair_cosine(np.zeros(3), np.array([1.0, 0.0, 0.0])) == 0.0

    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=6),
        st.floats(0.01, 100),
        st.floats(0.01, 100),
    )
    @settings(max_examples=100)
    def test_scale_invariance(self, vals, alpha, beta):
        u = np.array(vals)
        v = np.roll(u, 1) + 1.0
        # the floor is absolute, so scaling may carry a vector across it (pinned below)
        norms = [np.linalg.norm(w) for w in (u, v, alpha * u, beta * v)]
        assume(min(norms) >= COSINE_NORM_FLOOR)
        assert pair_cosine(alpha * u, beta * v) == pytest.approx(pair_cosine(u, v), abs=1e-12)

    def test_norm_floor_is_absolute(self):
        # recommend scores through cosine_rows, and the naive oracle keeps the same floor
        u = np.array([0.0, 1.37e-12])
        v = np.array([1.0, 1.0])
        assert np.linalg.norm(0.5 * u) < COSINE_NORM_FLOOR <= np.linalg.norm(u)
        assert pair_cosine(u, v) == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert naive_cosine(u, v) == pytest.approx(math.sqrt(0.5), abs=1e-12)
        for a, b in ((0.5 * u, v), (v, 0.5 * u)):
            assert pair_cosine(a, b) == 0.0
            assert naive_cosine(a, b) == 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_cosine_bit_for_bit(self, seed):
        # recommend scores a block of candidates at once; the oracles score one at a time
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 40))
        count = int(rng.integers(1, 50))
        vs = rng.normal(size=(count, d)) * 10.0 ** rng.integers(-3, 4, size=(count, 1))
        vs[rng.random(count) < 0.2] *= 1e-14
        vs[rng.random(count) < 0.1] = 0.0
        for u in (rng.normal(size=d), np.zeros(d), 1e-14 * rng.normal(size=d)):
            scores = cosine_rows(u, vs)
            assert np.array_equal(cosine_rows(u, np.asfortranarray(vs)), scores)
            for row, score in zip(vs, scores):
                assert score == pair_cosine(u, row)
                if np.linalg.norm(row) < COSINE_NORM_FLOOR or np.linalg.norm(u) < COSINE_NORM_FLOOR:
                    assert score == 0.0

    def test_rows_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            cosine_rows(np.ones(3), np.ones((2, 4)))
        with pytest.raises(ValidationError):
            cosine_rows(np.ones(3), np.ones(3))


class TestContrastiveLoss:
    def test_identical_embeddings_give_minus_one(self):
        z = np.tile([1.0, 1.0], (4, 1))
        batch = [(Team((0, 1, 2, 3)), (0, 1))]
        assert contrastive_loss(batch, z)[0] == pytest.approx(-1.0)

    def test_orthogonal_gives_zero(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert contrastive_loss([((0, 1), (0,))], z)[0] == pytest.approx(0.0)

    def test_mean_of_two_pairs(self):
        # pair 1 similarity 1, pair 2 similarity 0 -> loss -0.5
        z = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        batch = [((0, 1), (0,)), ((2, 3), (2,))]
        assert contrastive_loss(batch, z)[0] == pytest.approx(-0.5)

    def test_teams_and_tuples_agree(self):
        z = np.random.default_rng(5).normal(size=(8, 3))
        pairs = [((0, 1, 2), (1,)), ((3, 4, 5, 6), (3, 6))]
        value, grad = contrastive_loss(pairs, z)
        as_teams = contrastive_loss([(Team(team), Team(sub)) for team, sub in pairs], z)
        assert as_teams[0] == value and np.array_equal(as_teams[1], grad)

    def test_subteam_equal_team_rejected(self):
        with pytest.raises(ValidationError):
            contrastive_loss([((0, 1), (0, 1))], np.eye(2))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(8, 5))
        batch = [((0, 1, 2), (1,)), ((3, 4, 5, 6), (3, 6)), ((2, 7), (7,))]
        want = naive_contrastive(batch, z)
        assert contrastive_loss(batch, z)[0] == pytest.approx(want, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50)
    def test_bounded_by_one(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(6, 4))
        batch = [((0, 1, 2), (0,)), ((3, 4, 5), (3, 4))]
        assert -1 - 1e-12 <= contrastive_loss(batch, z)[0] <= 1 + 1e-12


def random_contrastive_batch(rng, n: int, pairs: int, max_team: int):
    """Overlapping teams over n nodes, each with a strict subteam in drawn order."""
    batch = []
    for _ in range(pairs):
        size = int(rng.integers(2, max_team + 1))
        team = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        k = int(rng.integers(1, size))
        batch.append((team, tuple(rng.permutation(team)[:k].tolist())))
    return batch


class TestContrastiveTermMatchesPairLoop:
    """The sparse-incidence term equals the per-pair loop bit for bit.

    Embeddings are at least two wide: there numpy's ``mean(axis=0)`` adds rows
    in order, as a CSR row does (a one-wide mean of 8 or more rows is pairwise).
    """

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(3, 14),
        st.integers(2, 7),
        st.integers(1, 12),
        st.sampled_from([1.0, 0.37, -2.5, 100.0]),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_value_and_gradient_equal_oracle(self, seed, n, width, pairs, scale, zero_pair):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(n, width)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
        batch = random_contrastive_batch(rng, n, pairs, max_team=min(n, 9))
        if zero_pair:  # one pair's subteam mean is 0, below the norm floor
            z[list(batch[0][1])] = 0.0
        value, grad = contrastive_loss(batch, z, scale)
        want_value, want_grad = contrastive_term_oracle(batch, z, scale)
        assert value == want_value
        assert np.array_equal(grad, want_grad)

    def test_covers_overlap_single_members_and_the_floor(self):
        z = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, -1.0], [0.5, 0.25], [-2.0, 1.0]])
        batch = [
            ((0, 2, 3), (2,)),  # one-member subteam
            ((0, 2), (0,)),  # one-member subteam and remainder, overlaps the first
            ((1, 3, 4), (1,)),  # subteam mean 0: below the floor, no gradient
            (Team((0, 3, 4)), (4, 0)),  # subteam in drawn order
        ]
        for scale in (1.0, -0.75):
            value, grad = contrastive_loss(batch, z, scale)
            want_value, want_grad = contrastive_term_oracle(batch, z, scale)
            assert value == want_value
            assert np.array_equal(grad, want_grad)
        assert not grad[1].any()

    @pytest.mark.parametrize(
        "batch",
        [
            [],
            [((0, 1, 2), ())],  # empty subteam
            [((0, 1, 2), (0,)), ((0, 1), (3,))],  # not contained in its team
            [((0, 1, 2), (0,)), ((1, 2), (2, 1))],  # empty remainder
            [((0, 9), (0,))],  # member outside the embedding rows
        ],
    )
    def test_invalid_batches_rejected(self, batch):
        with pytest.raises(ValidationError):
            contrastive_loss(batch, np.ones((4, 3)))


class TestSkillLoss:
    def test_matching_similarity_patterns_give_minus_n(self):
        # C = X makes Y1 == Y2, so every diagonal entry of Y3 is 1
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert skill_loss(feature_factor(x), x.copy())[0] == pytest.approx(-3.0)

    def test_single_node(self):
        x = np.array([[2.0, 1.0]])
        assert skill_loss(feature_factor(x), np.array([[1.0]]))[0] == pytest.approx(-1.0)

    def test_matches_naive_oracle_on_random_instance(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 2, size=(4, 6))
        c = row_softmax(rng.normal(size=(4, 3)))
        want = naive_skill_loss(x, c)
        assert skill_loss(feature_factor(x), c)[0] == pytest.approx(want, abs=1e-10)

    def test_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            x = rng.uniform(0, 1, size=(n, 4))
            c = row_softmax(rng.normal(size=(n, 3)))
            val = skill_loss(feature_factor(x), c)[0]
            assert -n <= val <= n


class TestStructuralLoss:
    def test_identity_matching_one_hot(self):
        assert structural_loss(np.eye(3), np.eye(3))[0] == 0.0

    def test_all_ones_single_cluster(self):
        assert structural_loss(np.ones((2, 2)), np.array([[1.0], [1.0]]))[0] == 0.0

    def test_hand_computed_residual(self):
        c = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert structural_loss(np.zeros((2, 2)), c)[0] == pytest.approx(1.0)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(6)
        upper = np.triu(rng.integers(0, 2, (5, 5)).astype(float), 1)
        a = upper + upper.T
        c = row_softmax(rng.normal(size=(5, 3)))
        assert structural_loss(a, c)[0] == pytest.approx(naive_structural_loss(a, c), abs=1e-10)

    def test_non_negative(self):
        rng = np.random.default_rng(7)
        a = np.zeros((4, 4))
        c = row_softmax(rng.normal(size=(4, 2)))
        assert structural_loss(a, c)[0] >= 0


def assert_term_matches(got, want):
    value, grad = got
    want_value, want_grad = want
    assert value == pytest.approx(want_value, rel=1e-10, abs=1e-12)
    np.testing.assert_allclose(grad, want_grad, rtol=1e-10, atol=1e-10 * np.abs(want_grad).max())


def random_instance(seed: int, n: int = 30, d: int = 7, k: int = 5):
    """Non-negative features with some all-zero rows, a 0/1 adjacency and softmax C."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 2, size=(n, d)) * (rng.random((n, d)) < 0.4)
    x[rng.choice(n, size=3, replace=False)] = 0.0
    upper = np.triu((rng.random((n, n)) < 0.2).astype(float), 1)
    c = row_softmax(2.0 * rng.normal(size=(n, k)))
    return x, upper + upper.T, c


@pytest.mark.parametrize("sparse", [False, True])
class TestLowRankTermsMatchDenseOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_skill_term(self, sparse, seed):
        x, _, c = random_instance(seed)
        assert not x.any(axis=1).all()
        side = feature_factor(sp.csr_array(x) if sparse else x)
        assert_term_matches(skill_loss(side, c, 0.7), dense_skill_term(x, c, 0.7))

    @pytest.mark.parametrize("seed", range(5))
    def test_structural_term(self, sparse, seed):
        _, a, c = random_instance(seed)
        got = structural_loss(sp.csr_array(a) if sparse else a, c, 3.0)
        assert_term_matches(got, dense_structural_term(a, c, 3.0))

    def test_sparse_inputs_give_the_dense_bits(self, sparse):
        x, a, c = random_instance(11)
        wrap = sp.csr_array if sparse else np.asarray
        for got, want in [
            (skill_loss(feature_factor(wrap(x)), c), skill_loss(feature_factor(x), c)),
            (structural_loss(wrap(a), c), structural_loss(a, c)),
        ]:
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("seed", range(12, 20))
    def test_exact_fit_gives_zero_value_and_gradient(self, sparse, seed):
        # the three terms of the identity cancel to a rounding residue of either sign
        c = row_softmax(np.random.default_rng(seed).normal(size=(25, 4)))
        a = c @ c.T
        value, grad = structural_loss(sp.csr_array(a) if sparse else a, c, 5.0)
        assert value == 0.0
        assert not grad.any()
        assert dense_structural_term(a, c, 5.0)[0] == 0.0


class TestClusteringLoss:
    def test_one_hot_rows_give_zero(self):
        c = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert clustering_loss(c)[0] == 0.0

    def test_uniform_rows_give_log_c(self):
        c = np.full((3, 2), 0.5)
        assert clustering_loss(c)[0] == pytest.approx(math.log(2), abs=1e-12)

    def test_mixed_rows(self):
        c = np.array([[1.0, 0.0], [0.5, 0.5]])
        assert clustering_loss(c)[0] == pytest.approx(math.log(2) / 2, abs=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(8)
        c = row_softmax(rng.normal(size=(6, 4)))
        assert clustering_loss(c)[0] == pytest.approx(naive_clustering_loss(c), abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    @settings(max_examples=50)
    def test_bounds(self, seed, c_count):
        rng = np.random.default_rng(seed)
        c = row_softmax(rng.normal(size=(5, c_count)))
        val = clustering_loss(c)[0]
        assert -1e-12 <= val <= math.log(c_count) + 1e-12


    def test_no_rows_give_zero(self):
        value, grad = clustering_loss(np.zeros((0, 3)))
        assert value == 0.0 and grad.shape == (0, 3)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: skill_loss(feature_factor(np.ones((3, 2))), np.ones((4, 2))), "row mismatch"),
        (lambda: structural_loss(np.ones((3, 3)), np.ones((4, 2))), "shape mismatch"),
        (lambda: structural_loss(np.ones((3, 4)), np.ones((3, 2))), "shape mismatch"),
    ],
    ids=["skill-rows", "structural-rows", "structural-not-square"],
)
def test_loss_inputs_that_do_not_fit_rejected(call, match):
    with pytest.raises(ValidationError, match=match):
        call()


WEIGHTS_RULE = (
    r"loss weights must be three finite reals >= 0 \(skill, structural, clustering\), got "
)


class TestLossWeights:
    @pytest.mark.parametrize(
        "weights, match",
        [
            ((1, 2), WEIGHTS_RULE + r"\(1, 2\)"),
            ((1, 2, 3, 4), WEIGHTS_RULE + r"\(1, 2, 3, 4\)"),
            (None, WEIGHTS_RULE + "None"),
            (("a", 1, 1), WEIGHTS_RULE + r"\('a', 1, 1\)"),
            ((1, math.nan, 1), WEIGHTS_RULE + r"\(1, nan, 1\)"),
            ((1, 1, math.inf), WEIGHTS_RULE + r"\(1, 1, inf\)"),
            ((-1, 0, 0), WEIGHTS_RULE + r"\(-1, 0, 0\)"),
            ((10**400, 1, 1), WEIGHTS_RULE + r"\(1000"),
        ],
        ids=["two", "four", "none", "string", "nan", "inf", "negative", "past-float64"],
    )
    def test_negative_weight_rejected(self, weights, match):
        # the library may pass anything; each is refused as a validation error, not a
        # bare ValueError or TypeError that the CLI would report as an internal error
        with pytest.raises(ValidationError, match=match):
            TrainConfig(weights=weights)

    def test_weights_are_held_as_floats(self):
        weights = TrainConfig(weights=[2, 3, np.float32(4)]).weights
        assert weights == (2.0, 3.0, 4.0) and all(type(w) is float for w in weights)
