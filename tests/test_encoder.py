import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import net_from_dense
from oracles import naive_softmax
from subteam.encoder import (
    ClusterModel,
    EncoderParams,
    build_containers,
    default_cluster_count,
    encode,
    hard_assign,
    init_params,
    load_checkpoint,
    row_softmax,
    save_checkpoint,
)
from subteam.errors import ValidationError
from subteam.graph import generate_synthetic


def single_layer(adjacency, features, w):
    """encode() with one layer of weights ``w`` and a 2-cluster head."""
    w = np.asarray(w, dtype=float)
    params = EncoderParams(layer_weights=(w,), cluster_weight=np.ones((w.shape[1], 2)))
    return encode(net_from_dense(adjacency, features), params)


class TestGcnLayer:
    def test_identity_propagation(self):
        # no edges: the normalized adjacency is I, and ReLU keeps positive features
        h = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = single_layer(np.zeros((2, 2)), h, np.eye(2))
        assert np.array_equal(out, h)

    def test_zero_input_gives_zero(self):
        out = single_layer(np.zeros((3, 3)), np.zeros((3, 2)), np.ones((2, 4)))
        assert np.array_equal(out, np.zeros((3, 4)))

    def test_two_node_complete_graph_hand_product(self):
        # one edge plus self-loops normalizes to [[0.5, 0.5], [0.5, 0.5]]
        out = single_layer([[0, 1], [1, 0]], np.eye(2), np.eye(2))
        assert np.allclose(out, [[0.5, 0.5], [0.5, 0.5]])

    def test_relu_clamps_negatives(self):
        out = single_layer([[0.0]], [[1.0]], [[-2.0]])
        assert out.tolist() == [[0.0]]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            single_layer(np.zeros((3, 3)), np.zeros((3, 2)), np.eye(3))


class TestEncode:
    def test_single_layer_equals_layer_output(self, tiny_net):
        params = init_params(2, (4,), 2, np.random.default_rng(0))
        z = encode(tiny_net, params)
        from subteam.graph import normalize_adjacency

        norm_adj = normalize_adjacency(tiny_net).toarray()
        x = tiny_net.features.toarray()
        expected = np.maximum(norm_adj @ x @ params.layer_weights[0], 0.0)
        assert np.allclose(z, expected, rtol=0, atol=1e-15)

    def test_concatenated_width(self, tiny_net):
        params = init_params(2, (4, 3), 2, np.random.default_rng(0))
        assert encode(tiny_net, params).shape == (3, 7)

    def test_zero_features_give_zero_embeddings(self):
        net = net_from_dense([[0, 1], [1, 0]], [[0, 0], [0, 0]])
        params = init_params(2, (3, 3), 2, np.random.default_rng(1))
        assert np.array_equal(encode(net, params), np.zeros((2, 6)))

    def test_dimension_mismatch_rejected(self, tiny_net):
        params = init_params(5, (4,), 2, np.random.default_rng(0))
        with pytest.raises(ValidationError):
            encode(tiny_net, params)

    def test_deterministic(self, tiny_net):
        params = init_params(2, (4, 4), 3, np.random.default_rng(2))
        assert np.array_equal(encode(tiny_net, params), encode(tiny_net, params))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        upper = np.triu((rng.random((10, 10)) < 0.4).astype(float), 1)
        adjacency = upper + upper.T
        features = rng.random((10, 6))
        net = net_from_dense(adjacency, features)
        params = init_params(6, (5, 4), 3, rng)
        perm = rng.permutation(10)
        permuted = net_from_dense(adjacency[np.ix_(perm, perm)], features[perm])

        z = encode(net, params)
        zp = encode(permuted, params)
        assert np.allclose(zp, z[perm])

        c = row_softmax(np.maximum(z @ params.cluster_weight, 0.0))
        cp = row_softmax(np.maximum(zp @ params.cluster_weight, 0.0))
        assert np.allclose(cp, c[perm])
        assert np.array_equal(hard_assign(cp), hard_assign(c[perm]))


class TestSoftAssign:
    def test_zero_rows_give_uniform(self):
        c = row_softmax(np.maximum(np.zeros((2, 3)) @ np.zeros((3, 2)), 0.0))
        assert np.allclose(c, 0.5)

    def test_analytic_softmax(self):
        # pre-activations [ln 2, 0] -> [2/3, 1/3]
        z = np.array([[math.log(2.0), 0.0]])
        c = row_softmax(np.maximum(z @ np.eye(2), 0.0))
        assert np.allclose(c, [[2 / 3, 1 / 3]], atol=1e-12)

    @given(
        st.integers(1, 6),
        st.integers(2, 5),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_sum_to_one(self, n, c, seed):
        rng = np.random.default_rng(seed)
        mat = row_softmax(np.maximum(rng.normal(size=(n, 4)) @ rng.normal(size=(4, c)), 0.0))
        assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-9)
        assert mat.min() >= 0

    @given(st.integers(0, 2**32 - 1), st.floats(-30, 30))
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance_against_naive_oracle(self, seed, shift):
        rng = np.random.default_rng(seed)
        e = rng.uniform(0, 5, size=(4, 3))
        assert np.allclose(row_softmax(e), naive_softmax(e), atol=1e-12)
        shifted = e.copy()
        shifted[2] += shift
        # adding a constant to a row must not change that row's softmax
        assert np.allclose(row_softmax(shifted)[2], row_softmax(e)[2], atol=1e-12)


class TestHardAssign:
    def test_argmax_is_one_based(self):
        assert hard_assign(np.array([[0.2, 0.8]])).tolist() == [2]

    def test_tie_goes_to_lowest_index(self):
        assert hard_assign(np.array([[0.5, 0.5]])).tolist() == [1]

    def test_three_way(self):
        assert hard_assign(np.array([[0.1, 0.1, 0.8]])).tolist() == [3]


def assert_containers(containers, expected: dict[int, list[int]]):
    """Each cluster's pool is a read-only ``intp`` array holding the expected ids."""
    assert containers.keys() == expected.keys()
    for c, ids in expected.items():
        pool = containers[c]
        assert pool.dtype == np.intp and not pool.flags.writeable
        assert np.array_equal(pool, ids)


class TestBuildContainers:
    def test_direct_grouping(self):
        assert_containers(build_containers(np.array([1, 2, 1]), 2), {1: [0, 2], 2: [1]})

    def test_empty_clusters_present(self):
        assert_containers(build_containers(np.array([1, 1, 1]), 3), {1: [0, 1, 2], 2: [], 3: []})

    def test_no_nodes(self):
        assert_containers(build_containers(np.array([], dtype=int), 2), {1: [], 2: []})

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            build_containers(np.array([0]), 2)

    @given(st.lists(st.integers(1, 4), max_size=30))
    @settings(max_examples=80)
    def test_partition_property(self, h):
        containers = build_containers(np.array(h, dtype=int), 4)
        seen = [v for nodes in containers.values() for v in nodes]
        assert sorted(seen) == list(range(len(h)))
        assert sum(len(v) for v in containers.values()) == len(h)
        assert_containers(containers, {c: np.flatnonzero(np.equal(h, c)) for c in range(1, 5)})


class TestClusterModel:
    def test_build_consistency(self):
        net, _ = generate_synthetic(n=20, d=8, k_planted=4, p_in=0.8, p_out=0.1, teams=0, seed=0)
        params = init_params(8, (6,), 4, np.random.default_rng(3))
        model = ClusterModel.build(net, params)
        assert model.n == 20 and model.clusters == 4
        assert np.allclose(model.soft.sum(axis=1), 1.0)
        for node, cluster in enumerate(model.hard):
            assert node in model.containers[int(cluster)]
            assert model.soft[node].argmax() + 1 == cluster

    def test_embeddings_are_the_padded_rows_above_a_zero_row(self):
        z = np.arange(6, dtype=np.int64).reshape(3, 2)
        model = ClusterModel(
            embeddings=z, soft=np.tile([1.0, 0.0], (3, 1)), hard=np.ones(3, dtype=int),
            containers={1: [0, 1, 2], 2: []},
        )
        assert model.padded.shape == (4, 2) and model.padded.dtype == np.float64
        assert np.shares_memory(model.embeddings, model.padded)
        assert np.array_equal(model.embeddings, z) and not model.padded[3].any()
        with pytest.raises(ValueError):
            model.embeddings[0, 0] = 1.0
        with pytest.raises(ValidationError, match="2-D"):
            ClusterModel(embeddings=np.zeros(3), soft=model.soft, hard=model.hard, containers={})

    def test_containers_are_the_hard_clusters_built_once(self):
        hard = np.array([2, 1, 2])
        containers = {1: (1,), 2: [0, 2], 3: np.array([], dtype=np.int32)}
        model = ClusterModel(np.eye(3), np.tile([1.0, 0.0, 0.0], (3, 1)), hard, containers)
        assert_containers(model.containers, {1: [1], 2: [0, 2], 3: []})
        with pytest.raises(ValueError):
            model.hard[0] = 1
        with pytest.raises(TypeError):
            model.containers[4] = np.array([0])
        hard[0] = 9  # the model keeps its own copy
        assert model.hard.tolist() == [2, 1, 2]


class TestDefaultClusterCount:
    @pytest.mark.parametrize(
        "n,expected", [(1, 2), (4, 2), (40, 7), (100, 10), (26351, 163), (10**6, 256)]
    )
    def test_values(self, n, expected):
        assert default_cluster_count(n) == expected


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        params = init_params(5, (4, 3), 2, np.random.default_rng(11))
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        for a, b in zip(params.layer_weights, loaded.layer_weights):
            assert np.array_equal(a, b)
        assert np.array_equal(params.cluster_weight, loaded.cluster_weight)
        save_checkpoint(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_unknown_version_rejected(self, tmp_path):
        params = init_params(3, (2,), 2, np.random.default_rng(0))
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        doc = path.read_text().replace('"format_version": 1', '"format_version": 99')
        path.write_text(doc)
        with pytest.raises(ValidationError, match="version"):
            load_checkpoint(path)

    def test_version_true_rejected(self, tmp_path):
        # JSON true loads as True, and True == 1
        params = init_params(3, (2,), 2, np.random.default_rng(0))
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        path.write_text(path.read_text().replace('"format_version": 1', '"format_version": true'))
        with pytest.raises(ValidationError, match="version True"):
            load_checkpoint(path)

    def test_layer_weight_not_2d_reported_as_malformed(self, tmp_path):
        params = init_params(3, (2,), 2, np.random.default_rng(0))
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        doc = json.loads(path.read_text())
        doc["layer_weights"][0] = np.reshape(doc["layer_weights"][0], (3, 2, 1)).tolist()
        path.write_text(json.dumps(doc))
        message = "malformed checkpoint .*layer 0 weight must be 2-D"
        with pytest.raises(ValidationError, match=message):
            load_checkpoint(path)

    def test_dims_mismatch_rejected(self, tmp_path):
        params = init_params(3, (2,), 2, np.random.default_rng(0))
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path)
        doc = path.read_text().replace('"d": 3', '"d": 7')
        path.write_text(doc)
        with pytest.raises(ValidationError, match="dims"):
            load_checkpoint(path)


class TestEncoderParamsValidation:
    def test_chain_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            EncoderParams(
                layer_weights=(np.zeros((3, 4)), np.zeros((5, 2))),
                cluster_weight=np.zeros((6, 2)),
            )

    def test_nonfinite_rejected(self):
        w = np.zeros((2, 2))
        w[0, 0] = np.nan
        with pytest.raises(ValidationError):
            EncoderParams(layer_weights=(w,), cluster_weight=np.zeros((2, 2)))

    @pytest.mark.parametrize("shape", [(2, 2, 1), (2,)], ids=["3-D", "1-D"])
    def test_layer_weight_not_2d_rejected(self, shape):
        # a 3-D weight chains and sums like a 2-D one, then fails inside forward
        message = f"layer 0 weight must be 2-D, got shape {shape}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            EncoderParams(layer_weights=(np.zeros(shape),), cluster_weight=np.zeros((2, 2)))

    def test_single_cluster_rejected(self):
        with pytest.raises(ValidationError):
            EncoderParams(
                layer_weights=(np.zeros((2, 2)),), cluster_weight=np.zeros((2, 1))
            )
