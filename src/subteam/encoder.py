"""Graph-convolution encoder with layer concatenation and a soft clustering head.

:func:`forward` is the one encoder pass: :func:`encode`,
:meth:`ClusterModel.build` and the trainer all call it, and the trainer's
backpropagation (checked by :func:`subteam.trainer.gradient_check`) reads the
intermediates it returns. All forward operations are pure functions of
immutable inputs; parameter objects are never mutated in place. Cluster ids
are 1-based throughout, matching the hard-assignment convention used by the
recommender.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graph import SocialNetwork, normalize_adjacency

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class EncoderDims:
    """Shape record: input feature width, per-layer output widths, cluster count."""

    d: int
    hidden: tuple[int, ...]
    clusters: int

    @property
    def layers(self) -> int:
        return len(self.hidden)

    @property
    def embedding_width(self) -> int:
        return sum(self.hidden)


@dataclass(frozen=True, eq=False)
class EncoderParams:
    """Trainable weights: one matrix per convolution layer plus the cluster head."""

    layer_weights: tuple[np.ndarray, ...]
    cluster_weight: np.ndarray

    def __post_init__(self):
        if len(self.layer_weights) < 1:
            raise ValidationError("need at least one layer weight")
        weights = tuple(np.asarray(w, dtype=np.float64) for w in self.layer_weights)
        head = np.asarray(self.cluster_weight, dtype=np.float64)
        for idx in range(1, len(weights)):
            if weights[idx].shape[0] != weights[idx - 1].shape[1]:
                raise ValidationError(
                    f"layer {idx} input {weights[idx].shape[0]} != layer {idx - 1} "
                    f"output {weights[idx - 1].shape[1]}"
                )
        dz = sum(w.shape[1] for w in weights)
        if head.ndim != 2 or head.shape[0] != dz:
            raise ValidationError(
                f"cluster weight must have {dz} rows, got {head.shape}"
            )
        if head.shape[1] < 2:
            raise ValidationError("need at least 2 clusters")
        for w in (*weights, head):
            if not np.all(np.isfinite(w)):
                raise ValidationError("non-finite entries in encoder weights")
        object.__setattr__(self, "layer_weights", weights)
        object.__setattr__(self, "cluster_weight", head)

    @property
    def dims(self) -> EncoderDims:
        return EncoderDims(
            d=self.layer_weights[0].shape[0],
            hidden=tuple(w.shape[1] for w in self.layer_weights),
            clusters=self.cluster_weight.shape[1],
        )


def default_cluster_count(n: int) -> int:
    """ceil(sqrt(n)), clamped to [2, 256]."""
    return max(2, min(256, math.isqrt(max(n - 1, 0)) + 1))


def init_params(d: int, hidden, clusters: int, rng: np.random.Generator) -> EncoderParams:
    """Symmetric uniform fan-in initialization for every weight matrix."""
    sizes = [d, *hidden]
    weights = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
    dz = sum(hidden)
    bound = 1.0 / math.sqrt(dz)
    head = rng.uniform(-bound, bound, size=(dz, clusters))
    return EncoderParams(layer_weights=tuple(weights), cluster_weight=head)


@dataclass(frozen=True, eq=False)
class Forward:
    """Every intermediate of one encoder pass; training backpropagates through them."""

    aggregated: tuple  # per layer: norm_adj @ h_prev (sparse for the first layer)
    activations: tuple[np.ndarray, ...]  # per layer: ReLU(aggregated @ w)
    z: np.ndarray  # embeddings: the activations side by side
    u: np.ndarray  # cluster-head pre-activation z @ w_c
    c: np.ndarray  # soft assignments: row softmax of ReLU(u)


def forward(norm_adj, features, params: EncoderParams) -> Forward:
    """The encoder pass: ReLU(norm_adj @ h @ w) per layer, concatenation, soft head."""
    if params.dims.d != features.shape[1]:
        raise ValidationError(
            f"params expect d={params.dims.d}, features have d={features.shape[1]}"
        )
    aggregated, activations = [], []
    h = features
    for w in params.layer_weights:
        m = norm_adj @ h
        h = np.maximum(np.asarray(m @ w), 0.0)
        aggregated.append(m)
        activations.append(h)
    z = np.concatenate(activations, axis=1)
    u = z @ params.cluster_weight
    c = row_softmax(np.maximum(u, 0.0))
    return Forward(tuple(aggregated), tuple(activations), z, u, c)


def encode(net: SocialNetwork, params: EncoderParams) -> np.ndarray:
    """Node embeddings: column-concatenation of every layer's activations."""
    return forward(normalize_adjacency(net), net.features, params).z


def row_softmax(e: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting each row's max."""
    e = np.asarray(e, dtype=np.float64)
    shifted = e - e.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def soft_assign(z: np.ndarray, w_c: np.ndarray) -> np.ndarray:
    """Soft cluster assignments: row softmax of ReLU(z @ w_c)."""
    if z.shape[1] != w_c.shape[0]:
        raise ValidationError(f"shape mismatch: z {z.shape}, w_c {w_c.shape}")
    return row_softmax(np.maximum(z @ w_c, 0.0))


def hard_assign(c_mat: np.ndarray) -> np.ndarray:
    """1-based argmax per row; ties go to the lowest cluster index."""
    return np.argmax(np.asarray(c_mat), axis=1) + 1


def build_containers(h: np.ndarray, c: int) -> dict[int, list[int]]:
    """Group node ids by hard cluster; every cluster id 1..c maps to a sorted list."""
    containers: dict[int, list[int]] = {m: [] for m in range(1, c + 1)}
    for node, cluster in enumerate(np.asarray(h).tolist()):
        if not 1 <= cluster <= c:
            raise ValidationError(f"cluster id {cluster} for node {node} outside 1..{c}")
        containers[int(cluster)].append(node)
    return containers


@dataclass(frozen=True, eq=False)
class ClusterModel:
    """Inference-time bundle: embeddings, soft/hard assignments, cluster containers."""

    embeddings: np.ndarray
    soft: np.ndarray
    hard: np.ndarray
    containers: dict[int, list[int]]

    @classmethod
    def build(cls, net: SocialNetwork, params: EncoderParams) -> "ClusterModel":
        fwd = forward(normalize_adjacency(net), net.features, params)
        h = hard_assign(fwd.c)
        return cls(
            embeddings=fwd.z,
            soft=fwd.c,
            hard=h,
            containers=build_containers(h, params.dims.clusters),
        )

    @property
    def n(self) -> int:
        return self.embeddings.shape[0]

    @property
    def clusters(self) -> int:
        return self.soft.shape[1]


def save_checkpoint(params: EncoderParams, path) -> None:
    """Write weights as a versioned JSON document with row-major float arrays."""
    dims = params.dims
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "dims": {"d": dims.d, "hidden": list(dims.hidden), "clusters": dims.clusters},
        "layer_weights": [w.tolist() for w in params.layer_weights],
        "cluster_weight": params.cluster_weight.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_checkpoint(path) -> EncoderParams:
    """Read a checkpoint; malformed content raises ValidationError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        version = doc.get("format_version")
        if version != CHECKPOINT_VERSION:
            raise ValidationError(
                f"unsupported checkpoint format version {version!r} "
                f"(expected {CHECKPOINT_VERSION})"
            )
        params = EncoderParams(
            layer_weights=tuple(np.asarray(w, dtype=np.float64) for w in doc["layer_weights"]),
            cluster_weight=np.asarray(doc["cluster_weight"], dtype=np.float64),
        )
        dims = doc.get("dims", {})
        declared = (dims.get("d"), tuple(dims.get("hidden", ())), dims.get("clusters"))
    except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        cause = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ValidationError(f"malformed checkpoint {path}: {cause}") from exc
    expected = params.dims
    if declared != (expected.d, expected.hidden, expected.clusters):
        raise ValidationError(
            f"checkpoint dims record {declared} does not match weight shapes "
            f"({expected.d}, {expected.hidden}, {expected.clusters})"
        )
    return params
