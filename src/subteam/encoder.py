"""Graph-convolution encoder with layer concatenation and a soft clustering head.

:func:`forward` is the one encoder pass: :func:`encode`,
:meth:`ClusterModel.build` and the trainer all call it, and the trainer's
backpropagation (checked against finite differences in the test suite)
reads the intermediates it returns. All forward operations are pure functions
of immutable inputs; parameter objects are never mutated in place. Cluster ids
are 1-based throughout, matching the hard-assignment convention used by the
recommender.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

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

    aggregated: tuple  # per layer: norm_adj @ h_prev (the given ax for the first layer)
    activations: tuple[np.ndarray, ...]  # per layer: ReLU(aggregated @ w)
    z: np.ndarray  # embeddings: the activations side by side
    u: np.ndarray  # cluster-head pre-activation z @ w_c
    c: np.ndarray  # soft assignments: row softmax of ReLU(u)


def forward(norm_adj, ax, params: EncoderParams) -> Forward:
    """The encoder pass: ReLU(norm_adj @ h @ w) per layer, concatenation, soft head.

    ``ax`` is ``norm_adj @ features`` (sparse when the features are), computed
    once by the caller since no weight enters it; later layers aggregate here.
    """
    if params.dims.d != ax.shape[1]:
        raise ValidationError(f"params expect d={params.dims.d}, features have d={ax.shape[1]}")
    aggregated, activations = [], []
    m = ax
    for w in params.layer_weights:
        if activations:
            m = norm_adj @ activations[-1]
        aggregated.append(m)
        activations.append(np.maximum(np.asarray(m @ w), 0.0))
    z = np.concatenate(activations, axis=1)
    u = z @ params.cluster_weight
    c = row_softmax(np.maximum(u, 0.0))
    return Forward(tuple(aggregated), tuple(activations), z, u, c)


def encode(net: SocialNetwork, params: EncoderParams) -> np.ndarray:
    """Node embeddings: column-concatenation of every layer's activations."""
    norm_adj = normalize_adjacency(net)
    return forward(norm_adj, norm_adj @ net.features, params).z


def row_softmax(e: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting each row's max."""
    e = np.asarray(e, dtype=np.float64)
    shifted = e - e.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


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
    """Inference-time bundle: embeddings, soft/hard assignments, cluster containers.

    The model holds its embeddings once, as ``padded``: an (n+1)×w float64
    array whose last row, at id n, is zeros. ``embeddings`` is the view of its
    first n rows, so the two cannot disagree, and the search indexes
    ``padded`` by global node id with id n standing for team members and
    repeats. The search pools are built once, at construction: ``pools``
    maps each cluster id to a read-only ``intp`` array of the container's
    node ids in container order, and ``containers`` becomes a read-only
    mapping of the same ids as tuples, so the two cannot disagree and a later
    edit to the caller's lists does not reach the model. ``hard`` is kept as
    a read-only copy. Construction raises :class:`ValidationError` unless
    every container holds integer node ids in 0..n-1, ``hard`` is a 1-D
    integer array of length n whose every id is a container key, and
    ``soft`` has n rows; containers need not be sorted.
    """

    embeddings: np.ndarray
    soft: np.ndarray
    hard: np.ndarray
    containers: Mapping[int, tuple[int, ...]]
    padded: np.ndarray = field(init=False, repr=False)
    pools: Mapping[int, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        z = np.asarray(self.embeddings, dtype=np.float64)
        if z.ndim != 2:
            raise ValidationError(f"embeddings must be 2-D, got shape {z.shape}")
        n = z.shape[0]
        pools = {}
        for cluster, nodes in self.containers.items():
            try:
                pool = np.array([operator.index(v) for v in nodes], dtype=np.intp)
            except TypeError as exc:
                raise ValidationError(f"cluster {cluster} holds a non-integer node id: {exc}") from exc
            outside = pool[(pool < 0) | (pool >= n)]
            if outside.size:
                raise ValidationError(
                    f"cluster {cluster} holds node ids {outside.tolist()} outside 0..{n - 1}"
                )
            pool.flags.writeable = False
            pools[cluster] = pool
        hard = np.array(self.hard)
        if hard.shape != (n,) or not np.issubdtype(hard.dtype, np.integer):
            raise ValidationError(
                f"hard must be a 1-D integer array of length {n}, got {hard.dtype} of shape {hard.shape}"
            )
        unknown = set(np.unique(hard).tolist()).difference(pools)
        if unknown:
            raise ValidationError(f"hard assigns cluster ids {sorted(unknown)} that no container holds")
        hard.flags.writeable = False
        soft = np.asarray(self.soft)
        if soft.ndim != 2 or soft.shape[0] != n:
            raise ValidationError(f"soft must have {n} rows, got shape {soft.shape}")
        padded = np.zeros((n + 1, z.shape[1]))
        padded[:n] = z
        padded.flags.writeable = False
        object.__setattr__(self, "padded", padded)
        object.__setattr__(self, "embeddings", padded[:n])
        object.__setattr__(self, "soft", soft)
        object.__setattr__(self, "hard", hard)
        object.__setattr__(self, "pools", MappingProxyType(pools))
        object.__setattr__(
            self, "containers", MappingProxyType({c: tuple(p.tolist()) for c, p in pools.items()})
        )

    @classmethod
    def build(cls, net: SocialNetwork, params: EncoderParams) -> "ClusterModel":
        norm_adj = normalize_adjacency(net)
        fwd = forward(norm_adj, norm_adj @ net.features, params)
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
