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
        for idx, w in enumerate(weights):
            if w.ndim != 2:
                raise ValidationError(f"layer {idx} weight must be 2-D, got shape {w.shape}")
            if idx and w.shape[0] != weights[idx - 1].shape[1]:
                raise ValidationError(
                    f"layer {idx} input {w.shape[0]} != layer {idx - 1} "
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


def build_containers(h: np.ndarray, c: int) -> dict[int, np.ndarray]:
    """Each cluster id 1..c mapped to the read-only ascending ``intp`` array of its
    nodes in ``h``: slices of one stable argsort."""
    h = np.asarray(h)
    if h.size and not 1 <= h.min() <= h.max() <= c:
        raise ValidationError(f"cluster ids {h.min()}..{h.max()} outside 1..{c}")
    order = np.argsort(h, kind="stable")
    order.flags.writeable = False
    ends = np.cumsum(np.bincount(h, minlength=c + 1))  # ends[m]: the nodes in clusters 1..m
    return {m: order[ends[m - 1] : ends[m]] for m in range(1, c + 1)}


@dataclass(frozen=True, eq=False)
class ClusterModel:
    """Inference-time bundle: embeddings, soft/hard assignments, cluster containers.

    The model holds its embeddings once, as ``padded``: an (n+1)×w float64
    array whose last row, at id n, is zeros. ``embeddings`` is the view of its
    first n rows, so the two cannot disagree, and the search indexes
    ``padded`` by global node id with id n standing for team members and
    repeats. The search pools are the hard clusters, built once:
    ``containers`` is :func:`build_containers` of ``hard`` and the width c of
    ``soft``, and ``hard`` is kept as a read-only copy. Construction raises
    :class:`ValidationError` unless the embeddings' sum of squares is finite,
    ``hard`` is a 1-D integer array of length n with ids in 1..c, ``soft`` has
    n rows, and the ``containers`` passed in equal that grouping: integer ids
    in ascending order under every cluster id 1..c.
    """

    embeddings: np.ndarray
    soft: np.ndarray
    hard: np.ndarray
    containers: Mapping[int, np.ndarray]
    padded: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        z = np.asarray(self.embeddings, dtype=np.float64)
        if z.ndim != 2:
            raise ValidationError(f"embeddings must be 2-D, got shape {z.shape}")
        # the sum bounds every row norm and every mean of rows, so no search cosine overflows
        if not np.isfinite(np.einsum("ij,ij->", z, z)):
            raise ValidationError("embeddings' sum of squares is not finite")
        n = z.shape[0]
        hard = np.array(self.hard)
        if hard.shape != (n,) or not np.issubdtype(hard.dtype, np.integer):
            raise ValidationError(
                f"hard must be a 1-D integer array of length {n}, got {hard.dtype} of shape {hard.shape}"
            )
        hard.flags.writeable = False
        soft = np.asarray(self.soft)
        if soft.ndim != 2 or soft.shape[0] != n:
            raise ValidationError(f"soft must have {n} rows, got shape {soft.shape}")
        containers = build_containers(hard, soft.shape[1])
        given = {c: np.asarray(ids) for c, ids in self.containers.items()}
        if given.keys() != containers.keys() or not all(  # an empty list reads as float64
            (ids.dtype.kind in "iu" or not ids.size) and np.array_equal(ids, containers[c])
            for c, ids in given.items()
        ):
            raise ValidationError(f"containers differ from the hard clusters 1..{soft.shape[1]}, ascending")
        padded = np.zeros((n + 1, z.shape[1]))
        padded[:n] = z
        padded.flags.writeable = False
        object.__setattr__(self, "padded", padded)
        object.__setattr__(self, "embeddings", padded[:n])
        object.__setattr__(self, "soft", soft)
        object.__setattr__(self, "hard", hard)
        object.__setattr__(self, "containers", MappingProxyType(containers))

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
        # type() and not ==: JSON true loads as True, and True == 1
        if type(version) is not int or version != CHECKPOINT_VERSION:
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
