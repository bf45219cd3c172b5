"""Graph-convolution encoder with layer concatenation and a soft clustering head.

:func:`forward` is the one encoder pass: :func:`encode` and the trainer call
it, and the trainer's backpropagation (checked against finite differences in
the test suite) reads the intermediates it returns. :meth:`ClusterModel.build`
takes its embeddings from :func:`encode` and its hard assignments from the
cluster head that ends :func:`forward`. Checkpoints record ``EncoderParams.dims``,
the ``(d, hidden, clusters)`` of the weight shapes. All forward operations are pure
functions of immutable inputs; parameter objects are never mutated in place.
Cluster ids are 1-based throughout, matching the hard-assignment convention
used by the recommender. :func:`encode` refuses, before allocating, a shape whose
arrays pass ``MAX_DENSE_ENTRIES``; training adds its own arrays to that count.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import InitVar, dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import ValidationError
from .graph import SocialNetwork, _shown, check_integer, normalize_adjacency

CHECKPOINT_VERSION = 1
# 2**27 float64 entries, 1,073,741,824 bytes: the node and feature caps bound
# each side of a shape, not the product, and no width is capped
MAX_DENSE_ENTRIES = 2**27


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
    def dims(self) -> tuple[int, tuple[int, ...], int]:
        """``(d, hidden, clusters)``: input width, per-layer output widths, cluster count."""
        hidden = tuple(w.shape[1] for w in self.layer_weights)
        return self.layer_weights[0].shape[0], hidden, self.cluster_weight.shape[1]


def default_cluster_count(n: int) -> int:
    """ceil(sqrt(n)), clamped to [2, 256]."""
    return max(2, min(256, math.isqrt(max(n - 1, 0)) + 1))


def _weight_shapes(d: int, hidden, clusters: int) -> list[tuple[int, int]]:
    """(fan_in, fan_out) of each layer weight in order, then of the cluster head."""
    widths = (d, *hidden)
    return [*zip(widths, widths[1:]), (sum(hidden), clusters)]


def check_dense_size(n: int, d: int, hidden, clusters: int, extra: int = 0) -> None:
    """Refuse, as :class:`ValidationError`, a shape whose dense entries pass
    ``MAX_DENSE_ENTRIES``: the encoder's n x sum(hidden) activations and n x clusters
    head outputs, its layer and head weights, and the caller's ``extra`` entries."""
    weights = sum(fan_in * fan_out for fan_in, fan_out in _weight_shapes(d, hidden, clusters))
    dense = n * (sum(hidden) + clusters) + weights + extra
    if dense > MAX_DENSE_ENTRIES:
        raise ValidationError(
            f"n={_shown(n)} nodes and d={_shown(d)} features with hidden widths {_shown(hidden)} "
            f"and {_shown(clusters)} clusters need {_shown(dense)} dense entries, "
            f"over the cap of {MAX_DENSE_ENTRIES}"
        )


def init_params(d: int, hidden, clusters: int, rng: np.random.Generator) -> EncoderParams:
    """Symmetric uniform fan-in initialization for every weight matrix, layers then head."""
    weights = []
    for fan_in, fan_out in _weight_shapes(d, hidden, clusters):
        bound = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
    *layers, head = weights
    return EncoderParams(layer_weights=tuple(layers), cluster_weight=head)


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
    if params.dims[0] != ax.shape[1]:
        raise ValidationError(f"params expect d={params.dims[0]}, features have d={ax.shape[1]}")
    aggregated, activations = [], []
    m = ax
    for w in params.layer_weights:
        if activations:
            m = norm_adj @ activations[-1]
        aggregated.append(m)
        activations.append(np.maximum(np.asarray(m @ w), 0.0))
    z = np.concatenate(activations, axis=1)
    return Forward(tuple(aggregated), tuple(activations), z, *_cluster_head(z, params))


def _cluster_head(z: np.ndarray, params: EncoderParams) -> tuple[np.ndarray, np.ndarray]:
    """The head's pre-activation u = z @ w_c and soft assignments, the row softmax of ReLU(u)."""
    u = z @ params.cluster_weight
    return u, row_softmax(np.maximum(u, 0.0))


def encode(net: SocialNetwork, params: EncoderParams) -> np.ndarray:
    """Node embeddings: column-concatenation of every layer's activations; a shape
    past ``MAX_DENSE_ENTRIES`` raises :class:`ValidationError` before any is allocated."""
    check_dense_size(net.n, *params.dims)
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
    """Inference-time bundle: embeddings, hard assignments, cluster containers.

    The model holds its embeddings once, as ``padded``: an (n+1)×w float64
    array whose last row, at id n, is zeros. ``embeddings`` is the view of its
    first n rows, so the two cannot disagree, and the search indexes
    ``padded`` by global node id with id n standing for team members and
    repeats. The search pools are the hard clusters, built once:
    ``containers`` is :func:`build_containers` of ``hard`` and the width c of
    ``soft``, which the model does not keep, and ``hard`` is kept as a
    read-only copy. Construction raises :class:`ValidationError` unless the
    embeddings' sum of squares is finite, ``hard`` is a 1-D integer array of
    length n with ids in 1..c, ``soft`` has n rows, and the ``containers``
    passed in equal that grouping: integer ids in ascending order under every
    cluster id 1..c.
    """

    embeddings: np.ndarray
    soft: InitVar[np.ndarray]
    hard: np.ndarray
    containers: Mapping[int, np.ndarray]
    padded: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, soft):
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
        soft = np.asarray(soft)
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
        object.__setattr__(self, "hard", hard)
        object.__setattr__(self, "containers", MappingProxyType(containers))

    @classmethod
    def build(cls, net: SocialNetwork, params: EncoderParams) -> "ClusterModel":
        z = encode(net, params)
        _, soft = _cluster_head(z, params)
        hard = hard_assign(soft)
        containers = build_containers(hard, params.dims[2])
        return cls(embeddings=z, soft=soft, hard=hard, containers=containers)

    @property
    def n(self) -> int:
        return self.embeddings.shape[0]


def save_checkpoint(params: EncoderParams, path) -> None:
    """Write weights as a versioned JSON document with row-major float arrays."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "dims": dict(zip(("d", "hidden", "clusters"), params.dims)),  # hidden writes as a list
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
        check_integer("checkpoint format version", version, CHECKPOINT_VERSION, CHECKPOINT_VERSION)
        params = EncoderParams(
            layer_weights=tuple(np.asarray(w, dtype=np.float64) for w in doc["layer_weights"]),
            cluster_weight=np.asarray(doc["cluster_weight"], dtype=np.float64),
        )
        dims = doc.get("dims", {})
        declared = (dims.get("d"), tuple(dims.get("hidden", ())), dims.get("clusters"))
    except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        cause = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ValidationError(f"malformed checkpoint {path}: {cause}") from exc
    if declared != params.dims:
        raise ValidationError(
            f"checkpoint dims record {declared} does not match weight shapes {params.dims}"
        )
    return params
