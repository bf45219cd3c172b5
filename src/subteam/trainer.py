"""Self-supervised training loop: subteam sampling, manual backprop, checkpoints.

The encoder forward pass is :func:`subteam.encoder.forward`, and each loss
term's value and gradient come from one function in :mod:`subteam.objectives`.
This module adds the chain rule through the cluster head and the layers; an
oracle in the test suite checks it against central finite differences.
:func:`subteam.graph.draw_subset` draws each epoch's subteams, and one
:class:`EpochStats` records an epoch's four loss values and their total, the
last three weighted by ``TrainConfig.weights``. The setting checks and the
two-member filter are :mod:`subteam.graph`'s, the dense-size check the encoder's
(with the trainer's feature rows and Gram added). The loop is deterministic for
a fixed seed: identical configuration and data reproduce bit-identical parameters.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .encoder import (
    EncoderParams,
    Forward,
    check_dense_size,
    default_cluster_count,
    forward,
    init_params,
)
from .errors import NonFiniteLossError, ValidationError
from .graph import SocialNetwork, Team, _data_lines, draw_subset, drawable_teams, normalize_adjacency
from .graph import _shown, check_collection, check_integer, check_real, check_seed, check_teams
from .objectives import (
    clustering_loss,
    contrastive_loss,
    feature_factor,
    skill_loss,
    structural_loss,
)


def _split_fractions(fractions) -> tuple[float, ...]:
    """The (train, val, test) fractions as floats: three, each finite and >= 0, summing to 1."""
    return check_real(
        "split fractions", fractions, "three finite reals >= 0 that sum to 1",
        lambda *f: min(f) >= 0 and abs(sum(f) - 1.0) <= 1e-9, count=3,
    )


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 1000
    learning_rate: float = 0.01
    weights: tuple[float, float, float] = (1.0, 100.0, 1.0)  # skill, structural, clustering
    subteam_fraction_range: tuple[float, float] = (0.25, 0.75)
    seed: int = 0
    split: tuple[float, float, float] = (0.6, 0.2, 0.2)
    hidden: tuple[int, ...] = (64, 64)
    clusters: int | None = None

    def __post_init__(self):
        check_integer("epochs", self.epochs, 1)
        check_real("learning rate", self.learning_rate, "a finite real > 0", lambda rate: rate > 0)
        fraction_range = check_real(
            "subteam fraction range", self.subteam_fraction_range,
            "two reals (low, high) with 0 < low <= high < 1",
            lambda low, high: 0 < low <= high < 1, count=2,
        )
        rule = "one or more layer widths"
        hidden = check_collection("hidden", self.hidden, rule)
        if not hidden:
            raise ValidationError(f"hidden must be {rule}, got {_shown(self.hidden)}")
        for width in hidden:
            check_integer("each hidden width", width, 1)
        if self.clusters is not None:
            check_integer("clusters", self.clusters, 2)
        weights = check_real(
            "loss weights", self.weights, "three finite reals >= 0 (skill, structural, clustering)",
            lambda *w: min(w) >= 0, count=3,
        )
        check_seed(self.seed)
        object.__setattr__(self, "hidden", tuple(int(h) for h in hidden))
        object.__setattr__(self, "split", _split_fractions(self.split))
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "subteam_fraction_range", fraction_range)


_LOG_COLUMNS = ("epoch", "contra", "skill", "structural", "clustering", "total", "wall_ms")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    contra: float
    skill: float
    structural: float
    clustering: float
    total: float
    val_contra: float | None
    wall_ms: float


def split_teams(teams, fractions, seed: int) -> tuple[list[Team], list[Team], list[Team]]:
    """Deterministic shuffled partition, empty for no teams; floor-sized val/test, rest to train."""
    check_teams(teams)
    check_seed(seed)
    _, f_val, f_test = _split_fractions(fractions)
    order = np.random.default_rng(seed).permutation(len(teams))
    n_val = int(f_val * len(teams))
    n_test = int(f_test * len(teams))
    n_train = len(teams) - n_val - n_test
    shuffled = [teams[i] for i in order]
    return (
        shuffled[:n_train],
        shuffled[n_train : n_train + n_val],
        shuffled[n_train + n_val :],
    )


def _sample_batch(teams, fraction_range, rng) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(members, subteam) per drawable team; each draws a uniform fraction in ``fraction_range``."""
    return [
        (team.members, draw_subset(array, rng.uniform(*fraction_range), rng))
        for team, array in teams
    ]


class _LossModel:
    """The weighted objective on one fixed network, and its chain rule to the weights."""

    def __init__(self, net: SocialNetwork):
        self.norm_adj = normalize_adjacency(net)
        self.ax = self.norm_adj @ net.features  # the first layer's input; no weight enters it
        self.feature_side = feature_factor(net.features)
        self.adjacency = net.adjacency
        self.adjacency_fro2 = float(np.vdot(net.adjacency.data, net.adjacency.data))

    def checked_forward(self, params: EncoderParams, epoch: int) -> Forward:
        """The encoder pass; refuses embeddings that a ``ClusterModel`` would refuse."""
        fwd = forward(self.norm_adj, self.ax, params)
        if not np.isfinite(squares := np.einsum("ij,ij->", fwd.z, fwd.z)):
            raise NonFiniteLossError("embeddings' sum of squares", epoch, float(squares))
        return fwd

    def terms(self, fwd: Forward, pairs, wvec):
        """Each term's value, their wvec-weighted total, and the total's gradients wrt z and C."""
        w_contra, b1, b2, b3 = wvec
        z, c = fwd.z, fwd.c
        # the four terms are looked up as this module's globals, where perfbench/tracing.py
        # swaps in its timing wrappers
        contra, dz = contrastive_loss(pairs, z, w_contra)
        skill, g_skill = skill_loss(self.feature_side, c, b1)
        structural, g_structural = structural_loss(self.adjacency, c, b2, self.adjacency_fro2)
        clustering, g_clustering = clustering_loss(c, b3)
        losses = dict(contra=contra, skill=skill, structural=structural, clustering=clustering)
        losses["total"] = w_contra * contra + b1 * skill + b2 * structural + b3 * clustering
        return losses, dz, g_skill + g_structural + g_clustering

    def backward(self, params: EncoderParams, fwd: Forward, dz: np.ndarray, dc: np.ndarray):
        """Gradients wrt every layer weight and the head, given dL/dz and dL/dC."""
        c = fwd.c
        # head: softmax rows, then ReLU, then the linear map
        de = c * (dc - (dc * c).sum(axis=1, keepdims=True))
        du = de * (fwd.u > 0)
        d_wc = fwd.z.T @ du
        dz = dz + du @ params.cluster_weight.T

        widths = [w.shape[1] for w in params.layer_weights]
        offsets = np.cumsum([0, *widths])
        grads = [None] * len(widths)
        carry = None
        for l in reversed(range(len(widths))):
            dh = dz[:, offsets[l] : offsets[l + 1]].copy()
            if carry is not None:
                dh += carry
            dp = dh * (fwd.activations[l] > 0)
            grads[l] = np.asarray(fwd.aggregated[l].T @ dp)
            if l > 0:
                carry = self.norm_adj @ (dp @ params.layer_weights[l].T)
        return grads, d_wc


@np.errstate(over="ignore", invalid="ignore")  # every non-finite outcome is refused below
def train(net: SocialNetwork, teams, cfg: TrainConfig):
    """Full-batch gradient descent on the combined objective.

    Subteams are resampled every epoch. Returns the parameters of the epoch
    with the best (lowest) validation contrastive loss, falling back to the
    final parameters when there is no usable validation split, together with
    the per-epoch statistics. A non-finite loss term, parameter or embeddings'
    sum of squares raises :class:`NonFiniteLossError`: what it returns builds a model.
    A shape past ``encoder.MAX_DENSE_ENTRIES``, counting the encoder's arrays, the
    dense n x d feature rows and the skill term's d x d Gram, raises
    :class:`ValidationError` first.
    """
    check_teams(teams)
    if not teams:
        raise ValidationError("cannot train without teams")
    for team in teams:
        team.validate_for(net)
    if net.d == 0:
        raise ValidationError("cannot train on a network without features (d = 0)")
    # the head holds sum(hidden) x clusters weights and the skill term a
    # clusters x clusters Gram, so an explicit count is capped at n
    if cfg.clusters is not None and cfg.clusters > net.n:
        raise ValidationError(f"cluster count {_shown(cfg.clusters)} exceeds the node count {net.n}")
    clusters = cfg.clusters if cfg.clusters is not None else default_cluster_count(net.n)
    check_dense_size(net.n, net.d, cfg.hidden, clusters, extra=net.n * net.d + net.d**2)
    train_split, val_split, _ = split_teams(teams, cfg.split, cfg.seed)
    train_teams, val_teams = drawable_teams(train_split), drawable_teams(val_split)
    if not train_teams:
        raise ValidationError(
            f"training split {cfg.split} holds no team of 2 or more members "
            f"({len(train_split)} teams)"
        )
    params = init_params(net.d, cfg.hidden, clusters, np.random.default_rng([cfg.seed, 0]))
    sampler = np.random.default_rng([cfg.seed, 1])
    model = _LossModel(net)

    log: list[EpochStats] = []
    best_val = np.inf
    best_params = None
    fwd = model.checked_forward(params, 1)
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        pairs = _sample_batch(train_teams, cfg.subteam_fraction_range, sampler)
        losses, dz, dc = model.terms(fwd, pairs, (1.0, *cfg.weights))
        for name, value in losses.items():
            if not np.isfinite(value):
                raise NonFiniteLossError(f"{name} loss", epoch, value)

        grads, d_wc = model.backward(params, fwd, dz, dc)
        new_layers = tuple(
            w - cfg.learning_rate * g for w, g in zip(params.layer_weights, grads)
        )
        new_head = params.cluster_weight - cfg.learning_rate * d_wc
        for w in (*new_layers, new_head):
            if not np.all(np.isfinite(w)):
                raise NonFiniteLossError("parameter update", epoch, float(np.max(np.abs(w))))
        params = EncoderParams(layer_weights=new_layers, cluster_weight=new_head)
        # one pass on the updated parameters serves validation and the next epoch
        fwd = model.checked_forward(params, epoch)

        val_pairs = _sample_batch(val_teams, cfg.subteam_fraction_range, sampler)
        val_contra = None
        if val_pairs:
            val_contra = contrastive_loss(val_pairs, fwd.z)[0]
            if val_contra < best_val:
                best_val = val_contra
                best_params = params

        wall_ms = (time.perf_counter() - t0) * 1e3
        log.append(EpochStats(epoch, **losses, val_contra=val_contra, wall_ms=wall_ms))
    return (best_params if best_params is not None else params), log


def write_train_log(log, path) -> None:
    """A ``#`` header naming the ``_LOG_COLUMNS``, then one tab-separated line per epoch
    holding the ``repr`` of each; the wall-ms column, last, is the only timing field."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + "\t".join(_LOG_COLUMNS) + "\n")
        for entry in log:
            fh.write("\t".join(repr(getattr(entry, name)) for name in _LOG_COLUMNS) + "\n")


def read_total_wall_ms(path) -> float:
    """Sum of the wall-ms column of a training log (for amortized-time reporting).

    Each value must be a finite number >= 0; the error names the file and line.
    """
    total = 0.0
    for line_no, line in _data_lines(path):
        field = line.split("\t")[-1]
        try:
            value = float(field)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value >= 0):
            raise ValidationError(f"{path}:{line_no}: wall ms must be finite and >= 0: {field}")
        total += value
    return total

