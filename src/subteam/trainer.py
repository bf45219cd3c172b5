"""Self-supervised training loop: subteam sampling, manual backprop, checkpoints.

The encoder forward pass is :func:`subteam.encoder.forward`, and each loss
term's value and gradient come from one function in :mod:`subteam.objectives`.
This module adds the chain rule through the cluster head and the layers; an
oracle in the test suite checks it against central finite differences.
The whole loop is deterministic for a fixed seed: identical configuration and
data reproduce bit-identical parameters.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, astuple, dataclass

import numpy as np

from .encoder import EncoderParams, Forward, default_cluster_count, forward, init_params
from .errors import NonFiniteLossError, ValidationError
from .graph import SocialNetwork, Team, _data_lines, check_seed, draw_subset, normalize_adjacency
from .objectives import (
    LossWeights,
    clustering_loss,
    contrastive_loss,
    feature_factor,
    skill_loss,
    structural_loss,
    total_loss,
)

# training holds dense n x d feature rows, the skill term's d x d Gram, the
# encoder's n x sum(hidden) activations and n x clusters head outputs, and its
# layer and head weights; past this many entries (2**27 float64 entries,
# 1,073,741,824 bytes) a run is refused before anything is allocated: the node
# and feature caps bound each side, not the product, and no width is capped
MAX_DENSE_ENTRIES = 2**27


def _split_fractions(fractions) -> tuple[float, ...]:
    """The (train, val, test) fractions as floats: three, each >= 0, summing to 1."""
    fractions = tuple(float(f) for f in fractions)
    # written so that a NaN fails the test
    if len(fractions) != 3 or not (
        all(f >= 0 for f in fractions) and abs(sum(fractions) - 1.0) <= 1e-9
    ):
        raise ValidationError(f"split fractions must be >= 0 and sum to 1, got {fractions}")
    return fractions


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 1000
    learning_rate: float = 0.01
    weights: LossWeights = LossWeights()
    subteam_fraction_range: tuple[float, float] = (0.25, 0.75)
    seed: int = 0
    split: tuple[float, float, float] = (0.6, 0.2, 0.2)
    hidden: tuple[int, ...] = (64, 64)
    clusters: int | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValidationError(
                f"learning rate must be finite and positive, got {self.learning_rate}"
            )
        lo, hi = self.subteam_fraction_range
        if not (0 < lo <= hi < 1):
            raise ValidationError(f"need 0 < low <= high < 1, got ({lo}, {hi})")
        hidden = tuple(int(h) for h in self.hidden)
        if not hidden or min(hidden) < 1:
            raise ValidationError(f"need at least one hidden layer, each >= 1 wide, got {hidden}")
        if self.clusters is not None and self.clusters < 2:
            raise ValidationError(f"need at least 2 clusters, got {self.clusters}")
        check_seed(self.seed)
        object.__setattr__(self, "hidden", hidden)
        object.__setattr__(self, "split", _split_fractions(self.split))
        object.__setattr__(
            self, "subteam_fraction_range", tuple(float(f) for f in self.subteam_fraction_range)
        )


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
    """Deterministic shuffled partition; floor-sized val/test, remainder to train."""
    if not teams:
        raise ValidationError("cannot split an empty team list")
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


def sample_subteam(team, fraction_range, rng: np.random.Generator):
    """Uniform subteam of fractional size; None for teams too small to split.

    ``team`` is a :class:`Team` or an array of its members; the size fraction is
    drawn uniformly from ``fraction_range``, then :func:`subteam.graph.draw_subset` draws.
    """
    members = np.asarray(getattr(team, "members", team))
    if len(members) < 2:
        return None
    return draw_subset(members, rng.uniform(*fraction_range), rng)


def _member_arrays(teams) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Each team's members as a tuple and as an array, built once per run for the sampler."""
    return [(team.members, np.asarray(team.members)) for team in teams]


def _sample_batch(teams, fraction_range, rng) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(team members, sampled subteam) for each :func:`_member_arrays` entry that can split."""
    pairs = []
    for members, array in teams:
        sub = sample_subteam(array, fraction_range, rng)
        if sub is not None:
            pairs.append((members, sub))
    return pairs


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
        """Each term's value, and the gradients of the wvec-weighted sum wrt z and C."""
        w_contra, b1, b2, b3 = wvec
        z, c = fwd.z, fwd.c
        # the four terms are looked up as this module's globals, where perfbench/tracing.py
        # swaps in its timing wrappers
        contra, dz = contrastive_loss(pairs, z, w_contra)
        skill, g_skill = skill_loss(self.feature_side, c, b1)
        structural, g_structural = structural_loss(self.adjacency, c, b2, self.adjacency_fro2)
        clustering, g_clustering = clustering_loss(c, b3)
        parts = dict(contra=contra, skill=skill, structural=structural, clustering=clustering)
        return parts, dz, g_skill + g_structural + g_clustering

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
    A shape past ``MAX_DENSE_ENTRIES`` raises :class:`ValidationError` first.
    """
    if not teams:
        raise ValidationError("cannot train without teams")
    for team in teams:
        team.validate_for(net)
    if net.d == 0:
        raise ValidationError("cannot train on a network without features (d = 0)")
    # the head holds sum(hidden) x clusters weights and the skill term a
    # clusters x clusters Gram, so an explicit count is capped at n
    if cfg.clusters is not None and cfg.clusters > net.n:
        raise ValidationError(f"cluster count {cfg.clusters} exceeds the node count {net.n}")
    clusters = cfg.clusters if cfg.clusters is not None else default_cluster_count(net.n)
    widths = (net.d, *cfg.hidden)
    dense = (
        net.n * (net.d + sum(cfg.hidden) + clusters)
        + net.d**2
        + sum(a * b for a, b in zip(widths, widths[1:]))
        + sum(cfg.hidden) * clusters
    )
    if dense > MAX_DENSE_ENTRIES:
        raise ValidationError(
            f"n={net.n} nodes and d={net.d} features with hidden widths {cfg.hidden} and "
            f"{clusters} clusters need {dense} dense entries, over the cap of {MAX_DENSE_ENTRIES}"
        )
    train_teams, val_teams, _ = split_teams(teams, cfg.split, cfg.seed)
    if all(len(team) < 2 for team in train_teams):
        raise ValidationError(
            f"training split {cfg.split} holds no team of 2 or more members "
            f"({len(train_teams)} teams)"
        )
    train_teams, val_teams = _member_arrays(train_teams), _member_arrays(val_teams)
    params = init_params(net.d, cfg.hidden, clusters, np.random.default_rng([cfg.seed, 0]))
    sampler = np.random.default_rng([cfg.seed, 1])
    model = _LossModel(net)
    weights = cfg.weights
    wvec = (1.0, weights.skill, weights.structural, weights.clustering)

    log: list[EpochStats] = []
    best_val = np.inf
    best_params = None
    fwd = model.checked_forward(params, 1)
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        pairs = _sample_batch(train_teams, cfg.subteam_fraction_range, sampler)
        parts, dz, dc = model.terms(fwd, pairs, wvec)
        report = total_loss(**parts, weights=weights)
        for name, value in asdict(report).items():
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
        log.append(EpochStats(epoch, *astuple(report), val_contra, wall_ms))
    return (best_params if best_params is not None else params), log


def write_train_log(log, path) -> None:
    """One tab-separated line per epoch; the wall-ms column is the only timing field."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# epoch\tcontra\tskill\tstructural\tclustering\ttotal\twall_ms\n")
        for entry in log:
            fh.write(
                f"{entry.epoch}\t{entry.contra!r}\t{entry.skill!r}\t{entry.structural!r}"
                f"\t{entry.clustering!r}\t{entry.total!r}\t{entry.wall_ms!r}\n"
            )


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

