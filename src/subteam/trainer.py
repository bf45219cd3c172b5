"""Self-supervised training loop: subteam sampling, manual backprop, checkpoints.

The encoder forward pass is :func:`subteam.encoder.forward`, and each loss
term's value and gradient come from one function in :mod:`subteam.objectives`.
This module adds the chain rule through the cluster head and the layers; the
result is verified against central finite differences by :func:`gradient_check`.
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
from .graph import SocialNetwork, Team, normalize_adjacency
# skill_loss, structural_loss and clustering_loss are not called here, but stay
# importable as subteam.trainer.* because perfbench/tracing.py wraps them there.
from .objectives import (
    LossWeights,
    clustering_loss,
    clustering_term,
    contrastive_loss,
    contrastive_term,
    feature_factor,
    skill_loss,
    skill_term,
    structural_loss,
    structural_term,
    total_loss,
)


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
        if not self.hidden:
            raise ValidationError("need at least one hidden layer size")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
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

    ``team`` is a :class:`Team` or an array of its members. The draw indexes
    positions, which takes the same random stream as drawing from the members.
    """
    members = np.asarray(getattr(team, "members", team))
    m = len(members)
    if m < 2:
        return None
    lo, hi = fraction_range
    k = int(round(rng.uniform(lo, hi) * m))
    k = min(max(k, 1), m - 1)
    return tuple(np.sort(members[rng.choice(m, size=k, replace=False)]).tolist())


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

    def terms(self, fwd: Forward, pairs, wvec):
        """Each term's value, and the gradients of the wvec-weighted sum wrt z and C."""
        w_contra, b1, b2, b3 = wvec
        z, c = fwd.z, fwd.c
        contra, dz = contrastive_term(pairs, z, w_contra) if pairs else (0.0, np.zeros_like(z))
        skill, g_skill = skill_term(self.feature_side, c, b1)
        structural, g_structural = structural_term(self.adjacency, c, b2, self.adjacency_fro2)
        clustering, g_clustering = clustering_term(c, b3)
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


def train(net: SocialNetwork, teams, cfg: TrainConfig):
    """Full-batch gradient descent on the combined objective.

    Subteams are resampled every epoch. Returns the parameters of the epoch
    with the best (lowest) validation contrastive loss, falling back to the
    final parameters when there is no usable validation split, together with
    the per-epoch statistics.
    """
    if not teams:
        raise ValidationError("cannot train without teams")
    for team in teams:
        team.validate_for(net)
    train_teams, val_teams, _ = split_teams(teams, cfg.split, cfg.seed)
    train_teams, val_teams = _member_arrays(train_teams), _member_arrays(val_teams)
    clusters = cfg.clusters if cfg.clusters is not None else default_cluster_count(net.n)
    params = init_params(net.d, cfg.hidden, clusters, np.random.default_rng([cfg.seed, 0]))
    sampler = np.random.default_rng([cfg.seed, 1])
    model = _LossModel(net)
    weights = cfg.weights
    wvec = (1.0, weights.skill, weights.structural, weights.clustering)

    log: list[EpochStats] = []
    best_val = np.inf
    best_params = None
    fwd = None
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        pairs = _sample_batch(train_teams, cfg.subteam_fraction_range, sampler)
        if fwd is None:
            fwd = forward(model.norm_adj, model.ax, params)
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
        fwd = forward(model.norm_adj, model.ax, params)

        val_pairs = _sample_batch(val_teams, cfg.subteam_fraction_range, sampler)
        val_contra = None
        if val_pairs:
            val_contra = contrastive_loss(val_pairs, fwd.z)
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
    """Sum of the wall-ms column of a training log (for amortized-time reporting)."""
    total = 0.0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            total += float(line.split("\t")[-1])
    return total


def gradient_check_report(
    net: SocialNetwork,
    teams,
    params: EncoderParams,
    eps: float = 1e-4,
    weights: LossWeights | None = None,
    seed: int = 0,
) -> dict[str, float]:
    """Central-difference check of each loss term and the weighted total.

    The subteam batch is sampled once (deterministically from ``seed``) and
    held fixed across all evaluations. Returns the worst error per term.
    """
    weights = weights or LossWeights()
    pairs = _sample_batch(_member_arrays(teams), (0.25, 0.75), np.random.default_rng([seed, 2]))
    model = _LossModel(net)
    wvecs = {
        "contra": (1.0, 0.0, 0.0, 0.0),
        "skill": (0.0, 1.0, 0.0, 0.0),
        "structural": (0.0, 0.0, 1.0, 0.0),
        "clustering": (0.0, 0.0, 0.0, 1.0),
        "total": (1.0, weights.skill, weights.structural, weights.clustering),
    }

    work = [w.copy() for w in params.layer_weights]
    head = params.cluster_weight.copy()
    matrices = [*work, head]

    def values() -> dict[str, float]:
        perturbed = EncoderParams(layer_weights=tuple(work), cluster_weight=head)
        return model.terms(forward(model.norm_adj, model.ax, perturbed), pairs, wvecs["total"])[0]

    fwd = forward(model.norm_adj, model.ax, params)
    analytic = {}
    for name, wvec in wvecs.items():
        _, dz, dc = model.terms(fwd, pairs, wvec)
        grads, d_wc = model.backward(params, fwd, dz, dc)
        analytic[name] = [*grads, d_wc]

    numeric = {name: [np.zeros_like(m) for m in matrices] for name in wvecs}
    for mat_idx, mat in enumerate(matrices):
        for flat in range(mat.size):
            idx = np.unravel_index(flat, mat.shape)
            orig = mat[idx]
            mat[idx] = orig + eps
            plus = values()
            mat[idx] = orig - eps
            minus = values()
            mat[idx] = orig
            for name, wvec in wvecs.items():
                numeric[name][mat_idx][idx] = (
                    sum(w * v for w, v in zip(wvec, plus.values()))
                    - sum(w * v for w, v in zip(wvec, minus.values()))
                ) / (2 * eps)

    report = {}
    for name in wvecs:
        worst = 0.0
        for a_mat, n_mat in zip(analytic[name], numeric[name]):
            diff = np.abs(a_mat - n_mat)
            denom = np.maximum(np.abs(a_mat), np.abs(n_mat))
            err = np.where(denom < 1e-6, diff, diff / np.maximum(denom, 1e-300))
            worst = max(worst, float(err.max()))
        report[name] = worst
    return report


def gradient_check(
    net: SocialNetwork,
    teams,
    params: EncoderParams,
    eps: float = 1e-4,
    weights: LossWeights | None = None,
    seed: int = 0,
) -> float:
    """Worst relative error over every loss term and the weighted total."""
    return max(gradient_check_report(net, teams, params, eps, weights, seed).values())
