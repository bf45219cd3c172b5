"""Team embeddings, cosine similarity, and the training losses.

Each loss term has one ``*_term`` function that returns its value and its
gradient with respect to the soft assignments C (or the embeddings z for the
contrastive term); the trainer backpropagates that gradient through the
encoder, and :func:`subteam.trainer.gradient_check` verifies it against
central finite differences. The ``*_loss`` functions return the value alone.
All operations are pure and operate on dense arrays; sparse inputs are
densified on entry (losses are evaluated at desk scale over the full network).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError

COSINE_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class LossWeights:
    """Balancing coefficients for the skill, structural, and clustering terms."""

    skill: float = 1.0
    structural: float = 100.0
    clustering: float = 1.0

    def __post_init__(self):
        for name in ("skill", "structural", "clustering"):
            val = getattr(self, name)
            if not math.isfinite(val) or val < 0:
                raise ValidationError(f"loss weight {name} must be finite and >= 0, got {val}")


@dataclass(frozen=True)
class LossReport:
    contra: float
    skill: float
    structural: float
    clustering: float
    total: float


def _members_of(team) -> tuple[int, ...]:
    return tuple(getattr(team, "members", team))


def team_embedding(members, z: np.ndarray) -> np.ndarray:
    """Mean of the members' embedding rows (uniform aggregation weights)."""
    ids = _members_of(members)
    if not ids:
        raise ValidationError("cannot embed an empty team")
    return z[np.asarray(ids, dtype=np.intp)].mean(axis=0)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; 0 by convention when either vector is (near-)zero."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValidationError(f"length mismatch: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu < COSINE_NORM_FLOOR or nv < COSINE_NORM_FLOOR:
        return 0.0
    return float(u @ v / (nu * nv))


def _row_normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return np.divide(m, norms, out=np.zeros_like(m, dtype=np.float64), where=norms > 0)


def pair_sim(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """All-pairs cosine block: row-normalize both inputs, multiply by the transpose.

    Zero rows stay zero, so every entry lies in [-1, 1].
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValidationError(f"pair_sim needs equal shapes, got {p.shape} vs {q.shape}")
    return _row_normalize(p) @ _row_normalize(q).T


def _dense(x) -> np.ndarray:
    if sp.issparse(x):
        return x.toarray()
    return np.asarray(x, dtype=np.float64)


def contrastive_term(batch, z: np.ndarray, scale: float = 1.0) -> tuple[float, np.ndarray]:
    """Contrastive loss and the gradient of ``scale`` times it with respect to z.

    The loss is the negated mean cosine between each subteam and its remaining
    team. ``batch`` is a sequence of (team, subteam) pairs; the subteam must be
    a strict, non-empty subset of its team so the remainder is non-empty.
    A pair whose cosine is 0 by the norm-floor convention adds no gradient.
    """
    if not batch:
        raise ValidationError("contrastive loss needs at least one (team, subteam) pair")
    grad = np.zeros_like(z)
    coef = -scale / len(batch)
    total = 0.0
    for team, subteam in batch:
        team_ids = set(_members_of(team))
        sub_ids = _members_of(subteam)
        if not sub_ids:
            raise ValidationError("subteam must be non-empty")
        if not set(sub_ids) <= team_ids:
            raise ValidationError(f"subteam {sub_ids} not contained in team")
        remainder = tuple(sorted(team_ids - set(sub_ids)))
        if not remainder:
            raise ValidationError("subteam equals team; remainder is empty")
        sub_ix = np.asarray(sub_ids, dtype=np.intp)
        rem_ix = np.asarray(remainder, dtype=np.intp)
        u_vec = z[sub_ix].mean(axis=0)
        v_vec = z[rem_ix].mean(axis=0)
        nu = np.linalg.norm(u_vec)
        nv = np.linalg.norm(v_vec)
        if nu < COSINE_NORM_FLOOR or nv < COSINE_NORM_FLOOR:
            continue
        total += float(u_vec @ v_vec / (nu * nv))
        uh, vh = u_vec / nu, v_vec / nv
        cos_uv = float(uh @ vh)
        grad[sub_ix] += coef * ((vh - cos_uv * uh) / nu) / len(sub_ids)
        grad[rem_ix] += coef * ((uh - cos_uv * vh) / nv) / len(remainder)
    return -total / len(batch), grad


def contrastive_loss(batch, z: np.ndarray) -> float:
    """Negated mean cosine between each subteam and its remaining team.

    Minimizing this term maximizes subteam/remainder agreement; see
    :func:`contrastive_term` for the batch contract.
    """
    return contrastive_term(batch, z)[0]


def feature_factor(x) -> np.ndarray:
    """Row-normalized feature cosines rownorm(Xh Xh^T): the skill term's X side."""
    xh = _row_normalize(_dense(x))
    return _row_normalize(xh @ xh.T)


def skill_term(y1h: np.ndarray, c_mat: np.ndarray, scale: float = 1.0) -> tuple[float, np.ndarray]:
    """Skill loss and the gradient of ``scale`` times it with respect to C.

    The loss is -sum_i <y1h_i, y2h_i> with y2h = rownorm(Ch Ch^T), which is the
    negated trace of pair_sim(Y1, Y2). ``y1h`` comes from :func:`feature_factor`.
    """
    c_mat = np.asarray(c_mat, dtype=np.float64)
    if y1h.shape[0] != c_mat.shape[0]:
        raise ValidationError(
            f"row mismatch: {y1h.shape[0]} feature rows vs assignments {c_mat.shape}"
        )
    cnorms = np.linalg.norm(c_mat, axis=1, keepdims=True)
    chat = np.divide(c_mat, cnorms, out=np.zeros_like(c_mat), where=cnorms > 0)
    y2 = chat @ chat.T
    y2n = np.linalg.norm(y2, axis=1, keepdims=True)
    y2h = np.divide(y2, y2n, out=np.zeros_like(y2), where=y2n > 0)
    dots = (y1h * y2h).sum(axis=1, keepdims=True)
    g2 = np.divide(-scale * (y1h - dots * y2h), y2n, out=np.zeros_like(y2), where=y2n > 0)
    dchat = (g2 + g2.T) @ chat
    proj = (dchat * chat).sum(axis=1, keepdims=True)
    grad = np.divide(dchat - proj * chat, cnorms, out=np.zeros_like(c_mat), where=cnorms > 0)
    return -float(dots.sum()), grad


def skill_loss(x, c_mat: np.ndarray) -> float:
    """Negated trace of the similarity between feature-space and cluster-space cosines."""
    return skill_term(feature_factor(x), c_mat)[0]


def structural_term(a, c_mat: np.ndarray, scale: float = 1.0) -> tuple[float, np.ndarray]:
    """||A - C C^T||_F on the raw adjacency, and the gradient of ``scale`` times it wrt C."""
    c_mat = np.asarray(c_mat, dtype=np.float64)
    if a.shape[0] != a.shape[1] or a.shape[0] != c_mat.shape[0]:
        raise ValidationError(f"shape mismatch: adjacency {a.shape} vs assignments {c_mat.shape}")
    residual = a - c_mat @ c_mat.T
    fro = np.linalg.norm(residual)
    if fro == 0:
        return 0.0, np.zeros_like(c_mat)
    return float(fro), scale * (-2.0 / fro) * (residual @ c_mat)


def structural_loss(a, c_mat: np.ndarray) -> float:
    """Frobenius norm of (adjacency - C C^T), on the raw unnormalized adjacency."""
    return structural_term(_dense(a), c_mat)[0]


def clustering_term(c_mat: np.ndarray, scale: float = 1.0) -> tuple[float, np.ndarray]:
    """Mean row entropy of C and the gradient of ``scale`` times it with respect to C."""
    c_mat = np.asarray(c_mat, dtype=np.float64)
    if c_mat.shape[0] == 0:
        return 0.0, np.zeros_like(c_mat)
    logs = np.zeros_like(c_mat)
    np.log(c_mat, out=logs, where=c_mat > 0)
    value = float(-(c_mat * logs).sum(axis=1).mean())
    return value, np.where(c_mat > 0, -scale * (logs + 1.0) / c_mat.shape[0], 0.0)


def clustering_loss(c_mat: np.ndarray) -> float:
    """Mean row entropy (natural log) of the soft assignments; 0*log0 counts as 0."""
    return clustering_term(c_mat)[0]


def total_loss(
    contra: float,
    skill: float,
    structural: float,
    clustering: float,
    weights: LossWeights,
) -> LossReport:
    """Weighted sum of the four terms."""
    total = (
        contra
        + weights.skill * skill
        + weights.structural * structural
        + weights.clustering * clustering
    )
    return LossReport(
        contra=float(contra),
        skill=float(skill),
        structural=float(structural),
        clustering=float(clustering),
        total=float(total),
    )
