"""Team embeddings, cosine similarity, and the training losses.

Each loss term has one ``*_loss`` function that returns ``(value, gradient)``,
the gradient taken with respect to the soft assignments C (or the embeddings z
for the contrastive term); take ``[0]`` for the value alone. The trainer
backpropagates that gradient through the encoder, and the test suite's
``gradient_check_report`` oracle checks it against central finite differences.
All operations are pure. The skill and structural terms never build an n x n
array: they use dense n x d features, n x k assignments, k x k and d x k Grams,
and the adjacency as given, dense or sparse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError

COSINE_NORM_FLOOR = 1e-12
# relative rounding floor of the structural identity ||A||^2 - 2<C, AC> + ||C^T C||^2
_CANCELLATION = 1e-13


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


def ordered_sum(terms) -> np.ndarray:
    """Sum of the arrays in ``terms``, added one after another into the first.

    The first array is overwritten, so callers pass arrays they own. numpy's
    ``sum`` and ``mean`` add pairwise along a contiguous axis, so their rounding
    depends on the layout (a one-column embedding of 8 or more members is
    summed pairwise, a wider one row by row). This order does not, so a team
    embedding and the within-cluster search's batched means agree bit for bit.
    """
    terms = iter(terms)
    total = next(terms)
    for term in terms:
        total += term
    return total


def team_embedding(members, z: np.ndarray) -> np.ndarray:
    """Mean of the members' embedding rows (uniform aggregation weights)."""
    ids = _members_of(members)
    if not ids:
        raise ValidationError("cannot embed an empty team")
    return ordered_sum(z[np.asarray(ids, dtype=np.intp)]) / len(ids)  # sums into a copy


def cosine_rows(u: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Cosine of ``u`` against every row of ``vs``; 0 where either norm is below the floor.

    Dot products and norms are row-wise ``einsum`` reductions over contiguous
    copies, so a row's score depends neither on the other rows of ``vs`` nor on
    its memory layout: it equals :func:`cosine` of that row bit for bit (a BLAS
    matrix-vector product would not).
    """
    u = np.ascontiguousarray(u, dtype=np.float64)
    vs = np.ascontiguousarray(vs, dtype=np.float64)
    if u.ndim != 1 or vs.ndim != 2 or vs.shape[1] != u.shape[0]:
        raise ValidationError(f"length mismatch: {u.shape} vs rows of {vs.shape}")
    nu = math.sqrt(np.einsum("i,i->", u, u))
    out = np.zeros(vs.shape[0])
    if nu < COSINE_NORM_FLOOR:
        return out
    nv = np.sqrt(np.einsum("ij,ij->i", vs, vs))
    dots = np.einsum("ij,j->i", vs, u)
    return np.divide(dots, nu * nv, out=out, where=~(nv < COSINE_NORM_FLOOR))


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; 0 by convention when either vector is (near-)zero."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValidationError(f"length mismatch: {u.shape} vs {v.shape}")
    return float(cosine_rows(u, v[None])[0])


def _row_normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return np.divide(m, norms, out=np.zeros_like(m, dtype=np.float64), where=norms > 0)


def contrastive_loss(batch, z: np.ndarray, scale: float = 1.0) -> tuple[float, np.ndarray]:
    """Contrastive loss and the gradient of ``scale`` times it with respect to z.

    The loss is the negated mean cosine between each subteam and its remaining
    team, so minimizing it maximizes their agreement. ``batch`` is a sequence
    of (team, subteam) pairs; the subteam must be a strict, non-empty subset of
    its team so the remainder is non-empty.
    A pair whose cosine is 0 by the norm-floor convention adds no gradient.

    The pairs share one CSR incidence, rows interleaved as subteam, remainder.
    A row adds its members one after another from 0, as ``mean(axis=0)`` does
    on embeddings two or more wide; the transpose adds each node's gradient
    rows in pair order; row dots are BLAS ``ddot``, as in ``np.linalg.norm``
    (a row-wise ``einsum`` rounds differently); cosines are summed in pair
    order. So every bit equals that of a loop over the pairs.
    """
    if not batch:
        raise ValidationError("contrastive loss needs at least one (team, subteam) pair")
    ids: list[int] = []
    counts: list[int] = []
    for team, subteam in batch:
        team_ids = set(_members_of(team))
        sub_ids = _members_of(subteam)
        if not sub_ids:
            raise ValidationError("subteam must be non-empty")
        if not team_ids.issuperset(sub_ids):
            raise ValidationError(f"subteam {sub_ids} not contained in team")
        remainder = sorted(team_ids.difference(sub_ids))
        if not remainder:
            raise ValidationError("subteam equals team; remainder is empty")
        ids += sub_ids
        ids += remainder
        counts += (len(sub_ids), len(remainder))
    ix = np.asarray(ids, dtype=np.intp)
    if ix.min() < 0 or ix.max() >= z.shape[0]:
        raise ValidationError(f"member ids must lie in 0..{z.shape[0] - 1}")
    sizes = np.asarray(counts, dtype=np.float64)[:, None]
    indptr = np.concatenate(([0], np.cumsum(counts)))
    inc = sp.csr_array((np.ones(ix.size), ix, indptr), shape=(len(counts), z.shape[0]))
    means = inc @ z / sizes

    def row_dots(a, b):  # numpy hands each stacked (1 x d) @ (d x 1) product to ddot
        return np.matmul(a[:, None, :], b[:, :, None])[:, 0]

    u, v = means[0::2], means[1::2]
    nu, nv = np.sqrt(row_dots(u, u)), np.sqrt(row_dots(v, v))
    floored = np.flatnonzero((nu < COSINE_NORM_FLOOR) | (nv < COSINE_NORM_FLOOR))
    nu[floored] = nv[floored] = 1.0  # any finite norm: these pairs' rows are zeroed below
    cosines = row_dots(u, v) / (nu * nv)
    uh, vh = u / nu, v / nv
    cos_uv = row_dots(uh, vh)
    coef = -scale / len(batch)
    rows = np.empty_like(means)
    rows[0::2] = coef * ((vh - cos_uv * uh) / nu) / sizes[0::2]
    rows[1::2] = coef * ((uh - cos_uv * vh) / nv) / sizes[1::2]
    rows[2 * floored] = rows[2 * floored + 1] = 0.0
    total = ordered_sum([0.0, *np.delete(cosines, floored).tolist()])
    return -total / len(batch), inc.T @ rows


def _inverse_row_norms(m: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """1/||(m m^T)_i|| = 1/sqrt(m_i (m^T m) m_i^T) from the thin Gram, 0 for zero rows."""
    sq = ((m @ gram) * m).sum(axis=1)
    return np.divide(1.0, np.sqrt(sq), out=np.zeros_like(sq), where=sq > 0)


def feature_factor(x) -> tuple[np.ndarray, np.ndarray]:
    """The skill term's feature side: dense Xh = rownorm(X) and d1_i = 1/||(Xh Xh^T)_i||."""
    xh = _row_normalize(x.toarray() if sp.issparse(x) else np.asarray(x, dtype=np.float64))
    return xh, _inverse_row_norms(xh, xh.T @ xh)


def skill_loss(feature_side, c_mat: np.ndarray, scale: float = 1.0) -> tuple[float, np.ndarray]:
    """Skill loss and the gradient of ``scale`` times it with respect to C.

    The loss is -sum_i <y1h_i, y2h_i> with y1h = rownorm(Xh Xh^T) and
    y2h = rownorm(Ch Ch^T), the negated trace of the all-pairs cosine block
    rownorm(Y1) rownorm(Y2)^T. Neither n x n factor is built: the row dots are
    d1_i d2_i xh_i (Xh^T Ch) ch_i^T, and every product is n x d or n x k.
    ``feature_side`` comes from :func:`feature_factor`.
    """
    xh, d1 = feature_side
    c_mat = np.asarray(c_mat, dtype=np.float64)
    if xh.shape[0] != c_mat.shape[0]:
        raise ValidationError(
            f"row mismatch: {xh.shape[0]} feature rows vs assignments {c_mat.shape}"
        )
    cnorms = np.linalg.norm(c_mat, axis=1, keepdims=True)
    chat = np.divide(c_mat, cnorms, out=np.zeros_like(c_mat), where=cnorms > 0)
    h_gram = chat.T @ chat
    d2 = _inverse_row_norms(chat, h_gram)
    y1c = xh @ (xh.T @ chat)  # Y1 Ch
    dots = np.clip(d1 * d2 * (y1c * chat).sum(axis=1), -1.0, 1.0)  # cosines, up to rounding
    # the gradient wrt Y2 is g = diag(a) Y1 + diag(b) Y2; wrt Ch it is (g + g^T) Ch
    a = (-scale * d1 * d2)[:, None]
    b = (scale * dots * d2 * d2)[:, None]
    dchat = a * y1c + xh @ (xh.T @ (a * chat)) + b * (chat @ h_gram) + chat @ (chat.T @ (b * chat))
    proj = (dchat * chat).sum(axis=1, keepdims=True)
    grad = np.divide(dchat - proj * chat, cnorms, out=np.zeros_like(c_mat), where=cnorms > 0)
    return -float(dots.sum()), grad


def structural_loss(
    a, c_mat: np.ndarray, scale: float = 1.0, a_fro2: float | None = None
) -> tuple[float, np.ndarray]:
    """||A - C C^T||_F on the raw adjacency, and the gradient of ``scale`` times it wrt C.

    Evaluated as ||A||^2 - 2<C, AC> + ||C^T C||^2 with A dense or sparse, so no
    n x n array is built. ``a_fro2`` is ||A||_F^2 when the caller has it.
    Where the three terms cancel to within rounding of their size, the value is
    indistinguishable from 0 and is reported as exactly 0 with a zero gradient.
    """
    c_mat = np.asarray(c_mat, dtype=np.float64)
    a = a if sp.issparse(a) else np.asarray(a, dtype=np.float64)
    if a.shape[0] != a.shape[1] or a.shape[0] != c_mat.shape[0]:
        raise ValidationError(f"shape mismatch: adjacency {a.shape} vs assignments {c_mat.shape}")
    if a_fro2 is None:
        a_fro2 = float(a.multiply(a).sum() if sp.issparse(a) else np.vdot(a, a))
    ac = np.asarray(a @ c_mat)
    cc = c_mat.T @ c_mat
    cc_fro2 = float(np.vdot(cc, cc))
    fro2 = a_fro2 - 2.0 * float(np.vdot(c_mat, ac)) + cc_fro2
    if fro2 <= _CANCELLATION * (a_fro2 + cc_fro2):
        return 0.0, np.zeros_like(c_mat)
    fro = math.sqrt(fro2)
    return fro, scale * (-2.0 / fro) * (ac - c_mat @ cc)


def clustering_loss(c_mat: np.ndarray, scale: float = 1.0) -> tuple[float, np.ndarray]:
    """Mean row entropy of C (natural log, 0 log 0 = 0), and the gradient of ``scale`` times it."""
    c_mat = np.asarray(c_mat, dtype=np.float64)
    if c_mat.shape[0] == 0:
        return 0.0, np.zeros_like(c_mat)
    logs = np.zeros_like(c_mat)
    np.log(c_mat, out=logs, where=c_mat > 0)
    value = float(-(c_mat * logs).sum(axis=1).mean())
    return value, np.where(c_mat > 0, -scale * (logs + 1.0) / c_mat.shape[0], 0.0)


def total_loss(contra, skill, structural, clustering, weights: LossWeights) -> LossReport:
    """Weighted sum of the four terms."""
    total = (
        contra
        + weights.skill * skill
        + weights.structural * structural
        + weights.clustering * clustering
    )
    return LossReport(*(float(v) for v in (contra, skill, structural, clustering, total)))
