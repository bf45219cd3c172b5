"""Independent brute-force reference implementations used to verify the package.

Everything here is written the slow, obvious way (explicit loops, explicit
Kronecker products, full enumerations) and deliberately shares no code with
the library beyond its public data types. The one exception is
:func:`exhaustive_oracle`: it scores subsets with the library's
``team_embedding`` and ``cosine_rows``, so its similarity can be compared
with the search's by ``==``, and it checks the search space, not the arithmetic.
:func:`contrastive_term_oracle` and :func:`normalize_adjacency_oracle` are the
earlier per-pair loop and diagonal-product forms of two library functions,
kept so that the vectorized forms can be compared with them bit for bit.
:func:`product_space_solve_reference` and :func:`marginalized_kernel_reference`
are the walk kernels' fixed-point solver as it was before it reused buffers and
the marginalized kernel as it was before it was stacked.
:func:`random_walk_pair` and :func:`marginalized_pair` call the library's
stacked walk kernels on one pair, the random walk without a best score to
prune by, so a kernel's score alone can be compared with its score in a stack.
:func:`per_case_comparison` is the
evaluation's per-case metric path as it was before each held-out team's work
was shared; the latter calls the library's kernels and methods, since it
checks the evaluation's bookkeeping, not the kernels' arithmetic.
:func:`gradient_check_report` takes central differences of the trainer's own
loss values and compares its analytic gradients with them, so it checks the
chain rule, not the loss values.
"""

import itertools
import math

import numpy as np
import scipy.sparse as sp

from subteam.encoder import EncoderParams, forward
from subteam.errors import ConvergenceError, RefusalError
from subteam.evaluate import METRICS, draw_cases, normalize_methods
from subteam.graph import LabeledGraph, SocialNetwork, Team, drawable_teams, induced_subgraph
from subteam.kernels import (
    graph_edit_distance,
    kernel_baseline_replace,
    marginalized_kernel,
    random_walk_kernel,
    shortest_path_kernel,
)
from subteam.objectives import COSINE_NORM_FLOOR, cosine_rows, team_embedding
from subteam.recommender import ReplacementResult, recommend
from subteam.trainer import TrainConfig, _LossModel, _sample_batch

DEFAULT_ORACLE_BUDGET = 2_000_000


def naive_softmax(e: np.ndarray) -> np.ndarray:
    """Textbook row softmax without max-subtraction."""
    out = np.empty_like(e, dtype=float)
    for i in range(e.shape[0]):
        expd = np.array([math.exp(v) for v in e[i]])
        out[i] = expd / expd.sum()
    return out


def naive_pair_sim(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    n = p.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ni = np.linalg.norm(p[i])
            nj = np.linalg.norm(q[j])
            if ni > 0 and nj > 0:
                out[i, j] = float(p[i] @ q[j]) / (ni * nj)
    return out


def naive_skill_loss(x: np.ndarray, c: np.ndarray) -> float:
    y1 = naive_pair_sim(x, x)
    y2 = naive_pair_sim(c, c)
    y3 = naive_pair_sim(y1, y2)
    return -sum(y3[i, i] for i in range(y3.shape[0]))


def naive_structural_loss(a: np.ndarray, c: np.ndarray) -> float:
    residual = a - c @ c.T
    return math.sqrt(sum(v * v for v in residual.ravel()))


def naive_clustering_loss(c: np.ndarray) -> float:
    total = 0.0
    for row in c:
        for v in row:
            if v > 0:
                total -= v * math.log(v)
    return total / c.shape[0]


def naive_cosine(u, v) -> float:
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(x * x for x in v))
    if nu < 1e-12 or nv < 1e-12:
        return 0.0
    return sum(a * b for a, b in zip(u, v)) / (nu * nv)


def naive_contrastive(batch, z: np.ndarray) -> float:
    total = 0.0
    for team, sub in batch:
        team = tuple(getattr(team, "members", team))
        rem = sorted(set(team) - set(sub))
        g_sub = z[list(sub)].mean(axis=0)
        g_rem = z[rem].mean(axis=0)
        total += naive_cosine(g_sub, g_rem)
    return -total / len(batch)


def contrastive_term_oracle(batch, z: np.ndarray, scale: float = 1.0):
    """Contrastive value and gradient wrt z, one (team, subteam) pair at a time."""
    grad = np.zeros_like(z)
    coef = -scale / len(batch)
    total = 0.0
    for team, subteam in batch:
        sub_ids = tuple(getattr(subteam, "members", subteam))
        remainder = tuple(sorted(set(getattr(team, "members", team)) - set(sub_ids)))
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


def normalize_adjacency_oracle(adjacency) -> sp.csr_array:
    """D^-1/2 (A + I) D^-1/2 as two sparse products with a diagonal matrix."""
    n = adjacency.shape[0]
    with_loops = (adjacency + sp.eye_array(n, format="csr")).tocsr()
    deg = np.asarray(with_loops.sum(axis=1)).ravel()
    inv_sqrt = sp.dia_array((1.0 / np.sqrt(deg)[None, :], [0]), shape=(n, n))
    out = (inv_sqrt @ with_loops @ inv_sqrt).tocsr()
    out.sort_indices()
    return out


def _explicit_kron_pieces(g1: LabeledGraph, g2: LabeledGraph):
    n1, n2 = g1.size, g2.size
    lx = np.zeros((n1 * n2, n1 * n2))
    for i in range(g1.labels.shape[1]):
        lx += np.kron(np.diag(g1.labels[:, i]), np.diag(g2.labels[:, i]))
    ax = lx @ np.kron(g1.adjacency, g2.adjacency)
    x = np.full(n1 * n2, 1.0 / (n1 * n2))
    return lx, ax, x


def rw_kernel_dense(g1: LabeledGraph, g2: LabeledGraph, decay: float) -> float:
    """Direct dense solve of the walk-kernel linear system on explicit matrices."""
    lx, ax, x = _explicit_kron_pieces(g1, g2)
    n = ax.shape[0]
    return float(x @ np.linalg.solve(np.eye(n) - decay * ax, lx @ x))


def rw_kernel_series(g1: LabeledGraph, g2: LabeledGraph, decay: float, terms: int) -> float:
    """Truncated power series sum_k decay^k y A^k (Lx x) on explicit matrices."""
    lx, ax, x = _explicit_kron_pieces(g1, g2)
    term = lx @ x
    total = 0.0
    for _ in range(terms + 1):
        total += float(x @ term)
        term = decay * (ax @ term)
    return total


def sp_kernel_brute(g1: LabeledGraph, g2: LabeledGraph) -> float:
    """Quadruple loop over ordered path pairs with exact length equality."""

    def dists(adj):
        n = adj.shape[0]
        d = np.where(adj > 0, adj.astype(float), np.inf)
        np.fill_diagonal(d, 0.0)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    d[i, j] = min(d[i, j], d[i, k] + d[k, j])
        return d

    d1, d2 = dists(g1.adjacency), dists(g2.adjacency)
    total = 0.0
    for u in range(g1.size):
        for v in range(g1.size):
            if u == v or not np.isfinite(d1[u, v]):
                continue
            for up in range(g2.size):
                for vp in range(g2.size):
                    if up == vp or not np.isfinite(d2[up, vp]):
                        continue
                    if d1[u, v] == d2[up, vp]:
                        total += float(g1.labels[u] @ g2.labels[up]) * float(
                            g1.labels[v] @ g2.labels[vp]
                        )
    return total


def marginalized_dense(g1: LabeledGraph, g2: LabeledGraph, gamma: float) -> float:
    """Direct solve of the synchronized-walk fixed point on the explicit product space."""

    def transition(adj):
        rows = adj.sum(axis=1, keepdims=True)
        return np.divide(adj, rows, out=np.zeros_like(adj), where=rows > 0)

    kvec = (g1.labels @ g2.labels.T).ravel()
    t = np.kron(transition(g1.adjacency), transition(g2.adjacency))
    n = kvec.size
    r = np.linalg.solve(np.eye(n) - (1 - gamma) * np.diag(kvec) @ t, kvec)
    return float(r.mean())


def marginalized_mc(g1: LabeledGraph, g2: LabeledGraph, gamma: float, walks: int, seed: int):
    """Monte-Carlo estimate with standard error: synchronized terminating walks.

    Each walk accumulates the running label-product at every visited pair;
    the kernel is the expectation of that accumulated sum.
    """
    rng = np.random.default_rng(seed)
    k = g1.labels @ g2.labels.T

    def cumulative(adj):
        rows = adj.sum(axis=1, keepdims=True)
        p = np.divide(adj, rows, out=np.zeros_like(adj), where=rows > 0)
        return p.cumsum(axis=1), adj.sum(axis=1) > 0

    c1, live1 = cumulative(g1.adjacency)
    c2, live2 = cumulative(g2.adjacency)
    u = rng.integers(g1.size, size=walks)
    v = rng.integers(g2.size, size=walks)
    prod = k[u, v].copy()
    total = prod.copy()
    active = np.ones(walks, dtype=bool)
    while True:
        cont = active & (rng.random(walks) < 1 - gamma) & live1[u] & live2[v]
        if not cont.any():
            break
        active = cont
        idx = np.flatnonzero(active)
        u[idx] = (rng.random(idx.size)[:, None] < c1[u[idx]]).argmax(axis=1)
        v[idx] = (rng.random(idx.size)[:, None] < c2[v[idx]]).argmax(axis=1)
        prod[idx] *= k[u[idx], v[idx]]
        total[idx] += prod[idx]
    return float(total.mean()), float(total.std(ddof=1) / math.sqrt(walks))


def ged_brute(g1: LabeledGraph, g2: LabeledGraph) -> float:
    """Minimum edit cost over every subset of kept nodes and every injection."""
    n1, n2 = g1.size, g2.size
    a1, a2 = g1.adjacency, g2.adjacency
    best = math.inf
    for kept_mask in itertools.product((False, True), repeat=n1):
        kept = [u for u in range(n1) if kept_mask[u]]
        if len(kept) > n2:
            continue
        for targets in itertools.permutations(range(n2), len(kept)):
            mapping = dict(zip(kept, targets))
            cost = (n1 - len(kept)) + (n2 - len(kept))
            for u, t in mapping.items():
                if not np.array_equal(g1.labels[u], g2.labels[t]):
                    cost += 1
            for u in range(n1):
                for w in range(u + 1, n1):
                    w1 = a1[u, w]
                    if u in mapping and w in mapping:
                        w2 = a2[mapping[u], mapping[w]]
                        if w1 > 0 and w2 > 0:
                            cost += 0 if w1 == w2 else 1
                        elif w1 > 0 or w2 > 0:
                            cost += 1
                    elif w1 > 0:
                        cost += 1
            target_set = set(targets)
            for i in range(n2):
                for j in range(i + 1, n2):
                    if a2[i, j] > 0 and not (i in target_set and j in target_set):
                        cost += 1
            best = min(best, cost)
    return float(best)


def random_labeled_graph(rng, n: int, d: int, edge_p: float = 0.6, label_scale: float = 0.5):
    """Random symmetric weighted graph with small non-negative labels."""
    upper = np.triu((rng.random((n, n)) < edge_p).astype(float) * rng.uniform(0.5, 1.5, (n, n)), 1)
    return LabeledGraph(adjacency=upper + upper.T, labels=rng.uniform(0, label_scale, (n, d)))


def _rownorm(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return np.divide(m, norms, out=np.zeros_like(m, dtype=float), where=norms > 0)


def dense_skill_term(x: np.ndarray, c: np.ndarray, scale: float = 1.0):
    """Skill value and gradient wrt C from the explicit n x n factors."""
    xh = _rownorm(np.asarray(x, dtype=float))
    y1h = _rownorm(xh @ xh.T)
    cnorms = np.linalg.norm(c, axis=1, keepdims=True)
    chat = np.divide(c, cnorms, out=np.zeros_like(c), where=cnorms > 0)
    y2 = chat @ chat.T
    y2n = np.linalg.norm(y2, axis=1, keepdims=True)
    y2h = np.divide(y2, y2n, out=np.zeros_like(y2), where=y2n > 0)
    dots = (y1h * y2h).sum(axis=1, keepdims=True)
    g2 = np.divide(-scale * (y1h - dots * y2h), y2n, out=np.zeros_like(y2), where=y2n > 0)
    dchat = (g2 + g2.T) @ chat
    proj = (dchat * chat).sum(axis=1, keepdims=True)
    grad = np.divide(dchat - proj * chat, cnorms, out=np.zeros_like(c), where=cnorms > 0)
    return -float(dots.sum()), grad


def dense_structural_term(a: np.ndarray, c: np.ndarray, scale: float = 1.0):
    """||A - C C^T||_F and its gradient wrt C from the explicit residual."""
    residual = np.asarray(a, dtype=float) - c @ c.T
    fro = np.linalg.norm(residual)
    if fro == 0:
        return 0.0, np.zeros_like(c)
    return float(fro), scale * (-2.0 / fro) * (residual @ c)


def exhaustive_oracle(
    team,
    departing,
    model,
    net,
    candidate_space,
    max_size: int,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> ReplacementResult:
    """Brute-force best subset of ``candidate_space`` with size <= ``max_size``.

    Scores every non-empty subset with the same cosine objective as
    ``recommend``; original-team members are removed from the space first.
    Ties are broken toward the lexicographically smallest member list. Refuses
    (rather than truncating) when the subset count exceeds ``budget``.
    """
    team.validate_for(net)
    assert set(departing.members) < set(team.members)
    remaining = tuple(sorted(set(team.members) - set(departing.members)))
    if max_size < 1:
        raise RefusalError(f"max_size={max_size} admits no non-empty subset")
    space = sorted(set(int(v) for v in candidate_space) - set(team.members))
    total = sum(math.comb(len(space), k) for k in range(1, min(max_size, len(space)) + 1))
    if total > budget:
        raise RefusalError(f"exhaustive search over {total} subsets exceeds budget {budget}")
    z = model.embeddings
    reference = team_embedding(remaining, z)
    best_members = None
    best_score = -np.inf
    examined = 0
    for size in range(1, min(max_size, len(space)) + 1):
        for combo in itertools.combinations(space, size):
            examined += 1
            score = cosine_rows(reference, team_embedding(combo, z)[None])[0]
            if score > best_score or (score == best_score and combo < best_members):
                best_score = score
                best_members = combo
    return ReplacementResult(
        subteam=best_members,
        similarity=None if best_members is None else float(best_score),
        candidates_examined=examined,
    )


def product_space_solve_reference(rhs, scale, m1, m2t, max_iters=500_000, tol=1e-14):
    """Fixed-point solve of W_b = rhs_b + scale_b * (m1 @ W_b @ m2t_b), allocating every step."""
    out = np.empty_like(rhs)
    live = np.arange(len(rhs))
    w = rhs.copy()
    for _ in range(max_iters):
        w_next = rhs + scale * (m1 @ w @ m2t)
        delta = np.abs(w_next - w).max(axis=(1, 2))
        w = w_next
        done = delta <= tol * np.maximum(1.0, np.abs(w).max(axis=(1, 2)))
        if done.any():
            out[live[done]] = w[done]
            if done.all():
                return out
            going = ~done
            live, w, rhs, scale, m2t = live[going], w[going], rhs[going], scale[going], m2t[going]
    raise ConvergenceError(f"product-space solve did not converge in {max_iters} steps")


def marginalized_kernel_reference(g1: LabeledGraph, g2: LabeledGraph, termination: float) -> float:
    """One pair's marginalized kernel, solved alone by :func:`product_space_solve_reference`."""
    k = g1.labels @ g2.labels.T

    def transition(adj):
        rows = adj.sum(axis=1, keepdims=True)
        return np.divide(adj, rows, out=np.zeros_like(adj), where=rows > 0)

    live = np.outer(g1.adjacency.sum(axis=1) > 0, g2.adjacency.sum(axis=1) > 0)
    bound = (1.0 - termination) * float((k * live).max()) if live.any() else 0.0
    if bound >= 1:
        raise ConvergenceError(f"spectral radius bound {bound:.6g} >= 1")
    m1, m2t = transition(g1.adjacency), transition(g2.adjacency).T[None]
    r = product_space_solve_reference(k[None], ((1.0 - termination) * k)[None], m1, m2t)
    return float(r[0].mean())


def random_walk_pair(g1: LabeledGraph, g2: LabeledGraph, cfg) -> float:
    """``random_walk_kernel`` of one pair: a stack of one, unpruned, with the label
    products formed from ``g2``'s labels as a CSR matrix, as the baseline forms them."""
    lx = np.ascontiguousarray((sp.csr_array(g2.labels) @ g1.labels.T).T[None])
    return float(random_walk_kernel(g1, g2.adjacency[None], lx, cfg)[0])


def marginalized_pair(g1: LabeledGraph, g2: LabeledGraph, cfg) -> float:
    """``marginalized_kernel`` of one pair; a pair it scores NaN raises ConvergenceError."""
    score = float(marginalized_kernel(g1, [g2], cfg)[0])
    if math.isnan(score):
        raise ConvergenceError("the marginalized kernel refused the pair")
    return score


def per_case_comparison(net, teams, methods, percentages, seed, model, kernel_cfg):
    """Every outcome of the comparison, each case's metrics computed on their own.

    Each case rebuilds its original team graph and both self-kernels, and every
    kernel is one single-pair call. Returns one dict per outcome with every
    field of a ``CaseOutcome`` except the timings; ``metrics`` maps each metric
    to its value or the reason it was skipped, a refused edit distance skips
    as ``"RefusalError"``, and a refused search keeps its error's class name
    as ``reason``.
    """
    rows = []
    for case_id, team, pct, departing in draw_cases(teams, percentages, seed):
        original = induced_subgraph(net, team)
        for method in normalize_methods(methods):
            row = dict(case_id=case_id, team=team.members, departing=departing, percent=pct,
                       method=method, status="refused", subteam=None, metrics=None, reason=None)
            rows.append(row)
            try:
                if method == "genius":
                    result = recommend(team, Team(departing), model, net)
                else:
                    result = kernel_baseline_replace(team, Team(departing), net, kernel_cfg)
            except (RefusalError, ConvergenceError) as exc:
                row["reason"] = type(exc).__name__
                continue
            if not result.found:
                row["status"] = "no-candidate"
                continue
            kept = tuple(set(team.members) - set(departing))
            t1 = induced_subgraph(net, Team(kept + result.subteam))
            metrics = {}
            ged, d1, d2 = METRICS
            try:
                metrics[ged] = graph_edit_distance(original, t1)
            except RefusalError as exc:
                metrics[ged] = type(exc).__name__
            kernels = {
                d1: lambda a, b: shortest_path_kernel(a, b),
                d2: lambda a, b: marginalized_pair(a, b, kernel_cfg),
            }
            for name, kernel in kernels.items():
                try:
                    self_kernel = kernel(original, original)
                    if self_kernel <= 0:
                        metrics[name] = "ZeroSelfKernelError"
                    else:
                        ratio = abs(kernel(original, t1) - self_kernel) / self_kernel
                        # an overflowing ratio is skipped as the kernel's own overflow is
                        metrics[name] = ratio if math.isfinite(ratio) else "RefusalError"
                except (ConvergenceError, RefusalError) as exc:
                    metrics[name] = type(exc).__name__
            row.update(status="ok", subteam=result.subteam, metrics=metrics)
    return rows


def gradient_check_report(
    net: SocialNetwork,
    teams,
    params: EncoderParams,
    eps: float = 1e-4,
    seed: int = 0,
) -> dict[str, float]:
    """Central-difference check of each loss term and the total at the default weights.

    The subteam batch is sampled once (deterministically from ``seed``) and
    held fixed across all evaluations. Returns the worst error per term.
    """
    pairs = _sample_batch(drawable_teams(teams), (0.25, 0.75), np.random.default_rng([seed, 2]))
    model = _LossModel(net)
    wvecs = {
        "contra": (1.0, 0.0, 0.0, 0.0),
        "skill": (0.0, 1.0, 0.0, 0.0),
        "structural": (0.0, 0.0, 1.0, 0.0),
        "clustering": (0.0, 0.0, 0.0, 1.0),
        "total": (1.0, *TrainConfig().weights),
    }

    work = [w.copy() for w in params.layer_weights]
    head = params.cluster_weight.copy()
    matrices = [*work, head]

    def values() -> list[float]:
        """The four term values, in ``wvec`` order; the oracle weighs them itself."""
        perturbed = EncoderParams(layer_weights=tuple(work), cluster_weight=head)
        losses = model.terms(forward(model.norm_adj, model.ax, perturbed), pairs, wvecs["total"])[0]
        return [losses[name] for name in ("contra", "skill", "structural", "clustering")]

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
                    sum(w * v for w, v in zip(wvec, plus))
                    - sum(w * v for w, v in zip(wvec, minus))
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
