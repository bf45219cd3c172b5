"""Network data model, file ingestion, dense team graphs, and the synthetic generator.

A team's dense graph is a :class:`LabeledGraph`, the one type that
:func:`induced_subgraph` returns and every kernel in :mod:`subteam.kernels` takes.
The setting checks that every entry point uses (no bool is a number, no single string is a
collection; one refusal wording) and the team rules (:class:`Team`'s ids and fit,
:func:`check_teams`, :func:`remainder`, :func:`drawable_teams`) live here.

The on-disk formats are plain UTF-8 text:

* edge file: ``src<TAB>dst<TAB>weight`` per line, weight optional (default 1.0)
* feature file: ``node<TAB>feature<TAB>value`` per line
* team file: one team per line, space-separated node ids

Indices are 0-based decimal integers; ``#``-prefixed and blank lines are
skipped in all three formats. Fields may be separated by any whitespace. A
byte that is not UTF-8, and an ``_`` or a non-ASCII digit on a data line
(which Python's ``int`` and ``float`` would read as part of a number), raise
:class:`ParseError` naming the file and line.

The edge and feature files are read by numpy in one pass when every data
line is plain (:func:`_plain_lines`: ASCII numbers, spaces, tabs and
whole-line comments), numpy parses it without a warning, and the arrays pass
every check. Any other file goes to the line parser, which reads the same
files to the same arrays and is the only source of error messages, so an
error names the same file and line whichever path saw the file first.
"""

from __future__ import annotations

import math
import numbers
import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import ParseError, ValidationError

# load_network sets n and d from the largest ids it reads, and training holds
# dense n x d arrays, so one stray huge id would exhaust memory; ids at or above
# these caps are refused instead.
MAX_NODES = 1_000_000
MAX_FEATURES = 100_000
# generate_synthetic draws the node pairs one row at a time, so its scratch stays
# small (traced peak 6.1 MB, 0.8 byte per pair, at n = 4000, d = 64, 16 blocks,
# p_in = 0.05, p_out = 0.0005, 100 teams) and its output sets the peak: 146 bytes
# per pair when every pair becomes an edge (p_in = 1, one block). This cap
# (n <= 4000) holds that near 1.2 GB; larger n is refused. Raising it needs a
# bound on the expected edge count.
MAX_SYNTH_PAIRS = 8_000_000
# generate_synthetic draws its teams one at a time, about 30 us and 160 bytes
# (tracemalloc peak) per team at n = 40 on 2 cores, so this cap holds the team
# draw near 30 s and 160 MB; a larger count is refused before anything is drawn
MAX_SYNTH_TEAMS = 1_000_000


def _canonical_csr(m) -> sp.csr_array:
    """Copy to float64 CSR with summed duplicates, no explicit zeros, sorted indices."""
    out = sp.csr_array(m, dtype=np.float64, copy=True)
    out.sum_duplicates()
    out.eliminate_zeros()  # keeps the order that sum_duplicates sorted
    return out


def _same_csr(a: sp.csr_array, b: sp.csr_array) -> bool:
    """Whether two canonical CSRs hold the same matrix: the same shape and the same arrays."""
    arrays = (a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)
    return a.shape == b.shape and all(np.array_equal(x, y) for x, y in arrays)


def _symmetric(csr: sp.csr_array) -> bool:
    """Whether a canonical CSR equals its transpose, whose sorted CSR is canonical too."""
    t = csr.T.tocsr()
    t.sort_indices()
    return _same_csr(csr, t)


def _finite_nonnegative(values: np.ndarray) -> bool:
    """Whether every entry is finite and >= 0: ``min`` fails a NaN or a negative, ``max`` inf."""
    return values.size == 0 or (values.min() >= 0 and values.max() < np.inf)


@dataclass(frozen=True, eq=False)
class SocialNetwork:
    """Whole-graph view: symmetric weighted adjacency plus sparse node features.

    Both matrices are stored row-compressed; dense views are only materialized
    for small node sets: a team's :class:`LabeledGraph` (:func:`induced_subgraph`)
    or one chunk of the kernel baseline's candidate teams. Instances are
    immutable after construction and safe to share across threads.
    """

    adjacency: sp.csr_array
    features: sp.csr_array

    def __post_init__(self):
        adj = _canonical_csr(self.adjacency)
        feats = _canonical_csr(self.features)
        if adj.shape[0] != adj.shape[1]:
            raise ValidationError(f"adjacency must be square, got {adj.shape}")
        if feats.shape[0] != adj.shape[0]:
            raise ValidationError(
                f"feature rows ({feats.shape[0]}) != node count ({adj.shape[0]})"
            )
        if not _finite_nonnegative(adj.data):
            raise ValidationError("edge weights must be finite and non-negative")
        if not _finite_nonnegative(feats.data):
            raise ValidationError("feature values must be finite and non-negative")
        if not _symmetric(adj):
            raise ValidationError("adjacency must be symmetric")
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "features", feats)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SocialNetwork):
            return NotImplemented
        return (
            _same_csr(self.adjacency, other.adjacency)
            and _same_csr(self.features, other.features)
        )


@dataclass(frozen=True)
class Team:
    """A set of member node ids, stored as a strictly increasing tuple.

    The constructor deduplicates and sorts, so ``Team((3, 1, 2, 2))`` holds
    ``(1, 2, 3)``. Ids must be integers (numpy's too, no bool); ``2.9`` is refused, not truncated,
    and a ``str`` or ``bytes`` value is refused whole, not read as characters or bytes.
    """

    members: tuple[int, ...]

    def __post_init__(self):
        ids = check_collection("team", self.members, "a collection of integer node ids")
        odd = [m for m in ids if not _integer_at_least(m, -math.inf)]
        if odd:
            raise ValidationError(f"team holds a non-integer node id: {_shown(odd[0])}")
        members = tuple(sorted(set(map(int, ids))))
        if not members:
            raise ValidationError("team must be non-empty")
        if members[0] < 0:
            raise ValidationError(f"negative node id in team: {_shown(members[0])}")
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def validate_for(self, net: SocialNetwork) -> None:
        if self.members[-1] >= net.n:
            raise ValidationError(
                f"team references node {_shown(self.members[-1])} but network has n={net.n}"
            )


@dataclass(frozen=True, eq=False)
class LabeledGraph:
    """Dense team graph: symmetric adjacency plus a label row per node, all finite and >= 0.

    :func:`induced_subgraph` returns one for a team, with the team's feature
    rows as labels, and every kernel and the edit distance take it.
    """

    adjacency: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        # private read-only copies, so the cached distances cannot go stale
        adj = np.array(self.adjacency, dtype=np.float64)
        labels = np.array(self.labels, dtype=np.float64)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValidationError(f"adjacency must be square, got {adj.shape}")
        if labels.ndim != 2 or labels.shape[0] != adj.shape[0]:
            raise ValidationError(
                f"labels must have one row per node, got {labels.shape} for n={adj.shape[0]}"
            )
        if not (_finite_nonnegative(adj) and _finite_nonnegative(labels)):
            raise ValidationError("adjacency and labels must be finite and non-negative")
        if adj.size and not np.array_equal(adj, adj.T):
            raise ValidationError("adjacency must be symmetric")
        adj.flags.writeable = labels.flags.writeable = False
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.adjacency.shape[0]

    @cached_property
    def distances(self) -> np.ndarray:
        """Read-only Floyd-Warshall path lengths over edge weights, inf where no path; computed once."""
        dist = np.where(self.adjacency > 0, self.adjacency, np.inf)
        np.fill_diagonal(dist, 0.0)
        for k in range(self.size):
            dist = np.minimum(dist, dist[:, [k]] + dist[[k], :])
        dist.flags.writeable = False
        return dist


def _data_lines(path):
    """(line number, stripped line) for each line that is neither blank nor a comment.

    Bytes that are not UTF-8 are decoded as escapes, which split lines as a valid
    file would, and refused as a :class:`ParseError` naming their line. So is a
    data line holding an ``_`` or a non-ASCII digit: numbers are written in ASCII
    digits, but ``int`` and ``float`` also read ``1_0`` as 10 and an Arabic-Indic 3 as 3.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, raw in enumerate(fh, start=1):
            if not raw.isascii() and any("\udc80" <= ch <= "\udcff" for ch in raw):
                raise ParseError(path, line_no, "not valid UTF-8")
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "_" in line or not line.isascii() and any(ch.isdecimal() for ch in line):
                message = f"numbers are written in ASCII digits without '_', got {line!r}"
                raise ParseError(path, line_no, message)
            yield line_no, line


# what numpy and the line parser both read alike on a data line: numbers in
# ASCII digits, signs, points and exponent letters, between spaces and tabs
_PLAIN_BYTES = b"0123456789+-.eE \t\n"


def _plain_lines(path) -> list[str] | None:
    r"""The lines of ``path``, comment lines emptied, if there is data and all of it is plain.

    Plain data lines hold only ``_PLAIN_BYTES``, which ``np.loadtxt`` splits and
    parses as the line parser does. A ``\r\n`` ends a line as ``\n`` does. None
    (the caller's cue to run the line parser) for a file with a byte outside
    ASCII, a lone ``\r`` (a line break to file iteration), a ``#`` after a
    field, any other byte on a data line, or no data line at all. Lines split
    at ``\n`` only: ``str.splitlines`` also splits where file iteration does not.
    """
    with open(path, "rb") as fh:
        data = fh.read().replace(b"\r\n", b"\n")
    if not data.isascii() or b"\r" in data:
        return None
    kept, at = [], 0
    while (mark := data.find(b"#", at)) >= 0:
        start = data.rfind(b"\n", 0, mark) + 1
        if data[start:mark].strip(b" \t"):
            return None
        kept.append(data[at:start])
        end = data.find(b"\n", mark)
        at = len(data) if end < 0 else end
    data = b"".join([*kept, data[at:]])
    if data.translate(None, _PLAIN_BYTES) or not data.strip():
        return None
    return data.decode("ascii").split("\n")


def _shown(value) -> str:
    """``repr(value)``, or its type's name if Python will not print it (an int past 4,300 digits)."""
    try:
        return repr(value)
    except Exception:
        return f"<{type(value).__name__} too long to print>"


def _integer_at_least(value, low: int) -> bool:
    """Whether ``value`` is an integer (a float or a bool is not) of at least ``low``."""
    # a plain int skips the abstract-class check, about 0.5 us that Team would pay per id
    integer = type(value) is int or isinstance(value, numbers.Integral) and type(value) is not bool
    return integer and value >= low


def check_integer(name: str, value, low: int, high: float = math.inf) -> None:
    """Refuse ``value`` unless it is an integer (no bool) in [low, high], naming it ``name``."""
    if not (_integer_at_least(value, low) and value <= high):
        bounds = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ValidationError(f"{name} must be an integer {bounds}, got {_shown(value)}")


def check_collection(name: str, value, rule: str) -> tuple:
    """The items of a setting that takes a collection, as a tuple. A value that is not iterable,
    or is one ``str`` or ``bytes`` value, is refused whole as ``<name> must be <rule>, got
    <value>``: iterating would read ``"88"`` as two 8s and ``b"50"`` as 53 and 48."""
    if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
        raise ValidationError(f"{name} must be {rule}, got {_shown(value)}")
    return tuple(value)


def check_teams(teams) -> None:
    """Refuse ``teams`` unless it is a sequence of :class:`Team`; its users take its length,
    index it and read each team's members, so a generator or a tuple of ids would fail bare."""
    if not isinstance(teams, Sequence):
        raise ValidationError(f"teams must be a sequence of Team, got {_shown(teams)}")
    odd = [team for team in teams if not isinstance(team, Team)]
    if odd:
        raise ValidationError(
            f"teams must be a sequence of Team, got one that holds {_shown(odd[0])}"
        )


def check_real(name: str, value, rule: str, holds, count: int = 0):
    """``value`` as a float, or with ``count`` as a tuple of that many floats (its items through
    :func:`check_collection`), if each is a finite real (no bool) and ``holds(*floats)``; else
    refused as ``<name> must be <rule>, got <value>``."""
    values = check_collection(name, value, rule) if count else (value,)
    try:
        real = all(
            isinstance(v, numbers.Real) and type(v) is not bool and math.isfinite(v) for v in values
        )
    except OverflowError:  # an integer past float64's range
        real = False
    floats = tuple(map(float, values)) if real else ()
    if len(floats) != max(count, 1) or not holds(*floats):
        raise ValidationError(f"{name} must be {rule}, got {_shown(value)}")
    return floats if count else floats[0]


def check_seed(seed: int) -> None:
    """Refuse a random seed that is not an integer >= 0; numpy takes a bool, and it is refused."""
    check_integer("seed", seed, 0)


def remainder(team, subset) -> tuple[int, ...]:
    """The sorted members of ``team`` outside ``subset``, a query's departing members or a
    training subteam; refused unless ``subset`` is a non-empty strict subset of ``team``."""
    members, part = set(team), set(subset)
    if not part:
        raise ValidationError("subteam must be non-empty")
    if not part <= members:
        raise ValidationError(f"subteam members {_shown(sorted(part - members))} are not in the team")
    if part == members:
        raise ValidationError("subteam equals the team; no member remains")
    return tuple(sorted(members - part))


def draw_subset(members: np.ndarray, fraction: float, rng: np.random.Generator):
    """Sorted tuple of ``round(fraction * m)`` of the m >= 2 members, kept to 1..m-1.

    Drawing positions takes the same random stream as ``rng.choice(members, k, replace=False)``.
    """
    m = len(members)
    k = min(max(int(round(fraction * m)), 1), m - 1)
    return tuple(np.sort(members[rng.choice(m, size=k, replace=False)]).tolist())


def drawable_teams(teams) -> list[tuple[Team, np.ndarray]]:
    """Each team of 2 or more with its members as an array; :func:`draw_subset` needs m >= 2."""
    return [(team, np.asarray(team.members)) for team in teams if len(team) >= 2]


def _read_triples(path, usage: str, ids, value_name: str, default: float | None = None):
    """The ``id id value`` lines of ``path`` as two id arrays and one value array.

    ``ids`` holds each id's (kind, cap): it must lie in ``[0, cap)``. Values must be
    finite and non-negative and may be left out only if there is a ``default``;
    ``usage`` shows the line's shape. Errors name the file and line. A file that
    ``_fast_triples`` cannot read is read line by line, which raises every error.
    """
    fast = _fast_triples(path, ids, default)
    if fast is not None:
        return fast
    pairs: list[tuple[int, int]] = []
    vals: list[float] = []
    min_fields = 3 if default is None else 2
    for line_no, line in _data_lines(path):
        parts = line.split()
        if not min_fields <= len(parts) <= 3:
            raise ParseError(path, line_no, f"expected {usage!r}, got {line!r}")
        try:
            pair = int(parts[0]), int(parts[1])
            value = float(parts[2]) if len(parts) == 3 else default
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from exc
        for (kind, cap), i in zip(ids, pair):
            if not 0 <= i < cap:
                raise ValidationError(f"{path}:{line_no}: {kind} id {i} out of range [0, {cap})")
        if not math.isfinite(value) or value < 0:
            raise ValidationError(f"{path}:{line_no}: bad {value_name} {value!r}")
        pairs.append(pair)
        vals.append(value)
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1], np.array(vals)


def _fast_triples(path, ids, default):
    """``_read_triples``' arrays from one ``np.loadtxt`` pass, or None for the line parser.

    Every line must have the first data line's field count, numpy must parse
    it without a warning, and the arrays must pass the line parser's checks, as
    masks over whole columns. A warning declines the file whatever the caller's
    warning filters: a numpy that parses an id such as ``1.5`` through a float
    warns and truncates it, where the line parser refuses it.
    """
    lines = _plain_lines(path)
    if lines is None:
        return None
    width = len(next(line for line in lines if line.strip()).split())
    if not (3 if default is None else 2) <= width <= 3:
        return None
    fields = [("i", np.int64), ("j", np.int64), ("value", np.float64)][:width]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines, dtype=fields, comments=None, ndmin=1)
    except (ValueError, Warning):  # a line of another width, a field that is not a number
        return None
    values = table["value"] if width == 3 else np.full(len(table), default)
    pair = table["i"], table["j"]
    for (_, cap), col in zip(ids, pair):
        if col.min() < 0 or col.max() >= cap:
            return None
    return (*pair, values) if _finite_nonnegative(values) else None


def load_network(edge_path, feature_path) -> SocialNetwork:
    """Load a network from an edge file and a feature file.

    The node count is one plus the largest node index seen in either file and
    the feature dimension is one plus the largest feature index; node ids must
    lie below ``MAX_NODES`` and feature ids below ``MAX_FEATURES``. If an edge is
    declared in both directions (or repeatedly), the stored undirected weight
    is the maximum of the declared weights. Repeated feature triples
    accumulate.
    """
    node = ("node", MAX_NODES)
    src, dst, w = _read_triples(edge_path, "src dst [weight]", (node, node), "edge weight", 1.0)
    frows, fcols, fvals = _read_triples(
        feature_path, "node feature value", (node, ("feature", MAX_FEATURES)), "feature value"
    )
    n = 1 + int(max(src.max(initial=-1), dst.max(initial=-1), frows.max(initial=-1)))
    d = 1 + int(fcols.max(initial=-1))
    # every line in both directions, then one entry per (row, col), keyed
    # row * n + col, at its largest weight: sorted by key, then weight, the last
    key = np.concatenate([src * n + dst, dst * n + src])
    w = np.concatenate([w, w])
    order = np.lexsort((w, key))
    key, w = key[order], w[order]
    last = np.diff(key, append=-1) != 0
    return SocialNetwork(
        adjacency=sp.coo_array((w[last], np.divmod(key[last], n)), shape=(n, n)),
        features=sp.coo_array((fvals, (frows, fcols)), shape=(n, d)),
    )


def _write_triples(path, header: str, entries: sp.coo_array, markers=()) -> None:
    """``row<TAB>col<TAB>value`` lines sorted by (row, col), every value through
    ``repr`` so that it reloads exactly; then a zero line per (row, col) marker.
    """
    order = np.lexsort((entries.col, entries.row))
    rows, cols, vals = (a[order].tolist() for a in (entries.row, entries.col, entries.data))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        fh.writelines(f"{i}\t{j}\t{v!r}\n" for i, j, v in zip(rows, cols, vals))
        fh.writelines(f"{i}\t{j}\t0.0\n" for i, j in markers)


def save_network(net: SocialNetwork, edge_path, feature_path) -> None:
    """Write a network in the load formats so that a reload reproduces it exactly.

    Nodes with neither edges nor features get an explicit zero feature marker
    so the node count round-trips; the same trick pins the feature dimension.
    """
    _write_triples(edge_path, "src\tdst\tweight", sp.triu(net.adjacency).tocoo())
    feats = net.features.tocoo()
    covered = np.diff(net.adjacency.indptr) > 0
    covered[feats.row] = True
    markers = [(node, 0) for node in np.flatnonzero(~covered).tolist()]
    if net.d == 0 and markers:
        raise ValidationError("cannot mark isolated nodes in a network with d=0")
    if net.n == 0 and net.d > 0:
        raise ValidationError("cannot mark the feature dimension of an empty network")
    if net.d > 0 and not np.any(feats.col == net.d - 1):
        markers.append((0, net.d - 1))
    _write_triples(feature_path, "node\tfeature\tvalue", feats, markers)


def load_teams(team_path, net: SocialNetwork) -> list[Team]:
    """Load one team per non-empty line; ids are deduplicated and sorted."""
    teams = []
    for line_no, line in _data_lines(team_path):
        try:
            ids = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise ParseError(team_path, line_no, str(exc)) from exc
        try:
            team = Team(ids)
            team.validate_for(net)
        except ValidationError as exc:
            raise ValidationError(f"{team_path}:{line_no}: {exc}") from exc
        teams.append(team)
    return teams


def save_teams(teams, team_path) -> None:
    with open(team_path, "w", encoding="utf-8") as fh:
        for team in teams:
            fh.write(" ".join(str(m) for m in team) + "\n")


def _dense_rows(csr: sp.csr_array, ix: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
    """Dense copy of the CSR rows ``ix``; with ``cols`` (sorted, non-empty), only those columns.

    One vectorized walk over the rows' nonzeros: no scipy fancy indexing and no
    array as long as the network, so the many tiny extractions stay cheap.
    """
    lo = csr.indptr[ix]
    counts = csr.indptr[ix + 1] - lo
    row = np.repeat(np.arange(len(ix)), counts)
    at = np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    col, val = csr.indices[at], csr.data[at]
    if cols is None:
        out = np.zeros((len(ix), csr.shape[1]))
    else:
        local = np.searchsorted(cols, col)
        keep = cols[np.minimum(local, len(cols) - 1)] == col
        row, col, val = row[keep], local[keep], val[keep]
        out = np.zeros((len(ix), len(cols)))
    out[row, col] = val
    return out


def induced_subgraph(net: SocialNetwork, members: Team) -> LabeledGraph:
    """Dense restriction of the network to the team, rows in member order, features as labels."""
    members.validate_for(net)
    ix = np.asarray(members.members, dtype=np.intp)
    return LabeledGraph(_dense_rows(net.adjacency, ix, ix), _dense_rows(net.features, ix))


def normalize_adjacency(net: SocialNetwork) -> sp.csr_array:
    """Symmetric degree normalization of the self-looped adjacency.

    Self-loops exist only in the returned matrix, never in the stored data;
    isolated nodes reduce to a single diagonal 1. Each stored entry is scaled
    in place as ``(s_i * a_ij) * s_j`` with ``s = 1/sqrt(deg)``, the product
    that ``diag(s) @ A @ diag(s)`` forms, so the bits match that form.
    """
    with_loops = (net.adjacency + sp.eye_array(net.n, format="csr")).tocsr()
    deg = np.asarray(with_loops.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(deg)
    with_loops.sort_indices()
    rows = np.repeat(np.arange(net.n), np.diff(with_loops.indptr))
    with_loops.data = (inv_sqrt[rows] * with_loops.data) * inv_sqrt[with_loops.indices]
    return with_loops


def planted_blocks(n: int, k_planted: int) -> np.ndarray:
    """Ground-truth block label per node for a generated planted-partition graph."""
    return np.repeat(np.arange(k_planted), n // k_planted)


def generate_synthetic(
    n: int,
    d: int,
    k_planted: int,
    p_in: float,
    p_out: float,
    teams: int,
    seed: int,
) -> tuple[SocialNetwork, list[Team]]:
    """Planted-partition network with block-banded features and block-local teams.

    Nodes are split into ``k_planted`` equal blocks; within-block pairs get an
    edge with probability ``p_in``, cross-block pairs with ``p_out``, drawn one
    row of pairs at a time. Each block owns a disjoint band of feature columns;
    every node activates a few in-band features plus occasional low-value
    cross-band noise. Teams draw members from a home block: each seat is marked
    cross-block with probability 0.1, and up to ``size // 3`` of the marked
    seats are filled from other blocks. Output is a pure function of the
    arguments. More than ``MAX_SYNTH_PAIRS`` node pairs, more than
    ``MAX_FEATURES`` features, or more than ``MAX_SYNTH_TEAMS`` teams, are
    refused before anything is allocated.
    """
    check_real(
        "(p_in, p_out)", (p_in, p_out), "two reals with 0 <= p_out < p_in <= 1",
        lambda p_in, p_out: 0 <= p_out < p_in <= 1, count=2,
    )
    check_integer("n", n, 1)
    check_integer("k_planted", k_planted, 1)
    if n % k_planted:
        raise ValidationError(f"k_planted={_shown(k_planted)} must divide n={_shown(n)}")
    check_integer("d", d, k_planted, MAX_FEATURES)  # at least one feature per block
    check_integer("team count", teams, 0, MAX_SYNTH_TEAMS)
    check_seed(seed)
    pairs = n * (n - 1) // 2
    if pairs > MAX_SYNTH_PAIRS:
        raise ValidationError(
            f"n={_shown(n)} has {_shown(pairs)} node pairs to draw, over the cap of {MAX_SYNTH_PAIRS}"
        )
    block_size = n // k_planted
    if block_size < 2:
        raise ValidationError("blocks need at least 2 nodes to host teams")
    block = planted_blocks(n, k_planted)
    rng = np.random.default_rng(seed)

    # pairs (i, j > i) in row-major order, one row at a time, so the scratch is one
    # row; rng.random gives the same doubles called in pieces
    ej_parts = []
    for i in range(n - 1):
        keep = rng.random(n - 1 - i) < np.where(block[i + 1:] == block[i], p_in, p_out)
        ej_parts.append(i + 1 + np.flatnonzero(keep))
    ei = np.repeat(np.arange(n - 1), [part.size for part in ej_parts])
    rows = np.concatenate((ei, *ej_parts))
    cols = np.concatenate((*ej_parts, ei))
    # .tocsr() kept: handing over the COO made perfbench's train ops 9% slower (allocator state)
    adjacency = sp.coo_array((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()

    # a node's own features are its block's band [lo, hi) and its foreign ones the
    # other d - width columns; a team's members are its home block's nodes and its
    # cross-block ones the other n - block_size. Each draw picks a position in such
    # a range and maps it to an id, the id rng.choice on the range's array returns.
    band_lo = np.array([b * d // k_planted for b in range(k_planted)])
    band_hi = np.array([(b + 1) * d // k_planted for b in range(k_planted)])
    frows: list[int] = []
    fcols: list[int] = []
    fvals: list[float] = []
    for v in range(n):
        lo, hi = band_lo[block[v]], band_hi[block[v]]
        width = hi - lo
        count = 1 + int(rng.binomial(min(width - 1, 4), 0.6)) if width > 1 else 1
        frows.extend([v] * count)
        fcols.extend((lo + rng.choice(width, size=count, replace=False)).tolist())
        fvals.extend(rng.uniform(0.5, 1.5, count).tolist())
        if rng.random() < 0.3 and d > width:
            f = int(rng.choice(d - width))
            frows.append(v)
            fcols.append(f if f < lo else f + width)
            fvals.append(float(rng.uniform(0.02, 0.1)))
    features = sp.coo_array((fvals, (frows, fcols)), shape=(n, d))

    size_lo, size_hi = min(3, block_size), min(6, block_size)
    others = n - block_size
    team_list = []
    for _ in range(teams):
        home = int(rng.integers(k_planted))
        size = int(rng.integers(size_lo, size_hi + 1))
        cross = rng.random(size) < 0.1
        m_out = min(int(cross.sum()), size // 3, others)
        m_in = size - m_out
        start = home * block_size
        chosen = (start + rng.choice(block_size, size=m_in, replace=False)).tolist()
        if m_out:
            picks = rng.choice(others, size=m_out, replace=False)
            chosen.extend(np.where(picks < start, picks, picks + block_size).tolist())
        team_list.append(Team(tuple(chosen)))
    return SocialNetwork(adjacency=adjacency, features=features), team_list
