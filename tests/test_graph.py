import hashlib
import os
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import net_from_dense
from oracles import normalize_adjacency_oracle
from subteam import graph
from subteam.errors import ParseError, ValidationError
from subteam.graph import (
    MAX_SYNTH_PAIRS,
    LabeledGraph,
    SocialNetwork,
    Team,
    generate_synthetic,
    induced_subgraph,
    load_network,
    load_teams,
    normalize_adjacency,
    planted_blocks,
    save_network,
    save_teams,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadNetwork:
    def test_basic_edge_and_features(self, tmp_path):
        edges = write(tmp_path / "e.tsv", "0\t1\t1.0\n")
        feats = write(tmp_path / "f.tsv", "0\t0\t1.0\n1\t1\t1.0\n")
        net = load_network(edges, feats)
        assert net.n == 2 and net.d == 2
        assert net.adjacency.toarray().tolist() == [[0, 1], [1, 0]]

    def test_empty_edges_three_feature_rows(self, tmp_path):
        edges = write(tmp_path / "e.tsv", "# empty\n")
        feats = write(tmp_path / "f.tsv", "0\t0\t1\n1\t0\t2\n2\t0\t3\n")
        net = load_network(edges, feats)
        assert net.n == 3
        assert net.adjacency.nnz == 0

    def test_symmetrization_takes_max_of_declared_directions(self, tmp_path):
        edges = write(tmp_path / "e.tsv", "0\t1\t2.0\n1\t0\t3.0\n")
        feats = write(tmp_path / "f.tsv", "0\t0\t1\n1\t0\t1\n")
        net = load_network(edges, feats)
        assert net.adjacency[0, 1] == 3.0
        assert net.adjacency[1, 0] == 3.0

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 4),
                st.integers(0, 4),
                st.floats(0.1, 10.0, allow_nan=False),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_symmetrization_matches_max_oracle(self, decls):
        # oracle: undirected weight is the max over declared directions
        expected = {}
        for i, j, w in decls:
            key = (min(i, j), max(i, j))
            expected[key] = max(expected.get(key, 0.0), w)
        import tempfile, os

        with tempfile.TemporaryDirectory() as tmp:
            epath = os.path.join(tmp, "e.tsv")
            fpath = os.path.join(tmp, "f.tsv")
            with open(epath, "w") as fh:
                for i, j, w in decls:
                    fh.write(f"{i}\t{j}\t{w!r}\n")
            with open(fpath, "w") as fh:
                fh.write("0\t0\t1.0\n")
            net = load_network(epath, fpath)
        for (i, j), w in expected.items():
            assert net.adjacency[i, j] == w
            assert net.adjacency[j, i] == w

    def test_default_weight_and_comments(self, tmp_path):
        edges = write(tmp_path / "e.tsv", "# header\n0\t1\n\n")
        feats = write(tmp_path / "f.tsv", "0\t0\t1\n")
        net = load_network(edges, feats)
        assert net.adjacency[0, 1] == 1.0

    def test_malformed_line_reports_line_number(self, tmp_path):
        edges = write(tmp_path / "e.tsv", "0\t1\n0\tnope\t1\n")
        feats = write(tmp_path / "f.tsv", "0\t0\t1\n")
        with pytest.raises(ParseError) as err:
            load_network(edges, feats)
        assert err.value.line_no == 2

    def test_negative_index_rejected(self, tmp_path):
        edges = write(tmp_path / "e.tsv", "0\t1\n")
        feats = write(tmp_path / "f.tsv", "-1\t0\t1\n")
        with pytest.raises(ValidationError, match="out of range"):
            load_network(edges, feats)

    @pytest.mark.parametrize(
        "edge_text, feat_text, where",
        [
            ("0\t1\n1\t50\n", "0\t0\t1\n", r"e\.tsv:2: node id 50 "),
            ("# header\n0\t1\n", "0\t0\t1\n50\t1\t1\n", r"f\.tsv:2: node id 50 "),
            ("0\t1\n", "0\t0\t1\n1\t9\t1\n", r"f\.tsv:2: feature id 9 "),
        ],
    )
    def test_id_over_cap_rejected(self, tmp_path, monkeypatch, edge_text, feat_text, where):
        monkeypatch.setattr(graph, "MAX_NODES", 50)
        monkeypatch.setattr(graph, "MAX_FEATURES", 9)
        edges = write(tmp_path / "e.tsv", edge_text)
        feats = write(tmp_path / "f.tsv", feat_text)
        with pytest.raises(ValidationError, match=where + "out of range"):
            load_network(edges, feats)

    def test_ids_just_under_cap_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(graph, "MAX_NODES", 50)
        monkeypatch.setattr(graph, "MAX_FEATURES", 9)
        edges = write(tmp_path / "e.tsv", "0\t49\n")
        feats = write(tmp_path / "f.tsv", "49\t8\t1\n")
        net = load_network(edges, feats)
        assert (net.n, net.d) == (50, 9)

    def test_symmetry_invariant_holds(self, tmp_path):
        edges = write(tmp_path / "e.tsv", "0\t3\t2.5\n1\t2\n2\t1\t4\n")
        feats = write(tmp_path / "f.tsv", "3\t1\t1\n")
        net = load_network(edges, feats)
        assert (net.adjacency != net.adjacency.T).nnz == 0


ASCII_ONLY = "numbers are written in ASCII digits without '_', got "


class TestLoadErrors:
    """Each refused data line: the exception type and the full ``path:line: ...`` text.

    The bad line is line 3 of its file, after a comment and a good line.
    """

    @pytest.mark.parametrize(
        "name, line, error, message",
        [
            ("e.tsv", "0\t1\t2\t3", ParseError, "expected 'src dst [weight]', got '0\\t1\\t2\\t3'"),
            ("e.tsv", "7", ParseError, "expected 'src dst [weight]', got '7'"),
            ("e.tsv", "0\tx\t1", ParseError, "invalid literal for int() with base 10: 'x'"),
            ("e.tsv", "0\t1\tabc", ParseError, "could not convert string to float: 'abc'"),
            ("e.tsv", "99\t1\tabc", ParseError, "could not convert string to float: 'abc'"),
            ("e.tsv", "0\t1\t-1.5", ValidationError, "bad edge weight -1.5"),
            ("e.tsv", "0\t1\tnan", ValidationError, "bad edge weight nan"),
            ("e.tsv", "0\t1\tinf", ValidationError, "bad edge weight inf"),
            ("e.tsv", "0\t50", ValidationError, "node id 50 out of range [0, 50)"),
            ("e.tsv", "-1\t0", ValidationError, "node id -1 out of range [0, 50)"),
            ("e.tsv", "3\t99\t-1", ValidationError, "node id 99 out of range [0, 50)"),
            ("f.tsv", "0\t1", ParseError, "expected 'node feature value', got '0\\t1'"),
            ("f.tsv", "0 1 2 3", ParseError, "expected 'node feature value', got '0 1 2 3'"),
            ("f.tsv", "0\t1.5\t1", ParseError, "invalid literal for int() with base 10: '1.5'"),
            ("f.tsv", "0\t1\tx", ParseError, "could not convert string to float: 'x'"),
            ("f.tsv", "0\t1\t-2", ValidationError, "bad feature value -2.0"),
            ("f.tsv", "0\t1\tNaN", ValidationError, "bad feature value nan"),
            ("f.tsv", "0\t1\t-inf", ValidationError, "bad feature value -inf"),
            ("f.tsv", "50\t0\t1", ValidationError, "node id 50 out of range [0, 50)"),
            ("f.tsv", "0\t9\t1", ValidationError, "feature id 9 out of range [0, 9)"),
            ("f.tsv", "0\t9\t-1", ValidationError, "feature id 9 out of range [0, 9)"),
            ("e.tsv", "0\t1_0\t1.0", ParseError, f"{ASCII_ONLY}'0\\t1_0\\t1.0'"),
            ("e.tsv", "0\t1\t1_0.5", ParseError, f"{ASCII_ONLY}'0\\t1\\t1_0.5'"),
            ("f.tsv", "\u0663\t1\t0.5", ParseError, f"{ASCII_ONLY}'\u0663\\t1\\t0.5'"),
            ("f.tsv", "0\t1\t\uff15", ParseError, f"{ASCII_ONLY}'0\\t1\\t\uff15'"),
        ],
    )
    def test_message(self, tmp_path, monkeypatch, name, line, error, message):
        monkeypatch.setattr(graph, "MAX_NODES", 50)
        monkeypatch.setattr(graph, "MAX_FEATURES", 9)
        paths = {
            file_name: write(
                tmp_path / file_name,
                f"# header\n0\t1\t1\n{line}\n" if file_name == name else "0\t0\t1\n",
            )
            for file_name in ("e.tsv", "f.tsv")
        }
        with pytest.raises(error) as err:
            load_network(paths["e.tsv"], paths["f.tsv"])
        assert type(err.value) is error
        assert str(err.value) == f"{paths[name]}:3: {message}"


def _load_outcome(edge_path, feature_path):
    """The loaded network's CSR arrays, or the exception's type and text."""
    try:
        net = load_network(edge_path, feature_path)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)
    return [
        (a.dtype.str, a.shape, a.tobytes())
        for m in (net.adjacency, net.features)
        for a in (m.data, m.indices, m.indptr)
    ] + [net.adjacency.shape, net.features.shape]


_IDS = ["0", "1", "2", "3", "03", "+1"]  # all below the test's caps of 6 nodes and 4 features
_VALUES = ["1", "0", "0.0", "-0.0", ".5", "1.", "1e-3", "2.5E+2"]
_SEPARATORS = ["\t", " ", "\t \t"]
_SKIPPED = ["", "  ", "\t", "# c", "  # c # d", "#"]
# one of these at a random place, or none, makes each drawn file
_ODD = {
    "id": ["1_0", "1.0", "-1", "6", "99999999999999999999"],
    "value": ["nan", "inf", "1e400", "-1", "x", "1_0"],
    "separator": ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"],
    "line": ["0 1 2 # c", "0 1 2#", "0", "0 1", "0 1 2 3", "\x0c", "\x0b# c"],
    "end": ["\r"],
    "byte": [b"\xff"],
}


@st.composite
def _data_file(draw, widths):
    """File bytes of data lines, comments and blank lines, with at most one odd part."""
    width = draw(st.sampled_from(widths))
    value = st.one_of(st.floats(0, 10).map(repr), st.sampled_from(_VALUES))
    lines = []  # (fields, separators before fields 1..) or a skipped line
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 4)):
            fields = [draw(st.sampled_from(_IDS)), draw(st.sampled_from(_IDS)), draw(value)]
            lines.append((fields[:width], [draw(st.sampled_from(_SEPARATORS)) for _ in fields]))
        else:
            lines.append(draw(st.sampled_from(_SKIPPED)))
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n"])) for _ in lines]
    odd = draw(st.sampled_from([None, None, None, *_ODD]))
    at = draw(st.integers(0, max(len(lines) - 1, 0)))
    if odd and lines:
        part = draw(st.sampled_from(_ODD[odd]))
        if odd == "line":
            lines[at] = part
        elif odd == "end":
            ends[at] = part
        elif isinstance(lines[at], tuple):
            fields, seps = lines[at]
            if odd == "id":
                fields[draw(st.integers(0, 1))] = part
            elif odd == "value" and width == 3:
                fields[2] = part
            elif odd == "separator":
                seps[draw(st.integers(0, width - 2))] = part
    if lines and not draw(st.integers(0, 3)):
        ends[-1] = ""
    data = []
    for line, end in zip(lines, ends):
        if isinstance(line, tuple):
            fields, seps = line
            line = fields[0] + "".join(sep + field for sep, field in zip(seps, fields[1:]))
        data.append((line + end).encode("utf-8"))
    if odd == "byte" and data:
        cut = draw(st.integers(0, len(data[at])))
        data[at] = data[at][:cut] + b"\xff" + data[at][cut:]
    return b"".join(data)


class TestFastReader:
    """The numpy reader and the line parser read every file alike."""

    @given(_data_file([2, 3]), _data_file([3, 3, 3, 2]))
    @settings(max_examples=300, deadline=None)
    def test_fast_reader_equals_the_line_parser(self, edge_bytes, feature_bytes):
        with tempfile.TemporaryDirectory() as tmp, mock.patch.multiple(
            graph, MAX_NODES=6, MAX_FEATURES=4
        ):
            paths = [os.path.join(tmp, name) for name in ("e.tsv", "f.tsv")]
            for path, data in zip(paths, (edge_bytes, feature_bytes)):
                with open(path, "wb") as fh:
                    fh.write(data)
            fast = _load_outcome(*paths)
            with mock.patch.object(graph, "_fast_triples", lambda *args: None):
                assert _load_outcome(*paths) == fast

    def test_written_files_take_the_fast_path(self, tmp_path):
        net, _ = generate_synthetic(n=40, d=8, k_planted=4, p_in=0.7, p_out=0.1, teams=0, seed=5)
        save_network(net, tmp_path / "e.tsv", tmp_path / "f.tsv")
        with mock.patch.object(graph, "_data_lines", side_effect=AssertionError("line parser")):
            assert load_network(tmp_path / "e.tsv", tmp_path / "f.tsv") == net

    @pytest.mark.parametrize(
        "text", ["0 1 2\r\n1 2 3\r\n", "# a # b\n  # c\n\n0\t1\t2\n", "0 1\n1 2\n"]
    )
    def test_fast_path_reads(self, tmp_path, text):
        path = write(tmp_path / "e.tsv", text)
        node = ("node", 10)
        fast = graph._fast_triples(path, (node, node), 1.0)
        with mock.patch.object(graph, "_fast_triples", lambda *args: None):
            slow = graph._read_triples(path, "src dst [weight]", (node, node), "w", 1.0)
        assert [a.tolist() for a in fast] == [a.tolist() for a in slow]

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "# only\n",
            "0 1 2 # c\n",
            "0 1 2\r1 2 3\n",
            "# c\r0 1 2\n1 2 3\n",  # to file iteration the \r ends the comment
            "0 1\x0b2\n",
            "# caf\u00e9\n0 1 2\n",
            "0 1\n1 2 3\n",
            "0 1 1e400\n",
            "0 10 2\n",
        ],
    )
    def test_fast_path_declines(self, tmp_path, text):
        path = write(tmp_path / "e.tsv", text)
        node = ("node", 10)
        assert graph._fast_triples(path, (node, node), 1.0) is None

    @pytest.mark.parametrize("field", ["1.5", "1.0", "1e3"])
    def test_float_form_id_is_refused_whatever_the_warning_filters(self, tmp_path, field):
        edges = write(tmp_path / "e.tsv", f"0 {field} 2\n")
        features = write(tmp_path / "f.tsv", "0\t0\t1.0\n")
        node = ("node", 10_000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert graph._fast_triples(edges, (node, node), 1.0) is None
            with pytest.raises(ParseError, match=f"e.tsv:1: .*'{field}'"):
                load_network(edges, features)

    def test_a_numpy_warning_declines_the_file(self, tmp_path):
        """A numpy that parses an id through a float warns, then returns the truncated id."""
        path = write(tmp_path / "e.tsv", "0 1.5 2\n")
        fields = [("i", np.int64), ("j", np.int64), ("value", np.float64)]

        def truncating_loadtxt(*args, **kwargs):
            warnings.warn("Parsing an integer via a float is deprecated", DeprecationWarning)
            return np.array([(0, 1, 2.0)], dtype=fields)

        node = ("node", 10)
        with warnings.catch_warnings(), mock.patch.object(graph.np, "loadtxt", truncating_loadtxt):
            warnings.simplefilter("ignore")
            assert graph._fast_triples(path, (node, node), 1.0) is None


class TestRoundTrip:
    def test_save_load_identical(self, tmp_path):
        net, _ = generate_synthetic(n=20, d=8, k_planted=4, p_in=0.7, p_out=0.1, teams=5, seed=3)
        save_network(net, tmp_path / "e.tsv", tmp_path / "f.tsv")
        again = load_network(tmp_path / "e.tsv", tmp_path / "f.tsv")
        assert again == net

    def test_round_trip_with_isolated_featureless_node(self, tmp_path):
        adjacency = np.zeros((3, 3))
        adjacency[0, 1] = adjacency[1, 0] = 1.0
        features = np.zeros((3, 4))
        features[0, 2] = 5.0
        net = net_from_dense(adjacency, features)
        save_network(net, tmp_path / "e.tsv", tmp_path / "f.tsv")
        again = load_network(tmp_path / "e.tsv", tmp_path / "f.tsv")
        assert again == net
        assert again.n == 3 and again.d == 4

    def test_teams_round_trip(self, tmp_path):
        net = net_from_dense(np.zeros((6, 6)), np.eye(6))
        teams = [Team((0, 3, 5)), Team((1, 2))]
        save_teams(teams, tmp_path / "t.txt")
        assert load_teams(tmp_path / "t.txt", net) == teams


class TestLoadTeams:
    def test_sort_and_dedup(self, tmp_path):
        net = net_from_dense(np.zeros((6, 6)), np.eye(6))
        path = write(tmp_path / "t.txt", "3 1 2\n5 5\n")
        teams = load_teams(path, net)
        assert teams[0].members == (1, 2, 3)
        assert teams[1].members == (5,)

    def test_out_of_range_names_line(self, tmp_path):
        net = net_from_dense(np.zeros((3, 3)), np.eye(3))
        path = write(tmp_path / "t.txt", "0 1\n0 7\n")
        with pytest.raises(ValidationError, match="t.txt:2"):
            load_teams(path, net)

    @pytest.mark.parametrize("line", ["1_0 2", "1 \u0663", "\uff11 2"])
    def test_non_ascii_or_underscored_id_is_refused(self, tmp_path, line):
        net = net_from_dense(np.zeros((12, 12)), np.eye(12))
        path = write(tmp_path / "t.txt", f"0 1\n{line}\n")
        with pytest.raises(ParseError) as err:
            load_teams(path, net)
        assert str(err.value) == f"{path}:2: {ASCII_ONLY}{line!r}"

    def test_many_team_lines(self, tmp_path):
        net = net_from_dense(np.zeros((10, 10)), np.eye(10))
        path = write(tmp_path / "t.txt", "\n".join("0 1" for _ in range(818)) + "\n")
        assert len(load_teams(path, net)) == 818


class TestTeam:
    def test_normalization(self):
        assert Team((3, 1, 2, 2)).members == (1, 2, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            Team(())

    @pytest.mark.parametrize("ids", [(0.7, 2.9), (1, 2.0), (np.float64(3.0),), ("1",)])
    def test_non_integer_id_is_refused(self, ids):
        with pytest.raises(ValidationError, match="non-integer node id"):
            Team(ids)

    def test_numpy_integer_ids_are_kept_as_ints(self):
        members = Team(tuple(np.array([5, 2, 5], dtype=np.int32))).members
        assert members == (2, 5) and all(type(m) is int for m in members)

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=12))
    @settings(max_examples=100)
    def test_always_strictly_increasing(self, ids):
        members = Team(tuple(ids)).members
        assert all(a < b for a, b in zip(members, members[1:]))
        assert set(members) == set(ids)


class TestInducedSubgraph:
    def test_no_direct_edge(self, tiny_net):
        tg = induced_subgraph(tiny_net, Team((0, 2)))
        assert tg.adjacency.tolist() == [[0, 0], [0, 0]]

    def test_full_selection_is_identity(self, tiny_net):
        tg = induced_subgraph(tiny_net, Team((0, 1, 2)))
        assert np.array_equal(tg.adjacency, tiny_net.adjacency.toarray())
        assert np.array_equal(tg.labels, tiny_net.features.toarray())

    def test_direct_read(self, tiny_net):
        tg = induced_subgraph(tiny_net, Team((1, 2)))
        assert tg.adjacency.tolist() == [[0, 2], [2, 0]]

    def test_reembedding_reproduces_entries(self):
        rng = np.random.default_rng(5)
        upper = np.triu(rng.integers(0, 3, (8, 8)).astype(float), 1)
        net = net_from_dense(upper + upper.T, rng.random((8, 5)))
        members = Team((1, 4, 6))
        tg = induced_subgraph(net, members)
        for a, ga in enumerate(members.members):
            for b, gb in enumerate(members.members):
                assert tg.adjacency[a, b] == net.adjacency[ga, gb]
            assert np.array_equal(tg.labels[a], net.features.toarray()[ga])

    def test_graph_holds_read_only_copies(self):
        adjacency, labels = np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones((2, 1))
        g = LabeledGraph(adjacency=adjacency, labels=labels)
        before = g.distances.copy()
        adjacency[0, 1] = adjacency[1, 0] = 5.0
        labels[0, 0] = 2.0
        assert g.adjacency[0, 1] == 1.0 and g.labels[0, 0] == 1.0
        assert np.array_equal(g.distances, before)
        for array in (g.adjacency, g.labels):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 3.0


class TestNormalizeAdjacency:
    def test_single_node(self):
        net = net_from_dense([[0.0]], [[1.0]])
        assert normalize_adjacency(net).toarray().tolist() == [[1.0]]

    def test_two_node_hand_computed(self):
        # degrees with self-loops are (2, 2), so every entry is 1/2
        net = net_from_dense([[0, 1], [1, 0]], [[1, 0], [0, 1]])
        assert np.allclose(normalize_adjacency(net).toarray(), [[0.5, 0.5], [0.5, 0.5]])

    def test_isolated_nodes_give_identity(self):
        net = net_from_dense(np.zeros((3, 3)), np.eye(3))
        assert np.array_equal(normalize_adjacency(net).toarray(), np.eye(3))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.floats(0.0, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_equals_diagonal_products_bit_for_bit(self, seed, n, density):
        # weighted edges, and isolated nodes wherever a row draws no edge
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.random((n, n)) < density, 1) * rng.uniform(0.01, 50.0, (n, n))
        net = net_from_dense(upper + upper.T, np.eye(n))
        got = normalize_adjacency(net)
        want = normalize_adjacency_oracle(net.adjacency)
        assert got.has_sorted_indices
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()

    def test_regular_graph_rows_sum_to_one(self):
        n = 6
        ring = np.zeros((n, n))
        for i in range(n):
            ring[i, (i + 1) % n] = ring[(i + 1) % n, i] = 1.0
        net = net_from_dense(ring, np.eye(n))
        norm = normalize_adjacency(net).toarray()
        assert np.allclose(norm.sum(axis=1), 1.0)
        assert norm.min() >= 0 and norm.max() <= 1


class TestSocialNetworkValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationError, match="symmetric"):
            SocialNetwork(
                adjacency=sp.csr_array(np.array([[0.0, 1.0], [0.0, 0.0]])),
                features=sp.csr_array(np.eye(2)),
            )

    @pytest.mark.parametrize(
        "entries, symmetric",
        [
            ([(0, 1, 1.0), (1, 0, 2.0)], False),  # asymmetric only in its values
            ([(0, 1, 1.0), (0, 1, 1.0), (1, 0, 1.0)], False),  # duplicates sum to 2 one way
            ([(0, 1, 1.0), (0, 1, 1.0), (1, 0, 2.0)], True),
            ([(0, 1, 0.0), (1, 2, 1.0), (2, 1, 1.0)], True),  # an explicit zero at (0, 1) only
            ([(0, 1, 0.0), (1, 0, 0.5), (1, 2, 1.0), (2, 1, 1.0)], False),
        ],
    )
    @pytest.mark.parametrize("unsorted", [False, True], ids=["sorted", "unsorted"])
    def test_symmetry_of_non_canonical_input(self, entries, symmetric, unsorted):
        # a symmetric pair more gives row 0 two columns, which "unsorted" stores descending
        rows, cols, vals = (np.array(a) for a in zip(*entries, (0, 2, 3.0), (2, 0, 3.0)))
        order = np.lexsort((-cols if unsorted else cols, rows))
        indptr = np.searchsorted(rows[order], np.arange(4))
        adjacency = sp.csr_array((vals[order], cols[order], indptr), shape=(3, 3))
        assert adjacency.has_sorted_indices != unsorted
        features = sp.csr_array(np.eye(3))
        if symmetric:
            net = SocialNetwork(adjacency=adjacency, features=features)
            assert (net.adjacency != net.adjacency.T).nnz == 0
        else:
            with pytest.raises(ValidationError, match="symmetric"):
                SocialNetwork(adjacency=adjacency, features=features)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            net_from_dense([[0, -1], [-1, 0]], np.eye(2))

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            net_from_dense(np.zeros((2, 2)), np.eye(3))


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "build",
    [
        lambda adjacency, labels: net_from_dense(adjacency, labels),
        lambda adjacency, labels: LabeledGraph(adjacency=adjacency, labels=labels),
    ],
    ids=["SocialNetwork", "LabeledGraph"],
)
@pytest.mark.parametrize("matrix", ["adjacency", "labels"])
def test_non_finite_entry_rejected_as_the_file_loader_rejects_it(build, matrix, value):
    adjacency, labels = np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones((2, 2))
    if matrix == "adjacency":
        adjacency[0, 1] = adjacency[1, 0] = value
    else:
        labels[1, 0] = value
    with pytest.raises(ValidationError, match="finite"):
        build(adjacency, labels)


class TestGenerateSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(n=20, d=8, k_planted=4, p_in=0.9, p_out=0.05, teams=6, seed=7)
        b = generate_synthetic(n=20, d=8, k_planted=4, p_in=0.9, p_out=0.05, teams=6, seed=7)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_zero_cross_probability_means_no_cross_edges(self):
        net, _ = generate_synthetic(n=20, d=8, k_planted=4, p_in=0.9, p_out=0.0, teams=0, seed=1)
        blocks = planted_blocks(20, 4)
        coo = net.adjacency.tocoo()
        assert all(blocks[i] == blocks[j] for i, j in zip(coo.row, coo.col))

    def test_within_block_degree_exceeds_cross_block(self):
        net, _ = generate_synthetic(n=40, d=8, k_planted=4, p_in=0.8, p_out=0.05, teams=0, seed=2)
        blocks = planted_blocks(40, 4)
        coo = net.adjacency.tocoo()
        within = sum(1 for i, j in zip(coo.row, coo.col) if blocks[i] == blocks[j])
        cross = coo.nnz - within
        assert within / 40 > cross / 40

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValidationError):
            generate_synthetic(n=20, d=8, k_planted=4, p_in=0.5, p_out=0.7, teams=1, seed=0)
        with pytest.raises(ValidationError):
            generate_synthetic(n=20, d=8, k_planted=4, p_in=1.0, p_out=1.5, teams=1, seed=0)

    def test_pair_cap_refuses_before_allocating(self):
        # n = 4000 has 7,998,000 pairs, within the cap; 4001 has 8,002,000
        assert 4000 * 3999 // 2 <= MAX_SYNTH_PAIRS < 4001 * 4000 // 2
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="node pairs"):
                generate_synthetic(n=4001, d=1, k_planted=1, p_in=0.5, p_out=0.0, teams=0, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_block_count_must_divide_n(self):
        with pytest.raises(ValidationError):
            generate_synthetic(n=20, d=8, k_planted=3, p_in=0.5, p_out=0.1, teams=1, seed=0)

    def test_teams_are_valid_and_mostly_block_local(self):
        net, teams = generate_synthetic(
            n=40, d=16, k_planted=4, p_in=0.8, p_out=0.05, teams=25, seed=9
        )
        blocks = planted_blocks(40, 4)
        for team in teams:
            team.validate_for(net)
            assert 2 <= len(team) <= 6
            home_counts = np.bincount([blocks[v] for v in team], minlength=4)
            assert home_counts.max() >= len(team) - len(team) // 3

    # perfbench's train and recommend networks, whose refs depend on these bytes
    PINNED = [
        (
            dict(n=1600, d=64, k_planted=16, p_in=0.3, p_out=0.005, teams=400, seed=0),
            "500ea8343543174f59d3f276050188d48cd47d973482fe53bbceab807f5fd96b",
            "393607cfac710f45f66373adc1d7158c387dde93fa9d5e1f6e96f0a43179ecfc",
            "41929f8c2548b91bc8e27696b4ff18f0c06aa0174db47ca76d502941d82bf4f0",
        ),
        (
            dict(n=1200, d=120, k_planted=60, p_in=0.5, p_out=0.01, teams=1200, seed=0),
            "03194a6ee2103561a5fd6e3aae961af9bf8152f02fa772d0d51de491e64f5a75",
            "ca30dac0e1f3dfada46fbdd1adb7caf6c582610e9e9046b8b6545bd6cc580938",
            "1810220802924633fcce9a442b5799fa8fd87d29066c0745b5646382ab6765d1",
        ),
    ]

    @pytest.mark.parametrize(
        "kwargs, adjacency, features, teams", PINNED, ids=["train", "recommend"]
    )
    def test_perfbench_networks_are_pinned(self, kwargs, adjacency, features, teams):
        def digest(csr):
            h = hashlib.sha256()
            for a in (csr.indptr, csr.indices, csr.data):
                h.update(a.dtype.str.encode())
                h.update(np.ascontiguousarray(a).tobytes())
            return h.hexdigest()

        net, team_list = generate_synthetic(**kwargs)
        assert digest(net.adjacency) == adjacency
        assert digest(net.features) == features
        members = repr([t.members for t in team_list]).encode()
        assert hashlib.sha256(members).hexdigest() == teams

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=2, d=1, k_planted=1, p_in=0.5, p_out=0.0, teams=2, seed=0),
            dict(n=3, d=2, k_planted=1, p_in=0.5, p_out=0.0, teams=2, seed=1),
            dict(n=24, d=4, k_planted=1, p_in=1.0, p_out=0.0, teams=5, seed=2),
            dict(n=60, d=12, k_planted=5, p_in=0.6, p_out=0.1, teams=40, seed=3),
        ],
        ids=["n2", "n3", "one-full-block", "five-blocks"],
    )
    @pytest.mark.parametrize("block_pairs", [1, 7, 10**9])
    def test_output_does_not_depend_on_the_row_block_size(self, monkeypatch, kwargs, block_pairs):
        default_net, default_teams = generate_synthetic(**kwargs)
        monkeypatch.setattr(graph, "SYNTH_BLOCK_PAIRS", block_pairs)
        net, teams = generate_synthetic(**kwargs)
        for matrix in ("adjacency", "features"):
            got, want = getattr(net, matrix), getattr(default_net, matrix)
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
        assert teams == default_teams

    def test_traced_peak_does_not_grow_with_the_pair_count(self):
        # drawn all at once, the pairs held 33 bytes each at the traced peak: 95 MB
        # here, 264 MB at n = 4000; in row blocks the peak is 3.6 MB here, 8.2 MB at 4000
        n = 2400
        tracemalloc.start()
        try:
            generate_synthetic(n=n, d=64, k_planted=16, p_in=0.05, p_out=0.0005, teams=100, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (n * (n - 1) // 2), f"traced peak {peak / 1e6:.1f} MB"
