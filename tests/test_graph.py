import hashlib
import json
import math
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

from conftest import net_from_dense, rig_model
from oracles import normalize_adjacency_oracle
from subteam import graph
from subteam.encoder import check_dense_size, init_params, load_checkpoint, save_checkpoint
from subteam.errors import ParseError, ValidationError
from subteam.evaluate import draw_cases, feature_subsample, normalize_methods, run_comparison
from subteam.graph import (
    MAX_SYNTH_PAIRS,
    LabeledGraph,
    SocialNetwork,
    Team,
    check_seed,
    generate_synthetic,
    induced_subgraph,
    load_network,
    load_teams,
    normalize_adjacency,
    planted_blocks,
    remainder,
    save_network,
    save_teams,
)
from subteam.kernels import KernelConfig, kernel_baseline_replace
from subteam.objectives import contrastive_loss
from subteam.recommender import recommend
from subteam.trainer import TrainConfig, split_teams, train


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
        assert (net == 3) is False  # another type is not equal, not an error

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

    def test_negative_id_names_line(self, tmp_path):
        net = net_from_dense(np.zeros((3, 3)), np.eye(3))
        path = write(tmp_path / "t.txt", "0 1\n# two\n2 -1\n")
        with pytest.raises(ValidationError) as err:
            load_teams(path, net)
        assert str(err.value) == f"{path}:3: negative node id in team: -1"

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

    @pytest.mark.parametrize(
        "ids", [(0.7, 2.9), (1, 2.0), (np.float64(3.0),), ("1",), (True, 2), (np.True_,)]
    )
    def test_non_integer_id_is_refused(self, ids):
        with pytest.raises(ValidationError, match="non-integer node id"):
            Team(ids)

    def test_membership(self):
        team = Team((7, 3, 5))
        assert 3 in team and np.int64(5) in team and 7 in team
        assert 0 not in team and 4 not in team and 8 not in team

    def test_numpy_integer_ids_are_kept_as_ints(self):
        members = Team(tuple(np.array([5, 2, 5], dtype=np.int32))).members
        assert members == (2, 5) and all(type(m) is int for m in members)

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=12))
    @settings(max_examples=100)
    def test_always_strictly_increasing(self, ids):
        members = Team(tuple(ids)).members
        assert all(a < b for a, b in zip(members, members[1:]))
        assert set(members) == set(ids)


def test_remainder_is_the_sorted_rest():
    assert remainder(Team((4, 0, 2, 7)), (7, 0)) == (2, 4)
    assert remainder((3, 1, 2), Team((2,))) == (1, 3)


SPLIT_NET = net_from_dense(np.zeros((6, 6)), np.eye(6))
# each function that splits a team, called with a team and a subset as tuples
SPLITTERS = {
    "remainder": remainder,
    "contrastive_loss": lambda team, subset: contrastive_loss([(team, subset)], np.eye(6)),
    "recommend": lambda team, subset: recommend(
        Team(team), Team(subset), rig_model(np.eye(6), [1, 1, 1, 2, 2, 2], 2), SPLIT_NET
    ),
    "kernel_baseline_replace": lambda team, subset: kernel_baseline_replace(
        Team(team), Team(subset), SPLIT_NET, KernelConfig()
    ),
}


@pytest.mark.parametrize(
    "splitter, subset, message",
    [
        pytest.param(name, subset, message, id=f"{name}-{case}")
        for case, subset, message, takers in [
            ("outsider", (2, 5), "subteam members [5] are not in the team", SPLITTERS),
            ("whole-team", (0, 1, 2), "subteam equals the team; no member remains", SPLITTERS),
            # a Team is never empty, so only the functions that take bare tuples see this
            ("empty", (), "subteam must be non-empty", ["remainder", "contrastive_loss"]),
        ]
        for name in takers
    ],
)
def test_malformed_split_refused_alike_everywhere(splitter, subset, message):
    with pytest.raises(ValidationError) as err:
        SPLITTERS[splitter]((0, 1, 2), subset)
    assert str(err.value) == message


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


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: net_from_dense(np.zeros((2, 3)), np.eye(2)), "adjacency must be square"),
        (lambda: Team((-1, 2)), "negative node id in team: -1"),
        (lambda: LabeledGraph(np.zeros((2, 3)), np.ones((2, 1))), "adjacency must be square"),
        (lambda: LabeledGraph(np.zeros((2, 2)), np.ones((3, 1))), "labels must have one row"),
        (lambda: LabeledGraph([[0.0, 1.0], [0.0, 0.0]], np.ones((2, 1))), "must be symmetric"),
    ],
    ids=["net-not-square", "negative-team-id", "graph-not-square", "label-rows", "asymmetric"],
)
def test_malformed_graph_rejected(build, match):
    with pytest.raises(ValidationError, match=match):
        build()


@pytest.mark.parametrize(
    "n, d, match",
    [(2, 0, "isolated nodes in a network with d=0"), (0, 2, "dimension of an empty network")],
)
def test_save_network_refuses_what_no_marker_can_keep(tmp_path, n, d, match):
    net = SocialNetwork(adjacency=sp.csr_array((n, n)), features=sp.csr_array((n, d)))
    with pytest.raises(ValidationError, match=match):
        save_network(net, tmp_path / "edges.tsv", tmp_path / "features.tsv")


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

    def test_team_cap_refuses_before_drawing(self, monkeypatch):
        monkeypatch.setattr(graph, "MAX_SYNTH_TEAMS", 3)
        assert len(generate_synthetic(**{**SYNTH, "teams": 3})[1]) == 3
        with pytest.raises(ValidationError, match=r"team count must be an integer in \[0, 3\]"):
            generate_synthetic(**{**SYNTH, "teams": 4})

    def test_block_count_must_divide_n(self):
        with pytest.raises(ValidationError):
            generate_synthetic(n=20, d=8, k_planted=3, p_in=0.5, p_out=0.1, teams=1, seed=0)

    @pytest.mark.parametrize(
        "n, d, k, teams, message",
        [
            (8, 8, 8, 1, "blocks need at least 2 nodes to host teams"),
            (20, 3, 4, 1, r"d must be an integer in \[4, 100000\], got 3"),
            (20, 8, 4, -1, r"team count must be an integer in \[0, 1000000\], got -1"),
        ],
        ids=["one-node-blocks", "fewer-features-than-blocks", "negative-team-count"],
    )
    def test_shapes_that_cannot_host_the_blocks_rejected(self, n, d, k, teams, message):
        with pytest.raises(ValidationError, match=message):
            generate_synthetic(n=n, d=d, k_planted=k, p_in=0.5, p_out=0.1, teams=teams, seed=0)

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

    # the pair draw's edge shapes: one pair, one short row, every pair an edge, and
    # rows that cross five blocks; like PINNED, a change to these bytes must be deliberate
    EDGE_SHAPES = [
        (
            dict(n=2, d=1, k_planted=1, p_in=0.5, p_out=0.0, teams=2, seed=0),
            "b6849cff34c126243583ef4b1c05548f0fc904b1b6ce43eeba405ad83a19767c",
            "b799140cde9adb73dbb52e0e8dff1c91adb9f8f10678db3a4fc3458a8d47b757",
            "a5a60072518d8503e40ef7ad6ec550b3856b3a05e87f80168848bb409d56105e",
        ),
        (
            dict(n=3, d=2, k_planted=1, p_in=0.5, p_out=0.0, teams=2, seed=1),
            "4dd4ce230feb0de9ba445243b1c886d5d93b2462bb2261285cfeab4548460e6b",
            "0d427bb98fcc59f08ac4cfce192c91001c4405fa1c24da24957df4e4558a0ed3",
            "b61c1734e967f06f652bf6495b43e30ad3614b3d37c0a5eae97b1ad07d2864d9",
        ),
        (
            dict(n=24, d=4, k_planted=1, p_in=1.0, p_out=0.0, teams=5, seed=2),
            "663c5709091e72875fb4dcb5446213e03a4412ee23c7d1cd4f75bae3bdf84a54",
            "55e57b225c443a9bc80ac82c4d5f678eff7c6c052372d991066c2e4e792d3ea6",
            "3531dfe2a705a0d9ce5de66d41886ed8d8afa6acb08956dea1afba661cae674d",
        ),
        (
            dict(n=60, d=12, k_planted=5, p_in=0.6, p_out=0.1, teams=40, seed=3),
            "1ccac02e0b728bc1636262a9305844a6cb235683edde4ea9c09636d1bc12e692",
            "a809c5d73d6e2290a4478ee0402975d8c1dcef16d99124c31fd1612e01154efe",
            "11f207650f2df49f5858abfead6367cbff1487f458867b58552170013de18f59",
        ),
    ]

    @pytest.mark.parametrize(
        "kwargs, adjacency, features, teams",
        EDGE_SHAPES,
        ids=["n2", "n3", "one-full-block", "five-blocks"],
    )
    def test_edge_shapes_are_pinned(self, kwargs, adjacency, features, teams):
        self.test_perfbench_networks_are_pinned(kwargs, adjacency, features, teams)

    def test_traced_peak_does_not_grow_with_the_pair_count(self):
        # drawn all at once, the pairs held 33 bytes each at the traced peak: 95 MB
        # here, 264 MB at n = 4000; one row at a time the peak is 2.7 MB here, 6.1 MB at 4000
        n = 2400
        tracemalloc.start()
        try:
            generate_synthetic(n=n, d=64, k_planted=16, p_in=0.05, p_out=0.0005, teams=100, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (n * (n - 1) // 2), f"traced peak {peak / 1e6:.1f} MB"


# what each kind of setting must refuse; 10**400 is an integer, so only a count with a
# cap (CAPPED_COUNT) refuses it. Python will not print an int past 4,300 digits, so
# 10**5000 checks that no refusal raises while wording its value.
COUNT = [None, "3", 2.5, True, math.nan, math.inf, -1, -(10**5000)]
CAPPED_COUNT = [*COUNT, 10**400, 10**5000]
REAL = [None, "0.1", True, math.nan, math.inf, 10**400, -1, 10**5000, -(10**5000)]
# json.dumps cannot write those two, and json.load refuses them as a malformed checkpoint
JSON_COUNT = [v for v in CAPPED_COUNT if v not in (10**5000, -(10**5000))]
HUGE_IDS = {10**400: "10**400", 10**5000: "10**5000", -(10**5000): "-10**5000"}
SYNTH = dict(n=12, d=4, k_planted=2, p_in=0.8, p_out=0.1, teams=4, seed=0)


def _small_instance(**changed):
    return generate_synthetic(**{**SYNTH, **changed})


# team lists that are not a sequence of Team, made by _teams_as
MALFORMED_TEAMS = ["generator", "tuples", "one-team"]


def _teams_as(kind):
    """The small instance's teams as a generator, a list of id tuples, or its first team alone."""
    teams = _small_instance()[1]
    return {
        "generator": (team for team in teams),
        "tuples": [team.members for team in teams],
        "one-team": teams[0],
    }[kind]


def _load_checkpoint_of_version(version, tmp_path):
    path = tmp_path / "checkpoint.json"
    save_checkpoint(init_params(4, (3,), 2, np.random.default_rng(0)), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["format_version"] = version  # json writes NaN and inf as NaN and Infinity, and reads them
    path.write_text(json.dumps(doc), encoding="utf-8")
    return load_checkpoint(path)


# (entry point and setting, the call given one value and a scratch directory, the values
# it must refuse, a pattern that names the setting in the refusal)
ENTRY_POINTS = [
    ("check_seed", lambda v, _: check_seed(v), COUNT, "seed must"),
    *(
        (f"generate_synthetic-{name}", lambda v, _, name=name: _small_instance(**{name: v}),
         values, pattern)
        for name, values, pattern in [
            ("n", CAPPED_COUNT, r"\bn( must|=)"),
            ("d", CAPPED_COUNT, "d must"),
            ("k_planted", CAPPED_COUNT, "k_planted( must|=)"),
            ("p_in", REAL, r"\(p_in, p_out\) must"),
            ("p_out", REAL, r"\(p_in, p_out\) must"),
            ("teams", CAPPED_COUNT, "team count"),
            ("seed", COUNT, "seed must"),
        ]
    ),
    *(
        (f"TrainConfig-{name}", lambda v, _, name=name, wrap=wrap: TrainConfig(**{name: wrap(v)}),
         values, pattern)
        for name, wrap, values, pattern in [
            ("epochs", lambda v: v, COUNT, "epochs must"),
            ("learning_rate", lambda v: v, REAL, "learning rate"),
            ("weights", lambda v: (v, 1.0, 1.0), REAL, "loss weights must"),
            ("subteam_fraction_range", lambda v: (v, 0.5), REAL, "subteam fraction range"),
            ("split", lambda v: (v, 0.0, 0.0), REAL, "split fractions"),
            ("hidden", lambda v: (v,), COUNT, "hidden width must"),
            ("clusters", lambda v: v, [v for v in COUNT if v is not None], "clusters must"),
            ("seed", lambda v: v, COUNT, "seed must"),
        ]
    ),
    ("split_teams-fractions", lambda v, _: split_teams(_small_instance()[1], (v, 0.0, 0.0), 0),
     REAL, "split fractions"),
    ("split_teams-seed", lambda v, _: split_teams(_small_instance()[1], (1.0, 0.0, 0.0), v),
     COUNT, "seed must"),
    ("KernelConfig-decay", lambda v, _: KernelConfig(decay=v), REAL, "decay must"),
    ("KernelConfig-termination", lambda v, _: KernelConfig(termination=v), REAL, "termination"),
    ("feature_subsample-d_sub", lambda v, _: feature_subsample(_small_instance()[0], v, 0),
     CAPPED_COUNT, "d_sub must"),
    ("feature_subsample-seed", lambda v, _: feature_subsample(_small_instance()[0], 2, v),
     COUNT, "seed must"),
    ("draw_cases-percentages", lambda v, _: draw_cases(_small_instance()[1], [v], 0),
     REAL, "percentages must"),
    ("draw_cases-seed", lambda v, _: draw_cases(_small_instance()[1], [50], v), COUNT, "seed must"),
    # percentages are read once per team, so a number or a None in place of the collection
    ("run_comparison-percentages",
     lambda v, _: run_comparison(*_small_instance(), ["kernel"], v, 0),
     [50, None, math.nan, 10**5000], "percentages must be a collection"),
    ("draw_cases-percentages-collection", lambda v, _: draw_cases(_small_instance()[1], v, 0),
     [50, None], "percentages must be a collection"),
    # a setting that takes a collection refuses a value that is not iterable, and one str
    # or bytes value whole, which iterating would read as characters or small integers
    ("normalize_methods-collection", lambda v, _: normalize_methods(v),
     ["kernel", b"kernel", 5, None], "methods must be a collection"),
    ("run_comparison-methods-text", lambda v, _: run_comparison(*_small_instance(), v, [50], 0),
     ["kernel"], "methods must be a collection"),
    ("draw_cases-percentages-text", lambda v, _: draw_cases(_small_instance()[1], v, 0),
     ["50", b"50"], "percentages must be a collection"),
    ("Team-text", lambda v, _: Team(v), ["12", b"\x01\x02"], "team must be a collection"),
    ("TrainConfig-hidden-text", lambda v, _: TrainConfig(hidden=v), ["88", b"\x08\x08"],
     "hidden must be one or more layer widths"),
    ("TrainConfig-split-text", lambda v, _: TrainConfig(split=v), [b"\x01\x00\x00"],
     "split fractions must"),
    # the team list is read by length, by index and team by team
    ("split_teams-teams", lambda v, _: split_teams(_teams_as(v), (1.0, 0.0, 0.0), 0),
     MALFORMED_TEAMS, "teams must be a sequence of Team"),
    ("train-teams", lambda v, _: train(_small_instance()[0], _teams_as(v), TrainConfig(epochs=1)),
     MALFORMED_TEAMS, "teams must be a sequence of Team"),
    ("run_comparison-teams",
     lambda v, _: run_comparison(_small_instance()[0], _teams_as(v), ["kernel"], [50], 0),
     MALFORMED_TEAMS, "teams must be a sequence of Team"),
    ("load_checkpoint-format_version", _load_checkpoint_of_version, JSON_COUNT, "format version"),
    ("run_comparison-training_time_ms",
     lambda v, _: run_comparison(*_small_instance(), ["kernel"], [50], 0, training_time_ms=v),
     REAL, "training_time_ms"),
    # settings whose caps depend on other values: the network, the dense size, the team
    ("train-hidden", lambda v, _: train(*_small_instance(), TrainConfig(epochs=1, hidden=(v,))),
     [10**5000], "hidden widths"),
    ("train-clusters", lambda v, _: train(*_small_instance(), TrainConfig(epochs=1, clusters=v)),
     [10**5000], "cluster count"),
    ("check_dense_size-n", lambda v, _: check_dense_size(v, 4, (3,), 2), [10**400, 10**5000],
     r"\bn="),
    ("Team-ids", lambda v, _: Team((v, 1)), COUNT, "node id"),
    ("induced_subgraph-ids", lambda v, _: induced_subgraph(_small_instance()[0], Team((0, v))),
     [12, 10**400, 10**5000], "references node"),
    ("remainder-outsiders", lambda v, _: remainder(Team((0, 1, 2)), (0, v)), [3, 10**400, 10**5000],
     "not in the team"),
]


@pytest.mark.parametrize(
    "call, value, pattern",
    [
        pytest.param(call, value, pattern, id=f"{name}-{HUGE_IDS.get(value, value)}")
        for name, call, values, pattern in ENTRY_POINTS
        for value in values
    ],
)
def test_malformed_setting_refused_at_every_entry_point(call, value, pattern, tmp_path):
    # a bool, a string, a float where a count belongs, NaN, inf, a number past float64 or
    # past what Python prints, and a negative are each a ValidationError naming the setting,
    # never a bare TypeError, ValueError or OverflowError, and never accepted
    with pytest.raises(ValidationError, match=pattern):
        call(value, tmp_path)


@pytest.mark.parametrize(
    "value, shown",
    [
        (10**5000, "<int too long to print>"),
        (-(10**5000), "<int too long to print>"),
        ((0.5, 10**5000), "<tuple too long to print>"),
    ],
    ids=["int", "negative-int", "tuple"],
)
def test_a_refused_value_python_will_not_print_is_named_by_its_type(value, shown):
    assert graph._shown(value) == shown


@pytest.mark.parametrize(
    "value", [None, "3", math.nan, math.inf, 10**400, (0.25, 0.75)],
    ids=["None", "str", "nan", "inf", "10**400", "floats"],
)
def test_a_printable_refused_value_shows_as_its_repr(value):
    assert graph._shown(value) == repr(value)
