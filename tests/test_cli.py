import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import strict_json
from subteam import cli, encoder, graph, kernels, recommender, trainer
from subteam.cli import build_parser, main
from subteam.encoder import encode, load_checkpoint
from subteam.errors import ParseError, ValidationError
from subteam.graph import load_network
from subteam.kernels import KernelConfig
from subteam.trainer import TrainConfig

SYNTH = ["synth", "--n", "24", "--d", "8", "--clusters", "4", "--teams", "12", "--seed", "7"]
TRAIN_FAST = [
    "train",
    "--epochs",
    "15",
    "--hidden",
    "8",
    "8",
    "--clusters",
    "4",
    "--seed",
    "1",
]
EVAL_FAST = [
    "evaluate",
    "--methods",
    "genius,kernel",
    "--percent",
    "25",
    "--seed",
    "1",
    "--decay",
    "0.005",
    "--termination",
    "0.95",
]


def run_synth(tmp_path, name="data", seed="7"):
    out = tmp_path / name
    args = list(SYNTH)
    args[args.index("--seed") + 1] = seed
    assert main(args + ["--out", str(out)]) == 0
    return out


def mask_timing(text: str) -> str:
    """Null out every *_ms field in a JSON document for byte comparisons."""
    doc = json.loads(text)

    def scrub(node):
        if isinstance(node, dict):
            return {k: (None if k.endswith("_ms") else scrub(v)) for k, v in node.items()}
        if isinstance(node, list):
            return [scrub(v) for v in node]
        return node

    return json.dumps(scrub(doc), indent=2)


class TestSynth:
    def test_writes_three_files_and_manifest(self, tmp_path):
        out = run_synth(tmp_path)
        for name in ("edges.tsv", "features.tsv", "teams.txt", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7 and manifest["n"] == 24

    def test_rerun_is_byte_identical(self, tmp_path):
        a = run_synth(tmp_path, "a")
        b = run_synth(tmp_path, "b")
        for name in ("edges.tsv", "features.tsv", "teams.txt", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_quickstart_files_are_pinned(self, tmp_path):
        # the README quickstart's synth command; a change to these bytes changes every
        # downstream result, so it must be deliberate
        out = tmp_path / "data"
        argv = ["synth", "--n", "48", "--d", "16", "--clusters", "4", "--teams", "40"]
        assert main(argv + ["--seed", "11", "--out", str(out)]) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("edges.tsv", "features.tsv", "teams.txt")
        }
        assert digests == {
            "edges.tsv": "8b7f8db718a63cf32250940eac785456577e99ad0d81ae15b53e49a427ccbf38",
            "features.tsv": "cefba6df0943b3ca0cf6dfe183a7fe6265f61d34b7c0d9196b43d6605cd6c6da",
            "teams.txt": "b2d38de32d6862ab98b5c167d83d1493f3661bebacae06d71cb00dcd33228762",
        }

    def test_readme_n4000_files_are_pinned(self, tmp_path):
        # README's load_network timing shape, the largest n under the pair cap
        out = tmp_path / "data"
        argv = "synth --n 4000 --d 64 --clusters 16 --p-in 0.05 --p-out 0.0005 --teams 1000"
        assert main(argv.split() + ["--out", str(out)]) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("edges.tsv", "features.tsv", "teams.txt")
        }
        assert digests == {
            "edges.tsv": "f158f7f3fabe2d2be0dc09b1ca01a22ad2a608d4092eb860fdbd1ad6b1e3f7a1",
            "features.tsv": "3a8d2fcf11899bdb9625a7ce62305a55d9db353f2363074595d6493f677c598f",
            "teams.txt": "e3d3e27a77bc3a9a93c85062e5160cdef3e4ea7ad7297ecc5057fbf2a52a44e2",
        }

    def test_invalid_probability_exits_2(self, tmp_path, capsys):
        code = main(SYNTH + ["--p-out", "1.5", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, via_config):
        # argparse reads the config's seed as it reads the flag, and only the
        # library refuses a negative one
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        seed = ["--config", str(cfg)] if via_config else ["--seed", "-1"]
        code = main(SYNTH[:-2] + seed + ["--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert "seed" in err and "internal" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "n, d, clusters, message",
        [(10_000_000, 1, 1, "node pairs"), (24, 200_000, 4, "d must be an integer in [4, 100000]")],
        ids=["node-pairs", "features"],
    )
    def test_size_over_a_cap_exits_2(self, tmp_path, capsys, n, d, clusters, message):
        out = tmp_path / "x"
        code = main(
            ["synth", "--n", str(n), "--d", str(d), "--clusters", str(clusters), "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert message in err and "internal" not in err
        assert not out.exists()


class TestTrain:
    def test_writes_checkpoint_and_log(self, tmp_path, capsys):
        data = run_synth(tmp_path)
        assert main(TRAIN_FAST + ["--data", str(data)]) == 0
        assert (data / "checkpoint.json").exists()
        log_lines = [
            line
            for line in (data / "train.log").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(log_lines) == 15

    def test_weight_presets_accepted(self, tmp_path):
        data = run_synth(tmp_path)
        base = TRAIN_FAST + ["--data", str(data), "--epochs", "2"]
        assert main(base + ["--b1", "1", "--b2", "100", "--b3", "1"]) == 0
        assert main(base + ["--b1", "100", "--b2", "100", "--b3", "10"]) == 0

    def test_checkpoint_deterministic_and_log_masked_identical(self, tmp_path):
        data = run_synth(tmp_path)
        ck1, lg1 = tmp_path / "c1.json", tmp_path / "l1.log"
        ck2, lg2 = tmp_path / "c2.json", tmp_path / "l2.log"
        for ck, lg in ((ck1, lg1), (ck2, lg2)):
            assert (
                main(TRAIN_FAST + ["--data", str(data), "--checkpoint", str(ck), "--log", str(lg)])
                == 0
            )
        assert ck1.read_bytes() == ck2.read_bytes()

        def strip_wall(path):
            return [line.rsplit("\t", 1)[0] for line in path.read_text().splitlines()]

        assert strip_wall(lg1) == strip_wall(lg2)

    def test_stray_node_id_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(graph, "MAX_NODES", 1000)
        data = run_synth(tmp_path)
        edges = data / "edges.tsv"
        line_no = len(edges.read_text().splitlines()) + 1
        with open(edges, "a", encoding="utf-8") as fh:
            fh.write("3\t5000\n")
        assert main(TRAIN_FAST + ["--data", str(data)]) == 2
        assert f"edges.tsv:{line_no}: node id 5000 out of range" in capsys.readouterr().err
        assert not (data / "checkpoint.json").exists()

    def test_huge_dense_size_exits_2_before_allocating(self, tmp_path, capsys):
        # each id is under its cap, but 10^6 x 10^5 dense feature rows made
        # numpy fail to allocate 745 GiB, which exited 1 as an internal error
        data = tmp_path / "data"
        data.mkdir()
        (data / "edges.tsv").write_text("0 1 1.0\n")
        (data / "features.tsv").write_text("0 0 1.0\n1 1 1.0\n999999 99999 1.0\n")
        (data / "teams.txt").write_text("0 1\n" * 5)
        assert main(["train", "--data", str(data), "--epochs", "1", "--hidden", "4"]) == 2
        err = capsys.readouterr().err
        assert "n=1000000 nodes and d=100000 features" in err and "internal" not in err
        assert sorted(p.name for p in data.iterdir()) == ["edges.tsv", "features.tsv", "teams.txt"]

    @pytest.mark.parametrize(
        "hidden", [["100000000000"], ["20000", "20000"]], ids=["activations", "layer-weights"]
    )
    def test_huge_hidden_width_exits_2_before_allocating(
        self, tmp_path, monkeypatch, capsys, hidden
    ):
        # one 10^11-wide layer made numpy fail to allocate 11.6 TiB, which exited 1
        monkeypatch.setattr(trainer, "init_params", lambda *args: pytest.fail("initialised"))
        data = run_synth(tmp_path)
        ckpt = tmp_path / "ck.json"
        args = ["train", "--data", str(data), "--epochs", "1", "--checkpoint", str(ckpt)]
        assert main(args + ["--hidden", *hidden]) == 2
        err = capsys.readouterr().err
        assert f"hidden widths {tuple(map(int, hidden))}" in err and "internal" not in err
        assert not ckpt.exists()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    data = run_synth(tmp)
    assert main(TRAIN_FAST + ["--data", str(data)]) == 0
    return data


class TestRecommend:
    def team_of(self, data: Path, min_size=3):
        for line in (data / "teams.txt").read_text().splitlines():
            ids = [int(t) for t in line.split()]
            if len(ids) >= min_size:
                return ids
        raise AssertionError("no team of requested size")

    def test_valid_request_prints_block(self, trained, capsys):
        team = self.team_of(trained)
        code = main(
            [
                "recommend",
                "--data",
                str(trained),
                "--checkpoint",
                str(trained / "checkpoint.json"),
                "--team",
                *map(str, team),
                "--departing",
                str(team[0]),
            ]
        )
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert [line.split(":")[0] for line in lines] == [
            "members", "similarity", "candidates examined", "elapsed"
        ]
        assert re.fullmatch(r"elapsed: \d+\.\d{3} ms", lines[3])

    def test_json_output_deterministic_with_masked_timing(self, trained, capsys):
        team = self.team_of(trained)
        args = [
            "recommend",
            "--data",
            str(trained),
            "--checkpoint",
            str(trained / "checkpoint.json"),
            "--team",
            *map(str, team),
            "--departing",
            str(team[0]),
            "--json",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert mask_timing(first) == mask_timing(second)
        doc = json.loads(first)
        assert list(doc) == ["members", "similarity", "candidates_examined", "elapsed_ms"]
        assert doc["members"] and math.isfinite(doc["elapsed_ms"]) and doc["elapsed_ms"] >= 0

    def test_reads_no_teams_file(self, trained, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(trained, data)
        (data / "teams.txt").unlink()
        team = self.team_of(trained)
        outputs = []
        for source in (trained, data):
            argv = ["recommend", "--data", str(source), "--team", *map(str, team)]
            argv += ["--checkpoint", str(trained / "checkpoint.json"), "--departing", str(team[0])]
            assert main(argv + ["--json"]) == 0
            outputs.append(mask_timing(capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    def test_departing_not_subset_exits_2(self, trained, capsys):
        team = self.team_of(trained)
        outside = next(i for i in range(24) if i not in team)
        code = main(
            [
                "recommend",
                "--data",
                str(trained),
                "--checkpoint",
                str(trained / "checkpoint.json"),
                "--team",
                *map(str, team),
                "--departing",
                str(outside),
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "defect",
        [
            "bad-json", "missing-key", "ragged-arrays", "layer-not-2d", "version-true",
            "no-layers", "head-rows",
        ],
    )
    def test_malformed_checkpoint_exits_2(self, trained, tmp_path, capsys, defect):
        doc = json.loads((trained / "checkpoint.json").read_text())
        if defect == "missing-key":
            del doc["layer_weights"]
        elif defect == "no-layers":
            doc["layer_weights"] = []
        elif defect == "head-rows":  # one row fewer than the layer widths sum to
            doc["cluster_weight"].pop()
        elif defect == "ragged-arrays":
            doc["cluster_weight"][0].append(0.0)
        elif defect == "layer-not-2d":  # loaded, then failed inside forward with exit 1
            doc["layer_weights"][0] = [[[v] for v in row] for row in doc["layer_weights"][0]]
        elif defect == "version-true":  # loaded as version 1, since True == 1
            doc["format_version"] = True
        ck = tmp_path / "bad.json"
        ck.write_text("{format_version: 1" if defect == "bad-json" else json.dumps(doc))
        team = self.team_of(trained)
        code = main(
            [
                "recommend",
                "--data",
                str(trained),
                "--checkpoint",
                str(ck),
                "--team",
                *map(str, team),
                "--departing",
                str(team[0]),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "malformed checkpoint" in err and "bad.json" in err and "internal" not in err

    @pytest.mark.parametrize("command", ["recommend", "evaluate"])
    def test_features_whose_embeddings_overflow_exit_2(self, trained, tmp_path, capsys, command):
        # every entry stays finite, but the search's cosines would overflow to NaN,
        # and a NaN score never wins: recommend reported no candidate, and evaluate
        # recorded most cases as no-candidate
        data = tmp_path / "data"
        shutil.copytree(trained, data)
        features = data / "features.tsv"
        lines = features.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.split("\t")[0] == "0")
        lines[row] = "\t".join(lines[row].split("\t")[:2] + ["1e300"])
        features.write_text("\n".join(lines) + "\n")
        flags = ["--data", str(data), "--checkpoint", str(trained / "checkpoint.json")]
        if command == "recommend":
            team = self.team_of(trained)
            flags += ["--team", *map(str, team), "--departing", str(team[0])]
        else:
            flags += ["--methods", "genius", "--percent", "50", "--seed", "1"]
        with np.errstate(all="ignore"):  # the encoder overflows on purpose
            code = main([command, *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert "sum of squares is not finite" in err and "internal" not in err

    def test_missing_checkpoint_exits_2(self, trained, tmp_path, capsys):
        team = self.team_of(trained)
        code = main(
            [
                "recommend",
                "--data",
                str(trained),
                "--checkpoint",
                str(tmp_path / "absent.json"),
                "--team",
                *map(str, team),
                "--departing",
                str(team[0]),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "absent.json" in err and "internal" not in err

    def test_team_spanning_all_nodes_exits_3(self, tmp_path, capsys):
        # every cluster member is a team member, so no candidate survives
        data = tmp_path / "tiny"
        data.mkdir()
        (data / "edges.tsv").write_text("0\t1\t1.0\n1\t2\t1.0\n2\t3\t1.0\n")
        (data / "features.tsv").write_text(
            "0\t0\t1.0\n1\t1\t1.0\n2\t0\t0.5\n3\t1\t0.5\n"
        )
        (data / "teams.txt").write_text("0 1 2 3\n")
        assert (
            main(
                [
                    "train",
                    "--data",
                    str(data),
                    "--epochs",
                    "1",
                    "--hidden",
                    "4",
                    "--clusters",
                    "2",
                    "--split",
                    "1.0",
                    "0.0",
                    "0.0",
                ]
            )
            == 0
        )
        code = main(
            [
                "recommend",
                "--data",
                str(data),
                "--checkpoint",
                str(data / "checkpoint.json"),
                "--team",
                "0",
                "1",
                "2",
                "3",
                "--departing",
                "0",
            ]
        )
        assert code == 3
        assert "no candidate" in capsys.readouterr().err

    def test_search_over_budget_exits_2(self, trained, monkeypatch, capsys):
        monkeypatch.setattr(recommender, "DEFAULT_SEARCH_BUDGET", 0)
        team = self.team_of(trained)
        code = main(
            [
                "recommend",
                "--data",
                str(trained),
                "--checkpoint",
                str(trained / "checkpoint.json"),
                "--team",
                *map(str, team),
                "--departing",
                str(team[0]),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "exceeds budget 0" in err and "internal" not in err

    def test_bad_node_id_exits_2(self, trained):
        code = main(
            [
                "recommend",
                "--data",
                str(trained),
                "--checkpoint",
                str(trained / "checkpoint.json"),
                "--team",
                "0",
                "999",
                "--departing",
                "0",
            ]
        )
        assert code == 2


class TestEvaluate:
    def test_report_with_both_methods(self, trained, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            EVAL_FAST
            + [
                "--data",
                str(trained),
                "--checkpoint",
                str(trained / "checkpoint.json"),
                "--train-log",
                str(trained / "train.log"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc["methods"]) == {"genius", "kernel"}
        assert doc["methods"]["genius"]["cases"] > 0

    def test_table_format(self, trained, capsys):
        code = main(
            EVAL_FAST
            + [
                "--data",
                str(trained),
                "--checkpoint",
                str(trained / "checkpoint.json"),
                "--format",
                "table",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        header = out.splitlines()[0]
        assert header.startswith("case_id\tmethod")

    def test_feature_subsample_flag(self, trained, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            EVAL_FAST
            + [
                "--data",
                str(trained),
                "--checkpoint",
                str(trained / "checkpoint.json"),
                "--methods",
                "kernel",
                "--features",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["feature_subset"] == 4
        assert doc["config"]["d"] == 4

    def test_empty_split_exits_4(self, trained, capsys):
        code = main(
            EVAL_FAST
            + [
                "--data",
                str(trained),
                "--checkpoint",
                str(trained / "checkpoint.json"),
                "--split",
                "1.0",
                "0.0",
                "0.0",
            ]
        )
        assert code == 4

    def test_empty_team_file_is_an_empty_evaluation(self, tmp_path, capsys):
        synth = list(SYNTH)
        synth[synth.index("--teams") + 1] = "0"
        data = tmp_path / "data"
        assert main(synth + ["--out", str(data)]) == 0
        code = main(["evaluate", "--data", str(data), "--methods", "kernel"])
        err = capsys.readouterr().err
        assert code == 4
        assert "empty test split" in err and "error" not in err

    def test_ged_over_its_node_budget_skips_each_case(self, trained, monkeypatch, capsys):
        monkeypatch.setattr(kernels, "GED_MAX_EXPANDED", 0)
        args = ["--data", str(trained), "--checkpoint", str(trained / "checkpoint.json")]
        assert main(EVAL_FAST + args + ["--format", "table"]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        column = {name: i for i, name in enumerate(rows[0])}
        ok = [row for row in rows[1:] if row[column["status"]] == "ok"]
        assert ok and all(row[column["ged"]] == "" and row[column["d1"]] for row in ok)
        assert main(EVAL_FAST + args) == 0
        for doc in json.loads(capsys.readouterr().out)["methods"].values():
            assert doc["cases"] > 0 and doc["ged_cases"] == 0
            assert doc["ged_skipped"] == {"RefusalError": doc["cases"]}

    def test_baseline_over_its_budget_refuses_every_case(self, trained, monkeypatch, capsys):
        monkeypatch.setattr(kernels, "BASELINE_BUDGET", 0)
        args = ["--data", str(trained), "--methods", "kernel", "--format", "table"]
        assert main(EVAL_FAST + args) == 4
        out, err = capsys.readouterr()
        rows = [line.split("\t") for line in out.splitlines()]
        status = rows[0].index("status")
        assert len(rows) > 1 and {row[status] for row in rows[1:]} == {"refused"}
        assert "no case completed" in err

    @pytest.mark.parametrize("featureless", ["subset-of-0", "header-only-file"])
    def test_network_without_features_exits_2(self, trained, tmp_path, capsys, featureless):
        data = tmp_path / "data"
        shutil.copytree(trained, data)
        flags = ["--features", "0"] if featureless == "subset-of-0" else []
        if featureless == "header-only-file":
            (data / "features.tsv").write_text("# node\tfeature\tvalue\n")
        out = tmp_path / "report.json"
        args = ["--data", str(data), "--methods", "kernel", "--out", str(out)]
        code = main(EVAL_FAST + args + flags)
        err = capsys.readouterr().err
        assert code == 2
        assert "without features (d = 0)" in err and "internal" not in err
        assert not out.exists()

    def test_feature_subset_with_the_trained_method_exits_2_before_reading(
        self, tmp_path, capsys
    ):
        absent = tmp_path / "absent"
        code = main(EVAL_FAST + ["--data", str(absent), "--features", "4"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--features" in err and "genius" in err and "internal" not in err
        assert "no such file" not in err  # refused before any file was looked at

    def test_missing_train_log_exits_2(self, trained, tmp_path, capsys):
        out = tmp_path / "report.json"
        args = ["--data", str(trained), "--checkpoint", str(trained / "checkpoint.json")]
        args += ["--train-log", str(tmp_path / "absent.log"), "--out", str(out)]
        code = main(EVAL_FAST + args)
        err = capsys.readouterr().err
        assert code == 2
        assert "absent.log" in err and "internal" not in err
        assert not out.exists()

    @pytest.mark.parametrize("wall_ms", ["garbage", "nan", "-5000"])
    def test_malformed_train_log_exits_2(self, trained, tmp_path, capsys, wall_ms):
        log = tmp_path / "bad.log"
        log.write_text(f"# epoch\twall_ms\n1\t0.5\t0.5\t0.5\t0.5\t2.0\t{wall_ms}\n")
        out = tmp_path / "report.json"
        args = ["--data", str(trained), "--checkpoint", str(trained / "checkpoint.json")]
        args += ["--train-log", str(log), "--out", str(out)]
        code = main(EVAL_FAST + args)
        err = capsys.readouterr().err
        assert code == 2
        assert "bad.log:2" in err and "internal" not in err
        assert not out.exists()

    @pytest.mark.parametrize("target", ["edges.tsv", "features.tsv", "teams.txt", "train.log"])
    def test_bytes_not_utf8_exit_2_naming_the_line(self, trained, tmp_path, capsys, target):
        data = tmp_path / "data"
        shutil.copytree(trained, data)
        lines = (data / target).read_bytes().splitlines(keepends=True)
        lines[2] = lines[2][:1] + b"\xff" + lines[2][1:]
        (data / target).write_bytes(b"".join(lines))
        out = tmp_path / "report.json"
        args = ["--data", str(data), "--checkpoint", str(data / "checkpoint.json")]
        args += ["--train-log", str(data / "train.log"), "--out", str(out)]
        code = main(EVAL_FAST + args)
        err = capsys.readouterr().err
        assert code == 2
        assert f"{target}:3: not valid UTF-8" in err and "internal" not in err
        assert not out.exists()

    def test_genius_without_checkpoint_names_the_flag(self, trained, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(EVAL_FAST + ["--data", str(trained), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "--checkpoint" in err and "malformed" not in err
        assert not out.exists()

    def test_report_deterministic_with_masked_timing(self, trained, tmp_path):
        texts = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert (
                main(
                    EVAL_FAST
                    + [
                        "--data",
                        str(trained),
                        "--checkpoint",
                        str(trained / "checkpoint.json"),
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            texts.append(out.read_text())
        assert mask_timing(texts[0]) == mask_timing(texts[1])


@pytest.fixture(scope="module")
def quickstart(tmp_path_factory):
    """The README Quickstart's data directory, trained."""
    data = tmp_path_factory.mktemp("quickstart") / "data"
    synth = ["synth", "--n", "48", "--d", "16", "--clusters", "4", "--teams", "40", "--seed", "11"]
    assert main(synth + ["--out", str(data)]) == 0
    train = ["train", "--data", str(data), "--epochs", "200", "--hidden", "16", "16"]
    assert main(train + ["--seed", "11"]) == 0
    return data


class TestDenseSizeCap:
    """``train`` counts its feature rows and Gram with the encoder's arrays, 3,632
    entries on the Quickstart; building a model counts the encoder's alone, 2,608."""

    SHAPE = "n=48 nodes and d=16 features with hidden widths (16, 16) and 7 clusters"

    def recommend(self, quickstart, capsys):
        ckpt = str(quickstart / "checkpoint.json")
        argv = ["recommend", "--data", str(quickstart), "--checkpoint", ckpt, "--json"]
        code = main(argv + ["--team", "1", "3", "7", "9", "--departing", "3"])
        out, err = capsys.readouterr()
        return code, json.loads(out) if code == 0 else None, err

    def test_a_cap_between_the_two_refuses_training_but_not_the_model(
        self, quickstart, tmp_path, monkeypatch, capsys
    ):
        _, before, _ = self.recommend(quickstart, capsys)
        monkeypatch.setattr(encoder, "MAX_DENSE_ENTRIES", 3000)
        ckpt, log = tmp_path / "ck.json", tmp_path / "train.log"
        argv = ["train", "--data", str(quickstart), "--epochs", "1", "--hidden", "16", "16"]
        assert main(argv + ["--checkpoint", str(ckpt), "--log", str(log)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {self.SHAPE} need 3632 dense entries, over the cap of 3000\n"
        assert not ckpt.exists() and not log.exists()
        code, after, _ = self.recommend(quickstart, capsys)
        before.pop("elapsed_ms"), after.pop("elapsed_ms")
        assert code == 0 and after == before

    def test_a_cap_below_the_encoder_refuses_the_model_before_any_forward_pass(
        self, quickstart, monkeypatch, capsys
    ):
        monkeypatch.setattr(encoder, "MAX_DENSE_ENTRIES", 1000)
        monkeypatch.setattr(encoder, "forward", lambda *args: pytest.fail("forward ran"))
        refusal = f"{self.SHAPE} need 2608 dense entries, over the cap of 1000"
        code, _, err = self.recommend(quickstart, capsys)
        assert code == 2 and err == f"error: {refusal}\n"
        ckpt = str(quickstart / "checkpoint.json")
        argv = ["evaluate", "--data", str(quickstart), "--checkpoint", ckpt, "--seed", "11"]
        assert main(argv + ["--methods", "genius,kernel"]) == 2
        assert capsys.readouterr() == ("", f"error: {refusal}\n")
        net = load_network(quickstart / "edges.tsv", quickstart / "features.tsv")
        with pytest.raises(ValidationError, match=re.escape(refusal)):
            encode(net, load_checkpoint(ckpt))


class TestRefusalsByName:
    """Each refused search and skipped metric is counted under the error that refused it."""

    FLAGS = ["--percent", "25", "50", "--decay", "0.005", "--termination", "0.95", "--seed", "11"]

    def evaluate(self, quickstart, tmp_path, capsys, methods, rewrite=None):
        """The Quickstart's JSON report, each feature value rewritten by ``rewrite(line, value)``."""
        data = tmp_path / "data"
        shutil.copytree(quickstart, data)
        if rewrite:
            features = data / "features.tsv"
            lines = features.read_text().splitlines()
            for i, line in enumerate(lines):
                if line and not line.startswith("#"):
                    node, column, value = line.split("\t")
                    lines[i] = "\t".join((node, column, rewrite(i, float(value))))
            features.write_text("\n".join(lines) + "\n")
        flags = ["--data", str(data), "--checkpoint", str(data / "checkpoint.json")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["evaluate", *flags, "--methods", methods, *self.FLAGS])
        assert not [str(w.message) for w in caught]
        return code, strict_json(capsys.readouterr().out)

    def test_overflowing_label_products_refuse_as_convergence_errors(
        self, quickstart, tmp_path, capsys
    ):
        # one value of 1e160 (the first data line): the walk kernels' label
        # products overflow, and the baseline's guard refuses its search
        def one_huge(i, value):
            return "1e160" if i == 1 else repr(value)

        code, doc = self.evaluate(quickstart, tmp_path, capsys, "kernel", one_huge)
        assert code == 0
        assert doc["methods"]["kernel"]["refusals"] == {"ConvergenceError": 8}
        assert doc["methods"]["kernel"]["cases"] == 8

    def test_baseline_over_its_budget_refuses_as_refusal_errors(
        self, quickstart, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(kernels, "BASELINE_BUDGET", 0)
        code, doc = self.evaluate(quickstart, tmp_path, capsys, "kernel")
        assert code == 4
        assert doc["methods"]["kernel"]["refusals"] == {"RefusalError": doc["config"]["cases"]}

    def test_overflowing_shortest_path_kernel_skips_d1_in_valid_json(
        self, quickstart, tmp_path, capsys
    ):
        # every value times 1e100 stays finite, but the shortest-path kernel's
        # sums of label products overflow float64
        code, doc = self.evaluate(
            quickstart, tmp_path, capsys, "genius", lambda i, value: repr(value * 1e100)
        )
        assert code == 0
        genius = doc["methods"]["genius"]
        assert genius["cases"] == 16 and genius["refusals"] == {}
        assert genius["d1_skipped"] == {"RefusalError": 16}
        assert genius["d1_cases"] == 0 and genius["mean_d1"] is None

    def test_overflowing_disparity_skips_d1_in_valid_json(self, tmp_path, capsys):
        # nodes 0-2 carry 1e-80 and nodes 3-5 1e75: the team's shortest-path
        # self-kernel is about 3.6e-319, the baseline's disparity overflowed to
        # inf, and writing the report exited 1 as an internal error
        data = tmp_path / "data"
        data.mkdir()
        edges = [f"{u} {v}" for u in range(6) for v in range(u + 1, 6)]
        (data / "edges.tsv").write_text("\n".join(edges) + "\n")
        (data / "features.tsv").write_text("".join(f"{v} 0 {1e-80 if v < 3 else 1e75}\n" for v in range(6)))
        (data / "teams.txt").write_text("0 1 2\n")
        flags = ["--methods", "kernel", "--percent", "67", "--split", "0", "0", "1"]
        flags += ["--decay", "0.005", "--termination", "0.95", "--format", "json"]
        assert main(["evaluate", "--data", str(data), *flags]) == 0
        kernel = strict_json(capsys.readouterr().out)["methods"]["kernel"]
        assert kernel["cases"] == 1 and kernel["d1_skipped"] == {"RefusalError": 1}
        assert kernel["mean_d1"] is None and kernel["d2_cases"] == 1


BAD_NUMBERS = [
    ("evaluate", "--percent nan"),
    ("evaluate", "--percent inf"),
    ("evaluate", "--percent -5"),
    ("evaluate", "--percent 0"),
    ("evaluate", "--percent 250"),
    ("evaluate", "--termination 1"),
    ("evaluate", "--split 0.5 nan 0.5"),
    ("train", "--split 0.5 nan 0.5"),
    ("train", "--lr nan"),
    ("train", "--lr inf"),
    ("train", "--hidden 0"),
    ("train", "--hidden 8 -3"),
    ("train", "--clusters -2"),
    ("train", "--seed -1"),
    ("evaluate", "--seed -1"),
    ("evaluate", "--methods kernel --features 4 --seed -1"),
]


@pytest.mark.parametrize("command, flags", BAD_NUMBERS, ids=[" ".join(c) for c in BAD_NUMBERS])
def test_non_finite_or_out_of_range_number_exits_2(trained, tmp_path, capsys, command, flags):
    outputs = [tmp_path / "checkpoint.json", tmp_path / "train.log", tmp_path / "report.json"]
    if command == "train":
        base = TRAIN_FAST + ["--checkpoint", str(outputs[0]), "--log", str(outputs[1])]
    else:
        checkpoint = str(trained / "checkpoint.json")
        base = EVAL_FAST + ["--checkpoint", checkpoint, "--out", str(outputs[2])]
    code = main(base + ["--data", str(trained)] + flags.split())
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in err and "internal" not in err
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("target", ["missing-directory", "a-directory"])
@pytest.mark.parametrize(
    "command, flag", [("train", "--checkpoint"), ("train", "--log"), ("evaluate", "--out")]
)
def test_unwritable_output_path_exits_2_before_work(
    trained, tmp_path, monkeypatch, capsys, command, flag, target
):
    loads = []
    monkeypatch.setattr(cli, "_load_data", lambda *args: loads.append(args))
    path = tmp_path / "absent" / "out.json" if target == "missing-directory" else tmp_path
    argv = (TRAIN_FAST if command == "train" else EVAL_FAST) + ["--data", str(trained)]
    code = main(argv + [flag, str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert flag in err and "internal" not in err
    assert not loads  # refused before the data was read
    assert not (tmp_path / "absent").exists()


@pytest.mark.parametrize("target", ["an-existing-file", "below-a-file"])
def test_synth_out_through_a_file_exits_2_before_work(tmp_path, monkeypatch, capsys, target):
    generated = []
    monkeypatch.setattr(cli, "generate_synthetic", lambda **kwargs: generated.append(kwargs))
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    path = blocker if target == "an-existing-file" else blocker / "data"
    code = main(SYNTH + ["--out", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "--out" in err and "internal" not in err
    assert not generated  # refused before any data was generated
    assert blocker.read_text() == "kept\n"


def test_train_on_an_empty_training_split_exits_2(tmp_path, capsys):
    data = run_synth(tmp_path)
    code = main(TRAIN_FAST + ["--data", str(data), "--split", "0", "0", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "training split" in err and "internal" not in err
    assert not (data / "checkpoint.json").exists()
    assert not (data / "train.log").exists()


def test_os_error_exits_1(tmp_path, monkeypatch, capsys):
    data = run_synth(tmp_path)

    def disk_full(*args):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "save_checkpoint", disk_full)
    code = main(TRAIN_FAST + ["--data", str(data)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error: disk full" in err and "internal" not in err


def test_unexpected_exception_exits_1_as_internal_error(tmp_path, monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("broken command")

    monkeypatch.setattr(cli, "cmd_synth", broken)
    assert main(["synth", "--out", str(tmp_path / "data")]) == 1
    assert capsys.readouterr().err == "internal error: broken command\n"


def test_cli_module_runs_as_a_script():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "subteam.cli", "--help"], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0 and done.stdout.startswith("usage: subteam"), done.stderr


@pytest.mark.parametrize("epochs", ["1", "2"])
@pytest.mark.parametrize("lr", ["1e100", "1e300"])
def test_diverging_training_exits_2_without_output(tmp_path, capsys, lr, epochs):
    data = run_synth(tmp_path)
    # no errstate here: the run must overflow without a warning
    code = main(TRAIN_FAST + ["--data", str(data), "--lr", lr, "--epochs", epochs])
    err = capsys.readouterr().err
    assert code == 2
    term = r"(embeddings' sum of squares|parameter update|\w+ loss)"
    assert re.fullmatch(rf"error: non-finite {term} at epoch [12]: \S+\n", err), err
    assert "Warning" not in err
    assert not (data / "checkpoint.json").exists()
    assert not (data / "train.log").exists()


def test_overflowing_total_loss_exits_2_naming_it(tmp_path, capsys):
    # the README quickstart's data: every term is finite, and 1e308 times the
    # structural term is not
    data = tmp_path / "data"
    synth = ["synth", "--n", "48", "--d", "16", "--clusters", "4", "--teams", "40", "--seed", "11"]
    assert main(synth + ["--out", str(data)]) == 0
    capsys.readouterr()
    train = ["train", "--data", str(data), "--epochs", "200", "--hidden", "16", "16"]
    code = main(train + ["--seed", "11", "--b2", "1e308"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: non-finite total loss at epoch 1: inf\n"
    assert not (data / "checkpoint.json").exists()
    assert not (data / "train.log").exists()


def test_team_file_with_a_non_integer_token_exits_2(tmp_path, capsys):
    data = run_synth(tmp_path)
    lines = (data / "teams.txt").read_text().splitlines()
    lines[2] = lines[2] + " x7"
    (data / "teams.txt").write_text("\n".join(lines) + "\n")
    net = graph.load_network(data / "edges.tsv", data / "features.tsv")
    with pytest.raises(ParseError, match=r"teams\.txt:3: .*'x7'"):
        graph.load_teams(data / "teams.txt", net)
    code = main(TRAIN_FAST + ["--data", str(data)])
    err = capsys.readouterr().err
    assert code == 2
    assert re.fullmatch(r"error: \S*teams\.txt:3: .*'x7'\n", err), err
    assert not (data / "checkpoint.json").exists()


def test_parser_defaults_are_the_dataclass_defaults():
    _, commands = build_parser()
    train = commands["train"].parse_args(["--data", "d"])
    evaluate = commands["evaluate"].parse_args(["--data", "d"])
    cfg, kernel_cfg = TrainConfig(), KernelConfig()
    assert (train.epochs, train.lr, train.seed, train.clusters) == (
        cfg.epochs,
        cfg.learning_rate,
        cfg.seed,
        cfg.clusters,
    )
    assert (train.b1, train.b2, train.b3) == cfg.weights
    assert (train.subteam_low, train.subteam_high) == cfg.subteam_fraction_range
    assert tuple(train.hidden) == cfg.hidden
    assert tuple(train.split) == tuple(evaluate.split) == cfg.split
    assert (evaluate.decay, evaluate.termination) == (kernel_cfg.decay, kernel_cfg.termination)


class TestConfigFile:
    def test_config_provides_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 16, "teams": 6, "d": 8, "clusters": 4}))
        out = tmp_path / "from_config"
        assert main(["synth", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n"] == 16 and manifest["teams"] == 6
        # explicit flag beats the config value
        out2 = tmp_path / "flag_wins"
        assert (
            main(["synth", "--config", str(cfg), "--n", "20", "--out", str(out2), "--seed", "3"])
            == 0
        )
        assert json.loads((out2 / "manifest.json").read_text())["n"] == 20

    @pytest.mark.parametrize(
        "command, key, required",
        [("synth", "mystery_knob", "--out"), ("evaluate", "budget", "--data")],
        ids=["synth", "evaluate"],
    )
    def test_unknown_config_key_rejected(self, tmp_path, capsys, command, key, required):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        code = main([command, "--config", str(cfg), required, str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert code == 2
        assert key in err and "internal" not in err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["synth", "--config", str(tmp_path / "absent.json"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "absent.json" in err and "internal" not in err
        assert not out.exists()

    def test_config_supplies_a_required_flag(self, tmp_path):
        # --config was found by parsing the whole command, which demanded --out first
        out = tmp_path / "from_config"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": str(out), "n": 8, "clusters": 2, "teams": 2}))
        assert main(["synth", "--config", str(cfg)]) == 0
        assert json.loads((out / "manifest.json").read_text())["n"] == 8

    def test_config_supplies_every_required_recommend_flag(self, trained, tmp_path, capsys):
        team = [str(v) for v in TestRecommend().team_of(trained)]
        checkpoint = str(trained / "checkpoint.json")
        cfg = tmp_path / "cfg.json"
        values = {"data": str(trained), "checkpoint": checkpoint, "team": team, "departing": team[0]}
        cfg.write_text(json.dumps(values))

        def answer(*argv):
            assert main(["recommend", *argv, "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            return doc["members"], doc["similarity"], doc["candidates_examined"]

        flags = ["--data", str(trained), "--checkpoint", checkpoint, "--team", *team]
        by_config = answer("--config", str(cfg))
        assert by_config == answer(*flags, "--departing", team[0])
        # an explicit flag still wins over the config's value
        overridden = answer("--config", str(cfg), "--departing", *team[:2])
        assert overridden == answer(*flags, "--departing", *team[:2]) != by_config

    def test_config_holding_a_json_array_exits_2(self, tmp_path, capsys):
        data = run_synth(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('[["epochs", 2]]')
        assert main(["train", "--data", str(data), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: config {cfg} must hold a JSON object\n"
        assert not (data / "checkpoint.json").exists()

    def test_bad_json_config_exits_2(self, tmp_path, capsys):
        data = run_synth(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"epochs": 2,')
        assert main(["train", "--data", str(data), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "cfg.json" in err and "internal" not in err


def exit_code(argv) -> int:
    """``main``'s exit code, counting argparse's own exit on a value it cannot convert."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


WRONGLY_TYPED = [
    ("train", {"epochs": 2.5}),
    ("train", {"clusters": 2.5}),
    ("train", {"seed": 1.5}),
    ("train", {"lr": None}),
    ("train", {"split": 5}),
    ("train", {"hidden": [8, [8]]}),
    ("evaluate", {"methods": ["genius"]}),
    ("evaluate", {"features": 2.5}),
    ("evaluate", {"seed": True}),
    ("recommend", {"json": "yes"}),
]


class TestConfigTypes:
    """Config values go through argparse's conversion, as flags do."""

    def argv(self, command, trained, tmp_path, *extra):
        checkpoint = ["--checkpoint", str(trained / "checkpoint.json")]
        team = (trained / "teams.txt").read_text().splitlines()[0].split()
        outputs = {
            "train": ["--checkpoint", str(tmp_path / "c.json"), "--log", str(tmp_path / "t.log")],
            "evaluate": checkpoint + ["--out", str(tmp_path / "report.json")],
            "recommend": checkpoint + ["--team", *team, "--departing", team[0]],
        }
        return [command, "--data", str(trained), *outputs[command], *extra]

    def write_config(self, tmp_path, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        return ["--config", str(cfg)]

    @pytest.mark.parametrize(
        "command, values", WRONGLY_TYPED, ids=[f"{c}-{json.dumps(v)}" for c, v in WRONGLY_TYPED]
    )
    def test_wrongly_typed_value_exits_2(self, trained, tmp_path, capsys, command, values):
        config = self.write_config(tmp_path, values)
        code = exit_code(self.argv(command, trained, tmp_path, *config))
        err = capsys.readouterr().err
        assert code == 2
        assert "internal" not in err
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]

    def test_scalar_for_a_list_flag_reads_as_the_flag(self, trained, tmp_path):
        base = ["--epochs", "2", "--clusters", "4", "--seed", "1"]
        checkpoints = []
        for name, extra in (("flag", ["--hidden", "8"]), ("config", [])):
            run = tmp_path / name
            run.mkdir()
            config = self.write_config(run, {"hidden": 8}) if not extra else []
            assert main(self.argv("train", trained, run, *base, *extra, *config)) == 0
            checkpoints.append((run / "c.json").read_bytes())
        assert checkpoints[0] == checkpoints[1]

        reports = []
        for name, extra in (("flag", ["--percent", "25"]), ("config", [])):
            run = tmp_path / name
            config = self.write_config(run, {"percent": 25}) if not extra else []
            argv = self.argv("evaluate", trained, run, "--seed", "1", "--decay", "0.005")
            assert main(argv + ["--termination", "0.95", *extra, *config]) == 0
            reports.append(mask_timing((run / "report.json").read_text()))
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["config"]["percentages"] == [25.0]

    def test_command_line_list_flag_wins(self, trained, tmp_path):
        config = self.write_config(tmp_path, {"percent": [10, 50], "methods": "kernel"})
        argv = self.argv("evaluate", trained, tmp_path, "--percent", "25", *config)
        assert main(argv + ["--decay", "0.005", "--termination", "0.95"]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["config"]["percentages"] == [25.0]
        assert set(doc["methods"]) == {"kernel"}

    @pytest.mark.parametrize("switch", [True, False])
    def test_switch_from_config(self, trained, tmp_path, capsys, switch):
        config = self.write_config(tmp_path, {"json": switch})
        assert main(self.argv("recommend", trained, tmp_path, *config)) == 0
        out = capsys.readouterr().out
        assert out.startswith("{") == switch


@pytest.mark.parametrize(
    "argv, code",
    [
        (["train", "--data", "x", "--epochs", "2.5"], 2),
        (["evaluate"], 2),
        (["evaluate", "--data", "x", "--budget", "5"], 2),
        (["nosuch"], 2),
        (["--help"], 0),
    ],
    ids=["unconvertible-value", "missing-required", "removed-flag", "unknown-command", "help"],
)
def test_argparse_exit_is_returned_not_raised(capsys, argv, code):
    # called without exit_code's guard: a SystemExit escaping main fails the test
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert (out if code == 0 else err).startswith("usage:")


class TestInputImmutability:
    def test_commands_do_not_mutate_inputs(self, tmp_path):
        data = run_synth(tmp_path)
        before = {
            name: (data / name).read_bytes()
            for name in ("edges.tsv", "features.tsv", "teams.txt")
        }
        assert main(TRAIN_FAST + ["--data", str(data)]) == 0
        for name, blob in before.items():
            assert (data / name).read_bytes() == blob
