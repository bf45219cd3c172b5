import json
import re
from pathlib import Path

import pytest

from subteam import graph, recommender
from subteam.cli import build_parser, main
from subteam.evaluate import EvalCaps
from subteam.kernels import KernelConfig
from subteam.objectives import LossWeights
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

    def test_invalid_probability_exits_2(self, tmp_path, capsys):
        code = main(SYNTH + ["--p-out", "1.5", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error" in capsys.readouterr().err


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
        out = capsys.readouterr().out
        assert code == 0
        assert "members:" in out and "similarity:" in out and "candidates examined:" in out

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
        assert doc["members"] and "similarity" in doc

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

    @pytest.mark.parametrize("defect", ["bad-json", "missing-key", "ragged-arrays"])
    def test_malformed_checkpoint_exits_2(self, trained, tmp_path, capsys, defect):
        doc = json.loads((trained / "checkpoint.json").read_text())
        if defect == "missing-key":
            del doc["layer_weights"]
        elif defect == "ragged-arrays":
            doc["cluster_weight"][0].append(0.0)
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
        assert "bad.json" in err and "internal" not in err

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

    def test_ged_cap_above_exact_limit_exits_2(self, trained, tmp_path, capsys):
        out = tmp_path / "report.json"
        args = ["--data", str(trained), "--checkpoint", str(trained / "checkpoint.json")]
        code = main(EVAL_FAST + args + ["--ged-cap", "13", "--out", str(out)])
        assert code == 2
        assert "ged_max_nodes" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_train_log_exits_2(self, trained, tmp_path, capsys):
        out = tmp_path / "report.json"
        args = ["--data", str(trained), "--checkpoint", str(trained / "checkpoint.json")]
        args += ["--train-log", str(tmp_path / "absent.log"), "--out", str(out)]
        code = main(EVAL_FAST + args)
        err = capsys.readouterr().err
        assert code == 2
        assert "absent.log" in err and "internal" not in err
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


BAD_NUMBERS = [
    ("evaluate", "--percent nan"),
    ("evaluate", "--percent inf"),
    ("evaluate", "--percent -5"),
    ("evaluate", "--percent 0"),
    ("evaluate", "--percent 250"),
    ("evaluate", "--split 0.5 nan 0.5"),
    ("train", "--split 0.5 nan 0.5"),
    ("train", "--lr nan"),
    ("train", "--lr inf"),
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


def test_parser_defaults_are_the_dataclass_defaults():
    _, commands = build_parser()
    train = commands["train"].parse_args(["--data", "d"])
    evaluate = commands["evaluate"].parse_args(["--data", "d"])
    cfg, weights, kernel_cfg, caps = TrainConfig(), LossWeights(), KernelConfig(), EvalCaps()
    assert (train.epochs, train.lr, train.seed, train.clusters) == (
        cfg.epochs,
        cfg.learning_rate,
        cfg.seed,
        cfg.clusters,
    )
    assert (train.b1, train.b2, train.b3) == (
        weights.skill,
        weights.structural,
        weights.clustering,
    )
    assert (train.subteam_low, train.subteam_high) == cfg.subteam_fraction_range
    assert tuple(train.hidden) == cfg.hidden
    assert tuple(train.split) == tuple(evaluate.split) == cfg.split
    assert (evaluate.decay, evaluate.termination) == (kernel_cfg.decay, kernel_cfg.termination)
    assert (evaluate.ged_cap, evaluate.budget) == (caps.ged_max_nodes, caps.baseline_budget)


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

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mystery_knob": 1}))
        code = main(["synth", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "mystery_knob" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["synth", "--config", str(tmp_path / "absent.json"), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "absent.json" in err and "internal" not in err
        assert not out.exists()

    def test_bad_json_config_exits_2(self, tmp_path, capsys):
        data = run_synth(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"epochs": 2,')
        assert main(["train", "--data", str(data), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "cfg.json" in err and "internal" not in err


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
