"""Command-line pipeline: synthesize data, train, recommend, evaluate.

Exit codes: 0 success, 1 internal error, 2 validation/parse failure (a missing
input file, a data file that is not UTF-8 and ``evaluate`` on a network without
features included), a ``recommend`` search refused by its budget or a diverged
training run, 3 no candidate found, 4 empty evaluation. Search budgets are
module constants, not flags; ``evaluate`` records a refused search as a refused
case. ``recommend``'s ``elapsed_ms`` is the wall time of its whole search
call. The optional JSON config file (``--config``) holds flag values keyed by
flag name with dashes replaced by underscores; they are parsed as flags placed
before the command line's own, so explicit flags win, and may supply required
flags. Unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .encoder import ClusterModel, load_checkpoint, save_checkpoint
from .errors import NonFiniteLossError, ParseError, RefusalError, ValidationError
from .evaluate import feature_subsample, normalize_methods, run_comparison
from .graph import (
    Team,
    generate_synthetic,
    load_network,
    load_teams,
    save_network,
    save_teams,
)
from .kernels import KernelConfig
from .objectives import LossWeights
from .recommender import recommend
from .trainer import TrainConfig, read_total_wall_ms, split_teams, train, write_train_log

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2
EXIT_NO_CANDIDATE = 3
EXIT_EMPTY_EVAL = 4

DATA_FILES = {"edges": "edges.tsv", "features": "features.tsv", "teams": "teams.txt"}


def _data_paths(data_dir: str) -> dict[str, Path]:
    base = Path(data_dir)
    return {key: base / name for key, name in DATA_FILES.items()}


def _input_file(path, flag: str) -> Path:
    """The file that ``flag`` names; an absent flag or a missing file is a validation error."""
    if path is None:
        raise ValidationError(f"{flag} is required")
    if not Path(path).is_file():
        raise ValidationError(f"{flag}: no such file {path}")
    return Path(path)


def _output_file(path, flag: str) -> Path:
    """The file that ``flag`` names for writing; a path whose directory is missing is a
    validation error, refused before any work starts."""
    path = Path(path)
    if not path.parent.is_dir():
        raise ValidationError(f"{flag}: no such directory {path.parent}")
    if path.is_dir():
        raise ValidationError(f"{flag}: {path} is a directory")
    return path


def _output_dir(path, flag: str) -> Path:
    """The directory that ``flag`` names for writing, made if missing; a path that is,
    or lies below, an existing file is a validation error, refused before any work starts."""
    path = Path(path)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ValidationError(f"{flag}: {existing} is not a directory")
    return path


def _load_data(data_dir: str):
    paths = {key: _input_file(path, "--data") for key, path in _data_paths(data_dir).items()}
    net = load_network(paths["edges"], paths["features"])
    teams = load_teams(paths["teams"], net)
    return net, teams


def cmd_synth(args) -> int:
    out = _output_dir(args.out, "--out")
    net, teams = generate_synthetic(
        n=args.n,
        d=args.d,
        k_planted=args.clusters,
        p_in=args.p_in,
        p_out=args.p_out,
        teams=args.teams,
        seed=args.seed,
    )
    out.mkdir(parents=True, exist_ok=True)
    paths = _data_paths(args.out)
    save_network(net, paths["edges"], paths["features"])
    save_teams(teams, paths["teams"])
    manifest = {
        "n": args.n,
        "d": args.d,
        "clusters": args.clusters,
        "p_in": args.p_in,
        "p_out": args.p_out,
        "teams": args.teams,
        "seed": args.seed,
        "files": {key: path.name for key, path in paths.items()},
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    print(f"wrote {net.n} nodes, {net.adjacency.nnz // 2} edges, {len(teams)} teams to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = TrainConfig(
        epochs=args.epochs,
        learning_rate=args.lr,
        weights=LossWeights(skill=args.b1, structural=args.b2, clustering=args.b3),
        subteam_fraction_range=(args.subteam_low, args.subteam_high),
        seed=args.seed,
        split=tuple(args.split),
        hidden=tuple(args.hidden),
        clusters=args.clusters,
    )
    checkpoint = (
        _output_file(args.checkpoint, "--checkpoint")
        if args.checkpoint
        else Path(args.data) / "checkpoint.json"
    )
    log_path = _output_file(args.log, "--log") if args.log else Path(args.data) / "train.log"
    net, teams = _load_data(args.data)
    params, log = train(net, teams, cfg)
    save_checkpoint(params, checkpoint)
    write_train_log(log, log_path)
    print(f"trained {cfg.epochs} epochs; checkpoint {checkpoint}, log {log_path}")
    print(f"final loss {log[-1].total!r} (initial {log[0].total!r})")
    return EXIT_OK


def cmd_recommend(args) -> int:
    paths = _data_paths(args.data)  # the teams file is not read
    net = load_network(*(_input_file(paths[key], "--data") for key in ("edges", "features")))
    params = load_checkpoint(_input_file(args.checkpoint, "--checkpoint"))
    model = ClusterModel.build(net, params)
    start = time.perf_counter()
    result = recommend(Team(tuple(args.team)), Team(tuple(args.departing)), model, net)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    if not result.found:
        print("no candidate: every tuple dissolved into the original team", file=sys.stderr)
        return EXIT_NO_CANDIDATE
    if args.json:
        doc = {
            "members": list(result.subteam),
            "similarity": result.similarity,
            "candidates_examined": result.candidates_examined,
            "elapsed_ms": elapsed_ms,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"members: {', '.join(map(str, result.subteam))}")
        print(f"similarity: {result.similarity:.6f}")
        print(f"candidates examined: {result.candidates_examined}")
        print(f"elapsed: {elapsed_ms:.3f} ms")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    kernel_cfg = KernelConfig(decay=args.decay, termination=args.termination)
    methods = normalize_methods(args.methods.split(","))
    if args.features is not None and "genius" in methods:
        raise ValidationError("--features cannot run with genius: its checkpoint saw every feature")
    out = _output_file(args.out, "--out") if args.out else None
    net, teams = _load_data(args.data)
    if args.features is not None:
        net = feature_subsample(net, args.features, args.seed)
    _, _, test_teams = split_teams(teams, tuple(args.split), args.seed)
    if not test_teams:
        print("empty test split", file=sys.stderr)
        return EXIT_EMPTY_EVAL
    model = None
    if "genius" in methods:
        params = load_checkpoint(_input_file(args.checkpoint, "--checkpoint"))
        model = ClusterModel.build(net, params)
    training_time_ms = (
        read_total_wall_ms(_input_file(args.train_log, "--train-log")) if args.train_log else 0.0
    )
    report = run_comparison(
        net,
        test_teams,
        methods,
        args.percent,
        args.seed,
        model=model,
        kernel_cfg=kernel_cfg,
        training_time_ms=training_time_ms,
    )
    report.config["feature_subset"] = args.features
    completed = sum(entry["cases"] for entry in report.methods.values())
    text = report.to_json() if args.format == "json" else report.to_table()
    if out:
        out.write_text(text, encoding="utf-8")
        print(f"wrote report to {args.out}")
    else:
        print(text, end="")
    if completed == 0:
        print("no case completed across all methods", file=sys.stderr)
        return EXIT_EMPTY_EVAL
    return EXIT_OK


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="subteam",
        description="Clustering-based subteam replacement in attributed social networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}
    train_cfg, kernel_cfg = TrainConfig(), KernelConfig()
    weights = train_cfg.weights

    p = sub.add_parser("synth", help="generate a synthetic planted-partition dataset")
    p.add_argument("--n", type=int, default=40)
    p.add_argument("--d", type=int, default=16)
    p.add_argument("--clusters", type=int, default=4, help="planted block count")
    p.add_argument("--teams", type=int, default=30)
    p.add_argument("--p-in", type=float, default=0.8)
    p.add_argument("--p-out", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None, help="JSON file with defaults; flags win")
    p.set_defaults(func=cmd_synth)
    commands["synth"] = p

    p = sub.add_parser("train", help="train the encoder on a dataset directory")
    p.add_argument("--data", required=True, help="directory with edges.tsv/features.tsv/teams.txt")
    p.add_argument("--epochs", type=int, default=train_cfg.epochs)
    p.add_argument("--lr", type=float, default=train_cfg.learning_rate)
    p.add_argument("--b1", type=float, default=weights.skill, help="skill loss weight")
    p.add_argument("--b2", type=float, default=weights.structural, help="structural loss weight")
    p.add_argument("--b3", type=float, default=weights.clustering, help="clustering loss weight")
    p.add_argument("--subteam-low", type=float, default=train_cfg.subteam_fraction_range[0])
    p.add_argument("--subteam-high", type=float, default=train_cfg.subteam_fraction_range[1])
    p.add_argument("--split", type=float, nargs=3, default=train_cfg.split)
    p.add_argument("--hidden", type=int, nargs="+", default=train_cfg.hidden)
    p.add_argument(
        "--clusters", type=int, default=train_cfg.clusters, help="cluster count (default sqrt(n))"
    )
    p.add_argument("--seed", type=int, default=train_cfg.seed)
    p.add_argument("--checkpoint", default=None, help="output path (default <data>/checkpoint.json)")
    p.add_argument("--log", default=None, help="training log path (default <data>/train.log)")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_train)
    commands["train"] = p

    p = sub.add_parser("recommend", help="recommend a replacement for departing members")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--team", type=int, nargs="+", required=True, help="team member ids")
    p.add_argument("--departing", type=int, nargs="+", required=True)
    p.add_argument("--json", action="store_true", help="emit structured output")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_recommend)
    commands["recommend"] = p

    p = sub.add_parser("evaluate", help="compare methods on the held-out split")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--methods", default="genius,kernel")
    p.add_argument("--percent", type=float, nargs="+", default=[1.0, 10.0, 25.0, 50.0])
    p.add_argument("--features", type=int, default=None, help="random feature-subset size")
    p.add_argument("--split", type=float, nargs=3, default=train_cfg.split)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--decay", type=float, default=kernel_cfg.decay)
    p.add_argument("--termination", type=float, default=kernel_cfg.termination)
    p.add_argument("--train-log", default=None, help="training log for amortized total time")
    p.add_argument("--out", default=None, help="report output path (default stdout)")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_evaluate)
    commands["evaluate"] = p
    return parser, commands


def _config_value(key: str, value) -> str:
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValidationError(f"config key {key}: {json.dumps(value)} is not a flag value")
    return str(value)


def _with_config(argv, commands) -> list[str]:
    """``argv`` with the ``--config`` file's values as flags before the command's own.

    argparse then converts config values as it converts flags, and a flag
    given on the command line comes later, so it wins. ``--config`` is found
    by a parser that knows no other option, so a flag the config supplies is
    not yet required.
    """
    if not argv or argv[0] not in commands:
        return argv
    command = argv[0]
    finder = argparse.ArgumentParser(prog=f"subteam {command}", add_help=False)
    finder.add_argument("--config")
    config_path = finder.parse_known_args(argv[1:])[0].config
    if not config_path:
        return argv
    _input_file(config_path, "--config")
    try:
        with open(config_path, encoding="utf-8") as fh:
            values = json.load(fh)
    except ValueError as exc:
        raise ValidationError(f"malformed config {config_path}: {exc}") from exc
    if not isinstance(values, dict):
        raise ValidationError(f"config {config_path} must hold a JSON object")
    actions = {
        action.dest: action
        for action in commands[command]._actions
        if action.dest not in ("help", "config")
    }
    unknown = sorted(set(values) - set(actions))
    if unknown:
        raise ValidationError(f"unknown config keys for {command}: {', '.join(unknown)}")
    tokens = []
    for key, value in values.items():
        flag = actions[key].option_strings[0]
        nargs = actions[key].nargs
        if nargs == 0:  # a switch: true gives the bare flag, false leaves it out
            if not isinstance(value, bool):
                raise ValidationError(f"config key {key} must be true or false")
            tokens += [flag] if value else []
        elif nargs is None:
            tokens.append(f"{flag}={_config_value(key, value)}")
        else:
            items = value if isinstance(value, list) else [value]
            tokens += [flag, *(_config_value(key, item) for item in items)]
    return [command, *tokens, *argv[1:]]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        try:
            args = parser.parse_args(_with_config(argv, commands))
        except SystemExit as exc:  # argparse's own exit: 0 after --help, 2 on a bad flag
            return exc.code
        return args.func(args)
    except (ValidationError, ParseError, RefusalError, NonFiniteLossError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
