"""Command line front end.

Subcommands:

    generate   draw a built-in dataset and write train/val/test CSV files
    train      fit a density or regression model, write metrics + checkpoints
    eval       report the likelihood bounds from a checkpoint, per seed
    grid       tabulate energy and log-density on a lattice

Training is configured by a flat key = value file ('#' starts a comment)
plus repeatable --set key=value overrides. Unknown keys, bad values, missing
required keys and keys set that the run does not read (``_KNOWN_KEYS``) are
collected and reported together with exit code 2, as is a data.path file with
the wrong column count or fewer than 10 rows; either way nothing is written.
Runtime failures exit 1. A checkpoint is the model's descriptor plus the
run's record; it stores every float as a %.17g string so a reload reproduces
the exact parameter vector.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import datasets, evaluation, regression, serialize, training
from .errors import ConfigError, SnlError
from .models import DENSITY_WIDTHS, MlpEnergy
from .proposals import MdnProposal, StandardGaussian, fit_box, fit_gaussian
from .rng import PortableRng

CHECKPOINT_FORMAT = 1


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1"):
        return True
    if t in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_auto_bool(text: str):
    if text.strip().lower() == "auto":
        return None
    return _parse_bool(text)


def _parse_widths(text: str) -> list[int]:
    out = [int(p) for p in text.split(",") if p.strip()]
    if len(out) < 2:
        raise ValueError("widths need at least input and output sizes")
    if min(out) < 1:
        raise ValueError(f"widths must be positive, got {text.strip()!r}")
    return out


def _parse_choice(*choices: str):
    def parse(text: str) -> str:
        t = text.strip()
        if t not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}; got {text!r}")
        return t
    return parse


def _parse_optional_float(text: str):
    t = text.strip().lower()
    if t in ("auto", "none"):
        return None
    return float(text)


_ALL_NAMES = datasets.DENSITY_NAMES + datasets.REGRESSION_NAMES

# when a run reads a key: condition -> (the runs that read it, test on the resolved config)
_READ_WHEN = {
    "density": ("density runs", lambda c: c["task"] == "density"),
    "regression": ("regression runs", lambda c: c["task"] == "regression"),
    "mdn": ("regression runs with proposal.kind = mdn", lambda c: c["task"] == "regression" and c["proposal.kind"] == "mdn"),
    "nce": ("runs with train.objective = nce", lambda c: c["train.objective"] == "nce"),
    "path": ("runs from data.path", lambda c: c["data.path"] is not None),
    "name": ("runs on a data.name dataset", lambda c: c["data.name"] is not None),
}

# key -> (parser, default, read when); None default means unset, None condition means every run.
_KNOWN_KEYS = {
    "task": (_parse_choice("density", "regression"), None, None),  # inferred from data.name when unset
    "data.name": (_parse_choice(*_ALL_NAMES), None, None),
    "data.path": (str, None, None),
    "data.has_header": (_parse_bool, False, "path"),
    "data.n": (int, None, "name"),  # defaults per task below
    "data.seed": (int, 0, None),
    "data.standardize": (_parse_auto_bool, None, None),  # auto: density yes, regression no
    "model.widths": (_parse_widths, list(DENSITY_WIDTHS), "density"),
    "model.base": (_parse_choice("none", "gaussian"), "none", "density"),
    "model.normalizer": (_parse_bool, True, "regression"),
    "model.seed": (int, 0, None),
    "proposal.kind": (_parse_choice("standard", "fitted", "uniform", "mdn"), "fitted", None),
    "proposal.components": (int, 2, "mdn"),
    # an unset train.* key takes the default of the task's config field; the
    # other task's keys keep the defaults below in config.resolved
    "train.objective": (_parse_choice("snl", "nce"), None, None),
    "train.epochs": (int, None, None),
    "train.learning_rate": (float, None, None),
    "train.batch_size": (int, None, None),
    "train.proposal_samples": (int, None, None),
    "train.optimizer": (_parse_choice("adam", "sgd"), "adam", "density"),
    "train.seed": (int, None, None),
    "train.nce_nu": (_parse_optional_float, None, "nce"),
    "train.mdn_learning_rate": (float, 1e-3, "mdn"),
    "out.dir": (str, None, None),
}


# training-config fields whose key is not "train." + the field name
_TRAIN_FIELD_KEYS = {"samples_per_point": "train.proposal_samples"}


def _train_key(name: str) -> str:
    return _TRAIN_FIELD_KEYS.get(name, "train." + name)


def _train_config(config: dict):
    """The task's ``TrainConfig`` or ``RegressionTrainConfig`` from the
    resolved keys; an unset key (None) takes the field's default."""
    cls = regression.RegressionTrainConfig if config["task"] == "regression" else training.TrainConfig
    keys = {f.name: _train_key(f.name) for f in dataclasses.fields(cls)}
    return cls(**{name: config[key] for name, key in keys.items() if config[key] is not None})


def read_config(path: str | None, overrides: list[str]) -> dict:
    """Resolve the training configuration, collecting every problem at once."""
    problems: list[str] = []
    raw: dict[str, str] = {}

    def take(key: str, value: str, where: str, fresh: dict) -> None:
        key = key.strip()
        if key not in _KNOWN_KEYS:
            problems.append(f"{where}: unknown key {key!r}")
            return
        if key in fresh:
            problems.append(f"{where}: duplicate key {key!r}")
            return
        fresh[key] = value.strip()

    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError([f"cannot read config file: {exc}"])
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                problems.append(f"{path}:{lineno}: expected 'key = value', got {body!r}")
                continue
            key, value = body.split("=", 1)
            take(key, value, f"{path}:{lineno}", raw)
    set_keys: dict[str, str] = {}  # --set wins over the file, duplicates only within --set
    for item in overrides:
        if "=" not in item:
            problems.append(f"--set {item!r}: expected key=value")
            continue
        key, value = item.split("=", 1)
        take(key, value, f"--set {key.strip()}", set_keys)
    raw.update(set_keys)

    config, unparsed = {}, set()
    for key, (parser, default, _) in _KNOWN_KEYS.items():
        if key in raw:
            try:
                config[key] = parser(raw[key])
            except ValueError as exc:
                problems.append(f"{key}: {exc}")
                unparsed.add(key)
                config[key] = default  # so the checks below still run
        else:
            config[key] = default

    if config.get("out.dir") is None:
        problems.append("out.dir is required")
    has_name = config.get("data.name") is not None
    has_path = config.get("data.path") is not None
    if has_name == has_path:
        problems.append("exactly one of data.name and data.path is required")

    # resolve the task and per-task defaults
    named_task = ("regression" if config["data.name"] in datasets.REGRESSION_NAMES else "density") if has_name else None
    if config["task"] is None:
        config["task"] = named_task or "density"
    task = config["task"]
    if named_task not in (None, task):
        problems.append(f"data.name {config['data.name']!r} does not belong to task {task!r}")
    if config["data.n"] is None:
        config["data.n"] = datasets.DEFAULT_REGRESSION_N if task == "regression" else datasets.DEFAULT_DENSITY_N
    elif has_name:
        try:
            datasets.split_sizes(config["data.n"])
        except ValueError as exc:
            problems.append(f"data.n: {exc}")
    if config["data.standardize"] is None:
        config["data.standardize"] = task == "density"
    if task == "density" and config["proposal.kind"] == "mdn":
        problems.append("proposal.kind mdn is only available for the regression task")
    if config["proposal.components"] < 1:
        problems.append(f"proposal.components must be at least 1, got {config['proposal.components']}")
    if task == "density":
        widths = config["model.widths"]
        if widths[-1] != 1:
            problems.append(f"model.widths: a density energy has one output, got a last width of {widths[-1]}")
        if has_name and widths[0] != 2:  # every named density dataset is 2-D
            problems.append(f"model.widths: {config['data.name']} is 2-D, got a first width of {widths[0]}")
    train_config = _train_config(config)
    config.update({_train_key(f.name): getattr(train_config, f.name) for f in dataclasses.fields(train_config)})
    for name, message in train_config.problems():
        problems.append(f"{_train_key(name)}: {message}")
    if not unparsed & {"task", "data.name", "proposal.kind", "train.objective"}:  # the keys the conditions read
        for key, (_, _, when) in _KNOWN_KEYS.items():
            if key in raw and when is not None and not _READ_WHEN[when][1](config):
                problems.append(f"{key}: set, but only {_READ_WHEN[when][0]} read it")

    if problems:
        raise ConfigError(problems)
    return config


def _resolved_lines(config: dict) -> list[str]:
    out = []
    for key in sorted(config):
        value = config[key]
        if value is None:
            continue
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        out.append(f"{key} = {value}")
    return out


def _load_split(config: dict):
    """Dataset split plus the standardizer actually applied (or None). A
    ``data.path`` file with a column count the task cannot use, or too few
    rows for the 70/10/20 split, is a ``ConfigError``."""
    if config["data.name"] is not None:
        split = datasets.load_named(config["data.name"], config["data.n"], config["data.seed"])
    else:
        path = config["data.path"]
        points = datasets.load_delimited(path, has_header=config["data.has_header"])
        columns = 2 if config["task"] == "regression" else config["model.widths"][0]
        problems = []
        if points.shape[1] != columns:
            problems.append(f"data.path: {path} has {points.shape[1]} column(s); the {config['task']} model needs {columns}")
        try:
            datasets.split_sizes(len(points))
        except ValueError as exc:
            problems.append(f"data.path: {path}: {exc}")
        if problems:
            raise ConfigError(problems)
        split = datasets.split_70_10_20(points, config["data.seed"])
    standardizer = None
    if config["data.standardize"]:
        standardizer = datasets.fit_standardizer(split.train)
        split = standardizer.transform_split(split)
    return split, standardizer


def _run_dataset(config_lines: list[str]):
    """The run's (data.name, data.n, data.seed) from its ``config`` lines, or
    None for a ``data.path`` run; a malformed line is a ValueError naming it."""
    lines = {}
    for line in config_lines:
        key, sep, _ = line.partition(" = ")
        if not sep:
            raise ValueError(f"config line {line!r} is not 'key = value'")
        lines[key] = line
    if "data.name" not in lines:
        return None
    dataset = []
    for key in ("data.name", "data.n", "data.seed"):
        try:
            dataset.append(_KNOWN_KEYS[key][0](lines[key].partition(" = ")[2]))
            if key == "data.n":
                datasets.split_sizes(dataset[-1])
        except ValueError as exc:
            raise ValueError(f"config line {lines[key]!r}: {exc}")
    return tuple(dataset)


def read_checkpoint(path: str, *kinds: str):
    """The one reader of checkpoint files: (kind, parts, standardizer or None,
    ``_run_dataset``) of a checkpoint of this format and one of ``kinds``; the
    parts are the ``from_descriptor`` of the kind's model class, and the
    standardizer must have the model's dimension. Any fault of the file is a
    ValueError naming it and the key or line."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            fault = f"a checkpoint is a JSON object, found a {type(payload).__name__}"
        elif type(payload.get("format")) is not int or payload["format"] != CHECKPOINT_FORMAT:  # not true, not 1.0
            fault = f"checkpoint format {payload.get('format')!r} not supported (expected {CHECKPOINT_FORMAT})"
        elif payload.get("kind") not in kinds:
            fault = f"expected a {' or '.join(kinds)} checkpoint, found kind {payload.get('kind')!r}"
        else:
            parts = _TASKS[payload["kind"]].model.from_descriptor(payload)
            standardizer, dim = payload["standardizer"], parts[0].dim
            if standardizer is not None:
                with serialize.named("standardizer"):
                    standardizer = datasets.Standardizer(serialize.parse(standardizer, "mean", (dim,)),
                                                         serialize.parse(standardizer, "scale", (dim,)))
            return payload["kind"], parts, standardizer, _run_dataset(payload["config"])
    except json.JSONDecodeError as exc:
        fault = f"checkpoint is not JSON: {exc}"
    except KeyError as exc:
        fault = f"checkpoint key {exc.args[0]!r} is missing"
    except (TypeError, AttributeError, ValueError) as exc:  # a value of the wrong type or form
        fault = f"checkpoint value is malformed: {exc}"
    raise ValueError(f"{path}: {fault}")


def _build_proposal(config: dict, points: np.ndarray, rng: PortableRng | None):
    """The training proposal over ``points``: density data or regression responses (one column)."""
    kind = config["proposal.kind"]
    if kind == "mdn":
        return MdnProposal(regression.FEATURE_WIDTHS[-1], config["proposal.components"], rng)
    if kind == "standard":
        return StandardGaussian(points.shape[1])
    if kind == "uniform":
        return fit_box(points)
    return fit_gaussian(points)


# -- density pipeline ---------------------------------------------------------


def _fit_density(config: dict, split):
    """Train a density model; returns the result and the final and best checkpoint fields."""
    base = StandardGaussian(config["model.widths"][0]) if config["model.base"] == "gaussian" else None
    model = MlpEnergy(config["model.widths"], base=base, rng=PortableRng(config["model.seed"]).split("model"))
    proposal = _build_proposal(config, split.train, None)
    result = training.train_density(model, proposal, split.train, split.val, _train_config(config))
    final = model.descriptor(result.state.b, proposal)
    model.theta = result.best_theta
    return result, final, model.descriptor(result.best_b, proposal)


def _density_scorer(args, parts, splits, seed, dataset):
    """One seed of ``_cmd_eval``: the bound report of every split."""
    model, b, proposal = parts
    report = evaluation.evaluate(model, b, splits, proposal, n_samples=args.samples, seed=seed)
    return [f"dataset {dataset}", *report.lines()], {s.name: s for s in report.splits}


# -- regression pipeline ------------------------------------------------------


def _fit_regression(config: dict, split):
    """Train a conditional model on (x, y) rows; returns the result and the final and best checkpoint fields."""
    x_tr, y_tr = split.train[:, 0], split.train[:, 1]
    rng = PortableRng(config["model.seed"])
    model = regression.ConditionalEnergyModel(rng.split("model"))
    normalizer = regression.NormalizerNet(rng.split("normalizer")) if config["model.normalizer"] else None
    proposal = _build_proposal(config, y_tr.reshape(-1, 1), rng.split("proposal-init"))
    result = regression.train_regression(model, normalizer, proposal, (x_tr, y_tr),
                                         (split.val[:, 0], split.val[:, 1]), _train_config(config))
    final = model.descriptor(normalizer)
    model.theta = result.best_theta
    if normalizer is not None:
        normalizer.theta = result.best_phi
    return result, final, model.descriptor(normalizer)


def _regression_scorer(args, parts, splits, seed, dataset):
    """One seed of ``_cmd_eval``: the bound report of the test split (or of
    ``--data``), reported as ``test``, with draws from the model's carrier."""
    model, normalizer = parts
    normalizer_fn = (lambda xs: normalizer.values(model.features(xs))) if normalizer is not None else None
    points = splits["data"] if args.data is not None else splits["test"]
    report = regression.eval_regression_l_is(
        model, (points[:, 0], points[:, 1]), model.carrier, n_samples=args.samples,
        rng=PortableRng(seed).split("evaluate"), normalizer_fn=normalizer_fn,
    )
    return ["test." + line for line in report.lines()], {"test": report}


class _Task(NamedTuple):
    model: type  # its ``kind`` is the task's name, and ``from_descriptor`` reads its checkpoints
    fit: object  # config, split -> (result, final and best checkpoint fields)
    record: type  # the per-epoch record, whose fields are the metrics.csv columns
    scorer: object  # args, checkpoint parts, splits, seed, dataset name -> one seed's lines and reports


_TASKS = {task.model.kind: task for task in (
    _Task(MlpEnergy, _fit_density, training.EpochRecord, _density_scorer),
    _Task(regression.ConditionalEnergyModel, _fit_regression, regression.RegressionEpochRecord, _regression_scorer),
)}


# -- commands -----------------------------------------------------------------


def _cmd_generate(args) -> int:
    if args.dataset not in _ALL_NAMES:
        print(f"unknown dataset {args.dataset!r}", file=sys.stderr)
        return 2
    n = args.n
    if n is None:
        n = datasets.DEFAULT_REGRESSION_N if args.dataset in datasets.REGRESSION_NAMES else datasets.DEFAULT_DENSITY_N
    try:
        datasets.split_sizes(n)
    except ValueError as exc:
        print(f"--n: {exc}", file=sys.stderr)
        return 2
    split = datasets.load_named(args.dataset, n, args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for part in ("train", "val", "test"):
        rows = getattr(split, part)
        path = out_dir / f"{args.dataset}_{part}.csv"
        with open(path, "w") as fh:
            for row in rows:
                fh.write(",".join(serialize.fmt(v) for v in row) + "\n")
        print(f"{path}: {rows.shape[0]} rows")
    return 0


def _cmd_train(args) -> int:
    config = read_config(args.config, args.set or [])
    split, standardizer = _load_split(config)
    out_dir = Path(config["out.dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.resolved").write_text("\n".join(_resolved_lines(config)) + "\n")
    task = _TASKS[config["task"]]
    result, final, best = task.fit(config, split)

    columns = [f.name for f in dataclasses.fields(task.record)]
    with open(out_dir / "metrics.csv", "w") as fh:
        fh.write(",".join(columns) + "\n")
        for rec in result.history:
            fh.write(",".join(format(getattr(rec, c), ".3f" if c == "seconds" else ".12g") for c in columns) + "\n")
    scale = None if standardizer is None else {"mean": serialize.fmt_vector(standardizer.mean),
                                                "scale": serialize.fmt_vector(standardizer.scale)}
    common = {"standardizer": scale, "best_epoch": int(result.best_epoch),
              "epochs_trained": len(result.history), "config": _resolved_lines(config)}
    for name, fields in (("final", final), ("best", best)):
        with open(out_dir / f"checkpoint_{name}.json", "w") as fh:
            json.dump({"format": CHECKPOINT_FORMAT, **fields, **common}, fh, indent=1)
            fh.write("\n")
    if result.history:
        best_rec = result.history[result.best_epoch - 1] if result.best_epoch else result.history[-1]
        print(f"trained {len(result.history)} epochs; best val {best_rec.val_snl:.6f} at epoch {result.best_epoch}")
    else:
        print("trained 0 epochs; wrote the initial state")
    print(f"checkpoints: {out_dir / 'checkpoint_best.json'}, {out_dir / 'checkpoint_final.json'}")
    return 0


def _cmd_eval(args) -> int:
    """Score a checkpoint on --data or its named dataset, once per seed,
    then write each seed's report and the [aggregate] block."""
    if args.samples < 1:
        print(f"--samples must be at least 1, got {args.samples}", file=sys.stderr)
        return 2
    try:
        seeds = [int(p) for p in str(args.seeds).split(",") if p.strip() != ""]
    except ValueError:
        print(f"--seeds must be comma-separated integers, got {args.seeds!r}", file=sys.stderr)
        return 2
    if not seeds:
        print(f"--seeds must name at least one seed, got {args.seeds!r}", file=sys.stderr)
        return 2
    kind, parts, standardizer, dataset = read_checkpoint(args.checkpoint, *_TASKS)

    if args.data is not None:
        points = datasets.load_delimited(args.data, has_header=args.has_header)
        if points.shape[1] != parts[0].dim:
            raise ValueError(f"{args.data} has {points.shape[1]} column(s); "
                             f"the {kind} checkpoint needs {parts[0].dim}")
        splits, dataset_name = {"data": points}, args.data
    elif dataset is not None:
        split = datasets.load_named(*dataset)
        splits, dataset_name = {"train": split.train, "val": split.val, "test": split.test}, dataset[0]
    else:
        print("checkpoint has no named dataset; pass --data", file=sys.stderr)
        return 2
    if standardizer is not None:
        splits = {name: standardizer.transform(points) for name, points in splits.items()}

    lines = [f"dataset {dataset_name}", f"checkpoint {args.checkpoint}",
             f"n_samples {args.samples}", f"seeds {','.join(str(s) for s in seeds)}"]
    per_seed = []
    for seed in seeds:
        seed_lines, reports = _TASKS[kind].scorer(args, parts, splits, seed, dataset_name)
        per_seed.append(reports)
        lines.append(f"[seed {seed}]")
        lines.extend(seed_lines)
    lines.append("[aggregate]")
    for name in per_seed[0]:
        for field in ("l_snl", "l_is"):
            values = np.array([getattr(reports[name], field) for reports in per_seed])
            std = float(values.std(ddof=1)) if values.size > 1 else 0.0
            lines.append(f"{name}.{field}_mean {values.mean():.12g}")
            lines.append(f"{name}.{field}_std {std:.12g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


def _cmd_grid(args) -> int:
    if args.resolution < 1:
        print(f"--resolution must be at least 1, got {args.resolution}", file=sys.stderr)
        return 2
    model, b, _ = read_checkpoint(args.checkpoint, "density")[1]
    dim = model.dim
    if args.bounds is not None:
        try:
            flat = [float(v) for v in args.bounds.split(",")]
        except ValueError:
            flat = []
        if len(flat) != 2 * dim or not np.all(np.isfinite(flat)):
            print(f"--bounds needs {2 * dim} comma-separated finite numbers, got {args.bounds!r}", file=sys.stderr)
            return 2
        bounds = np.array(flat).reshape(dim, 2)
        if not np.all(bounds[:, 0] < bounds[:, 1]):
            print(f"--bounds needs each low below its high, got {args.bounds!r}", file=sys.stderr)
            return 2
    else:
        bounds = np.tile([-4.0, 4.0], (dim, 1))
    grid = evaluation.density_grid(model, b, bounds, resolution=args.resolution)
    with open(args.out, "w") as fh:
        coords = ",".join(f"x{i + 1}" for i in range(dim))
        fh.write(f"{coords},energy,unnorm_log_density,log_density\n")
        for row, e, u, v in zip(grid.points, grid.energy, grid.unnorm_log_density, grid.log_density):
            fh.write(",".join(f"{c:.12g}" for c in row) + f",{e:.12g},{u:.12g},{v:.12g}\n")
    print(f"wrote {grid.points.shape[0]} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="snl-ebm", description="Self-normalized likelihood training for energy models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw a built-in dataset and write split CSVs")
    p.add_argument("--dataset", required=True, help=f"one of {', '.join(_ALL_NAMES)}")
    p.add_argument("--n", type=int, default=None, help="total rows before the 70/10/20 split")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(run=_cmd_generate)

    p = sub.add_parser("train", help="train a model from a key = value config")
    p.add_argument("--config", default=None, help="path to the config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override one config key")
    p.set_defaults(run=_cmd_train)

    p = sub.add_parser("eval", help="report the likelihood bounds from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", default=None, help="score this CSV instead of the stored dataset splits")
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seeds", default="0", help="comma-separated evaluation seeds")
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("grid", help="tabulate energy and log-density on a lattice")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resolution", type=int, default=200)
    p.add_argument("--bounds", default=None, help="lo,hi per dimension, comma separated")
    p.set_defaults(run=_cmd_grid)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (SnlError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
