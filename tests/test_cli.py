"""End-to-end command line checks: generate, train, eval, grid, and the
collected-problem config errors. Everything runs in-process through main()."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from snl_ebm import cli, datasets, serialize
from snl_ebm.cli import main, read_checkpoint
from snl_ebm.models import MlpEnergy
from snl_ebm.proposals import MdnProposal, fit_gaussian
from snl_ebm.regression import ConditionalEnergyModel, NormalizerNet, RegressionTrainConfig, train_regression
from snl_ebm.rng import PortableRng
from snl_ebm.training import TrainConfig, train_density


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def density_config(tmp_path, out_name="run", extra=()):
    return write_config(tmp_path / "density.cfg", [
        "# tiny smoke run",
        "data.name = checkerboard",
        "data.n = 200",
        "model.widths = 2,16,8,1",
        "train.epochs = 2",
        "train.batch_size = 64",
        "train.proposal_samples = 128",
        f"out.dir = {tmp_path / out_name}",
        *extra,
    ])


def regression_config(tmp_path, out_name="reg", extra=()):
    return write_config(tmp_path / "regression.cfg", [
        "data.name = regression1",
        "data.n = 120",
        "train.epochs = 1",
        "train.batch_size = 32",
        "train.proposal_samples = 4",
        f"out.dir = {tmp_path / out_name}",
        *extra,
    ])


def with_config_line(payload, key, line):
    """The checkpoint payload with the config line of ``key`` replaced by
    ``line``, or dropped when ``line`` is None."""
    lines = [line if old.startswith(key + " = ") else old for old in payload["config"]]
    return {**payload, "config": [line for line in lines if line is not None]}


def with_standardizer(payload, key, values):
    """The checkpoint payload with the standardizer's ``key`` set to ``values``."""
    return {**payload, "standardizer": {**payload["standardizer"], key: values}}


def metrics_without_seconds(path):
    lines = path.read_text().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


def section(text, header):
    """Lines of one [header] block of an eval report."""
    lines = text.splitlines()
    start = lines.index(header) + 1
    out = []
    for line in lines[start:]:
        if line.startswith("["):
            break
        out.append(line)
    return out


def field(lines, key):
    for line in lines:
        if line.startswith(key + " "):
            return float(line.split()[1])
    raise KeyError(key)


class TestGenerate:
    def test_split_sizes_and_output(self, tmp_path, capsys):
        code, out, _ = run(capsys, "generate", "--dataset", "checkerboard", "--n", "50",
                           "--out-dir", str(tmp_path))
        assert code == 0
        sizes = {"train": 35, "val": 5, "test": 10}
        for part, want in sizes.items():
            path = tmp_path / f"checkerboard_{part}.csv"
            rows = path.read_text().splitlines()
            assert len(rows) == want
            assert len(rows[0].split(",")) == 2
            assert f"{path}: {want} rows" in out

    def test_default_n_for_regression(self, tmp_path, capsys):
        code, _, _ = run(capsys, "generate", "--dataset", "regression1", "--out-dir", str(tmp_path))
        assert code == 0
        assert len((tmp_path / "regression1_train.csv").read_text().splitlines()) == 2000

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "generate", "--dataset", "pinwheel", "--n", "100", "--out-dir", str(a))
        run(capsys, "generate", "--dataset", "pinwheel", "--n", "100", "--out-dir", str(b))
        for part in ("train", "val", "test"):
            assert (a / f"pinwheel_{part}.csv").read_bytes() == (b / f"pinwheel_{part}.csv").read_bytes()
        run(capsys, "generate", "--dataset", "pinwheel", "--n", "100", "--seed", "1", "--out-dir", str(b))
        assert (a / "pinwheel_train.csv").read_bytes() != (b / "pinwheel_train.csv").read_bytes()

    def test_unknown_dataset(self, tmp_path, capsys):
        code, _, err = run(capsys, "generate", "--dataset", "spiral", "--out-dir", str(tmp_path))
        assert code == 2
        assert "spiral" in err

    def test_n_below_ten_names_the_flag(self, tmp_path, capsys):
        code, _, err = run(capsys, "generate", "--dataset", "funnel", "--n", "0", "--out-dir", str(tmp_path))
        assert code == 2
        assert "--n" in err and "n = 0" in err
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("config_cls", [TrainConfig, RegressionTrainConfig], ids=lambda cls: cls.__name__)
def test_every_train_config_field_has_a_key(config_cls):
    # a field that no key sets is a setting only the tests reach
    for f in dataclasses.fields(config_cls):
        key = cli._train_key(f.name)
        assert key in cli._KNOWN_KEYS, f"{config_cls.__name__}.{f.name} has no config key {key!r}"


@pytest.mark.parametrize("name, config_cls", [("checkerboard", TrainConfig), ("regression1", RegressionTrainConfig)],
                         ids=["density", "regression"])
def test_unset_train_keys_take_the_task_config_defaults(name, config_cls):
    config = cli.read_config(None, [f"data.name={name}", "out.dir=x"])
    assert cli._train_config(config) == config_cls()
    assert config["train.optimizer"] == "adam" and config["train.mdn_learning_rate"] == 1e-3


def test_readme_key_table_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("Every config key, its default, and the runs that read it:", 1)[1].split("\n\n")[1]
    keys = [line.split("`")[1] for line in table.splitlines()[2:]]
    assert keys == list(cli._KNOWN_KEYS)


class TestConfigErrors:
    def test_problems_are_collected_not_first_only(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.cfg", [
            "train.momentum = 0.9",   # unknown key
            "train.epochs = abc",     # bad value
            "data.name = checkerboard",
            "proposal.components = 0",  # out of range
        ])
        code, _, err = run(capsys, "train", "--config", cfg)
        assert code == 2
        assert "train.momentum" in err
        assert "train.epochs" in err
        assert "out.dir is required" in err
        assert "proposal.components must be at least 1" in err

    def test_empty_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "empty.cfg", ["# nothing here"])
        code, _, err = run(capsys, "train", "--config", cfg)
        assert code == 2
        assert "out.dir is required" in err
        assert "exactly one of data.name and data.path" in err

    def test_duplicate_key_in_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "dup.cfg", [
            "data.name = checkerboard",
            "data.name = funnel",
            f"out.dir = {tmp_path}",
        ])
        code, _, err = run(capsys, "train", "--config", cfg)
        assert code == 2
        assert "duplicate key" in err

    def test_malformed_set_and_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "m.cfg", ["just words", f"out.dir = {tmp_path}",
                                                "data.name = funnel"])
        code, _, err = run(capsys, "train", "--config", cfg, "--set", "nonsense")
        assert code == 2
        assert "expected 'key = value'" in err
        assert "expected key=value" in err

    def test_task_dataset_mismatch_and_mdn_for_density(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "t.cfg", [
            "task = density",
            "data.name = regression1",
            "proposal.kind = mdn",
            f"out.dir = {tmp_path}",
        ])
        code, _, err = run(capsys, "train", "--config", cfg)
        assert code == 2
        assert "does not belong to task" in err
        assert "mdn is only available for the regression" in err

    def test_name_and_path_both_given(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "np.cfg", [
            "data.name = funnel",
            "data.path = points.csv",
            f"out.dir = {tmp_path}",
        ])
        code, _, err = run(capsys, "train", "--config", cfg)
        assert code == 2
        assert "exactly one of" in err

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--config", str(tmp_path / "nope.cfg"))
        assert code == 2
        assert "cannot read config file" in err

    # 0 rows used to reach the generator, 5 rows trained on an empty validation split
    @pytest.mark.parametrize("n", [0, 5])
    def test_data_n_below_ten(self, tmp_path, capsys, n):
        code, _, err = run(capsys, "train", "--config", density_config(tmp_path), "--set", f"data.n={n}")
        assert code == 2
        assert f"data.n: the 70/10/20 split needs at least 10 rows, got n = {n}" in err
        assert not (tmp_path / "run").exists()

    def test_malformed_data_n_is_reported(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--config", density_config(tmp_path), "--set", "data.n=many")
        assert code == 2
        assert "data.n: invalid literal" in err

    @pytest.mark.parametrize("key", ["eval.samples", "eval.seed"])
    def test_eval_keys_are_unknown(self, tmp_path, capsys, key):
        code, _, err = run(capsys, "train", "--config", density_config(tmp_path), "--set", f"{key}=5")
        assert code == 2
        assert f"unknown key {key!r}" in err

    @pytest.mark.parametrize("task, setting", [
        ("density", "train.epochs=-2"),
        ("density", "train.batch_size=0"),
        ("density", "train.learning_rate=0"),
        ("density", "train.proposal_samples=0"),
        ("density", "train.nce_nu=-1"),
        ("density", "model.widths=2,5,3"),  # a density energy has one output
        ("density", "model.widths=3,8,1"),  # checkerboard is 2-D
        ("density", "model.widths=2,0,1"),
        ("regression", "train.proposal_samples=0"),
        ("regression", "train.mdn_learning_rate=0"),
        ("density", "train.learning_rate=inf"),
        ("density-nce", "train.nce_nu=inf"),
        ("regression", "train.learning_rate=inf"),
        ("regression-mdn", "train.mdn_learning_rate=inf"),
    ], ids=str)
    def test_bad_training_value_is_a_config_problem(self, tmp_path, capsys, task, setting):
        config, run_dir = {
            "density": (density_config, "run"),
            "density-nce": (lambda p: density_config(p, extra=["train.objective = nce"]), "run"),
            "regression": (regression_config, "reg"),
            "regression-mdn": (lambda p: regression_config(p, extra=["proposal.kind = mdn"]), "reg"),
        }[task]
        code, _, err = run(capsys, "train", "--config", config(tmp_path), "--set", setting)
        assert code == 2
        assert f"{setting.split('=')[0]}: " in err
        assert not (tmp_path / run_dir).exists()

    def test_bad_training_values_are_collected(self, tmp_path, capsys):
        code, _, err = run(capsys, "train", "--config", density_config(tmp_path),
                           "--set", "train.epochs=-2", "--set", "train.batch_size=0")
        assert code == 2
        assert "train.epochs: epochs must be nonnegative, got -2" in err
        assert "train.batch_size: batch_size must be positive, got 0" in err
        assert not (tmp_path / "run").exists()


class TestDensityPipeline:
    def test_train_writes_everything(self, tmp_path, capsys):
        cfg = density_config(tmp_path)
        code, out, _ = run(capsys, "train", "--config", cfg)
        assert code == 0
        assert "trained 2 epochs" in out
        run_dir = tmp_path / "run"

        resolved = (run_dir / "config.resolved").read_text().splitlines()
        assert "task = density" in resolved
        assert "train.epochs = 2" in resolved
        assert "data.standardize = true" in resolved  # auto default for density
        assert "proposal.kind = fitted" in resolved

        metrics = (run_dir / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "epoch,train_snl,val_snl,b,seconds"
        assert len(metrics) == 3
        assert [row.split(",")[0] for row in metrics[1:]] == ["1", "2"]

        for name in ("checkpoint_final.json", "checkpoint_best.json"):
            payload = json.loads((run_dir / name).read_text())
            assert payload["format"] == 1
            assert payload["kind"] == "density"
            assert payload["widths"] == [2, 16, 8, 1]
            assert len(payload["theta"]) == MlpEnergy([2, 16, 8, 1]).theta.size
            float(payload["b"])

        kind, (model, b, proposal), standardizer, dataset = read_checkpoint(
            str(run_dir / "checkpoint_best.json"), "density")
        assert kind == "density"
        assert np.all(np.isfinite(model.theta))
        assert np.isfinite(model.energy(np.zeros((3, 2)))).all()
        assert standardizer is not None
        assert proposal.kind == "fitted_gaussian"
        assert dataset == ("checkerboard", 200, 0)

    def test_training_is_deterministic(self, tmp_path, capsys):
        run(capsys, "train", "--config", density_config(tmp_path, "run1"))
        run(capsys, "train", "--config", density_config(tmp_path, "run2"))
        a = metrics_without_seconds(tmp_path / "run1" / "metrics.csv")
        b = metrics_without_seconds(tmp_path / "run2" / "metrics.csv")
        assert a == b
        ta = json.loads((tmp_path / "run1" / "checkpoint_final.json").read_text())["theta"]
        tb = json.loads((tmp_path / "run2" / "checkpoint_final.json").read_text())["theta"]
        assert ta == tb

    def test_set_overrides_file(self, tmp_path, capsys):
        cfg = density_config(tmp_path, "run0")
        code, out, _ = run(capsys, "train", "--config", cfg, "--set", "train.epochs=0")
        assert code == 0
        assert "trained 0 epochs" in out
        metrics = (tmp_path / "run0" / "metrics.csv").read_text().splitlines()
        assert metrics == ["epoch,train_snl,val_snl,b,seconds"]
        assert (tmp_path / "run0" / "checkpoint_final.json").exists()
        resolved = (tmp_path / "run0" / "config.resolved").read_text()
        assert "train.epochs = 0" in resolved

    def test_eval_report_and_aggregate(self, tmp_path, capsys):
        run(capsys, "train", "--config", density_config(tmp_path))
        ckpt = str(tmp_path / "run" / "checkpoint_best.json")
        out_file = tmp_path / "report.txt"
        code, out, _ = run(capsys, "eval", "--checkpoint", ckpt, "--samples", "500",
                           "--seeds", "0,1", "--out", str(out_file))
        assert code == 0
        assert out_file.read_text() == out
        assert "[seed 0]" in out and "[seed 1]" in out and "[aggregate]" in out
        for name in ("train", "val", "test"):
            seed0 = section(out, "[seed 0]")
            assert field(seed0, f"{name}.l_snl") <= field(seed0, f"{name}.l_is") + 1e-12
        agg = section(out, "[aggregate]")
        assert np.isfinite(field(agg, "test.l_snl_mean"))
        assert field(agg, "test.l_is_std") >= 0.0

    def test_eval_is_deterministic(self, tmp_path, capsys):
        run(capsys, "train", "--config", density_config(tmp_path))
        ckpt = str(tmp_path / "run" / "checkpoint_best.json")
        _, out1, _ = run(capsys, "eval", "--checkpoint", ckpt, "--samples", "400")
        _, out2, _ = run(capsys, "eval", "--checkpoint", ckpt, "--samples", "400")
        assert out1 == out2

    def test_eval_external_data(self, tmp_path, capsys):
        run(capsys, "generate", "--dataset", "checkerboard", "--n", "50", "--out-dir", str(tmp_path))
        run(capsys, "train", "--config", density_config(tmp_path))
        ckpt = str(tmp_path / "run" / "checkpoint_best.json")
        code, out, _ = run(capsys, "eval", "--checkpoint", ckpt, "--samples", "300",
                           "--data", str(tmp_path / "checkerboard_test.csv"))
        assert code == 0
        seed0 = section(out, "[seed 0]")
        assert field(seed0, "data.n") == 10
        assert np.isfinite(field(seed0, "data.l_is"))

    def test_eval_rejects_data_with_the_wrong_column_count(self, tmp_path, capsys):
        run(capsys, "train", "--config", density_config(tmp_path))
        data = tmp_path / "one_column.csv"
        data.write_text("0.5\n-1.0\n2.0\n")
        code, _, err = run(capsys, "eval", "--checkpoint", str(tmp_path / "run" / "checkpoint_best.json"),
                           "--samples", "100", "--data", str(data))
        assert code == 1
        assert "one_column.csv has 1 column(s); the density checkpoint needs 2" in err

    def test_eval_rejects_other_format_versions(self, tmp_path, capsys):
        run(capsys, "train", "--config", density_config(tmp_path))
        path = tmp_path / "run" / "checkpoint_best.json"
        payload = json.loads(path.read_text())
        payload["format"] = 2
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "eval", "--checkpoint", str(path), "--samples", "100")
        assert code == 1
        assert "format" in err

    def test_eval_names_an_unknown_kind(self, tmp_path, capsys):
        run(capsys, "train", "--config", density_config(tmp_path))
        path = tmp_path / "run" / "checkpoint_best.json"
        payload = json.loads(path.read_text())
        payload["kind"] = "mystery"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "eval", "--checkpoint", str(path), "--samples", "100")
        assert code == 1
        assert "expected a density or regression checkpoint, found kind 'mystery'" in err

    @pytest.mark.parametrize("command", ["eval", "grid"])
    @pytest.mark.parametrize("damage, named", [  # damage: payload -> a JSON value, or the file's text
        (lambda p: {k: v for k, v in p.items() if k != "theta"}, "checkpoint key 'theta' is missing"),
        (lambda p: [p], "a checkpoint is a JSON object, found a list"),
        (lambda p: {**p, "proposal": {"kind": "fitted_gaussian"}}, "checkpoint key 'mean' is missing"),
        (lambda p: {**p, "theta": None}, "checkpoint value is malformed: theta: expected a list, got NoneType"),
        (lambda p: "", "checkpoint is not JSON: Expecting value: line 1 column 1 (char 0)"),
        (lambda p: {**p, "theta": p["theta"][:3]},
         "checkpoint value is malformed: theta: expected shape (193,), got (3,)"),
        (lambda p: {**p, "theta": p["theta"][:5] + ["nan"] + p["theta"][6:]},
         "checkpoint value is malformed: theta: must be finite, got nan at index 5"),
        (lambda p: with_config_line(p, "data.n", None), "checkpoint key 'data.n' is missing"),
        (lambda p: with_config_line(p, "data.n", "data.n = ten"),
         "checkpoint value is malformed: config line 'data.n = ten': invalid literal for int() with base 10: 'ten'"),
        (lambda p: with_config_line(p, "data.n", "data.n = 5"),
         "checkpoint value is malformed: config line 'data.n = 5': "
         "the 70/10/20 split needs at least 10 rows, got n = 5"),
        (lambda p: with_config_line(p, "data.seed", "data.seed 0"),
         "checkpoint value is malformed: config line 'data.seed 0' is not 'key = value'"),
        (lambda p: {**p, "proposal": {**p["proposal"], "kind": "mystery"}},
         "checkpoint value is malformed: proposal: unknown distribution kind 'mystery'"),
        (lambda p: with_config_line(p, "data.name", "data.name = spiral"),
         "checkpoint value is malformed: config line 'data.name = spiral': expected one of "
         "checkerboard, funnel, pinwheel, four_circles, regression1, regression2; got 'spiral'"),
        (lambda p: {**p, "b": "nan"}, "checkpoint value is malformed: b: must be finite, got nan"),
        (lambda p: with_standardizer(p, "scale", ["0", "1"]),
         "checkpoint value is malformed: standardizer: scale must be above 0, got 0.0 at index 0"),
        (lambda p: with_standardizer(p, "scale", ["1", "inf"]),
         "checkpoint value is malformed: standardizer: scale: must be finite, got inf at index 1"),
        (lambda p: with_standardizer(p, "mean", ["nan", "0"]),
         "checkpoint value is malformed: standardizer: mean: must be finite, got nan at index 0"),
        (lambda p: {**p, "proposal": {**p["proposal"], "cov": [["1", "nan"], ["nan", "1"]]}},
         "checkpoint value is malformed: proposal: cov: must be finite, got nan at index (0, 1)"),
        (lambda p: {**p, "proposal": {**p["proposal"], "cov": [["1", "2"], ["2", "1"]]}},
         "checkpoint value is malformed: proposal: 2-th leading minor of the array is not positive definite"),
        (lambda p: with_standardizer(with_standardizer(p, "mean", ["0", "0", "0"]), "scale", ["1", "1", "1"]),
         "checkpoint value is malformed: standardizer: mean: expected shape (2,), got (3,)"),
        (lambda p: {**p, "proposal": {"kind": "standard_gaussian", "dim": 3}},
         "checkpoint value is malformed: proposal: has dimension 3; the model needs 2"),
        (lambda p: {**p, "base": {"kind": "standard_gaussian", "dim": 3}},
         "checkpoint value is malformed: base: has dimension 3; the model needs 2"),
    ], ids=["no-theta", "json-list", "bare-proposal", "null-theta", "not-json", "short-theta", "nan-theta",
            "no-data-n", "word-data-n", "small-data-n", "bare-config-line", "mystery-proposal", "unknown-dataset",
            "nan-b", "zero-scale", "inf-scale", "nan-mean", "nan-cov", "indefinite-cov", "3-d-standardizer",
            "3-d-proposal", "3-d-base"])
    def test_damaged_checkpoint_names_the_file_and_key(self, tmp_path, capsys, command, damage, named):
        run(capsys, "train", "--config", density_config(tmp_path))
        path = tmp_path / "run" / "checkpoint_best.json"
        damaged = damage(json.loads(path.read_text()))
        path.write_text(damaged if isinstance(damaged, str) else json.dumps(damaged))
        more = ["--samples", "100"] if command == "eval" else ["--out", str(tmp_path / "grid.csv")]
        code, _, err = run(capsys, command, "--checkpoint", str(path), *more)
        assert code == 1
        assert err == f"error: {path}: {named}\n"

    def test_grid_export(self, tmp_path, capsys):
        run(capsys, "train", "--config", density_config(tmp_path))
        ckpt = str(tmp_path / "run" / "checkpoint_best.json")
        out_csv = tmp_path / "grid.csv"
        code, out, _ = run(capsys, "grid", "--checkpoint", ckpt, "--out", str(out_csv),
                           "--resolution", "5", "--bounds=-2,2,-2,2")
        assert code == 0
        assert "wrote 25 rows" in out
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "x1,x2,energy,unnorm_log_density,log_density"
        assert len(lines) == 26
        b = float(json.loads((tmp_path / "run" / "checkpoint_best.json").read_text())["b"])
        for line in lines[1:]:
            x1, x2, e, u, v = map(float, line.split(","))
            assert np.isfinite([x1, x2, e, u, v]).all()
            assert v == pytest.approx(u - b, abs=1e-9)

    def test_grid_rejects_bad_bounds(self, tmp_path, capsys):
        run(capsys, "train", "--config", density_config(tmp_path))
        ckpt = str(tmp_path / "run" / "checkpoint_best.json")
        code, _, err = run(capsys, "grid", "--checkpoint", ckpt,
                           "--out", str(tmp_path / "g.csv"), "--bounds=-2,2")
        assert code == 2
        assert "--bounds needs 4" in err

    @pytest.mark.parametrize("flag", ["--resolution=0", "--resolution=-3", "--bounds=a,b,c,d", "--bounds=1,0,0,1",
                                      "--bounds=-inf,0,0,1"])
    def test_grid_rejects_malformed_flags(self, tmp_path, capsys, flag):
        run(capsys, "train", "--config", density_config(tmp_path))
        ckpt = str(tmp_path / "run" / "checkpoint_best.json")
        code, out, err = run(capsys, "grid", "--checkpoint", ckpt, "--out", str(tmp_path / "g.csv"), flag)
        assert code == 2
        assert out == ""
        assert err.startswith(flag.split("=")[0] + " ")
        assert not (tmp_path / "g.csv").exists()


class TestRegressionPipeline:
    def test_train_eval_roundtrip(self, tmp_path, capsys):
        cfg = regression_config(tmp_path)
        code, out, _ = run(capsys, "train", "--config", cfg)
        assert code == 0
        run_dir = tmp_path / "reg"

        resolved = (run_dir / "config.resolved").read_text().splitlines()
        assert "task = regression" in resolved           # inferred from data.name
        assert "data.standardize = false" in resolved    # auto default for regression
        assert "train.proposal_samples = 4" in resolved

        metrics = (run_dir / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "epoch,train_objective,val_snl,seconds"
        assert len(metrics) == 2

        payload = json.loads((run_dir / "checkpoint_best.json").read_text())
        assert payload["kind"] == "regression"
        assert payload["normalizer_phi"] is not None
        assert payload["eval_proposal"]["kind"] == "fitted_gaussian"

        kind, (model, normalizer), standardizer, dataset = read_checkpoint(
            str(run_dir / "checkpoint_best.json"), "regression")
        assert normalizer is not None
        assert standardizer is None and dataset == ("regression1", 120, 0)
        assert np.all(np.isfinite(model.theta))

        code, out, _ = run(capsys, "eval", "--checkpoint", str(run_dir / "checkpoint_best.json"),
                           "--samples", "300", "--seeds", "0,1")
        assert code == 0
        seed0 = section(out, "[seed 0]")
        assert field(seed0, "test.l_snl") <= field(seed0, "test.l_is") + 1e-12
        assert field(seed0, "test.n_points") == 24
        agg = section(out, "[aggregate]")
        assert np.isfinite(field(agg, "test.l_is_mean"))

    def test_eval_rejects_one_column_data(self, tmp_path, capsys):
        run(capsys, "train", "--config", regression_config(tmp_path))
        data = tmp_path / "one_column.csv"
        data.write_text("0.5\n-1.0\n2.0\n")
        code, _, err = run(capsys, "eval", "--checkpoint", str(tmp_path / "reg" / "checkpoint_best.json"),
                           "--samples", "100", "--data", str(data))
        assert code == 1
        assert "one_column.csv has 1 column(s); the regression checkpoint needs 2" in err

    @pytest.mark.parametrize("damage, named", [
        (lambda p: with_standardizer(with_standardizer(p, "mean", p["standardizer"]["mean"][:1]), "scale",
                                     p["standardizer"]["scale"][:1]),
         "checkpoint value is malformed: standardizer: mean: expected shape (2,), got (1,)"),
        (lambda p: {**p, "eval_proposal": {"kind": "standard_gaussian", "dim": 2}},
         "checkpoint value is malformed: eval_proposal: has dimension 2; the model needs 1"),
    ], ids=["1-d-standardizer", "2-d-carrier"])
    def test_damaged_checkpoint_names_the_file_and_key(self, tmp_path, capsys, damage, named):
        run(capsys, "train", "--config", regression_config(tmp_path, extra=["data.standardize = true"]))
        path = tmp_path / "reg" / "checkpoint_best.json"
        path.write_text(json.dumps(damage(json.loads(path.read_text()))))
        code, _, err = run(capsys, "eval", "--checkpoint", str(path), "--samples", "100")
        assert code == 1
        assert err == f"error: {path}: {named}\n"

    @pytest.mark.parametrize("key", ["feature_theta", "y_theta", "head_theta", "normalizer_phi"])
    def test_damaged_parameter_vector_names_its_key(self, tmp_path, capsys, key):
        run(capsys, "train", "--config", regression_config(tmp_path))
        path = tmp_path / "reg" / "checkpoint_best.json"
        payload = json.loads(path.read_text())
        size = len(payload[key])
        for value, named in ((payload[key][:3], f"expected shape ({size},), got (3,)"),
                             (["inf"] + payload[key][1:], "must be finite, got inf at index 0")):
            path.write_text(json.dumps({**payload, key: value}))
            code, _, err = run(capsys, "eval", "--checkpoint", str(path), "--samples", "100")
            assert code == 1
            assert err == f"error: {path}: checkpoint value is malformed: {key}: {named}\n"

    def test_stored_training_proposal_is_not_read(self, tmp_path, capsys):
        # regression files written before held the training proposal, here an MDN, under "proposal"
        run(capsys, "train", "--config", regression_config(tmp_path, extra=["proposal.kind = mdn"]))
        path = tmp_path / "reg" / "checkpoint_best.json"
        payload = json.loads(path.read_text())
        assert "proposal" not in payload
        mdn = MdnProposal(10, 2, PortableRng(3))
        stored = {"kind": "mdn", "input_dim": 10, "components": 2,
                  **{key: serialize.fmt_vector(net.theta) for key, net in zip(("pi", "mu", "scale"), mdn.nets)}}
        reports = []
        for proposal in (None, stored, {"kind": "mystery"}, {**stored, "pi": ["nan"]}):
            path.write_text(json.dumps(payload if proposal is None else {**payload, "proposal": proposal}))
            code, out, err = run(capsys, "eval", "--checkpoint", str(path), "--samples", "100")
            assert code == 0 and err == ""
            reports.append(out)
        assert reports[1:] == reports[:1] * 3

    def test_without_normalizer_head(self, tmp_path, capsys):
        cfg = regression_config(tmp_path, "reg2", extra=["model.normalizer = false"])
        code, _, _ = run(capsys, "train", "--config", cfg)
        assert code == 0
        payload = json.loads((tmp_path / "reg2" / "checkpoint_final.json").read_text())
        assert payload["normalizer_phi"] is None

    def test_grid_rejects_regression_checkpoints(self, tmp_path, capsys):
        run(capsys, "train", "--config", regression_config(tmp_path))
        code, _, err = run(capsys, "grid", "--checkpoint", str(tmp_path / "reg" / "checkpoint_best.json"),
                           "--out", str(tmp_path / "g.csv"))
        assert code == 1
        assert "expected a density checkpoint" in err


@pytest.mark.parametrize("config, run_dir", [(density_config, "run"), (regression_config, "reg")])
def test_eval_rejects_zero_samples(tmp_path, capsys, config, run_dir):
    assert run(capsys, "train", "--config", config(tmp_path))[0] == 0
    ckpt = str(tmp_path / run_dir / "checkpoint_final.json")
    code, out, err = run(capsys, "eval", "--checkpoint", ckpt, "--samples", "0")
    assert code == 2
    assert out == ""
    assert "--samples must be at least 1" in err


@pytest.mark.parametrize("config, run_dir", [(density_config, "run"), (regression_config, "reg")])
def test_eval_rejects_empty_seed_list(tmp_path, capsys, config, run_dir):
    assert run(capsys, "train", "--config", config(tmp_path))[0] == 0
    ckpt = str(tmp_path / run_dir / "checkpoint_final.json")
    code, out, err = run(capsys, "eval", "--checkpoint", ckpt, "--seeds", ",")
    assert code == 2
    assert out == ""
    assert "--seeds must name at least one seed" in err


class TestSetOnlyConfig:
    def test_training_from_overrides_alone(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "train",
            "--set", "data.name=funnel",
            "--set", "data.n=100",
            "--set", "model.widths=2,8,1",
            "--set", "train.epochs=0",
            "--set", f"out.dir={tmp_path / 'ovr'}",
        )
        assert code == 0
        assert "trained 0 epochs" in out
        assert (tmp_path / "ovr" / "checkpoint_final.json").exists()


@pytest.mark.parametrize("config, run_dir", [(density_config, "run"), (regression_config, "reg")])
def test_eval_rejects_malformed_seeds(tmp_path, capsys, config, run_dir):
    assert run(capsys, "train", "--config", config(tmp_path))[0] == 0
    ckpt = str(tmp_path / run_dir / "checkpoint_final.json")
    out_file = tmp_path / "report.txt"
    code, out, err = run(capsys, "eval", "--checkpoint", ckpt, "--seeds", "a,b", "--out", str(out_file))
    assert code == 2
    assert out == ""
    assert err.startswith("--seeds must be comma-separated integers")
    assert not out_file.exists()


def write_points(path, n_rows, n_cols):
    rows = PortableRng(7).normal((n_rows, n_cols))
    path.write_text("".join(",".join(f"{v:.6f}" for v in row) + "\n" for row in rows))
    return str(path)


def path_config(tmp_path, data, out_name="file", extra=()):
    return write_config(tmp_path / "file.cfg", [
        f"data.path = {data}",
        "train.epochs = 1",
        "train.batch_size = 32",
        "train.proposal_samples = 16",
        f"out.dir = {tmp_path / out_name}",
        *extra,
    ])


class TestUnreadKeys:
    """A key set explicitly that the run does not read is a config problem,
    reported before anything is written; an unset key stays silent."""

    @pytest.mark.parametrize("task, setting", [
        ("regression", "model.widths=5,1"),           # density only
        ("regression", "model.base=gaussian"),        # density only
        ("regression", "train.optimizer=sgd"),        # density only
        ("density", "model.normalizer=false"),        # regression only
        ("regression", "proposal.components=3"),      # regression with proposal.kind = mdn
        ("density", "proposal.components=3"),         # regression with proposal.kind = mdn
        ("regression", "train.mdn_learning_rate=0.01"),  # regression with proposal.kind = mdn
        ("density", "train.nce_nu=2"),                # train.objective = nce
        ("regression", "train.nce_nu=2"),             # train.objective = nce
        ("density", "data.has_header=true"),          # data.path set
        ("file", "data.n=100"),                       # data.name set
    ], ids=str)
    def test_set_key_the_run_does_not_read(self, tmp_path, capsys, task, setting):
        config, run_dir = {
            "density": (density_config, "run"),
            "regression": (regression_config, "reg"),
            "file": (lambda p: path_config(p, write_points(p / "points.csv", 40, 2),
                                           extra=["model.widths = 2,8,1"]), "file"),
        }[task]
        code, _, err = run(capsys, "train", "--config", config(tmp_path), "--set", setting)
        assert code == 2
        assert f"  - {setting.split('=')[0]}: set, but only " in err
        assert not (tmp_path / run_dir).exists()

    def test_bad_value_of_a_deciding_key_skips_the_check(self, tmp_path, capsys):
        # with data.name unparsed, "data.n is not read" would be a false report
        code, _, err = run(capsys, "train", "--set", "data.name=regresion1", "--set", "data.n=100",
                           "--set", f"out.dir={tmp_path / 'run'}")
        assert code == 2
        assert "data.name: expected one of" in err
        assert "data.n:" not in err

    def test_keys_read_when_their_condition_holds(self, tmp_path, capsys):
        cfg = regression_config(tmp_path, extra=[
            "proposal.kind = mdn", "proposal.components = 3", "train.mdn_learning_rate = 0.01",
            "train.objective = nce", "train.nce_nu = 2",
        ])
        assert run(capsys, "train", "--config", cfg)[0] == 0
        data = write_points(tmp_path / "points.csv", 40, 2)
        cfg = path_config(tmp_path, data, extra=["model.widths = 2,8,1", "data.has_header = true"])
        assert run(capsys, "train", "--config", cfg)[0] == 0

    def test_unset_keys_stay_silent_and_resolved(self, tmp_path, capsys):
        assert run(capsys, "train", "--config", regression_config(tmp_path))[0] == 0
        resolved = (tmp_path / "reg" / "config.resolved").read_text().splitlines()
        for line in ("model.base = none", "model.widths = 2,200,100,50,50,1", "train.optimizer = adam",
                     "data.has_header = false", "proposal.components = 2"):
            assert line in resolved


class TestDataFileChecks:
    """A data.path file the task cannot use is a config problem (exit 2) that
    names data.path, the file and both counts, before anything is written."""

    @pytest.mark.parametrize("task, rows, cols, extra, message", [
        ("density", 40, 2, ["model.widths = 3,8,1"], "has 2 column(s); the density model needs 3"),
        ("regression", 40, 1, ["task = regression"], "has 1 column(s); the regression model needs 2"),
        ("regression", 40, 3, ["task = regression"], "has 3 column(s); the regression model needs 2"),
        ("density", 5, 2, ["model.widths = 2,8,1"], "the 70/10/20 split needs at least 10 rows, got n = 5"),
    ], ids=["density-columns", "regression-1-column", "regression-3-columns", "5-rows"])
    def test_unusable_file(self, tmp_path, capsys, task, rows, cols, extra, message):
        data = write_points(tmp_path / "points.csv", rows, cols)
        code, _, err = run(capsys, "train", "--config", path_config(tmp_path, data, extra=extra))
        assert code == 2
        assert f"data.path: {data}" in err and message in err
        assert not (tmp_path / "file").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_bad_cell_names_the_file(self, tmp_path, capsys, command):
        data = write_points(tmp_path / "points.csv", 40, 2)
        bad = tmp_path / "bad.csv"
        lines = Path(data).read_text().splitlines()
        bad.write_text("\n".join([lines[0], "0.5,inf", *lines[2:]]) + "\n")
        extra = ["model.widths = 2,8,1"]
        if command == "train":
            argv = ["train", "--config", path_config(tmp_path, str(bad), extra=extra)]
        else:
            assert run(capsys, "train", "--config", path_config(tmp_path, data, extra=extra))[0] == 0
            argv = ["eval", "--checkpoint", str(tmp_path / "file" / "checkpoint_final.json"), "--data", str(bad)]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err == f"error: {bad}: non-finite value 'inf' at row 2, column 2\n"
        assert (tmp_path / "file").exists() == (command == "eval")

    def test_byte_order_mark_and_blank_line_before_the_header(self, tmp_path, capsys):
        # a spreadsheet export: BOM, then a blank line, then the header
        plain = write_points(tmp_path / "plain.csv", 40, 2)
        marked = tmp_path / "marked.csv"
        marked.write_text("\ufeff\nx1,x2\n" + (tmp_path / "plain.csv").read_text(), encoding="utf-8")
        extra = ["model.widths = 2,8,1"]
        assert run(capsys, "train", "--config", path_config(tmp_path, plain, "plain", extra))[0] == 0
        assert run(capsys, "train", "--config",
                   path_config(tmp_path, str(marked), "marked", extra + ["data.has_header = true"]))[0] == 0
        assert checkpoint(tmp_path / "marked" / "checkpoint_final.json")["theta"] == \
            checkpoint(tmp_path / "plain" / "checkpoint_final.json")["theta"]
        outputs = []
        for data, header in ((plain, []), (str(marked), ["--has-header"])):
            code, out, _ = run(capsys, "eval", "--checkpoint", str(tmp_path / "plain" / "checkpoint_final.json"),
                               "--data", data, "--samples", "200", *header)
            assert code == 0
            outputs.append(out.replace(data, "DATA"))
        assert outputs[0] == outputs[1]


def checkpoint(path):
    with open(path) as fh:
        return json.load(fh)


class TestCheckpointParameters:
    """checkpoint_final.json holds the parameters after the last epoch and
    checkpoint_best.json those of the best epoch, as the library returns them."""

    def test_density(self, tmp_path, capsys):
        cfg = density_config(tmp_path, extra=["train.learning_rate = 0.01", "train.seed = 2"])
        assert run(capsys, "train", "--config", cfg, "--set", "train.epochs=3")[0] == 0

        split = datasets.load_named("checkerboard", 200, 0)
        split = datasets.fit_standardizer(split.train).transform_split(split)
        model = MlpEnergy([2, 16, 8, 1], rng=PortableRng(0).split("model"))
        result = train_density(model, fit_gaussian(split.train), split.train, split.val,
                               TrainConfig(epochs=3, learning_rate=0.01, batch_size=64, proposal_samples=128, seed=2))
        assert result.best_epoch < 3  # so the two checkpoints differ

        final, best = (checkpoint(tmp_path / "run" / f"checkpoint_{name}.json") for name in ("final", "best"))
        assert final["theta"] == [serialize.fmt(v) for v in model.theta]
        assert final["b"] == serialize.fmt(result.state.b)
        assert best["theta"] == [serialize.fmt(v) for v in result.best_theta]
        assert best["b"] == serialize.fmt(result.best_b)
        assert final["theta"] != best["theta"]
        keys = ["format", "kind", "widths", "theta", "b", "base", "proposal", "standardizer",
                "best_epoch", "epochs_trained", "config"]
        assert list(final) == keys and list(best) == keys

    def test_regression(self, tmp_path, capsys):
        cfg = regression_config(tmp_path, extra=["train.learning_rate = 0.1", "train.seed = 0"])
        code, out, _ = run(capsys, "train", "--config", cfg, "--set", "train.epochs=3")
        assert code == 0

        split = datasets.load_named("regression1", 120, 0)
        rng = PortableRng(0)
        model = ConditionalEnergyModel(rng.split("model"))
        normalizer = NormalizerNet(rng.split("normalizer"))
        y_tr = split.train[:, 1]
        result = train_regression(model, normalizer, fit_gaussian(y_tr.reshape(-1, 1)), (split.train[:, 0], y_tr),
                                  (split.val[:, 0], split.val[:, 1]),
                                  RegressionTrainConfig(epochs=3, learning_rate=0.1, batch_size=32,
                                                        samples_per_point=4, seed=0))
        assert result.best_epoch < 3  # so the two checkpoints differ
        best_val = result.history[result.best_epoch - 1].val_snl
        assert out.splitlines()[0] == f"trained 3 epochs; best val {best_val:.6f} at epoch {result.best_epoch}"

        def fields(theta, phi):
            model.theta, normalizer.theta = theta, phi
            return {"feature_theta": serialize.fmt_vector(model.feature_net.theta),
                    "y_theta": serialize.fmt_vector(model.y_net.theta),
                    "head_theta": serialize.fmt_vector(model.head.theta),
                    "normalizer_phi": serialize.fmt_vector(normalizer.theta)}

        want_final = fields(model.theta.copy(), normalizer.theta.copy())
        want_best = fields(result.best_theta, result.best_phi)
        final, best = (checkpoint(tmp_path / "reg" / f"checkpoint_{name}.json") for name in ("final", "best"))
        assert {k: final[k] for k in want_final} == want_final
        assert {k: best[k] for k in want_best} == want_best
        assert final["head_theta"] != best["head_theta"]
        keys = ["format", "kind", "feature_theta", "y_theta", "head_theta", "normalizer_phi",
                "eval_proposal", "standardizer", "best_epoch", "epochs_trained", "config"]
        assert list(final) == keys and list(best) == keys

    def test_regression_eval_proposal_is_the_model_carrier(self, tmp_path, capsys):
        assert run(capsys, "train", "--config", regression_config(tmp_path))[0] == 0
        split = datasets.load_named("regression1", 120, 0)
        model = ConditionalEnergyModel(PortableRng(0).split("model"))
        y_tr = split.train[:, 1]
        train_regression(model, None, fit_gaussian(y_tr.reshape(-1, 1)), (split.train[:, 0], y_tr),
                         (split.val[:, 0], split.val[:, 1]), RegressionTrainConfig(epochs=0))
        for name in ("final", "best"):
            path = tmp_path / "reg" / f"checkpoint_{name}.json"
            assert checkpoint(path)["eval_proposal"] == model.carrier.descriptor()
            loaded, _ = read_checkpoint(str(path), "regression")[1]
            assert loaded.carrier.descriptor() == model.carrier.descriptor()


@pytest.mark.parametrize("config, run_dir, kind", [(density_config, "run", "density"),
                                                   (regression_config, "reg", "regression")],
                         ids=["density", "regression"])
def test_every_written_key_is_read(tmp_path, capsys, config, run_dir, kind):
    # a key that train writes and no reader needs is a key whose damage goes unnoticed
    informational = {"best_epoch", "epochs_trained"}
    assert run(capsys, "train", "--config", config(tmp_path))[0] == 0
    path = tmp_path / run_dir / "checkpoint_best.json"
    payload = checkpoint(path)
    assert informational < set(payload)
    for key in sorted(set(payload) - informational):
        path.write_text(json.dumps({k: v for k, v in payload.items() if k != key}))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: .*\b{key}\b"):
            read_checkpoint(str(path), kind)
