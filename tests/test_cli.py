"""End-to-end command line checks: generate, train, eval, grid, and the
collected-problem config errors. Everything runs in-process through main()."""

import json

import numpy as np
import pytest

from snl_ebm.cli import load_density_checkpoint, load_regression_checkpoint, main
from snl_ebm.models import MlpEnergy


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
    ], ids=str)
    def test_bad_training_value_is_a_config_problem(self, tmp_path, capsys, task, setting):
        config, run_dir = {"density": (density_config, "run"), "regression": (regression_config, "reg")}[task]
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

        model, b, standardizer, proposal, config_lines = load_density_checkpoint(
            str(run_dir / "checkpoint_best.json"))
        assert np.all(np.isfinite(model.theta))
        assert np.isfinite(model.energy(np.zeros((3, 2)))).all()
        assert standardizer is not None
        assert proposal.kind == "fitted_gaussian"
        assert "data.name = checkerboard" in config_lines

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

    @pytest.mark.parametrize("flag", ["--resolution=0", "--resolution=-3", "--bounds=a,b,c,d", "--bounds=1,0,0,1"])
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

        model, normalizer, _, eval_proposal, _, _ = load_regression_checkpoint(
            str(run_dir / "checkpoint_best.json"))
        assert normalizer is not None
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
