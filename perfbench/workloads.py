"""The three benchmark workloads: set-up, measured run and checks.

Each workload is a closed loop with one caller: the next library call starts
when the previous one has returned. ``setup(seed)`` builds the inputs from
the workload seed (the library only ever receives the generated arrays and
models); ``run(state, seconds)`` does a fixed amount of work sized so that it
lasts about ``seconds`` on the reference machine, then checks the outputs.
Library entry points are looked up on their modules at call time so that a
traced run sees the wrapped versions.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import checks
from snl_ebm import datasets, evaluation, regression, training
from snl_ebm.models import DENSITY_WIDTHS, GaussianMeanModel, MlpEnergy
from snl_ebm.nets import Mlp
from snl_ebm.proposals import MdnProposal, StandardGaussian, fit_gaussian, sample_and_score
from snl_ebm.regression import FEATURE_WIDTHS, BilinearConditionalModel, ConditionalEnergyModel, NormalizerNet
from snl_ebm.rng import PortableRng

EVAL_DRAWS = 20000

# Nominal seconds of one unit of work on the reference machine; the run does
# round(seconds / unit) units, so its length scales with --seconds while the
# work stays identical from run to run.
DENSITY_EPOCH_S = 3.5
REGRESSION_ROUND_S = 6.0
EVAL_SEED_S = 2.7
REGRESSION_EPOCHS_PER_ROUND = 10

TIGHTNESS_FAULT = (
    "train_regression forms importance weights e^{-E}/q (Lebesgue measure) but "
    "eval_regression_l_is forms e^{-E} (relative to its proposal), so b_phi learns "
    "a different normaliser from the one the evaluation uses"
)


@dataclass
class Outcome:
    """Operations attempted and failed, checks, per-iteration times and figures."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    iter_s: list[float] = field(default_factory=list)
    skipped_steps: int = 0
    figures: dict[str, list[float]] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)

    def steps(self, attempted: int, skipped: int) -> None:
        self.attempted += attempted
        self.failed += skipped
        self.skipped_steps += skipped

    def evaluation(self, n: int = 1) -> None:
        self.attempted += n

    def check(self, result: checks.Check) -> None:
        self.attempted += 1
        status = "ok" if result.ok else ("FAILED (known fault)" if result.known_fault else "FAILED")
        self.lines.append(f"check {result.name}: {status}: {result.detail}")
        if not result.ok:
            self.failed += 1
            if not result.known_fault:
                self.correct = False

    def figure(self, name: str, value: float) -> None:
        self.figures.setdefault(name, []).append(float(value))


class CallCounter:
    """Counts calls of a module attribute for the duration of a ``with`` block."""

    def __init__(self, module, attr):
        self.module, self.attr, self.calls = module, attr, 0

    def __enter__(self):
        self.original = original = getattr(self.module, self.attr)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        setattr(self.module, self.attr, counted)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.attr, self.original)


def _units(seconds: float, unit_s: float) -> int:
    return max(1, round(seconds / unit_s))


def standardised_checkerboard(seed: int):
    raw = datasets.load_named("checkerboard", datasets.DEFAULT_DENSITY_N, seed)
    return raw, datasets.fit_standardizer(raw.train).transform_split(raw)


# -- density-snl --------------------------------------------------------------


def density_setup(seed: int) -> dict:
    raw, split = standardised_checkerboard(seed)
    model = MlpEnergy(list(DENSITY_WIDTHS), base=StandardGaussian(2), rng=PortableRng(seed).split("model"))
    return {"seed": seed, "raw": raw, "split": split, "model": model, "proposal": StandardGaussian(2)}


def density_run(state: dict, seconds: float, out: Outcome) -> None:
    seed, split, model, proposal = state["seed"], state["split"], state["model"], state["proposal"]
    epochs = _units(seconds, DENSITY_EPOCH_S)
    config = training.TrainConfig(objective="snl", epochs=epochs, learning_rate=1e-3,
                                  batch_size=32, proposal_samples=1024, seed=seed)
    steps_per_epoch = math.ceil(split.train.shape[0] / config.batch_size)
    started = time.perf_counter()
    with CallCounter(training, "optimizer_step") as taken:
        result = training.train_density(model, proposal, split.train, split.val, config)
    train_s = time.perf_counter() - started
    out.steps(epochs * steps_per_epoch, epochs * steps_per_epoch - taken.calls)
    out.iter_s += [record.seconds / steps_per_epoch for record in result.history]
    out.figure("train_steps_per_s", taken.calls / train_s)

    b = result.state.b
    started = time.perf_counter()
    report = evaluation.evaluate(model, b, {"test": split.test}, proposal, n_samples=EVAL_DRAWS, seed=seed)
    out.figure("eval_density_s", time.perf_counter() - started)
    out.evaluation()
    test = report.splits[0]
    out.figure("test_l_is", test.l_is)

    out.check(checks.bound_order("density.bound_order", test.l_snl, test.l_is))
    out.check(checks.bound_tight("density.bound_tight", test.l_snl, test.l_is))
    out.check(checks.log_z_matches_quadrature(report.log_z_estimate, test.l_is_se,
                                              checks.quadrature_log_z(model.energy)))
    out.check(checks.above_proposal(test.l_is, split.test))
    out.check(checks.below_generator(test.l_is, checks.checkerboard_log_density(state["raw"].train)))
    out.check(checks.no_skipped_steps(out.skipped_steps))


# -- regression-mdn -----------------------------------------------------------


def regression1_splits(seed: int):
    split = datasets.load_named("regression1", datasets.DEFAULT_REGRESSION_N, seed)
    return (split.train[:, 0], split.train[:, 1]), (split.val[:, 0], split.val[:, 1]), (split.test[:, 0], split.test[:, 1])


def regression_setup(seed: int) -> dict:
    train, val, test = regression1_splits(seed)
    rng = PortableRng(seed)
    model = ConditionalEnergyModel(rng.split("model"))
    return {
        "seed": seed, "train": train, "val": val, "test": test, "model": model,
        "normalizer": NormalizerNet(rng.split("normalizer")),
        "mdn": MdnProposal(FEATURE_WIDTHS[-1], 2, rng.split("proposal-init")),
        "eval_proposal": fit_gaussian(train[1].reshape(-1, 1)),
    }


def regression_run(state: dict, seconds: float, out: Outcome) -> None:
    seed, model, normalizer = state["seed"], state["model"], state["normalizer"]
    train, test = state["train"], state["test"]
    exact = checks.regression1_exact(test[0], test[1], train[1])
    for round_ in range(_units(seconds, REGRESSION_ROUND_S)):
        config = regression.RegressionTrainConfig(
            objective="snl", epochs=REGRESSION_EPOCHS_PER_ROUND, learning_rate=1e-3,
            batch_size=64, samples_per_point=16, seed=seed * 1000 + round_)
        steps_per_epoch = math.ceil(train[0].shape[0] / config.batch_size)
        steps = config.epochs * steps_per_epoch
        started = time.perf_counter()
        # two Adam steps (energy + normaliser, then the MDN) per finite step
        with CallCounter(regression, "adam_step") as adam:
            result = regression.train_regression(model, normalizer, state["mdn"], train, state["val"], config)
        train_s = time.perf_counter() - started
        out.steps(steps, steps - adam.calls // 2)
        out.iter_s += [record.seconds / steps_per_epoch for record in result.history]
        out.figure("train_steps_per_s", adam.calls // 2 / train_s)

        started = time.perf_counter()
        report = regression.eval_regression_l_is(
            model, test, state["eval_proposal"], n_samples=EVAL_DRAWS,
            rng=PortableRng(seed * 1000 + round_).split("evaluate"),
            normalizer_fn=lambda xs: normalizer.values(model.features(xs)))
        out.figure("eval_regression_s", time.perf_counter() - started)
        out.evaluation()
        out.figure("test_l_is", report.l_is)
        out.check(checks.bound_order("regression.bound_order", report.l_snl, report.l_is))
        out.check(checks.regression_level(report.l_is, exact))
        out.check(checks.bound_tight("regression.bound_tight", report.l_snl, report.l_is,
                                     known_fault=TIGHTNESS_FAULT))


# -- eval-20k -----------------------------------------------------------------


def eval_setup(seed: int) -> dict:
    rng = PortableRng(seed)
    _, density = standardised_checkerboard(seed)
    density_model = MlpEnergy(list(DENSITY_WIDTHS), base=StandardGaussian(2), rng=rng.split("model"))
    b = training.init_b(density_model, sample_and_score(StandardGaussian(2), rng.split("init-b"), 1024,
                                                        base=density_model.base))
    train, _, test = regression1_splits(seed)
    model = ConditionalEnergyModel(rng.split("conditional"))
    normalizer = NormalizerNet(rng.split("normalizer"))
    theta_g, theta_b = (float(v) for v in rng.split("oracles").uniform(2, 0.6, 1.2))
    oracle_rng = rng.split("oracle-data")
    gauss_data = (oracle_rng.normal(2000) + theta_g).reshape(-1, 1)
    x_b = oracle_rng.uniform(test[0].shape[0], -1.5, 1.5)
    y_b = oracle_rng.normal(x_b.shape[0]) + 0.3
    return {
        "seed": seed, "density_test": density.test, "density_model": density_model, "b": b,
        "test": test, "model": model, "normalizer": normalizer,
        "eval_proposal": fit_gaussian(train[1].reshape(-1, 1)),
        "gauss_theta": theta_g, "gauss_data": gauss_data,
        "bilinear_theta": theta_b, "bilinear_pairs": (x_b, y_b),
    }


def eval_run(state: dict, seconds: float, out: Outcome) -> None:
    model, normalizer, test = state["model"], state["normalizer"], state["test"]
    gauss = GaussianMeanModel(state["gauss_theta"])
    bilinear = BilinearConditionalModel(state["bilinear_theta"])
    for k in range(_units(seconds, EVAL_SEED_S)):
        eval_seed = state["seed"] * 1000 + k
        started = time.perf_counter()
        report = evaluation.evaluate(state["density_model"], state["b"], {"test": state["density_test"]},
                                     StandardGaussian(2), n_samples=EVAL_DRAWS, seed=eval_seed)
        middle = time.perf_counter()
        conditional = regression.eval_regression_l_is(
            model, test, state["eval_proposal"], n_samples=EVAL_DRAWS,
            rng=PortableRng(eval_seed).split("evaluate"),
            normalizer_fn=lambda xs: normalizer.values(model.features(xs)))
        out.figure("eval_density_s", middle - started)
        out.figure("eval_regression_s", time.perf_counter() - middle)
        oracle = evaluation.evaluate(gauss, 0.5 * state["gauss_theta"] ** 2, {"test": state["gauss_data"]},
                                     StandardGaussian(1), n_samples=EVAL_DRAWS, seed=eval_seed)
        oracle_c = regression.eval_regression_l_is(bilinear, state["bilinear_pairs"], StandardGaussian(1),
                                                   n_samples=EVAL_DRAWS,
                                                   rng=PortableRng(eval_seed).split("evaluate"))
        ys = state["eval_proposal"].sample(PortableRng(eval_seed).split("grid-check"), 256)[:, 0]
        x = test[0][:8]
        grid = model.energy_grid_shared(x, ys)
        pairs = model.energy_pairs(np.repeat(x, ys.size), np.tile(ys, x.size)).reshape(x.size, ys.size)
        out.iter_s.append(time.perf_counter() - started)
        out.evaluation(4)
        out.figure("test_l_is", report.splits[0].l_is)
        out.figure("regression_test_l_is", conditional.l_is)

        out.check(checks.bound_order("density.bound_order", report.splits[0].l_snl, report.splits[0].l_is))
        out.check(checks.bound_order("regression.bound_order", conditional.l_snl, conditional.l_is))
        out.check(checks.grid_matches_pairs(grid, pairs))
        out.check(checks.gaussian_oracle(oracle.log_z_estimate, oracle.splits[0].l_is_se, state["gauss_theta"]))
        out.check(checks.bound_order("oracle.gaussian_bound_order", oracle.splits[0].l_snl, oracle.splits[0].l_is))
        out.check(checks.bilinear_oracle(oracle_c.l_is, oracle_c.l_is_se, state["bilinear_theta"],
                                         *state["bilinear_pairs"]))
        out.check(checks.bound_order("oracle.bilinear_bound_order", oracle_c.l_snl, oracle_c.l_is))


WORKLOADS = {
    "density-snl": (density_setup, density_run),
    "regression-mdn": (regression_setup, regression_run),
    "eval-20k": (eval_setup, eval_run),
}


# -- single dense layers --------------------------------------------------------


def dense_layer_ms(rows: int = 1056, reps: int = 30) -> dict[str, float]:
    """Median ms of forward and backward through each layer of the density net,
    one layer per single-layer ``Mlp`` (ReLU on the hidden ones)."""
    rng = PortableRng(12345)
    out = {}
    widths = DENSITY_WIDTHS
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        layer = Mlp([fan_in, fan_out], rng.split(f"layer-{i}"), relu_output=i < len(widths) - 2)
        x = rng.normal((rows, fan_in))
        cotangent = rng.normal((rows, fan_out))
        forward, backward = [], []
        for _ in range(reps):
            t0 = time.perf_counter()
            _, cache = layer.forward(x)
            t1 = time.perf_counter()
            layer.backward(cache, cotangent)
            t2 = time.perf_counter()
            forward.append(t1 - t0)
            backward.append(t2 - t1)
        out[f"nets.dense{i}_fwd_ms"] = 1e3 * statistics.median(forward)
        out[f"nets.dense{i}_bwd_ms"] = 1e3 * statistics.median(backward)
    return out
