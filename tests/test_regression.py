"""Conditional models: the bilinear oracle, the shared-grid energies,
pointwise normalizer behavior, training, and the evaluation report."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from snl_ebm.datasets import load_named
from snl_ebm.errors import (
    DegenerateProposalError,
    EnergyEvaluationError,
    NonFiniteObjectiveError,
    TrainingDivergedError,
)
from snl_ebm import regression
from snl_ebm.nets import Workspace
from snl_ebm.proposals import FittedGaussian, MdnProposal, StandardGaussian, fit_gaussian
from snl_ebm.regression import (
    FEATURE_WIDTHS,
    HEAD_WIDTHS,
    NORMALIZER_WIDTHS,
    Y_WIDTHS,
    BilinearConditionalModel,
    ConditionalEnergyModel,
    NormalizerNet,
    RegressionTrainConfig,
    _regression_step,
    eval_regression_l_is,
    train_regression,
)
from snl_ebm.objectives import SNL_SHIFT_CAP, step_terms
from snl_ebm.rng import PortableRng
from snl_ebm.training import DIVERGENCE_PATIENCE
from reference import LinearNormalizer, TrainableBilinearModel


def snl_value(energies, b_values, log_z):
    """mean_i [-E_i - b_i - e^{log_z_i - b_i} + 1] through the step kernel,
    with each log_z_i given as a single log weight."""
    e, b, lz = (np.asarray(a, dtype=np.float64) for a in (energies, b_values, log_z))
    return step_terms(-e[:, None], lz[:, None], b)[0]


def mlp_count(widths):
    return sum(a * b + b for a, b in zip(widths[:-1], widths[1:]))


class TestArchitecture:
    def test_declared_widths(self):
        assert FEATURE_WIDTHS == [1, 10, 10, 10]
        assert Y_WIDTHS == [1, 16, 32, 64, 128]
        assert HEAD_WIDTHS == [138, 10, 1]
        assert NORMALIZER_WIDTHS == [10, 10, 1]

    def test_param_count(self):
        model = ConditionalEnergyModel()
        want = mlp_count(FEATURE_WIDTHS) + mlp_count(Y_WIDTHS) + mlp_count(HEAD_WIDTHS)
        assert model.n_params == want == model.theta.size

    def test_theta_roundtrip(self):
        a = ConditionalEnergyModel(PortableRng(0))
        b = ConditionalEnergyModel()
        b.theta = a.theta
        x = np.linspace(-2, 2, 7)
        y = np.linspace(-1, 3, 7)
        np.testing.assert_array_equal(a.energy_pairs(x, y), b.energy_pairs(x, y))
        with pytest.raises(ValueError):
            b.theta = np.zeros(3)

    def test_normalizer_shapes(self):
        norm = NormalizerNet(PortableRng(1))
        model = ConditionalEnergyModel(PortableRng(2))
        h = model.features(np.linspace(-1, 1, 5))
        assert h.shape == (5, 10)
        assert norm.values(h).shape == (5,)
        other = NormalizerNet()
        other.theta = norm.theta
        np.testing.assert_array_equal(other.values(h), norm.values(h))


class TestSharedGrid:
    def test_matches_pairwise_energies(self):
        model = ConditionalEnergyModel(PortableRng(3))
        x = PortableRng(4).normal(9)
        ys = PortableRng(5).normal(13)
        grid = model.energy_grid_shared(x, ys)
        pair = model.energy_pairs(np.repeat(x, ys.size), np.tile(ys, x.size)).reshape(9, 13)
        np.testing.assert_allclose(grid, pair, rtol=1e-12, atol=1e-12)

    def test_per_point_draws_match_pairwise_energies(self):
        model = ConditionalEnergyModel(PortableRng(3))
        x = PortableRng(4).normal(9)
        ys = PortableRng(5).normal((9, 13))
        grid = model.energy_grid_shared(x, ys)
        pair = model.energy_pairs(np.repeat(x, 13), ys.ravel()).reshape(9, 13)
        np.testing.assert_allclose(grid, pair, rtol=1e-12, atol=1e-12)

    def test_bilinear_grid_takes_both_layouts(self):
        m = BilinearConditionalModel(theta=0.7)
        x = PortableRng(4).normal(5)
        ys = PortableRng(5).normal(6)
        shared = m.energy_grid_shared(x, ys)
        np.testing.assert_array_equal(shared, m.energy_grid_shared(x, np.tile(ys, (5, 1))))
        np.testing.assert_allclose(shared[2], m.energy_pairs(np.full(6, x[2]), ys), rtol=1e-15)

    @staticmethod
    def grids_at_two_chunk_sizes(monkeypatch, ys):
        model = ConditionalEnergyModel(PortableRng(6))
        x = PortableRng(7).normal(10)
        monkeypatch.setattr(regression, "GRID_CELLS", 3 * ys.shape[-1])
        a = model.energy_grid_shared(x, ys)
        monkeypatch.setattr(regression, "GRID_CELLS", 1000 * ys.shape[-1])
        return a, model.energy_grid_shared(x, ys)

    def test_chunking_is_invisible(self, monkeypatch):
        a, b = self.grids_at_two_chunk_sizes(monkeypatch, PortableRng(8).normal(21))
        np.testing.assert_array_equal(a, b)

    def test_chunking_is_invisible_for_per_point_draws(self, monkeypatch):
        a, b = self.grids_at_two_chunk_sizes(monkeypatch, PortableRng(8).normal((10, 21)))
        np.testing.assert_array_equal(a, b)


class TestBilinearOracle:
    def test_energy_and_normalizer(self):
        m = BilinearConditionalModel(theta=2.0)
        np.testing.assert_array_equal(m.energy_pairs(np.array([1.0]), np.array([2.0])), [-4.0])
        np.testing.assert_array_equal(m.exact_log_z(np.array([1.0])), [2.0])

    def test_snl_value_at_matched_b(self):
        # -e - b - e^{log z - b} + 1 = 4 - 2 - 1 + 1 = 2
        assert snl_value([-4.0], [2.0], [2.0]) == 2.0

    def test_zero_parameter_likelihood_is_zero(self):
        m = BilinearConditionalModel(theta=0.0)
        x = PortableRng(9).normal(20)
        y = PortableRng(10).normal(20)
        assert m.exact_conditional_log_likelihood(x, y) == 0.0

    def test_pointwise_b_maximum_recovers_likelihood(self):
        m = BilinearConditionalModel(theta=1.5)
        x = np.array([0.3, -1.2, 2.0])
        y = np.array([0.5, 0.1, -0.4])
        e = m.energy_pairs(x, y)
        lz = m.exact_log_z(x)
        b_grid = np.linspace(-1.0, 6.0, 14001)
        per_point_max = np.empty(3)
        arg = np.empty(3)
        for i in range(3):
            vals = -e[i] - b_grid - np.exp(lz[i] - b_grid) + 1.0
            j = int(np.argmax(vals))
            per_point_max[i] = vals[j]
            arg[i] = b_grid[j]
        np.testing.assert_allclose(arg, lz, atol=1e-3)
        want = m.exact_conditional_log_likelihood(x, y)
        assert float(per_point_max.mean()) == pytest.approx(want, abs=1e-6)

    def test_objective_lower_bounds_likelihood(self):
        m = BilinearConditionalModel(theta=0.8)
        x = PortableRng(11).normal(40)
        y = PortableRng(12).normal(40)
        e = m.energy_pairs(x, y)
        lz = m.exact_log_z(x)
        ll = m.exact_conditional_log_likelihood(x, y)
        rng = PortableRng(13)
        for _ in range(20):
            b = rng.normal(40) * 2.0
            assert snl_value(e, b, lz) <= ll + 1e-12
        assert snl_value(e, lz, lz) == pytest.approx(ll, abs=1e-12)


def run_step(model, normalizer, x, y, ys, log_q, log_q_data, objective, nu):
    """_regression_step with the feature pass the training loop makes."""
    h, features_vjp = model.features_vjp_prepared(x)
    return _regression_step(model, normalizer, h, features_vjp, y, ys, log_q, log_q_data, objective, nu)


def step_inputs(family, with_normalizer):
    """(model, normalizer or None): the network pair, or the trainable
    oracle with a linear normalizer, both away from their optimum."""
    if family == "net":
        rng = PortableRng(14)
        return ConditionalEnergyModel(rng.split("model")), NormalizerNet(rng.split("norm")) if with_normalizer else None
    model = TrainableBilinearModel(0.7)
    model.carrier = FittedGaussian([0.3], [[2.25]])
    return model, LinearNormalizer([0.2, -0.1, 0.4]) if with_normalizer else None


class TestStepGradients:
    @pytest.mark.parametrize("objective", ["snl", "nce"])
    @pytest.mark.parametrize("family, with_normalizer", [("net", True), ("net", False), ("oracle", True),
                                                         ("oracle", False)],
                             ids=["True", "False", "oracle-True", "oracle-False"])
    def test_against_finite_differences(self, objective, family, with_normalizer):
        model, normalizer = step_inputs(family, with_normalizer)
        n, m = 5, 3
        x = PortableRng(15).normal(n)
        y = PortableRng(16).normal(n)
        ys = PortableRng(17).normal((n, m))
        log_q = StandardGaussian(1).log_density(ys.reshape(-1, 1)).reshape(n, m)
        log_q_data = StandardGaussian(1).log_density(y.reshape(-1, 1))

        def params():
            parts = [model.theta]
            if normalizer is not None:
                parts.append(normalizer.theta)
            return np.concatenate(parts)

        def set_params(flat):
            model.theta = flat[: model.n_params]
            if normalizer is not None:
                normalizer.theta = flat[model.n_params :]

        def value_at(flat):
            set_params(flat)
            v, _, _ = run_step(model, normalizer, x, y, ys, log_q, log_q_data, objective, 2.0)
            return v

        theta0 = params()
        _, grad, _ = run_step(model, normalizer, x, y, ys, log_q, log_q_data, objective, 2.0)
        assert grad.shape == theta0.shape
        step = 1e-6
        for i in range(0, theta0.size, 97 if family == "net" else 1):  # spread spot-checks across all nets
            up = theta0.copy()
            up[i] += step
            down = theta0.copy()
            down[i] -= step
            fd = (value_at(up) - value_at(down)) / (2 * step)
            assert grad[i] == pytest.approx(fd, rel=2e-5, abs=1e-9), f"coordinate {i}"
        set_params(theta0)

    def test_oracle_d_h_against_finite_differences(self):
        # the oracle's features have no parameters, so the step's gradient never reads its d_h
        model, normalizer = step_inputs("oracle", True)
        h = model.features(PortableRng(15).normal(5))
        y, ys = PortableRng(16).normal(5), PortableRng(17).normal((5, 3))
        d_data, d_samples, d_b = PortableRng(18).normal(5), PortableRng(19).normal((5, 3)), PortableRng(20).normal(5)

        def value_at(h):
            e_data, e_samp, _ = model.energy_vjp_prepared(h, y, ys)
            return d_data @ e_data + np.sum(d_samples * e_samp) + d_b @ normalizer.values(h)

        energy_vjp, normalizer_vjp = model.energy_vjp_prepared(h, y, ys)[2], normalizer.values_vjp_prepared(h)[1]
        got = energy_vjp(d_data, d_samples)[1] + normalizer_vjp(d_b)[1]
        for index in np.ndindex(*h.shape):
            up, down = h.copy(), h.copy()
            up[index] += 1e-6
            down[index] -= 1e-6
            assert got[index] == pytest.approx((value_at(up) - value_at(down)) / 2e-6, rel=1e-6, abs=1e-8), index

    @pytest.mark.parametrize("objective", ["snl", "nce"])
    def test_workspace_changes_no_bits(self, objective):
        rng = PortableRng(22)
        model = ConditionalEnergyModel(rng.split("model"))
        normalizer = NormalizerNet(rng.split("norm"))
        workspace = Workspace()
        for seed in (23, 24):  # the second step reuses the first step's arrays
            x, y = PortableRng(seed).normal(6), PortableRng(seed + 10).normal(6)
            ys = PortableRng(seed + 20).normal((6, 4))
            log_q = StandardGaussian(1).log_density(ys.reshape(-1, 1)).reshape(6, 4)
            log_q_data = StandardGaussian(1).log_density(y.reshape(-1, 1))
            want = run_step(model, normalizer, x, y, ys, log_q, log_q_data, objective, 2.0)
            h, features_vjp = model.features_vjp_prepared(x, workspace)
            got = _regression_step(model, normalizer, h, features_vjp, y, ys, log_q, log_q_data, objective, 2.0,
                                   workspace)
            assert got[0] == want[0] and got[2] == want[2]
            np.testing.assert_array_equal(got[1], want[1])

    def test_nce_rejects_nonpositive_nu(self):
        model = ConditionalEnergyModel(PortableRng(18))
        x = np.zeros(2)
        y = np.zeros(2)
        ys = np.zeros((2, 2))
        log_q = np.zeros((2, 2))
        with pytest.raises(ValueError):
            run_step(model, None, x, y, ys, log_q, np.zeros(2), "nce", -2.0)

    def test_diagnostics_report_min_weight_not_log_weight(self):
        model = ConditionalEnergyModel(PortableRng(18))
        x = PortableRng(19).normal(4)
        y = PortableRng(20).normal(4)
        ys = PortableRng(21).normal((4, 3))
        log_q = StandardGaussian(1).log_density(ys.reshape(-1, 1)).reshape(4, 3)
        model.carrier = FittedGaussian([0.3], [[2.25]])
        log_c = model.carrier.log_density(ys.reshape(-1, 1)).reshape(4, 3)
        _, _, (max_energy, min_weight) = run_step(model, None, x, y, ys, log_q, None, "snl", None)
        e_samp = model.energy_grid_shared(x, ys)
        assert max_energy == pytest.approx(float(np.max(e_samp)), rel=1e-12)
        assert min_weight == pytest.approx(float(np.exp(np.min(-e_samp + log_c - log_q))), rel=1e-12)


class TestTrainRegression:
    @staticmethod
    def toy_pairs(seed, n):
        rng = PortableRng(seed)
        x = rng.uniform(n, -2.0, 2.0)
        y = np.sin(x) + 0.3 * rng.normal(n)
        return x, y

    @staticmethod
    def config(**kw):
        base = dict(epochs=2, learning_rate=2e-3, batch_size=64, samples_per_point=8, seed=0)
        base.update(kw)
        return RegressionTrainConfig(**base)

    def test_zero_epochs_leave_parameters_untouched(self):
        model = ConditionalEnergyModel(PortableRng(19))
        norm = NormalizerNet(PortableRng(20))
        before_theta, before_phi = model.theta, norm.theta
        x, y = self.toy_pairs(21, 64)
        result = train_regression(model, norm, fit_gaussian(y.reshape(-1, 1)), (x, y), (x[:16], y[:16]), self.config(epochs=0))
        assert result.history == []
        np.testing.assert_array_equal(result.best_theta, before_theta)
        np.testing.assert_array_equal(result.best_phi, before_phi)
        np.testing.assert_array_equal(model.theta, before_theta)

    def test_deterministic_given_seed(self):
        x, y = self.toy_pairs(22, 128)

        def run():
            model = ConditionalEnergyModel(PortableRng(23))
            norm = NormalizerNet(PortableRng(24))
            res = train_regression(model, norm, fit_gaussian(y.reshape(-1, 1)), (x, y), (x[:32], y[:32]), self.config())
            return [r.train_objective for r in res.history], model.theta

        (hist_a, theta_a), (hist_b, theta_b) = run(), run()
        assert hist_a == hist_b
        np.testing.assert_array_equal(theta_a, theta_b)

    def test_history_one_based_and_best_tracked(self):
        x, y = self.toy_pairs(25, 96)
        model = ConditionalEnergyModel(PortableRng(26))
        norm = NormalizerNet(PortableRng(27))
        result = train_regression(model, norm, fit_gaussian(y.reshape(-1, 1)), (x, y), (x[:24], y[:24]), self.config(epochs=4))
        assert [r.epoch for r in result.history] == [1, 2, 3, 4]
        vals = [r.val_snl for r in result.history]
        assert result.best_epoch == int(np.argmax(vals)) + 1

    def test_objective_improves_on_toy_data(self):
        x, y = self.toy_pairs(28, 512)
        model = ConditionalEnergyModel(PortableRng(29))
        norm = NormalizerNet(PortableRng(30))
        result = train_regression(
            model, norm, fit_gaussian(y.reshape(-1, 1)), (x, y), (x[:64], y[:64]),
            self.config(epochs=10, learning_rate=3e-3),
        )
        assert result.history[-1].train_objective > result.history[0].train_objective

    def test_mdn_proposal_path(self):
        x, y = self.toy_pairs(31, 96)
        model = ConditionalEnergyModel(PortableRng(32))
        mdn = MdnProposal(FEATURE_WIDTHS[-1], 2, PortableRng(33))
        before = mdn.theta.copy()
        result = train_regression(model, None, mdn, (x, y), (x[:24], y[:24]), self.config(epochs=1))
        assert len(result.history) == 1
        assert not np.array_equal(mdn.theta, before)  # interleaved refit moved it

    def test_nce_objective_path(self):
        x, y = self.toy_pairs(34, 96)
        model = ConditionalEnergyModel(PortableRng(35))
        result = train_regression(
            model, None, fit_gaussian(y.reshape(-1, 1)), (x, y), (x[:24], y[:24]),
            self.config(objective="nce", epochs=2),
        )
        assert all(np.isfinite(r.train_objective) for r in result.history)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trained_bounds_meet_in_the_carrier_measure(self, seed):
        # b_phi learns log Z(x) in the measure the evaluation reports, so at
        # the SNL optimum the two bounds meet
        split = load_named("regression1", 600, seed)
        x_tr, y_tr = split.train[:, 0], split.train[:, 1]
        rng = PortableRng(seed)
        model, norm = ConditionalEnergyModel(rng.split("model")), NormalizerNet(rng.split("normalizer"))
        mdn = MdnProposal(FEATURE_WIDTHS[-1], 2, rng.split("proposal-init"))
        train_regression(model, norm, mdn, (x_tr, y_tr), (split.val[:, 0], split.val[:, 1]),
                         RegressionTrainConfig(epochs=20, seed=seed))
        report = eval_regression_l_is(model, (split.test[:, 0], split.test[:, 1]), fit_gaussian(y_tr.reshape(-1, 1)),
                                      n_samples=5000, rng=PortableRng(seed).split("evaluate"),
                                      normalizer_fn=lambda xs: norm.values(model.features(xs)))
        assert report.l_is - report.l_snl < 0.02

    def test_carrier_is_the_gaussian_fitted_to_the_responses(self):
        x, y = self.toy_pairs(34, 64)
        model = ConditionalEnergyModel(PortableRng(35))
        assert model.carrier is None
        train_regression(model, None, StandardGaussian(1), (x, y), (x[:16], y[:16]), self.config(epochs=0))
        assert model.carrier.descriptor() == fit_gaussian(y.reshape(-1, 1)).descriptor()
        with pytest.raises(DegenerateProposalError):
            train_regression(model, None, StandardGaussian(1), (x, np.full(64, 0.5)), (x[:16], y[:16]),
                             self.config(epochs=0))

    def test_divergence_guard(self):
        x, y = self.toy_pairs(36, 128)
        model = ConditionalEnergyModel(PortableRng(37))
        model.theta = np.full(model.n_params, np.nan)
        with pytest.raises(TrainingDivergedError) as err:
            train_regression(model, None, fit_gaussian(y.reshape(-1, 1)), (x, y), (x[:32], y[:32]), self.config(epochs=1, batch_size=16))
        assert err.value.step == DIVERGENCE_PATIENCE

    def test_step_error_counts_as_one_skipped_step(self, monkeypatch):
        x, y = self.toy_pairs(41, 48)
        step, adam = regression._regression_step, regression.adam_step
        calls = {"step": 0, "adam": 0}

        def failing_second(*args, **kwargs):
            calls["step"] += 1
            if calls["step"] == 2:
                raise NonFiniteObjectiveError("data", float("nan"))
            return step(*args, **kwargs)

        def counted_adam(*args, **kwargs):
            calls["adam"] += 1
            return adam(*args, **kwargs)

        monkeypatch.setattr(regression, "_regression_step", failing_second)
        monkeypatch.setattr(regression, "adam_step", counted_adam)
        model = ConditionalEnergyModel(PortableRng(42))
        mdn = MdnProposal(FEATURE_WIDTHS[-1], 2, PortableRng(43))
        result = train_regression(model, NormalizerNet(PortableRng(44)), mdn, (x, y), (x[:8], y[:8]),
                                  self.config(epochs=2, batch_size=16))
        assert calls == {"step": 6, "adam": 2 * 5}  # energy and MDN steps for each of 5 taken steps
        assert len(result.history) == 2

    def test_validate_rejects_bad_configs(self):
        bad = (
            dict(objective="mle"),
            dict(epochs=-1),
            dict(batch_size=0),
            dict(samples_per_point=0),
            dict(learning_rate=0.0),
            dict(learning_rate=-1.0),
            dict(mdn_learning_rate=-1e-3),
            dict(nce_nu=0.0),
        )
        for kw in bad:
            with pytest.raises(ValueError):
                RegressionTrainConfig(**kw).validate()


class TestEvalRegression:
    def test_zero_model_scores_exactly_zero(self):
        m = BilinearConditionalModel(theta=0.0)
        x = PortableRng(38).normal(30)
        y = PortableRng(39).normal(30)
        report = eval_regression_l_is(m, (x, y), StandardGaussian(1), n_samples=500, rng=PortableRng(40))
        assert report.l_is == 0.0
        assert report.l_snl == 0.0
        assert report.l_is_se == 0.0
        assert not report.unnormalized

    def test_recovers_bilinear_likelihood_with_carrier_proposal(self):
        # q equal to the carrier: every draw's measure term is exactly 0
        m = BilinearConditionalModel(theta=1.0)
        rng = PortableRng(41)
        x = rng.uniform(50, -1.5, 1.5)
        y = rng.normal(50) * 1.0 + 0.5 * x  # arbitrary pairs, only the estimator matters
        report = eval_regression_l_is(m, (x, y), StandardGaussian(1), n_samples=200_000, rng=PortableRng(42))
        want = m.exact_conditional_log_likelihood(x, y)
        assert report.l_is == pytest.approx(want, abs=0.01)
        assert report.l_snl <= report.l_is

    def test_measure_belongs_to_the_model(self):
        # a proposal that is not the carrier: the weights divide it out
        # again, so the value stays relative to the N(0, 1) carrier
        m = BilinearConditionalModel(theta=1.0)
        rng = PortableRng(41)
        x = rng.uniform(50, -1.5, 1.5)
        y = rng.normal(50) * 1.0 + 0.5 * x
        report = eval_regression_l_is(m, (x, y), FittedGaussian([0.3], [[2.25]]), n_samples=200_000,
                                      rng=PortableRng(42))
        want = m.exact_conditional_log_likelihood(x, y)
        assert abs(report.l_is - want) < 5.0 * report.l_is_se

    def test_rejects_a_proposal_that_is_not_one_dimensional(self):
        with pytest.raises(ValueError, match=re.escape("drew shape (100, 2); the evaluation needs (100, 1)")):
            eval_regression_l_is(BilinearConditionalModel(0.5), (np.zeros(3), np.zeros(3)), StandardGaussian(2),
                                 n_samples=100, rng=PortableRng(0))

    def test_sandwich_and_errors_finite(self):
        m = BilinearConditionalModel(theta=1.3)
        x = PortableRng(43).normal(20)
        y = PortableRng(44).normal(20)
        report = eval_regression_l_is(m, (x, y), StandardGaussian(1), n_samples=4000, rng=PortableRng(45))
        assert report.l_snl <= report.l_is
        assert np.isfinite(report.l_is_se) and report.l_is_se > 0
        assert np.isfinite(report.l_snl_se) and report.l_snl_se > 0
        assert report.n_points == 20 and report.n_samples == 4000

    def test_b_cancels_in_log_form(self):
        m = BilinearConditionalModel(theta=0.7)
        x = PortableRng(46).normal(15)
        y = PortableRng(47).normal(15)
        plain = eval_regression_l_is(m, (x, y), StandardGaussian(1), n_samples=1000, rng=PortableRng(48))
        shifted = eval_regression_l_is(
            m, (x, y), StandardGaussian(1), n_samples=1000, rng=PortableRng(48),
            normalizer_fn=lambda xs: np.full(xs.shape[0], 3.0),
        )
        assert shifted.l_is == pytest.approx(plain.l_is, rel=1e-12)
        assert shifted.l_snl < plain.l_snl  # the linear form does depend on b

    def test_unnormalized_flag_and_report_line(self):
        m = BilinearConditionalModel(theta=0.5)
        x = PortableRng(49).normal(10)
        y = PortableRng(50).normal(10)
        report = eval_regression_l_is(
            m, (x, y), StandardGaussian(1), n_samples=500, rng=PortableRng(51),
            normalizer_fn=lambda xs: np.full(xs.shape[0], 100.0),
        )
        assert report.unnormalized
        assert any(line.startswith("UNNORMALIZED") for line in report.lines())

    def test_one_draw_gives_zero_standard_errors(self):
        # as evaluation.evaluate does: one draw has no spread, and no
        # degrees-of-freedom warning is raised
        m = BilinearConditionalModel(theta=0.8)
        x = PortableRng(53).normal(6)
        y = PortableRng(54).normal(6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = eval_regression_l_is(m, (x, y), StandardGaussian(1), n_samples=1, rng=PortableRng(55))
        assert report.l_is_se == 0.0 and report.l_snl_se == 0.0
        assert np.isfinite(report.l_is) and np.isfinite(report.l_snl)
        assert report.n_samples == 1

    @pytest.mark.parametrize("b", [-650.0, -800.0])
    def test_overflowing_normalizer_term(self, b):
        # past SNL_SHIFT_CAP the l_snl error is nan; where e^{log Z_hat - b}
        # overflows l_snl is -inf; l_is is unaffected and nothing warns
        m = BilinearConditionalModel(theta=1.0)
        x = PortableRng(57).normal(8)
        y = PortableRng(58).normal(8)
        ref = eval_regression_l_is(m, (x, y), StandardGaussian(1), n_samples=300, rng=PortableRng(59))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = eval_regression_l_is(m, (x, y), StandardGaussian(1), n_samples=300, rng=PortableRng(59),
                                          normalizer_fn=lambda xs: np.full(xs.shape[0], b))
        assert -b > SNL_SHIFT_CAP
        assert report.l_is == pytest.approx(ref.l_is, rel=1e-12)
        assert report.l_is_se == ref.l_is_se
        assert np.isnan(report.l_snl_se)
        if b == -800.0:
            assert report.l_snl == -np.inf
        else:
            assert np.isfinite(report.l_snl) and report.l_snl < -1e280

    def test_empty_pairs_rejected(self):
        m = BilinearConditionalModel(theta=0.8)
        with pytest.raises(ValueError, match="pairs are empty"):
            eval_regression_l_is(m, (np.empty(0), np.empty(0)), StandardGaussian(1), n_samples=10,
                                 rng=PortableRng(56))

    @pytest.mark.parametrize("shape", [(5, 1), (4,), ()])
    def test_misshapen_normalizer_result_rejected(self, shape):
        m = BilinearConditionalModel(theta=0.8)
        x = PortableRng(61).normal(5)
        y = PortableRng(62).normal(5)
        with pytest.raises(ValueError, match=re.escape(f"must return shape (5,), one b per point, got {shape}")):
            eval_regression_l_is(m, (x, y), StandardGaussian(1), n_samples=10, rng=PortableRng(63),
                                 normalizer_fn=lambda xs: np.zeros(shape))

    def test_report_lines_contain_all_fields(self):
        m = BilinearConditionalModel(theta=0.0)
        report = eval_regression_l_is(m, (np.zeros(3), np.zeros(3)), StandardGaussian(1), n_samples=100, rng=PortableRng(52))
        keys = {line.split()[0] for line in report.lines()}
        assert {"l_is", "l_is_se", "l_snl", "l_snl_se", "n_points", "n_samples"} <= keys


class FixedDraws:
    """A proposal stub whose draws are given up front."""

    def __init__(self, ys):
        self.ys = np.asarray(ys, dtype=np.float64)

    def sample(self, rng, n):
        return self.ys[:n].reshape(-1, 1)

    def log_density(self, ys):
        return np.zeros(len(ys))


def dense_reference(model, x, y, ys, b_vals, log_measure=0.0):
    """(l_is, l_is_se, l_snl, l_snl_se) by the full-grid formulas: the (n, m)
    grid from energy_pairs on the expanded pairs, plus ``log_measure`` per
    draw, and scipy's logsumexp."""
    n, m = x.size, ys.size
    e_data = model.energy_pairs(x, y)
    logw = log_measure - model.energy_pairs(np.repeat(x, m), np.tile(ys, n)).reshape(n, m)
    log_zq = logsumexp(logw, axis=1) - np.log(m)
    gap = log_zq - b_vals
    l_is = float(np.mean(-e_data - b_vals - gap))
    l_snl = float(np.mean(-e_data - b_vals - np.exp(gap) + 1.0))
    v_is = np.exp(logw - log_zq[:, None]).mean(axis=0)
    shifted = logw - b_vals[:, None]
    l_is_se = float(np.std(v_is, ddof=1) / np.sqrt(m))
    if np.max(shifted) < 600.0:
        l_snl_se = float(np.std(np.exp(shifted).mean(axis=0), ddof=1) / np.sqrt(m))
    else:
        l_snl_se = float("nan")
    return l_is, l_is_se, l_snl, l_snl_se


def report_values(report):
    return report.l_is, report.l_is_se, report.l_snl, report.l_snl_se


def sharp_conditional_model(seed):
    """A random ConditionalEnergyModel with its energies scaled up, so that
    the weights are far from uniform and the bounds far from zero."""
    model = ConditionalEnergyModel(PortableRng(seed))
    model.head.weights[1][...] = model.head.weights[1] * 100.0
    return model


class TestStreamedEval:
    N_SAMPLES = 3000

    def evaluate(self, model, x, y, normalizer_fn=None, proposal=None):
        proposal = proposal if proposal is not None else StandardGaussian(1)
        return eval_regression_l_is(model, (x, y), proposal, n_samples=self.N_SAMPLES,
                                    rng=PortableRng(60), normalizer_fn=normalizer_fn)

    def draws(self):
        return StandardGaussian(1).sample(PortableRng(60), self.N_SAMPLES).reshape(-1)

    def cases(self):
        x = PortableRng(61).normal(37)
        y = PortableRng(62).normal(37)
        model = sharp_conditional_model(63)
        norm = NormalizerNet(PortableRng(64))
        yield "conditional", model, x, y, None
        yield "conditional+normalizer", model, x, y, lambda xs: norm.values(model.features(xs))
        yield "bilinear", BilinearConditionalModel(theta=1.3), x, y, lambda xs: 0.3 * xs

    def test_matches_dense_reference(self):
        ys = self.draws()
        for name, model, x, y, normalizer_fn in self.cases():
            b_vals = normalizer_fn(x) if normalizer_fn is not None else np.zeros(x.size)
            # the untrained conditional model has no carrier: Lebesgue weights e^{-E} / q
            log_measure = -StandardGaussian(1).log_density(ys[:, None]) if model.carrier is None else 0.0
            want = dense_reference(model, x, y, ys, b_vals, log_measure)
            got = report_values(self.evaluate(model, x, y, normalizer_fn))
            assert abs(want[0]) > 0.05 and abs(want[2]) > 0.05, name  # far from the trivial zero
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=name)

    def test_block_size_is_invisible(self, monkeypatch):
        for name, model, x, y, normalizer_fn in self.cases():
            reports = []
            for cells in (1, 5 * self.N_SAMPLES, 10**9):  # one point, five points, every point per block
                monkeypatch.setattr(regression, "GRID_CELLS", cells)
                reports.append(self.evaluate(model, x, y, normalizer_fn))
            for other in reports[1:]:
                assert (other.l_is, other.l_snl) == (reports[0].l_is, reports[0].l_snl), name
                np.testing.assert_allclose([other.l_is_se, other.l_snl_se],
                                           [reports[0].l_is_se, reports[0].l_snl_se], rtol=1e-12, err_msg=name)

    def test_overflow_guard_when_only_the_last_block_crosses(self, monkeypatch):
        monkeypatch.setattr(regression, "GRID_CELLS", 1)  # one point per block
        model = BilinearConditionalModel(theta=0.8)
        x = PortableRng(65).normal(6)
        y = PortableRng(66).normal(6)
        b_vals = np.zeros(6)
        b_vals[-1] = -700.0  # log w - b > 600 on the last point only

        report = self.evaluate(model, x, y, normalizer_fn=lambda xs: b_vals)
        want = dense_reference(model, x, y, self.draws(), b_vals)
        assert np.isnan(report.l_snl_se) and np.isnan(want[3])
        np.testing.assert_allclose(report_values(report)[:3], want[:3], rtol=1e-12)
        head = self.evaluate(model, x[:-1], y[:-1], normalizer_fn=lambda xs: b_vals[:-1])
        assert np.isfinite(head.l_snl_se)

    def test_peak_memory_stays_below_one_grid(self):
        n, m = 400, 20000
        model = ConditionalEnergyModel(PortableRng(67))
        x = PortableRng(68).normal(n)
        y = PortableRng(69).normal(n)
        tracemalloc.start()
        try:
            eval_regression_l_is(model, (x, y), StandardGaussian(1), n_samples=m, rng=PortableRng(70))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * m * 8  # one (n, m) float64 grid

    def test_nonfinite_data_energy_raises(self):
        model = ConditionalEnergyModel(PortableRng(71))
        model.theta = np.full(model.n_params, np.nan)
        with pytest.raises(EnergyEvaluationError) as err:
            self.evaluate(model, np.zeros(4), np.zeros(4))
        assert "data point" in str(err.value)

    def test_nonfinite_grid_energy_raises_in_its_block(self, monkeypatch):
        monkeypatch.setattr(regression, "GRID_CELLS", 1)  # one point per block
        ys = PortableRng(72).normal(self.N_SAMPLES)
        ys[17] = 1e308
        x = np.array([0.5, 0.5, 10.0])  # E = -theta x y overflows on the last point only
        with pytest.raises(EnergyEvaluationError) as err, np.errstate(over="ignore"):
            self.evaluate(BilinearConditionalModel(theta=1.0), x, np.zeros(3), proposal=FixedDraws(ys))
        assert err.value.index == 2 * self.N_SAMPLES + 17
        assert "grid cell" in str(err.value)

    def test_rejects_no_samples(self):
        model = BilinearConditionalModel()
        for bad in (0, -3):
            with pytest.raises(ValueError, match="n_samples"):
                eval_regression_l_is(model, (np.zeros(3), np.zeros(3)), StandardGaussian(1), n_samples=bad,
                                     rng=PortableRng(0))

    def test_rejects_mismatched_pairs(self):
        with pytest.raises(ValueError, match="3 and 4"):
            eval_regression_l_is(BilinearConditionalModel(), (np.zeros(3), np.zeros(4)), StandardGaussian(1),
                                 n_samples=10, rng=PortableRng(0))


def counting(monkeypatch, net):
    """Count calls of one net's forward for the rest of the test."""
    calls = []
    original = net.forward

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(net, "forward", counted)
    return calls


class TestForwardPasses:
    def test_mdn_heads_and_features_run_once_per_step_and_validation(self, monkeypatch):
        x, y = TestTrainRegression.toy_pairs(73, 96)  # two steps at batch size 64
        model = ConditionalEnergyModel(PortableRng(74))
        mdn = MdnProposal(FEATURE_WIDTHS[-1], 2, PortableRng(75))
        heads = [counting(monkeypatch, net) for net in (mdn.pi_net, mdn.mu_net, mdn.scale_net)]
        features = counting(monkeypatch, model.feature_net)
        for objective in ("snl", "nce"):
            for calls in heads + [features]:
                calls.clear()
            train_regression(model, NormalizerNet(PortableRng(76)), mdn, (x, y), (x[:24], y[:24]),
                             TestTrainRegression.config(epochs=1, objective=objective))
            assert [len(calls) for calls in heads] == [3, 3, 3], objective  # 2 steps + 1 validation
            assert len(features) == 3, objective

    def test_validation_snl_matches_pairwise_reference(self):
        model = ConditionalEnergyModel(PortableRng(77))
        norm = NormalizerNet(PortableRng(78))
        x = PortableRng(79).normal(11)
        y = PortableRng(80).normal(11)
        proposal = fit_gaussian(y.reshape(-1, 1))
        got = regression.validation_snl(model, norm, proposal, x, y, 7, PortableRng(81))
        ys = proposal.sample(PortableRng(81), 11 * 7).reshape(11, 7)
        log_q = proposal.log_density(ys.reshape(-1, 1)).reshape(11, 7)
        e_samp = model.energy_pairs(np.repeat(x, 7), ys.ravel()).reshape(11, 7)
        log_z = np.log(np.mean(np.exp(-e_samp - log_q), axis=1))
        want = snl_value(model.energy_pairs(x, y), norm.values(model.features(x)), log_z)
        assert got == pytest.approx(want, rel=1e-12)
