"""Optimizers, b initialization, the fused step, and the training loop."""

import numpy as np
import pytest

from snl_ebm import regression, training
from snl_ebm.errors import NonFiniteObjectiveError, TrainingDivergedError
from snl_ebm.datasets import fit_standardizer, load_named
from snl_ebm.models import DENSITY_WIDTHS, GaussianMeanModel, MlpEnergy
from snl_ebm.nets import Workspace
from snl_ebm.objectives import divergence_diagnostics, estimate_z, log_weights, step_terms
from snl_ebm.optim import AdamState, adam_step, check_finite_gradient, sgd_step
from snl_ebm.proposals import MdnProposal, StandardGaussian, fit_gaussian, sample_and_score
from snl_ebm.regression import (
    FEATURE_WIDTHS,
    ConditionalEnergyModel,
    NormalizerNet,
    RegressionTrainConfig,
    train_regression,
)
from snl_ebm.rng import PortableRng
from snl_ebm.training import (
    DIVERGENCE_PATIENCE,
    STEP_DTYPE,
    SnlState,
    TrainConfig,
    fused_step,
    init_b,
    optimizer_step,
    train_density,
)
from reference import BinaryCubeModel, ExhaustiveCube, UniformCube, nce_gradients, nce_objective, snl_gradients, snl_objective


class TestOptim:
    def test_sgd_step_is_scaled_gradient(self):
        params = np.array([1.0, 1.0])
        assert sgd_step(params, np.array([1.0, -2.0]), 0.1) is None
        np.testing.assert_array_equal(params, [1.1, 0.8])

    def test_adam_first_step_magnitude_is_lr(self):
        # bias correction makes |step_1| = lr |g| / (|g| + eps) ~= lr
        state = AdamState.fresh(3)
        g = np.array([5.0, -0.3, 1e-3])
        step = np.zeros(3)
        adam_step(step, g, state, lr=0.01)
        np.testing.assert_allclose(step, 0.01 * np.sign(g), rtol=1e-4)

    def test_adam_first_step_exact_formula(self):
        g = np.array([2.0])
        step = np.zeros(1)
        adam_step(step, g, AdamState.fresh(1), lr=0.5)
        want = 0.5 * 2.0 / (2.0 + 1e-8)
        assert step[0] == pytest.approx(want, rel=1e-15)

    def test_adam_state_advances(self):
        state = AdamState.fresh(1)
        g = np.array([1.0])
        adam_step(np.zeros(1), g, state, 0.1)
        adam_step(np.zeros(1), g, state, 0.1)
        assert state.t == 2
        assert state.m[0] == pytest.approx(1.0 - 0.9**2, rel=1e-12)

    def test_nonfinite_gradient_names_coordinate(self):
        with pytest.raises(ValueError, match="coordinate 1"):
            check_finite_gradient(np.array([0.0, np.nan, 1.0]))
        params = np.zeros(1)
        with pytest.raises(ValueError):
            sgd_step(params, np.array([np.inf]), 0.1)
        with pytest.raises(ValueError):
            adam_step(params, np.array([np.nan]), AdamState.fresh(1), 0.1)
        assert params[0] == 0.0

    def test_optimizer_step_dispatch(self):
        params = np.zeros(2)
        grad = np.ones(2)
        state = AdamState.fresh(2)
        assert optimizer_step(params, grad, 0.1, "sgd", state) is None
        np.testing.assert_array_equal(params, [0.1, 0.1])
        assert state.t == 0
        assert optimizer_step(params, grad, 0.1, "adam", state) is None
        assert state.t == 1
        with pytest.raises(ValueError):
            optimizer_step(params, grad, 0.1, "lbfgs", state)


class TestInitB:
    def test_zero_parameter_gives_zero(self):
        m = GaussianMeanModel(0.0)
        batch = sample_and_score(StandardGaussian(1), PortableRng(0), 500, base=m.base)
        assert init_b(m, batch) == 0.0

    def test_matches_log_z_for_large_batches(self):
        m = GaussianMeanModel(1.0)
        batch = sample_and_score(StandardGaussian(1), PortableRng(1), 400_000, base=m.base)
        assert init_b(m, batch) == pytest.approx(0.5, abs=0.01)

    def test_exhaustive_proposal_is_exact(self):
        m = BinaryCubeModel(1, np.log(3.0))
        batch = sample_and_score(ExhaustiveCube(1), PortableRng(2), 10)
        assert init_b(m, batch) == pytest.approx(np.log(4.0), rel=1e-15)


class TestFusedStep:
    def setup_method(self):
        self.model = MlpEnergy([2, 16, 8, 1], rng=PortableRng(3))
        self.data = PortableRng(4).normal((32, 2))
        q = StandardGaussian(2)
        self.proposal = q
        self.batch = sample_and_score(q, PortableRng(5), 64)

    def test_snl_value_matches_reference(self):
        b = 0.2
        value, grads, _ = fused_step(self.model, b, self.data, self.batch, "snl")
        want = snl_objective(self.model, b, self.data, estimate_z(self.model, self.batch))
        assert value == pytest.approx(want.value, rel=1e-12)

    def test_snl_gradients_match_reference(self):
        b = -0.3
        _, grads, _ = fused_step(self.model, b, self.data, self.batch, "snl")
        want = snl_gradients(self.model, b, self.data, self.batch)
        np.testing.assert_allclose(grads[:-1], want.grad_theta, rtol=1e-10, atol=1e-12)
        assert grads[-1] == pytest.approx(want.grad_b, rel=1e-12, abs=1e-14)

    def test_nce_gradients_are_negated_loss_gradients(self):
        b = 0.1
        _, grads, _ = fused_step(self.model, b, self.data, self.batch, "nce", proposal=self.proposal, nu=2.0)
        want = nce_gradients(self.model, b, self.data, self.proposal, self.batch, nu=2.0)
        np.testing.assert_allclose(grads[:-1], -want.grad_theta, rtol=1e-10, atol=1e-12)
        assert grads[-1] == pytest.approx(-want.grad_b, rel=1e-12, abs=1e-14)

    def test_nce_default_nu_is_samples_per_row_of_this_batch(self):
        # a short batch (5 rows, not the configured batch size) gets nu = m / 5
        data = self.data[:5]
        value, grads, _ = fused_step(self.model, 0.1, data, self.batch, "nce", proposal=self.proposal)
        want_value, want_grads, _ = fused_step(self.model, 0.1, data, self.batch, "nce", proposal=self.proposal,
                                               nu=self.batch.m / 5)
        assert value == want_value
        np.testing.assert_array_equal(grads, want_grads)

    def test_nce_rejects_nonpositive_nu(self):
        with pytest.raises(ValueError):
            fused_step(self.model, 0.0, self.data, self.batch, "nce", proposal=self.proposal, nu=-1.0)

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            fused_step(self.model, 0.0, self.data, self.batch, "prml")

    def test_oracle_model_uses_default_prepared_vjp(self):
        model = GaussianMeanModel(0.7)
        data = PortableRng(10).normal((20, 1))
        batch = sample_and_score(StandardGaussian(1), PortableRng(11), 50, base=model.base)
        _, grads, _ = fused_step(model, 0.1, data, batch, "snl")
        want = snl_gradients(model, 0.1, data, batch)
        np.testing.assert_allclose(grads[:-1], want.grad_theta, rtol=1e-12)
        assert grads[-1] == pytest.approx(want.grad_b, rel=1e-12)

    def test_nce_value_is_negated_loss(self):
        value, _, _ = fused_step(self.model, 0.1, self.data, self.batch, "nce", proposal=self.proposal, nu=2.0)
        want = nce_objective(self.model, 0.1, self.data, self.proposal, self.batch, nu=2.0)
        assert value == pytest.approx(-want, rel=1e-12)

    @pytest.mark.parametrize("objective", ["snl", "nce"])
    def test_workspaces_change_no_bits(self, objective):
        # data and samples of equal size: each needs its own workspace
        batch = sample_and_score(self.proposal, PortableRng(8), 32)
        workspaces = (Workspace(), Workspace())
        for b in (0.2, -0.1):  # the second step reuses the first step's arrays
            value, grads, diag = fused_step(self.model, b, self.data, batch, objective, proposal=self.proposal)
            value_ws, grads_ws, diag_ws = fused_step(self.model, b, self.data, batch, objective,
                                                     proposal=self.proposal, workspaces=workspaces)
            assert value_ws == value and diag_ws == diag
            np.testing.assert_array_equal(grads_ws, grads)

    def test_tilted_model_uses_cached_base(self):
        base = StandardGaussian(2)
        model = MlpEnergy([2, 8, 1], base=base, rng=PortableRng(6))
        batch = sample_and_score(StandardGaussian(2), PortableRng(7), 40, base=base)
        _, grads, _ = fused_step(model, 0.0, self.data, batch, "snl")
        want = snl_gradients(model, 0.0, self.data, batch)
        np.testing.assert_allclose(grads[:-1], want.grad_theta, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("trained", [False, True], ids=["init", "trained"])
@pytest.mark.parametrize("objective", ["snl", "nce"])
def test_float32_step_is_far_inside_its_monte_carlo_noise(objective, trained):
    # The stated tolerance of STEP_DTYPE, on the benchmark net (four_circles,
    # 32 data rows, 1024 draws). Against the gradient's Monte Carlo std (norm
    # of the per-coordinate std over the draw batches), the float32 step's
    # gradient differs from the float64 step's by at most 1e-3 in root mean
    # square over the batches, and by at most 1e-2 in any one batch; its value
    # differs by at most 1e-6. The median batch differs by ~4e-6 of the std.
    # A batch with a pre-activation within rounding of a ReLU kink differs by
    # that row's share of the gradient: 1.6e-3 of the std, in one of the 24
    # SNL batches after training.
    split = load_named("four_circles", 2000, 0)
    split = fit_standardizer(split.train).transform_split(split)
    model = MlpEnergy(list(DENSITY_WIDTHS), base=StandardGaussian(2), rng=PortableRng(0).split("model"))
    proposal = StandardGaussian(2)
    if trained:  # three epochs of 10 steps, in float32 as train_density runs them
        config = TrainConfig(objective=objective, epochs=3, learning_rate=1e-3, batch_size=32,
                             proposal_samples=1024, seed=0, nce_nu=1.0 if objective == "nce" else None)
        b = train_density(model, proposal, split.train[:320], split.val[:64], config).state.b
    else:
        b = init_b(model, sample_and_score(proposal, PortableRng(1), 1024, base=model.base))
    data = split.train[-32:]
    draws = PortableRng(2)
    grads, grad_diffs, value_diffs = [], [], []
    for _ in range(24):
        batch = sample_and_score(proposal, draws, 1024, base=model.base)
        v64, g64, _ = fused_step(model, b, data, batch, objective, proposal=proposal,
                                 workspaces=(Workspace(), Workspace()))
        v32, g32, _ = fused_step(model, b, data, batch, objective, proposal=proposal,
                                 workspaces=(Workspace(STEP_DTYPE), Workspace(STEP_DTYPE)))
        grads.append(g64)
        grad_diffs.append(np.linalg.norm(g32 - g64))
        value_diffs.append(abs(v32 - v64))
    noise = np.linalg.norm(np.std(grads, axis=0))
    rms = np.sqrt(np.mean(np.square(grad_diffs)))
    print(f"{objective} {'trained' if trained else 'init'}: |g32 - g64| / Monte Carlo std: "
          f"median {np.median(grad_diffs) / noise:.1e}, rms {rms / noise:.1e}, max {max(grad_diffs) / noise:.1e}; "
          f"max |v32 - v64| {max(value_diffs):.1e}")
    assert 0.0 < rms <= 1e-3 * noise
    assert max(grad_diffs) <= 1e-2 * noise
    assert max(value_diffs) <= 1e-6


@pytest.mark.parametrize("trained", [False, True], ids=["init", "trained"])
@pytest.mark.parametrize("objective", ["snl", "nce"])
@pytest.mark.parametrize("dataset, kind", [("regression1", "mdn"), ("regression2", "fitted")])
def test_float32_conditional_step_is_far_inside_its_monte_carlo_noise(dataset, kind, objective, trained):
    # The stated tolerance of STEP_DTYPE for conditional steps, with the
    # benchmark's nets, proposals, 64-point batches and 16 draws per point.
    # Both steps read the same draws; against the gradient's Monte Carlo std
    # over 24 draw batches the float32 gradient differs from the float64 one
    # by at most 1e-3 in root mean square and 1e-2 in any one batch, and the
    # value by at most 1e-6. Measured: at most 1.3e-5 of the std in any batch
    # and 3.1e-9 in the value, over the eight cases.
    split = load_named(dataset, 2858, 0)
    x, y = split.train[:, 0], split.train[:, 1]
    rng = PortableRng(0)
    model, normalizer = ConditionalEnergyModel(rng.split("model")), NormalizerNet(rng.split("normalizer"))
    mdn = MdnProposal(FEATURE_WIDTHS[-1], 2, rng.split("proposal-init")) if kind == "mdn" else None
    proposal = mdn if mdn is not None else fit_gaussian(y.reshape(-1, 1))
    model.carrier = fit_gaussian(y.reshape(-1, 1))
    if trained:  # three epochs of 10 steps, in float32 as train_regression runs them
        config = RegressionTrainConfig(objective=objective, epochs=3, batch_size=64, samples_per_point=16, seed=0)
        train_regression(model, normalizer, proposal, (x[:640], y[:640]), (split.val[:64, 0], split.val[:64, 1]),
                         config)
    x_b, y_b = x[-64:], y[-64:]
    draws = PortableRng(2)
    grads, grad_diffs, value_diffs = [], [], []
    for _ in range(24):
        ys, log_q, heads = regression._propose(proposal, draws, model.features(x_b), 64, 16)
        log_q_data = None
        if objective == "nce":
            log_q_data = (mdn.log_density(heads, y_b[:, None])[:, 0] if mdn is not None
                          else proposal.log_density(y_b.reshape(-1, 1)))

        def step(dtype):
            workspace = Workspace(dtype)
            h, features_vjp = model.features_vjp_prepared(x_b, workspace)
            return regression._regression_step(model, normalizer, h, features_vjp, y_b, ys, log_q, log_q_data,
                                               objective, None, workspace)

        (v64, g64, _), (v32, g32, _) = step(np.float64), step(STEP_DTYPE)
        grads.append(g64)
        grad_diffs.append(np.linalg.norm(g32 - g64))
        value_diffs.append(abs(v32 - v64))
    noise = np.linalg.norm(np.std(grads, axis=0))
    rms = np.sqrt(np.mean(np.square(grad_diffs)))
    print(f"{dataset} {kind} {objective} {'trained' if trained else 'init'}: |g32 - g64| / Monte Carlo std: "
          f"median {np.median(grad_diffs) / noise:.1e}, rms {rms / noise:.1e}, max {max(grad_diffs) / noise:.1e}; "
          f"max |v32 - v64| {max(value_diffs):.1e}")
    assert 0.0 < rms <= 1e-3 * noise
    assert max(grad_diffs) <= 1e-2 * noise
    assert max(value_diffs) <= 1e-6


WEIGHING_CASES = {  # model, proposal, data: a tilt, a carrier base and no base
    "tilt": lambda: (MlpEnergy([2, 16, 8, 1], base=StandardGaussian(2), rng=PortableRng(3)),
                     fit_gaussian(2.0 * PortableRng(9).normal((50, 2))), PortableRng(4).normal((32, 2))),
    "carrier": lambda: (GaussianMeanModel(0.7), fit_gaussian(PortableRng(9).normal((50, 1)) + 0.5),
                        PortableRng(4).normal((32, 1)) + 0.7),
    "no base": lambda: (BinaryCubeModel(3, np.linspace(-0.4, 0.6, 6)), UniformCube(3),
                        UniformCube(3).sample(PortableRng(4), 32)),
}


@pytest.mark.parametrize("case", WEIGHING_CASES)
def test_step_and_eval_weigh_draws_alike(case):
    # the step's SNL value and minimum weight are, bit for bit, those of the
    # weights that init_b, validation and evaluate read (log_weights)
    model, proposal, data = WEIGHING_CASES[case]()
    batch = sample_and_score(proposal, PortableRng(5), 256, base=model.base)
    value, _, (_, min_weight) = fused_step(model, 0.3, data, batch, "snl")
    logw = log_weights(model, batch)
    assert value == step_terms(model.unnorm_log_density(data)[None], logw[None], np.array([0.3]))[0]
    assert min_weight == divergence_diagnostics(model.energy(batch.samples), logw)[1]


class TestTrainDensity:
    @staticmethod
    def config(**kw):
        base = dict(epochs=3, learning_rate=0.05, batch_size=64, proposal_samples=256, seed=0)
        base.update(kw)
        return TrainConfig(**base)

    @staticmethod
    def gaussian_data(seed=8, n=512, mean=2.0):
        return PortableRng(seed).normal((n, 1)) + mean

    def test_zero_epochs_return_initial_state(self):
        model = GaussianMeanModel(0.4)
        data = self.gaussian_data()
        result = train_density(model, StandardGaussian(1), data, data[:64], self.config(epochs=0))
        assert result.history == []
        np.testing.assert_array_equal(result.best_theta, [0.4])
        np.testing.assert_array_equal(model.theta, [0.4])

    def test_resume_b_passes_through_zero_epochs(self):
        model = GaussianMeanModel(0.0)
        data = self.gaussian_data()
        result = train_density(model, StandardGaussian(1), data, data[:64], self.config(epochs=0), b=1.23)
        assert result.state.b == 1.23

    def test_history_is_one_based_and_complete(self):
        model = GaussianMeanModel(0.0)
        data = self.gaussian_data()
        result = train_density(model, StandardGaussian(1), data, data[:64], self.config(epochs=3))
        assert [r.epoch for r in result.history] == [1, 2, 3]
        for r in result.history:
            assert np.isfinite(r.train_snl) and np.isfinite(r.val_snl) and np.isfinite(r.b)
            assert r.seconds >= 0.0

    def test_deterministic_given_seed(self):
        data = self.gaussian_data()

        def run():
            model = GaussianMeanModel(0.0)
            return train_density(model, StandardGaussian(1), data, data[:64], self.config())

        a, b = run(), run()
        assert [r.train_snl for r in a.history] == [r.train_snl for r in b.history]
        assert [r.b for r in a.history] == [r.b for r in b.history]
        np.testing.assert_array_equal(a.best_theta, b.best_theta)

    def test_learns_the_gaussian_mean(self):
        model = GaussianMeanModel(0.0)
        data = self.gaussian_data(n=2000)
        x_bar = float(data.mean())
        result = train_density(
            model, StandardGaussian(1), data, data[:200], self.config(epochs=40, learning_rate=0.1)
        )
        theta_hat = float(model.theta[0])
        assert abs(theta_hat - x_bar) < 0.1
        # b tracks the running normalizer theta^2 / 2
        assert abs(result.state.b - 0.5 * theta_hat**2) < 0.1

    def test_objective_trend_improves(self):
        # a proposal matched to the data keeps the weight variance flat as
        # theta approaches the optimum, so the validation curve is clean
        from snl_ebm.proposals import fit_gaussian

        model = GaussianMeanModel(0.0)
        data = self.gaussian_data(n=1024)
        result = train_density(model, fit_gaussian(data), data, data[:128], self.config(epochs=20))
        first = np.mean([r.val_snl for r in result.history[:3]])
        last = np.mean([r.val_snl for r in result.history[-3:]])
        assert last > first

    def test_best_epoch_tracks_validation(self):
        model = GaussianMeanModel(0.0)
        data = self.gaussian_data()
        result = train_density(model, StandardGaussian(1), data, data[:64], self.config(epochs=5))
        vals = [r.val_snl for r in result.history]
        assert result.best_epoch == int(np.argmax(vals)) + 1
        assert result.best_b == result.history[result.best_epoch - 1].b

    def test_nce_objective_path(self):
        model = GaussianMeanModel(0.0)
        data = self.gaussian_data(n=256)
        result = train_density(
            model, StandardGaussian(1), data, data[:64], self.config(objective="nce", epochs=3)
        )
        assert len(result.history) == 3
        assert float(model.theta[0]) != 0.0

    def test_sgd_path(self):
        model = GaussianMeanModel(0.0)
        data = self.gaussian_data(n=256)
        result = train_density(
            model, StandardGaussian(1), data, data[:64], self.config(optimizer="sgd", epochs=2)
        )
        assert len(result.history) == 2

    def test_divergence_guard_raises_after_patience(self):
        model = MlpEnergy([1, 4, 1], rng=PortableRng(9))
        model.theta = np.full(model.n_params, np.nan)
        data = self.gaussian_data(n=300)
        with pytest.raises(TrainingDivergedError) as err:
            train_density(
                model,
                StandardGaussian(1),
                data,
                data[:64],
                self.config(epochs=1, batch_size=32),
                b=0.0,
            )
        assert err.value.step == DIVERGENCE_PATIENCE

    def test_validate_rejects_bad_configs(self):
        bad = [
            dict(objective="mle"),
            dict(optimizer="newton"),
            dict(epochs=-1),
            dict(learning_rate=0.0),
            dict(batch_size=0),
            dict(proposal_samples=0),
            dict(nce_nu=0.0),
            dict(nce_nu=-1.0),
        ]
        for kw in bad:
            with pytest.raises(ValueError):
                TrainConfig(**kw).validate()

    def test_state_holds_the_final_b(self):
        model = GaussianMeanModel(0.0)
        data = self.gaussian_data(n=128)
        result = train_density(model, StandardGaussian(1), data, data[:32], self.config(epochs=2))
        assert result.state == SnlState(result.history[-1].b)


class TestValidation:
    """Both families score validation through ``objectives.step_terms``, and
    the loop records a non-finite validation value as nan."""

    @pytest.mark.parametrize("kind", ["plain", "tilted", "carrier"])
    def test_density_val_snl_matches_reference_objective(self, kind):
        dim = 1 if kind == "carrier" else 2
        if kind == "carrier":
            model = GaussianMeanModel(0.3)
        else:
            model = MlpEnergy([2, 16, 8, 1], base=StandardGaussian(2) if kind == "tilted" else None,
                              rng=PortableRng(13))
        data = PortableRng(12).normal((160, dim))
        proposal = StandardGaussian(dim)
        config = TrainConfig(epochs=2, learning_rate=1e-2, batch_size=32, proposal_samples=128, seed=4)
        result = train_density(model, proposal, data, data[:40], config)
        val_batch = sample_and_score(proposal, PortableRng(config.seed).split("validation"), 128, base=model.base)
        want = snl_objective(model, result.state.b, data[:40], estimate_z(model, val_batch)).value
        assert result.history[-1].val_snl == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_density_validation_with_all_weights_zero_is_the_z_hat_zero_value(self, monkeypatch):
        # as in both training steps: Z_hat = 0 leaves mean u - b + 1, not nan
        model = MlpEnergy([2, 8, 1], rng=PortableRng(17))
        data = PortableRng(18).normal((64, 2))
        monkeypatch.setattr(training, "log_weights", lambda model, batch: np.full(batch.m, -np.inf))
        config = TrainConfig(epochs=1, learning_rate=1e-2, batch_size=32, proposal_samples=64, seed=7)
        result = train_density(model, StandardGaussian(2), data, data[:16], config)
        want = float(np.mean(model.unnorm_log_density(data[:16]))) - result.state.b + 1.0
        assert result.history[0].val_snl == pytest.approx(want, rel=1e-12)
        assert result.best_epoch == 1

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, "raise"])
    @pytest.mark.parametrize("family", ["density", "regression"])
    def test_non_finite_validation_is_nan_and_never_best(self, family, bad, monkeypatch):
        calls = []

        def second_is_bad(fn):
            def wrapped(*args, **kwargs):
                calls.append(None)
                out = fn(*args, **kwargs)
                if len(calls) != 2:
                    return out
                if bad == "raise":  # a validation that raises SnlError counts as non-finite
                    raise NonFiniteObjectiveError("validation", np.nan)
                return np.full_like(out, bad)
            return wrapped

        if family == "density":
            model = MlpEnergy([2, 8, 1], rng=PortableRng(14))
            model.unnorm_log_density = second_is_bad(model.unnorm_log_density)  # validation's data term
            data = PortableRng(15).normal((96, 2))
            config = TrainConfig(epochs=3, learning_rate=1e-2, batch_size=32, proposal_samples=64, seed=5)
            result = train_density(model, StandardGaussian(2), data, data[:32], config)
        else:
            monkeypatch.setattr(regression, "validation_snl", second_is_bad(regression.validation_snl))
            rng = PortableRng(16)
            x = rng.uniform(64, -2.0, 2.0)
            y = np.sin(x) + 0.3 * rng.normal(64)
            config = RegressionTrainConfig(epochs=3, batch_size=32, samples_per_point=4, seed=6)
            result = train_regression(ConditionalEnergyModel(rng.split("model")), NormalizerNet(rng.split("norm")),
                                      fit_gaussian(y.reshape(-1, 1)), (x, y), (x[:16], y[:16]), config)
        vals = [r.val_snl for r in result.history]
        assert len(calls) == 3
        assert np.isnan(vals[1]) and np.isfinite(vals[0]) and np.isfinite(vals[2])
        assert result.best_epoch == (1 if vals[0] > vals[2] else 3)
