"""In-place training steps against the pure formulas they replace.

The training loops keep their parameters in flat buffers and run Adam in
place on them. These tests rebuild the loops from ``fused_step`` and
``_regression_step`` with Adam written on fresh arrays (or plain SGD), for
each objective, optimizer and proposal kind, and require the same bits; they
also pin the optimizer calls per taken step, which the benchmark counts to
tell taken steps from skipped ones.
"""

import numpy as np
import pytest

from snl_ebm import regression, training
from snl_ebm.errors import NonFiniteObjectiveError
from snl_ebm.models import MlpEnergy
from snl_ebm.nets import Workspace
from snl_ebm.optim import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, adam_step
from snl_ebm.proposals import (
    MdnProposal,
    StandardGaussian,
    fit_gaussian,
    sample_and_score,
)
from snl_ebm.regression import (
    FEATURE_WIDTHS,
    ConditionalEnergyModel,
    NormalizerNet,
    RegressionTrainConfig,
    train_regression,
)
from snl_ebm.rng import PortableRng
from snl_ebm.training import TrainConfig, fused_step, init_b, train_density
from reference import mdn_log_likelihood_and_fit


def pure_adam(m, v, t, grad, lr):
    """Adam with fresh arrays: (m, v, t, increment to add to the parameters)."""
    t += 1
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    return m, v, t, lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_in_place_adam_matches_pure_formula():
    rng = PortableRng(80)
    params = np.zeros(50)  # so that the increments' own bits show in the sum
    want = params.copy()
    state = AdamState.fresh(50)
    m = v = np.zeros(50)
    t = 0
    for scale in (1.0, 1e-4, 30.0, 1e-9, 2.5):
        grad = rng.normal(50) * scale
        adam_step(params, grad, state, 3e-3)
        m, v, t, step = pure_adam(m, v, t, grad, 3e-3)
        want = want + step
        assert_same_bits(params, want)
        assert_same_bits(state.m, m)
        assert_same_bits(state.v, v)
        assert state.t == t


def test_in_place_adam_leaves_everything_on_a_bad_gradient():
    params, state = np.ones(3), AdamState.fresh(3)
    adam_step(params, np.ones(3), state, 0.1)
    before = (params.copy(), state.m.copy(), state.v.copy(), state.t)
    with pytest.raises(ValueError):
        adam_step(params, np.array([1.0, np.inf, 1.0]), state, 0.1)
    for got, want in zip((params, state.m, state.v), before):
        assert_same_bits(got, want)
    assert state.t == before[3]


def density_setup():
    data = PortableRng(81).normal((96, 2))
    proposal = StandardGaussian(2)

    def model():
        return MlpEnergy([2, 16, 8, 1], base=StandardGaussian(2), rng=PortableRng(82))

    return data, proposal, model


def reference_density(config, data, proposal, ref):
    """``train_density`` for one epoch of three steps, rebuilt from ``fused_step``
    in the trainer's float32 workspaces with pure Adam or SGD; returns the
    final b and the number of steps."""
    workspaces = (Workspace(training.STEP_DTYPE), Workspace(training.STEP_DTYPE))
    root = PortableRng(config.seed)
    shuffle_rng, proposal_rng = root.split("shuffle"), root.split("proposal")
    b = init_b(ref, sample_and_score(proposal, root.split("init-b"), 64, base=ref.base))
    m = v = np.zeros(ref.n_params + 1)
    t = 0
    order = shuffle_rng.permutation(96)
    for lo in range(0, 96, 32):  # three steps
        batch = sample_and_score(proposal, proposal_rng, 64, base=ref.base)
        _, grad, _ = fused_step(ref, b, data[order[lo : lo + 32]], batch, config.objective, proposal=proposal,
                                workspaces=workspaces)
        if config.optimizer == "sgd":
            step, t = config.learning_rate * grad, t + 1
        else:
            m, v, t, step = pure_adam(m, v, t, grad, config.learning_rate)
        params = np.concatenate([ref.theta, [b]]) + step
        ref.theta = params[:-1]
        b = float(params[-1])
    return b, t


def density_config(objective="snl", optimizer="adam"):
    return TrainConfig(objective=objective, epochs=1, learning_rate=1e-2, batch_size=32,
                       proposal_samples=64, optimizer=optimizer, seed=3)


@pytest.mark.parametrize("objective", ["snl", "nce"])
def test_density_steps_match_reference_loop(objective):
    data, proposal, make_model = density_setup()
    config = density_config(objective)
    got = make_model()
    result = train_density(got, proposal, data, data[:16], config)

    ref = make_model()
    b, t = reference_density(config, data, proposal, ref)
    assert t == 3
    assert_same_bits(got.theta, ref.theta)
    assert_same_bits(result.state.b, b)


def test_density_sgd_steps_match_reference_loop():
    data, proposal, make_model = density_setup()
    config = density_config(optimizer="sgd")
    got = make_model()
    result = train_density(got, proposal, data, data[:16], config)

    ref = make_model()
    b, t = reference_density(config, data, proposal, ref)
    assert t == 3
    assert_same_bits(got.theta, ref.theta)
    assert_same_bits(result.state.b, b)


def toy_pairs(seed, n):
    rng = PortableRng(seed)
    x = rng.uniform(n, -2.0, 2.0)
    return x, np.sin(x) + 0.3 * rng.normal(n)


def regression_setup():
    rng = PortableRng(83)
    return (ConditionalEnergyModel(rng.split("model")), NormalizerNet(rng.split("normalizer")),
            MdnProposal(FEATURE_WIDTHS[-1], 2, rng.split("mdn")))


def reference_regression(config, x, y, model, norm, proposal):
    """``train_regression`` for one epoch of three steps, rebuilt from
    ``_regression_step`` with pure Adam (and the MDN refit when ``proposal``
    is an ``MdnProposal``) on the carrier fitted to ``y``; returns the number
    of energy and MDN steps."""
    model.carrier = fit_gaussian(y.reshape(-1, 1))
    mdn = proposal if isinstance(proposal, MdnProposal) else None
    root = PortableRng(config.seed)
    shuffle_rng, proposal_rng = root.split("shuffle"), root.split("proposal")
    n_theta = model.n_params
    m = v = np.zeros(n_theta + (norm.n_params if norm is not None else 0))
    mdn_m = mdn_v = np.zeros(mdn.theta.size if mdn is not None else 0)
    t = mdn_t = 0
    order = shuffle_rng.split_index(0).permutation(48)
    for lo in range(0, 48, 16):  # three steps
        idx = order[lo : lo + 16]
        h, features_vjp = model.features_vjp_prepared(x[idx])
        ys, log_q, heads = regression._propose(proposal, proposal_rng, h, idx.size, config.samples_per_point)
        log_q_data = None
        if config.objective == "nce":
            log_q_data = (mdn.log_density(heads, y[idx][:, None])[:, 0] if mdn is not None
                          else proposal.log_density(y[idx].reshape(-1, 1)))
        _, grad, _ = regression._regression_step(model, norm, h, features_vjp, y[idx], ys, log_q,
                                                 log_q_data, config.objective, None)
        m, v, t, step = pure_adam(m, v, t, grad, config.learning_rate)
        params = np.concatenate([model.theta] + ([norm.theta] if norm is not None else [])) + step
        model.theta = params[:n_theta]
        if norm is not None:
            norm.theta = params[n_theta:]
        if mdn is not None:
            _, mdn_grad = mdn.loglik_gradient(heads, y[idx])
            mdn_m, mdn_v, mdn_t, mdn_step = pure_adam(mdn_m, mdn_v, mdn_t, mdn_grad, config.mdn_learning_rate)
            mdn.theta = mdn.theta + mdn_step
    return t, mdn_t


def regression_config(objective="snl"):
    return RegressionTrainConfig(objective=objective, epochs=1, learning_rate=2e-3, batch_size=16,
                                 samples_per_point=8, seed=5, mdn_learning_rate=5e-3)


def check_regression_mdn_steps(objective):
    x, y = toy_pairs(84, 48)
    config = regression_config(objective)
    model, norm, mdn = regression_setup()
    train_regression(model, norm, mdn, (x, y), (x[:8], y[:8]), config)

    ref_model, ref_norm, ref_mdn = regression_setup()
    assert reference_regression(config, x, y, ref_model, ref_norm, ref_mdn) == (3, 3)
    assert_same_bits(model.theta, ref_model.theta)
    assert_same_bits(norm.theta, ref_norm.theta)
    assert_same_bits(mdn.theta, ref_mdn.theta)


def test_regression_mdn_steps_match_reference_loop():
    check_regression_mdn_steps("snl")


def test_regression_nce_mdn_steps_match_reference_loop():
    check_regression_mdn_steps("nce")


def test_regression_fitted_proposal_steps_without_normalizer_match_reference_loop():
    x, y = toy_pairs(89, 48)
    config = regression_config()
    proposal = fit_gaussian(y.reshape(-1, 1))
    model = ConditionalEnergyModel(PortableRng(83).split("model"))
    train_regression(model, None, proposal, (x, y), (x[:8], y[:8]), config)

    ref = ConditionalEnergyModel(PortableRng(83).split("model"))
    assert reference_regression(config, x, y, ref, None, proposal) == (3, 0)
    assert_same_bits(model.theta, ref.theta)


def test_mdn_fit_drops_the_step_before_a_non_finite_batch():
    features = PortableRng(86).normal((12, 2))
    targets = PortableRng(87).normal(12)
    targets[7] = np.nan  # batches of 3 in order: the third one goes non-finite
    mdn = MdnProposal(2, 2, PortableRng(88))
    history = mdn_log_likelihood_and_fit(mdn, features, targets, epochs=5, learning_rate=1e-2, batch_size=3)

    ref = MdnProposal(2, 2, PortableRng(88))
    m = v = np.zeros(ref.theta.size)
    t = 0
    values, thetas = [], [ref.theta]
    for lo in (0, 3):  # two finite steps
        value, grad = ref.loglik_gradient(ref.heads(features[lo : lo + 3]), targets[lo : lo + 3])
        m, v, t, step = pure_adam(m, v, t, grad, 1e-2)
        ref.theta = ref.theta + step
        values.append(value)
        thetas.append(ref.theta)
    assert history == [float(np.mean(values))]
    assert_same_bits(mdn.theta, thetas[1])


class Counter:
    """Counts calls of ``fn``; the call numbered ``skip`` is made a skipped step."""

    def __init__(self, fn, skip=None):
        self.fn, self.skip, self.calls = fn, skip, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        if self.calls == self.skip:
            raise NonFiniteObjectiveError("data", float("nan"))
        return self.fn(*args, **kwargs)


def test_density_makes_one_optimizer_step_call_per_taken_step(monkeypatch):
    data, proposal, make_model = density_setup()
    config = TrainConfig(epochs=2, learning_rate=1e-2, batch_size=32, proposal_samples=64, seed=3)
    steps = Counter(training.fused_step, skip=2)
    taken = Counter(training.optimizer_step)
    monkeypatch.setattr(training, "fused_step", steps)
    monkeypatch.setattr(training, "optimizer_step", taken)
    train_density(make_model(), proposal, data, data[:16], config)
    assert steps.calls == 6
    assert taken.calls == 5


def test_regression_makes_two_adam_step_calls_per_taken_mdn_step(monkeypatch):
    x, y = toy_pairs(85, 48)
    config = RegressionTrainConfig(epochs=2, batch_size=16, samples_per_point=4, seed=6)
    steps = Counter(regression._regression_step)

    def skip_third(*args, **kwargs):
        value, grad, diag = steps(*args, **kwargs)
        return (float("nan") if steps.calls == 3 else value), grad, diag

    adam = Counter(regression.adam_step)
    monkeypatch.setattr(regression, "_regression_step", skip_third)
    monkeypatch.setattr(regression, "adam_step", adam)
    model, norm, mdn = regression_setup()
    train_regression(model, norm, mdn, (x, y), (x[:8], y[:8]), config)
    assert steps.calls == 6
    assert adam.calls == 2 * 5
