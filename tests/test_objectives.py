"""Objective values, bounds, and gradients against the closed-form oracles.

Strategy: every estimator is pinned twice, once on a configuration where the
answer is exact (enumerable support, zero parameter, proposal equal to the
carrier) and once on a stochastic configuration where only a statistical
tolerance applies. The exact cases use equality or atol=0.
"""

import warnings

import numpy as np
import pytest
import scipy.special
from scipy.stats import norm

from snl_ebm.errors import (
    DegenerateProposalError,
    EnergyEvaluationError,
    NonFiniteObjectiveError,
)
from snl_ebm.evaluation import evaluate
from snl_ebm.models import BinaryCubeModel, GaussianMeanModel, MlpEnergy
from snl_ebm.objectives import (
    ImportanceBatch,
    bound_pair,
    estimate_z,
    log_weights,
    logsumexp,
    measure_term,
    step_terms,
)
from snl_ebm.proposals import (
    ExhaustiveCube,
    StandardGaussian,
    UniformBox,
    UniformCube,
    cube_states,
    sample_and_score,
)
from snl_ebm.rng import PortableRng
from reference import (
    discrete_points,
    exact_snl_gradients,
    generalized_kl,
    gradient_relation_check,
    maximize_over_b,
    nce_gradients,
    nce_objective,
    snl_gradients,
    snl_objective,
    trapezoid_1d,
    trapezoid_2d,
    variational_log_bound,
    z_estimate,
)

TWO_POINT_DATA = np.array([[1.0], [3.0]])  # mean 2


def gaussian_batch(m, seed=0, model=None):
    q = StandardGaussian(1)
    base = model.base if model is not None and model.base_is_carrier else None
    return sample_and_score(q, PortableRng(seed).split("proposal"), m, base=base)


class TestVariationalBound:
    def test_tight_at_log_z(self):
        assert variational_log_bound(1.0, 0.0) == 0.0
        assert variational_log_bound(2.0, np.log(2.0)) == pytest.approx(np.log(2.0), abs=1e-15)

    def test_loose_elsewhere(self):
        assert variational_log_bound(2.0, 0.0) == 1.0  # >= log 2

    def test_upper_bounds_log_everywhere(self):
        rng = PortableRng(1)
        zs = rng.uniform(200, 0.01, 50.0)
        lams = rng.uniform(200, -5.0, 5.0)
        for z, lam in zip(zs, lams):
            assert variational_log_bound(float(z), float(lam)) >= np.log(z) - 1e-12

    def test_rejects_nonpositive_z(self):
        with pytest.raises(ValueError):
            variational_log_bound(0.0, 1.0)
        with pytest.raises(ValueError):
            variational_log_bound(-1.0, 1.0)


class TestEstimateZ:
    def test_theta_zero_weights_are_exactly_one(self):
        m = GaussianMeanModel(0.0)
        est = z_estimate(m, gaussian_batch(1000, model=m))
        assert est.mean_weight == 1.0
        assert est.log_mean_weight == 0.0
        assert est.standard_error == 0.0

    def test_gaussian_normalizer_within_three_se(self):
        m = GaussianMeanModel(1.0)
        est = z_estimate(m, gaussian_batch(1_000_000, seed=7, model=m))
        truth = np.exp(0.5)
        assert est.standard_error > 0
        assert abs(est.mean_weight - truth) < 3.0 * est.standard_error

    def test_bernoulli_exhaustive_is_exact(self):
        # enumerated domain, q = 1/2: (e^0/0.5 + e^theta/0.5)/2 = 1 + e^theta
        m = BinaryCubeModel(1, np.log(3.0))
        batch = sample_and_score(ExhaustiveCube(1), PortableRng(0), 999)
        est = z_estimate(m, batch)
        assert est.mean_weight == pytest.approx(4.0, rel=1e-15)
        assert est.count == 2

    def test_unbiased_over_replicates(self):
        # light version of the pooled-mean check: 50 reps, pooled 4 SE
        m = GaussianMeanModel(1.0)
        reps = np.array([z_estimate(m, gaussian_batch(2000, seed=s, model=m)).mean_weight for s in range(50)])
        pooled_se = reps.std(ddof=1) / np.sqrt(len(reps))
        assert abs(reps.mean() - np.exp(0.5)) < 4.0 * pooled_se

    def test_empty_batch_rejected(self):
        m = GaussianMeanModel(0.0)
        batch = ImportanceBatch(np.zeros((0, 1)), np.zeros(0))
        with pytest.raises(ValueError):
            estimate_z(m, batch)

    def test_nonfinite_energy_reported_with_index(self):
        m = GaussianMeanModel(1.0)
        samples = np.array([[0.0], [np.inf], [1.0]])
        batch = ImportanceBatch(samples, np.zeros(3))
        with pytest.raises(EnergyEvaluationError) as err:
            estimate_z(m, batch)
        assert err.value.index == 1

    def test_all_zero_weights_degenerate(self):
        class FlatOnBox:
            base = UniformBox([0.0], [1.0])
            base_is_carrier = True
            dim = 1

            def energy(self, x):
                return np.zeros(x.shape[0])

        samples = np.array([[2.0], [3.0]])  # outside the carrier box
        batch = ImportanceBatch(samples, measure_term(FlatOnBox.base, samples, np.zeros(2)))
        with pytest.raises(DegenerateProposalError):
            estimate_z(FlatOnBox(), batch)

    def test_cached_base_log_densities_used(self):
        # the batch's measure term, base included, is read, not the model's base recomputed
        m = GaussianMeanModel(0.5)
        q = StandardGaussian(1)
        samples = PortableRng(3).normal((100, 1))
        lq = q.log_density(samples)
        cached = log_weights(m, ImportanceBatch(samples, measure_term(m.base, samples, lq)))
        np.testing.assert_array_equal(cached, (m.base.log_density(samples) - lq) - m.energy(samples))
        shifted = log_weights(m, ImportanceBatch(samples, np.full(100, 2.0)))
        np.testing.assert_array_equal(shifted, 2.0 - m.energy(samples))


class TestSnlObjective:
    def test_value_at_gaussian_optimum(self):
        # theta = x_bar = 2, b = log Z = 2: 4 - 2 - 1 + 1 = 2
        out = snl_objective(GaussianMeanModel(2.0), 2.0, TWO_POINT_DATA, log_z=2.0)
        assert out.value == 2.0
        assert out.data_term == 4.0

    def test_value_at_zero(self):
        out = snl_objective(GaussianMeanModel(0.0), 0.0, TWO_POINT_DATA, log_z=0.0)
        assert out.value == 0.0

    def test_fair_coin_value(self):
        data = np.array([[0.0], [1.0]])
        out = snl_objective(BinaryCubeModel(1, 0.0), np.log(2.0), data, log_z=np.log(2.0))
        assert out.value == pytest.approx(-np.log(2.0), abs=1e-15)

    def test_lower_bounds_likelihood_for_all_b(self):
        model = GaussianMeanModel(1.3)
        ll = model.exact_log_likelihood(TWO_POINT_DATA)
        log_z = model.exact_log_z()
        for b in np.linspace(log_z - 4, log_z + 4, 41):
            val = snl_objective(model, float(b), TWO_POINT_DATA, log_z).value
            assert val <= ll + 1e-12
        at_opt = snl_objective(model, log_z, TWO_POINT_DATA, log_z).value
        assert at_opt == pytest.approx(ll, abs=1e-12)

    def test_nonfinite_data_term_raises(self):
        with pytest.raises(NonFiniteObjectiveError) as err:
            snl_objective(GaussianMeanModel(1.0), 0.0, np.array([[np.inf]]), log_z=0.0)
        assert err.value.term == "data"

    def test_nonfinite_normalizer_term_raises(self):
        with pytest.raises(NonFiniteObjectiveError) as err:
            snl_objective(GaussianMeanModel(0.0), -1e4, TWO_POINT_DATA, log_z=1e4)
        assert err.value.term == "normalizer"


class TestSnlGradients:
    def test_exact_gradient_at_theta_zero(self):
        est = exact_snl_gradients(GaussianMeanModel(0.0), 0.0, TWO_POINT_DATA)
        np.testing.assert_array_equal(est.grad_theta, [2.0])
        assert est.grad_b == 0.0

    def test_exact_gradient_vanishes_at_optimum(self):
        model = GaussianMeanModel(2.0)
        est = exact_snl_gradients(model, 2.0, TWO_POINT_DATA)
        np.testing.assert_allclose(est.grad_theta, [0.0], atol=1e-14)
        assert est.grad_b == 0.0

    def test_sampled_grad_b_exact_at_theta_zero(self):
        # q = carrier and theta = 0 make every weight exactly 1
        m = GaussianMeanModel(0.0)
        est = snl_gradients(m, 0.0, TWO_POINT_DATA, gaussian_batch(500, model=m))
        assert est.grad_b == 0.0

    def test_sampled_gradient_near_exact(self):
        model = GaussianMeanModel(0.7)
        batch = gaussian_batch(400_000, seed=11, model=model)
        est = snl_gradients(model, 0.4, TWO_POINT_DATA, batch)
        want = exact_snl_gradients(model, 0.4, TWO_POINT_DATA)
        assert abs(est.grad_theta[0] - want.grad_theta[0]) < 0.02
        assert abs(est.grad_b - want.grad_b) < 0.02

    def test_matches_finite_difference_of_estimated_objective(self):
        # same fixed batch on both sides of the difference
        model = GaussianMeanModel(0.9)
        batch = gaussian_batch(500, seed=2, model=model)
        b = 0.3
        step = 1e-6

        def value(theta, bv):
            model.theta = np.array([theta])
            return snl_objective(model, bv, TWO_POINT_DATA, estimate_z(model, batch)).value

        got = snl_gradients(model, b, TWO_POINT_DATA, batch)
        fd_theta = (value(0.9 + step, b) - value(0.9 - step, b)) / (2 * step)
        model.theta = np.array([0.9])
        fd_b = (value(0.9, b + step) - value(0.9, b - step)) / (2 * step)
        model.theta = np.array([0.9])
        assert got.grad_theta[0] == pytest.approx(fd_theta, rel=1e-6, abs=1e-8)
        assert got.grad_b == pytest.approx(fd_b, rel=1e-6, abs=1e-8)

    def test_relation_between_routes_holds_everywhere(self):
        rng = PortableRng(21)
        thetas = rng.uniform(50, -2.0, 2.0)
        bs = rng.uniform(50, -3.0, 3.0)
        cube_data = (rng.uniform((20, 3)) < 0.6).astype(np.float64)
        for theta, b in zip(thetas, bs):
            for model in (GaussianMeanModel(float(theta)), BinaryCubeModel(1, float(theta))):
                lhs, rhs = gradient_relation_check(model, float(b), TWO_POINT_DATA % 2)
                np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
            # the d = 3 cube, with its six parameters spread around theta
            cube = BinaryCubeModel(3, theta + rng.uniform(6, -1.0, 1.0))
            lhs, rhs = gradient_relation_check(cube, float(b), cube_data)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def l_is_and_l_snl(model, b, m, seed=0):
    """evaluate's bound pair on TWO_POINT_DATA, from the draws of evaluation_batch(m, seed, model)."""
    report = evaluate(model, b, {"t": TWO_POINT_DATA}, StandardGaussian(1), n_samples=m, seed=seed)
    return report.splits[0].l_is, report.splits[0].l_snl


def evaluation_batch(m, seed, model):
    """The m draws that ``evaluate(..., seed=seed)`` scores, with their log-densities."""
    return sample_and_score(StandardGaussian(1), PortableRng(seed).split("evaluate"), m, base=model.base)


class TestLIs:
    def test_exactly_zero_at_theta_zero(self):
        m = GaussianMeanModel(0.0)
        assert l_is_and_l_snl(m, 0.0, 1000)[0] == 0.0

    def test_converges_to_likelihood(self):
        model = GaussianMeanModel(1.0)
        # ell = x_bar - 1/2 = 1.5 for this data
        assert l_is_and_l_snl(model, 0.0, 400_000, seed=5)[0] == pytest.approx(1.5, abs=0.01)

    def test_upper_bounds_snl_on_shared_samples(self):
        rng = PortableRng(17)
        for k in range(30):
            theta = float(rng.uniform(1, -2, 2)[0])
            b = float(rng.uniform(1, -3, 3)[0])
            model = GaussianMeanModel(theta)
            batch = evaluation_batch(64, k, model)
            log_z = estimate_z(model, batch)
            upper = l_is_and_l_snl(model, b, 64, seed=k)[0]
            lower = snl_objective(model, b, TWO_POINT_DATA, log_z).value
            assert lower <= upper + 1e-12

    def test_gap_is_bregman_distance(self):
        # l_is - l_snl = h(exp(log Zhat - b)) with h(t) = t - 1 - log t
        model = GaussianMeanModel(0.5)
        batch = evaluation_batch(256, 9, model)
        log_z = estimate_z(model, batch)
        b = 1.1
        upper, lower = l_is_and_l_snl(model, b, 256, seed=9)
        t = np.exp(log_z - b)
        assert upper - lower == pytest.approx(t - 1.0 - np.log(t), rel=1e-12)

    def test_degenerate_estimate_rejected(self):
        with pytest.raises(DegenerateProposalError):
            bound_pair([(0, 1, np.array([[-np.inf]]))], [0.0], 1)


class TestBoundPair:
    def test_degenerate_group_is_named(self):
        logw = np.array([[0.0, 1.0], [-np.inf, -np.inf]])
        with pytest.raises(DegenerateProposalError, match="group 1"):
            bound_pair([(0, 2, logw)], [0.0, 0.0], 2)


class TestMaximizeOverB:
    def test_recovers_log_z_and_likelihood(self):
        b_star, val = maximize_over_b(4.0, 2.0)
        assert b_star == pytest.approx(2.0, abs=1e-8)
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_matches_exact_likelihood_for_oracles(self):
        for theta in (-1.5, 0.0, 0.8):
            model = GaussianMeanModel(theta)
            data_term = float(np.mean(model.unnorm_log_density(TWO_POINT_DATA)))
            b_star, val = maximize_over_b(data_term, model.exact_log_z())
            assert b_star == pytest.approx(model.exact_log_z(), abs=1e-8)
            assert val == pytest.approx(model.exact_log_likelihood(TWO_POINT_DATA), abs=1e-10)


class TestNce:
    def test_symmetric_classifier_loss(self):
        # model density == noise density: G = 0 everywhere, loss = 2 log 2
        m = GaussianMeanModel(0.0)
        q = StandardGaussian(1)
        batch = gaussian_batch(100, model=m)
        data = PortableRng(1).normal((50, 1))
        loss = nce_objective(m, 0.0, data, q, batch, nu=1.0)
        assert loss == pytest.approx(2.0 * np.log(2.0), rel=1e-12)

    def test_two_point_hand_value(self):
        # data {1}, noise {0}, q = 1/2: loss = -[log(0.6) + log(2/3)] = -log 0.4
        model = BinaryCubeModel(1, np.log(3.0))
        q = UniformCube(1)
        batch = ImportanceBatch(np.array([[0.0]]), -q.log_density(np.array([[0.0]])))
        loss = nce_objective(model, np.log(4.0), np.array([[1.0]]), q, batch, nu=1.0)
        assert loss == pytest.approx(-np.log(0.4), rel=1e-12)

    def test_separable_case_drives_loss_to_zero(self):
        model = GaussianMeanModel(10.0)
        q = StandardGaussian(1)
        data = np.array([[3.0]])
        batch = ImportanceBatch(np.array([[-3.0]]), -q.log_density(np.array([[-3.0]])))
        assert nce_objective(model, 0.0, data, q, batch, nu=1.0) < 1e-12

    def test_default_nu_is_sample_ratio(self):
        m = GaussianMeanModel(0.4)
        q = StandardGaussian(1)
        data = PortableRng(2).normal((10, 1))
        batch = gaussian_batch(40, seed=3, model=m)
        assert nce_objective(m, 0.1, data, q, batch) == pytest.approx(
            nce_objective(m, 0.1, data, q, batch, nu=4.0), rel=1e-15
        )

    def test_rejects_nonpositive_nu(self):
        m = GaussianMeanModel(0.0)
        q = StandardGaussian(1)
        batch = gaussian_batch(10, model=m)
        data = np.zeros((5, 1))
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                nce_objective(m, 0.0, data, q, batch, nu=bad)
            with pytest.raises(ValueError):
                nce_gradients(m, 0.0, data, q, batch, nu=bad)

    def test_gradients_match_finite_differences(self):
        model = GaussianMeanModel(0.6)
        q = StandardGaussian(1)
        data = TWO_POINT_DATA
        batch = gaussian_batch(100, seed=4, model=model)
        b = 0.2
        step = 1e-6

        def loss(theta, bv):
            model.theta = np.array([theta])
            return nce_objective(model, bv, data, q, batch, nu=2.0)

        got = nce_gradients(model, b, data, q, batch, nu=2.0)
        fd_theta = (loss(0.6 + step, b) - loss(0.6 - step, b)) / (2 * step)
        model.theta = np.array([0.6])
        fd_b = (loss(0.6, b + step) - loss(0.6, b - step)) / (2 * step)
        model.theta = np.array([0.6])
        assert got.grad_theta[0] == pytest.approx(fd_theta, rel=1e-6, abs=1e-9)
        assert got.grad_b == pytest.approx(fd_b, rel=1e-6, abs=1e-9)

    def test_stationary_at_truth_in_expectation(self):
        # at theta matching the data distribution and b = log Z, the NCE
        # gradient is a mean-zero estimator; with huge M it must be tiny
        model = GaussianMeanModel(0.0)
        q = StandardGaussian(1)
        data = PortableRng(5).normal((4000, 1))
        batch = gaussian_batch(200_000, seed=6, model=model)
        got = nce_gradients(model, 0.0, data, q, batch, nu=1.0)
        assert abs(got.grad_theta[0]) < 0.02
        assert abs(got.grad_b) < 0.02


class TestStepTerms:
    """The shared step kernel against central differences of its own value."""

    @pytest.mark.parametrize("objective", ["snl", "nce"])
    @pytest.mark.parametrize("k, r", [(1, 6), (5, 1)], ids=["density", "regression"])
    def test_cotangents_match_finite_differences(self, objective, k, r):
        rng = PortableRng(60)
        m = 4
        data = rng.normal((k, r)) - 1.0
        logw = rng.normal((k, m))
        b = rng.normal(k) * 0.5
        log_q_data = rng.normal((k, r)) if objective == "nce" else None

        def value(data, logw, b):
            return step_terms(data, logw, b, objective, 1.5, log_q_data)[0]

        _, d_data, d_samples, d_b = step_terms(data, logw, b, objective, 1.5, log_q_data)
        assert d_data.shape == (k, r) and d_samples.shape == (k, m) and d_b.shape == (k,)
        h = 1e-6
        # data and logw are -E (+ constants), so d value / d E is minus their derivative
        for arr, cot, sign in ((data, d_data, -1.0), (logw, d_samples, -1.0), (b, d_b, 1.0)):
            for idx in np.ndindex(arr.shape):
                saved = arr[idx]
                arr[idx] = saved + h
                up = value(data, logw, b)
                arr[idx] = saved - h
                down = value(data, logw, b)
                arr[idx] = saved
                assert sign * cot[idx] == pytest.approx((up - down) / (2 * h), rel=1e-6, abs=1e-9)

    def test_default_nu_is_draws_per_data_row(self):
        rng = PortableRng(61)
        data, lq = rng.normal((1, 4)), rng.normal((1, 4))
        shared, per_point = rng.normal((1, 8)), rng.normal((4, 3))
        b1, b4 = np.zeros(1), np.zeros(4)
        assert step_terms(data, shared, b1, "nce", None, lq)[0] == step_terms(data, shared, b1, "nce", 2.0, lq)[0]
        assert step_terms(data.T, per_point, b4, "nce", None, lq.T)[0] == step_terms(data.T, per_point, b4, "nce", 3.0, lq.T)[0]

    def test_rejects_bad_nu_and_objective(self):
        data, logw = np.zeros((1, 2)), np.zeros((1, 2))
        with pytest.raises(ValueError):
            step_terms(data, logw, np.zeros(1), "nce", 0.0, data)
        with pytest.raises(ValueError):
            step_terms(data, logw, np.zeros(1), "mle")


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestLogsumexp:
    """The numpy kernel against the installed scipy, bit for bit, at the
    shapes the package calls it with."""

    CALLS = [((1024,), None, False), ((1, 1024), 1, False), ((64, 16), 1, False),
             ((64, 16, 2), 2, False), ((64, 2), 1, True)]

    @staticmethod
    def both(a, axis, keepdims):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return (logsumexp(a, axis=axis, keepdims=keepdims),
                    scipy.special.logsumexp(a, axis=axis, keepdims=keepdims))

    @pytest.mark.parametrize("shape, axis, keepdims", CALLS)
    def test_random_inputs(self, shape, axis, keepdims):
        rng = PortableRng(70)
        for scale in (1e-3, 1.0, 30.0, 700.0):
            a = rng.normal(shape) * scale
            got, want = self.both(a, axis, keepdims)
            assert same_bits(got, want), (scale, got, want)
            assert type(got) is type(want)

    @pytest.mark.parametrize("shape, axis, keepdims", CALLS)
    def test_edge_cases(self, shape, axis, keepdims):
        base = PortableRng(71).normal(shape)
        cases = {"tied maxima": np.round(base)}
        if axis is None:
            cases["all -inf"] = np.full(shape, -np.inf)
        else:
            a = base.copy()
            a[(0,) * (len(shape) - 1)] = -np.inf  # one reduced slice all -inf
            cases["all -inf slice"] = a
        for name, value in (("+inf", np.inf), ("nan", np.nan), ("-inf entry", -np.inf)):
            a = base.copy()
            a.flat[3] = value
            cases[name] = a
        cases["1e308"] = np.full(shape, 1e308)
        big = base.copy()
        big.flat[:2] = 1.7976931348623157e308
        cases["overflow"] = big
        for name, a in cases.items():
            got, want = self.both(a, axis, keepdims)
            assert same_bits(got, want), (name, got, want)


class TestGeneralizedKl:
    @staticmethod
    def gauss(mu):
        return lambda pts: norm.pdf(pts[:, 0], loc=mu, scale=1.0)

    def test_zero_on_identical_inputs(self):
        quad = trapezoid_1d(-10, 10, 2001)
        assert generalized_kl(self.gauss(0.0), self.gauss(0.0), quad) == 0.0

    def test_scaling_penalty(self):
        # KL(f, e f) = integral f log(1/e) + e - 1 = e - 2 for normalized f
        quad = trapezoid_1d(-12, 12, 4001)
        f = self.gauss(0.0)
        scaled = lambda pts: np.e * f(pts)
        got = generalized_kl(f, scaled, quad)
        assert got == pytest.approx(np.e - 2.0, abs=1e-9)

    def test_unit_gaussians_shifted_by_one(self):
        quad = trapezoid_1d(-12, 13, 4001)
        got = generalized_kl(self.gauss(0.0), self.gauss(1.0), quad)
        assert got == pytest.approx(0.5, abs=1e-9)

    def test_support_mismatch_is_infinite(self):
        quad = discrete_points(np.array([[0.0], [1.0]]))
        f1 = lambda pts: np.ones(pts.shape[0])
        f2 = lambda pts: (pts[:, 0] == 0.0).astype(float)
        assert generalized_kl(f1, f2, quad) == np.inf

    def test_nonneg_for_unnormalized_pairs(self):
        quad = trapezoid_1d(-8, 8, 1001)
        rng = PortableRng(30)
        for k in range(20):
            a, c = float(rng.uniform(1, 0.2, 3)[0]), float(rng.uniform(1, 0.2, 3)[0])
            mu = float(rng.uniform(1, -2, 2)[0])
            f1 = lambda pts: a * norm.pdf(pts[:, 0], loc=0.0, scale=1.0)
            f2 = lambda pts: c * norm.pdf(pts[:, 0], loc=mu, scale=1.0)
            assert generalized_kl(f1, f2, quad) >= -1e-10

    def test_rejects_negative_or_nonfinite(self):
        quad = trapezoid_1d(-1, 1, 11)
        neg = lambda pts: -np.ones(pts.shape[0])
        ok = lambda pts: np.ones(pts.shape[0])
        bad = lambda pts: np.full(pts.shape[0], np.nan)
        with pytest.raises(ValueError):
            generalized_kl(neg, ok, quad)
        with pytest.raises(ValueError):
            generalized_kl(ok, bad, quad)

    def test_counting_measure_bernoulli(self):
        # KL between Bernoulli(2/3) and Bernoulli(1/2) over the enumerated domain
        quad = discrete_points(cube_states(1))
        f1 = lambda pts: np.where(pts[:, 0] > 0.5, 2.0 / 3.0, 1.0 / 3.0)
        f2 = lambda pts: np.full(pts.shape[0], 0.5)
        want = (1 / 3) * np.log((1 / 3) / 0.5) + (2 / 3) * np.log((2 / 3) / 0.5)
        assert generalized_kl(f1, f2, quad) == pytest.approx(want, rel=1e-12)


class TestQuadrature:
    def test_weights_sum_to_length(self):
        q = trapezoid_1d(-3.0, 5.0, 101)
        assert q.weights.sum() == pytest.approx(8.0, rel=1e-14)

    def test_integrates_polynomial(self):
        q = trapezoid_1d(0.0, 1.0, 1001)
        got = float(np.sum(q.weights * q.points[:, 0] ** 2))
        assert got == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_2d_integrates_gaussian_to_one(self):
        q = trapezoid_2d(-8.0, 8.0, 161)
        vals = np.exp(-0.5 * np.sum(q.points**2, axis=1)) / (2 * np.pi)
        assert float(np.sum(q.weights * vals)) == pytest.approx(1.0, abs=1e-6)

    def test_discrete_points_reshapes_vectors(self):
        q = discrete_points(np.array([0.0, 1.0, 2.0]))
        assert q.points.shape == (3, 1)
        np.testing.assert_array_equal(q.weights, np.ones(3))
