"""Closed-form oracles and the MLP energy.

The scalar oracles (the Gaussian mean and the d = 1 cube, the Bernoulli)
have everything in closed form (normalizer, its gradient, the likelihood
optimum), so the values asserted here were derived by hand and frozen; they
anchor every later estimator test. The d-cube is checked against a sum over
its states written out here and against finite differences.
"""

import itertools

import numpy as np
import pytest

from snl_ebm.errors import UnsupportedExactFormError
from snl_ebm.models import DENSITY_WIDTHS, BinaryCubeModel, GaussianMeanModel, MlpEnergy
from snl_ebm.proposals import StandardGaussian, cube_states
from snl_ebm.rng import PortableRng
from reference import energy_vjp, param_gradient, weight_log_numerator


class TestGaussianMeanModel:
    def test_energy_is_linear(self):
        m = GaussianMeanModel(theta=3.0)
        x = np.array([[2.0], [-1.0], [0.0]])
        np.testing.assert_array_equal(m.energy(x), [-6.0, 3.0, 0.0])

    def test_log_z_closed_form(self):
        assert GaussianMeanModel(0.0).exact_log_z() == 0.0
        assert GaussianMeanModel(1.0).exact_log_z() == 0.5
        assert GaussianMeanModel(-2.0).exact_log_z() == 2.0

    def test_log_z_grad_is_mean(self):
        np.testing.assert_array_equal(GaussianMeanModel(1.7).exact_log_z_grad(), [1.7])

    def test_log_z_grad_matches_finite_difference(self):
        m = GaussianMeanModel(0.8)
        step = 1e-6
        m.theta = np.array([0.8 + step])
        up = m.exact_log_z()
        m.theta = np.array([0.8 - step])
        down = m.exact_log_z()
        assert abs((up - down) / (2 * step) - 0.8) < 1e-8

    def test_exact_log_likelihood_at_optimum(self):
        # theta = x_bar = 2: mean(theta x) - theta^2/2 = 4 - 2 = 2
        data = np.array([[1.0], [3.0]])
        assert GaussianMeanModel(2.0).exact_log_likelihood(data) == 2.0

    def test_exact_log_likelihood_at_zero(self):
        data = np.array([[1.0], [3.0]])
        assert GaussianMeanModel(0.0).exact_log_likelihood(data) == 0.0

    def test_carrier_convention(self):
        # data term drops the carrier; weights include it
        m = GaussianMeanModel(1.0)
        assert m.base_is_carrier
        x = np.array([[0.5]])
        assert m.unnorm_log_density(x)[0] == 0.5
        log_phi = StandardGaussian(1).log_density(x)[0]
        assert weight_log_numerator(m, x)[0] == pytest.approx(0.5 + log_phi, abs=0)

    def test_weights_constant_when_proposal_is_base(self):
        # q = carrier makes w = e^{-E}: log w = theta x, no Gaussian residue
        m = GaussianMeanModel(0.7)
        q = StandardGaussian(1)
        x = PortableRng(0).normal((50, 1))
        logw = weight_log_numerator(m, x) - q.log_density(x)
        np.testing.assert_allclose(logw, 0.7 * x[:, 0], rtol=0, atol=1e-12)

    def test_vjp_sums_cotangent(self):
        m = GaussianMeanModel(0.0)
        x = np.array([[1.0], [2.0], [3.0]])
        got = energy_vjp(m, x, np.array([1.0, 1.0, 0.5]))
        np.testing.assert_array_equal(got, [-(1.0 + 2.0 + 1.5)])


class TestBernoulliModel:
    """The d = 1 cube."""

    def test_log_z_closed_form(self):
        assert BinaryCubeModel(1, 0.0).exact_log_z() == pytest.approx(np.log(2.0), abs=0)
        assert BinaryCubeModel(1, 1.0).exact_log_z() == pytest.approx(np.log(1 + np.e), rel=1e-15)

    def test_log_z_grad_is_sigmoid(self):
        np.testing.assert_allclose(BinaryCubeModel(1, 0.0).exact_log_z_grad(), [0.5], atol=0)

    def test_exact_log_likelihood_fair_coin(self):
        data = np.array([[0.0], [1.0], [1.0], [0.0]])
        assert BinaryCubeModel(1, 0.0).exact_log_likelihood(data) == pytest.approx(-np.log(2.0), abs=0)

    def test_support_enumeration(self):
        np.testing.assert_array_equal(cube_states(1), [[0.0], [1.0]])

    def test_optimum_is_logit_of_mean(self):
        # d/dtheta [theta x_bar - log(1 + e^theta)] = 0 at theta = logit(x_bar)
        x_bar = 0.75
        theta = np.log(x_bar / (1 - x_bar))
        m = BinaryCubeModel(1, theta)
        assert m.exact_log_z_grad()[0] == pytest.approx(x_bar, rel=1e-14)

    def test_counting_measure_has_no_base(self):
        m = BinaryCubeModel(1, 2.0)
        assert m.base is None
        x = np.array([[1.0]])
        assert m.unnorm_log_density(x)[0] == 2.0
        assert weight_log_numerator(m, x)[0] == 2.0


class TestBinaryCubeModel:
    def test_statistic_is_units_then_pairs(self):
        m = BinaryCubeModel(3)
        assert m.n_params == 6
        # x = (1, 0, 1): x0, x1, x2, then x0 x1, x0 x2, x1 x2
        np.testing.assert_array_equal(m.statistic(np.array([[1.0, 0.0, 1.0]])), [[1, 0, 1, 0, 1, 0]])

    def test_scalar_theta_fills_every_parameter(self):
        np.testing.assert_array_equal(BinaryCubeModel(3, 0.5).theta, np.full(6, 0.5))
        with pytest.raises(ValueError):
            BinaryCubeModel(3, np.zeros(5))

    def test_log_z_matches_sum_over_states(self):
        theta = PortableRng(10).uniform(6, -1.5, 1.5)
        m = BinaryCubeModel(3, theta)
        total = 0.0
        for a, b, c in itertools.product((0.0, 1.0), repeat=3):
            t = [a, b, c, a * b, a * c, b * c]
            total += np.exp(np.dot(theta, t))
        assert m.exact_log_z() == pytest.approx(np.log(total), rel=1e-14)
        assert cube_states(3).shape == (8, 3)

    def test_log_z_grad_matches_finite_difference(self):
        theta = PortableRng(11).uniform(6, -1.0, 1.0)
        m = BinaryCubeModel(3, theta)
        grad = m.exact_log_z_grad()
        step = 1e-6
        for j in range(6):
            e = np.zeros(6)
            e[j] = step
            m.theta = theta + e
            up = m.exact_log_z()
            m.theta = theta - e
            down = m.exact_log_z()
            assert abs((up - down) / (2 * step) - grad[j]) < 1e-8

    def test_vjp_matches_sum_of_pointwise(self):
        m = BinaryCubeModel(3, PortableRng(12).uniform(6, -1.0, 1.0))
        x = cube_states(3)[[1, 4, 7, 6]]
        cot = np.array([0.2, -1.0, 0.5, 2.0])
        whole = energy_vjp(m, x, cot)
        summed = sum(c * param_gradient(m, xi) for c, xi in zip(cot, x))
        np.testing.assert_allclose(whole, summed, rtol=1e-14, atol=1e-14)
        np.testing.assert_array_equal(param_gradient(m, x[2]), -m.statistic(x[2:3])[0])


class TestMlpEnergy:
    def test_default_widths(self):
        m = MlpEnergy(DENSITY_WIDTHS)
        assert m.net.widths == DENSITY_WIDTHS
        assert m.dim == 2

    def test_param_count_default(self):
        widths = DENSITY_WIDTHS
        want = sum(a * b + b for a, b in zip(widths[:-1], widths[1:]))
        assert MlpEnergy(DENSITY_WIDTHS).n_params == want

    def test_zero_init_energy_is_zero(self):
        m = MlpEnergy(DENSITY_WIDTHS)
        x = PortableRng(1).normal((10, 2))
        np.testing.assert_array_equal(m.energy(x), np.zeros(10))

    def test_zero_init_gradient_is_output_bias_only(self):
        # dead ReLUs everywhere except the last bias, whose derivative is 1
        m = MlpEnergy(DENSITY_WIDTHS)
        g = param_gradient(m, np.array([0.3, -0.7]))
        assert g[-1] == 1.0
        assert np.count_nonzero(g) == 1

    def test_rejects_nonscalar_output(self):
        with pytest.raises(ValueError):
            MlpEnergy([2, 10, 2])

    def test_rejects_mismatched_base(self):
        with pytest.raises(ValueError):
            MlpEnergy([2, 5, 1], base=StandardGaussian(3))

    def test_tilt_convention_counts_base_twice(self):
        # tilted model: base contributes to both reported density and weights
        base = StandardGaussian(2)
        m = MlpEnergy([2, 5, 1], base=base, rng=PortableRng(2))
        x = PortableRng(3).normal((6, 2))
        e = m.energy(x)
        lp = base.log_density(x)
        np.testing.assert_allclose(m.unnorm_log_density(x), -e + lp, atol=0)
        np.testing.assert_allclose(weight_log_numerator(m, x), -e + lp, atol=0)
        assert not m.base_is_carrier

    def test_no_base_unnorm_is_negative_energy(self):
        m = MlpEnergy([2, 8, 1], rng=PortableRng(4))
        x = PortableRng(5).normal((4, 2))
        np.testing.assert_array_equal(m.unnorm_log_density(x), -m.energy(x))

    def test_vjp_matches_sum_of_pointwise(self):
        m = MlpEnergy([2, 6, 1], rng=PortableRng(6))
        x = PortableRng(7).normal((5, 2))
        cot = np.array([0.2, -1.0, 0.5, 2.0, 0.0])
        whole = energy_vjp(m, x, cot)
        summed = sum(c * param_gradient(m, xi) for c, xi in zip(cot, x))
        np.testing.assert_allclose(whole, summed, rtol=1e-12, atol=1e-12)

    def test_prepared_vjp_matches_plain(self):
        m = MlpEnergy([2, 6, 1], rng=PortableRng(8))
        x = PortableRng(9).normal((5, 2))
        e, vjp = m.energy_vjp_prepared(x)
        np.testing.assert_array_equal(e, m.energy(x))
        cot = np.linspace(-1, 1, 5)
        np.testing.assert_array_equal(vjp(cot), energy_vjp(m, x, cot))

    def test_exact_forms_unavailable(self):
        m = MlpEnergy([2, 5, 1])
        with pytest.raises(UnsupportedExactFormError):
            m.exact_log_z()
        with pytest.raises(UnsupportedExactFormError):
            m.exact_log_z_grad()
