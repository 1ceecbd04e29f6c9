"""Proposal distributions: densities, sampling, fitting, serialization."""

import re

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

from snl_ebm.errors import DegenerateProposalError
from snl_ebm.proposals import (
    FittedGaussian,
    MdnProposal,
    StandardGaussian,
    UniformBox,
    fit_box,
    fit_gaussian,
    from_descriptor,
    sample_and_score,
)
from snl_ebm.rng import PortableRng
from reference import ExhaustiveCube, UniformCube, mdn_log_likelihood, mdn_log_likelihood_and_fit


class TestStandardGaussian:
    def test_log_density_matches_scipy(self):
        q = StandardGaussian(3)
        x = PortableRng(0).normal((20, 3))
        want = multivariate_normal(mean=np.zeros(3)).logpdf(x)
        np.testing.assert_allclose(q.log_density(x), want, rtol=1e-12)

    def test_sample_moments(self):
        q = StandardGaussian(2)
        x = q.sample(PortableRng(1), 100_000)
        assert np.all(np.abs(x.mean(axis=0)) < 0.02)
        np.testing.assert_allclose(np.cov(x.T), np.eye(2), atol=0.02)

    def test_descriptor_roundtrip(self):
        q = StandardGaussian(5)
        again = from_descriptor(q.descriptor())
        assert isinstance(again, StandardGaussian) and again.dim == 5


class TestFitGaussian:
    def test_two_point_variance_is_unbiased(self):
        fit = fit_gaussian(np.array([[-1.0], [1.0]]))
        assert fit.mean[0] == 0.0
        # unbiased: ((1)^2 + (1)^2) / (2 - 1) = 2, plus the relative ridge
        assert fit.cov[0, 0] == pytest.approx(2.0 * (1.0 + 1e-6), rel=1e-12)

    def test_identical_points_rejected(self):
        with pytest.raises(DegenerateProposalError):
            fit_gaussian(np.zeros((5, 1)))

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_gaussian(np.array([[0.0, 1.0], [1.0, 0.0]]))  # n = dim
        with pytest.raises(ValueError):
            fit_gaussian(np.zeros(4))  # not 2-d

    def test_recovers_population_moments(self):
        rng = PortableRng(2)
        z = rng.normal((100_000, 2))
        chol = np.array([[1.0, 0.0], [0.8, 0.6]])
        data = np.array([1.0, -2.0]) + z @ chol.T
        fit = fit_gaussian(data)
        np.testing.assert_allclose(fit.mean, [1.0, -2.0], atol=0.02)
        np.testing.assert_allclose(fit.cov, chol @ chol.T, atol=0.03)

    def test_log_density_matches_scipy(self):
        data = PortableRng(3).normal((500, 2)) * np.array([2.0, 0.5]) + 1.0
        fit = fit_gaussian(data)
        x = PortableRng(4).normal((30, 2))
        want = multivariate_normal(mean=fit.mean, cov=fit.cov).logpdf(x)
        np.testing.assert_allclose(fit.log_density(x), want, rtol=1e-10)

    def test_log_density_solves_once_at_construction(self, monkeypatch):
        # a per-call LAPACK solve wakes scipy's own BLAS thread pool, which
        # then competes with numpy's for the CPUs
        from scipy.linalg import solve_triangular

        fit_1 = fit_gaussian(PortableRng(7).normal((40, 1)) * 1.7 + 0.3)
        fit_2 = fit_gaussian(PortableRng(8).normal((40, 2)))
        x_1 = PortableRng(9).normal((1000, 1)) * 3.0
        x_2 = PortableRng(10).normal((1000, 2))

        def refuse(*args, **kwargs):
            raise AssertionError("log_density called the triangular solver")

        # FittedGaussian imports the solver from scipy.linalg when it is built
        monkeypatch.setattr("scipy.linalg.solve_triangular", refuse)
        got_1, got_2 = fit_1.log_density(x_1), fit_2.log_density(x_2)
        monkeypatch.undo()

        def solved(fit, x):
            y = solve_triangular(fit._chol, (x - fit.mean).T, lower=True)
            return -0.5 * (fit.dim * np.log(2 * np.pi) + fit._log_det + np.sum(y * y, axis=0))

        np.testing.assert_array_equal(got_1, solved(fit_1, x_1))  # one dimension: the same bits
        np.testing.assert_allclose(got_2, solved(fit_2, x_2), rtol=1e-13)

    def test_sampling_matches_fit(self):
        fit = FittedGaussian([0.5, -0.5], [[2.0, 0.5], [0.5, 1.0]])
        x = fit.sample(PortableRng(5), 200_000)
        np.testing.assert_allclose(x.mean(axis=0), fit.mean, atol=0.02)
        np.testing.assert_allclose(np.cov(x.T), fit.cov, atol=0.03)

    def test_descriptor_roundtrip_exact(self):
        fit = fit_gaussian(PortableRng(6).normal((50, 2)))
        again = from_descriptor(fit.descriptor())
        assert np.array_equal(again.mean, fit.mean)
        assert np.array_equal(again.cov, fit.cov)


class TestUniformBox:
    def test_log_density_is_negative_log_volume(self):
        box = UniformBox([-2.0, -2.0, -2.0], [2.0, 2.0, 2.0])
        inside = np.array([[0.0, 0.0, 0.0], [2.0, -2.0, 1.0]])
        np.testing.assert_allclose(box.log_density(inside), -np.log(64.0), rtol=1e-15)

    def test_outside_is_minus_infinity(self):
        box = UniformBox([0.0], [1.0])
        out = box.log_density(np.array([[1.5], [-0.1], [0.5]]))
        assert out[0] == -np.inf and out[1] == -np.inf and np.isfinite(out[2])

    def test_rejects_empty_box(self):
        with pytest.raises(ValueError):
            UniformBox([0.0, 0.0], [1.0, 0.0])

    def test_samples_stay_inside(self):
        box = UniformBox([-1.0, 2.0], [1.0, 5.0])
        x = box.sample(PortableRng(7), 10_000)
        assert np.all(x >= box.lo) and np.all(x < box.hi)
        np.testing.assert_allclose(x.mean(axis=0), [0.0, 3.5], atol=0.03)

    def test_descriptor_roundtrip(self):
        box = UniformBox([-3.0], [4.0])
        again = from_descriptor(box.descriptor())
        assert np.array_equal(again.lo, box.lo) and np.array_equal(again.hi, box.hi)


class TestFitBox:
    def test_relative_margin(self):
        box = fit_box(np.array([[0.0, 1.0], [2.0, 5.0]]))
        np.testing.assert_allclose(box.lo, [-0.2, 0.6], rtol=1e-12)
        np.testing.assert_allclose(box.hi, [2.2, 5.4], rtol=1e-12)

    def test_degenerate_column_stays_ordered(self):
        box = fit_box(np.array([[1.0, 0.0], [1.0, 2.0]]))
        assert box.lo[0] < box.hi[0]


class TestTwoPoint:
    """The d = 1 cube, the two-point support {0, 1}."""

    def test_density_on_and_off_support(self):
        q = UniformCube(1)
        out = q.log_density(np.array([[0.0], [1.0], [0.5]]))
        assert out[0] == out[1] == pytest.approx(-np.log(2.0), abs=0)
        assert out[2] == -np.inf

    def test_sample_frequencies(self):
        x = UniformCube(1).sample(PortableRng(8), 40_000)[:, 0]
        assert set(np.unique(x)) == {0.0, 1.0}
        assert abs(x.mean() - 0.5) < 0.01

    def test_exhaustive_enumeration_replaces_sampling(self):
        batch = sample_and_score(ExhaustiveCube(1), PortableRng(9), 12345)
        np.testing.assert_array_equal(batch.samples, [[0.0], [1.0]])
        np.testing.assert_allclose(batch.log_measure, np.log(2.0) * np.ones(2))


class TestUniformCube:
    def test_log_density_is_one_value_per_row(self):
        # rows with a 0.5 or a 2.0 coordinate are off {0, 1}^3
        x = np.array([[0.0, 1.0, 1.0], [0.0, 0.5, 1.0], [2.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        for q in (UniformCube(3), ExhaustiveCube(3)):
            out = q.log_density(x)
            assert out.shape == (4,)
            np.testing.assert_array_equal(out, [-3 * np.log(2.0), -np.inf, -np.inf, -3 * np.log(2.0)])

    def test_sample_frequencies(self):
        x = UniformCube(3).sample(PortableRng(13), 40_000)
        assert x.shape == (40_000, 3)
        _, counts = np.unique(x, axis=0, return_counts=True)
        assert counts.size == 8
        assert np.all(np.abs(counts / 40_000 - 0.125) < 0.01)

    def test_exhaustive_lists_every_state_and_reads_no_stream(self):
        rng = PortableRng(14)
        x = ExhaustiveCube(3).sample(rng, 5)
        assert rng.counter == 0
        assert x.shape == (8, 3)
        assert np.unique(x, axis=0).shape == (8, 3)
        np.testing.assert_array_equal(UniformCube(3).log_density(x), np.full(8, -3 * np.log(2.0)))


class TestSampleAndScore:
    def test_shapes_and_scores(self):
        q = StandardGaussian(2)
        batch = sample_and_score(q, PortableRng(10), 64)
        assert batch.samples.shape == (64, 2)
        assert batch.log_measure.shape == (64,)
        np.testing.assert_array_equal(batch.log_measure, -q.log_density(batch.samples))

    def test_base_scored_once(self):
        q = StandardGaussian(1)
        base = UniformBox([-5.0], [5.0])
        batch = sample_and_score(q, PortableRng(11), 32, base=base)
        np.testing.assert_array_equal(batch.log_measure, base.log_density(batch.samples) - q.log_density(batch.samples))

    def test_mean_of_draws_obeys_clt(self):
        q = StandardGaussian(1)
        batch = sample_and_score(q, PortableRng(12), 100_000)
        assert abs(batch.samples.mean()) < 3.0 / np.sqrt(100_000)


class TestMdnProposal:
    @staticmethod
    def features(n):
        return PortableRng(100).normal((n, 4))

    def test_single_component_is_a_gaussian(self):
        mdn = MdnProposal(4, 1, PortableRng(13))
        f = self.features(10)
        heads = mdn.heads(f)
        y = PortableRng(14).normal(10)
        want = norm.logpdf(y, loc=heads.mu[:, 0], scale=heads.sigma[:, 0])
        np.testing.assert_allclose(mdn.log_density(heads, y), want, atol=1e-12)

    def test_density_normalizes_to_one(self):
        mdn = MdnProposal(4, 3, PortableRng(15))
        f = self.features(1)
        ys = np.linspace(-40.0, 40.0, 16001)
        dens = np.exp(mdn.log_density(mdn.heads(np.repeat(f, ys.size, axis=0)), ys))
        mass = np.trapezoid(dens, ys)
        assert mass == pytest.approx(1.0, abs=1e-3)

    def test_samples_match_density_histogram(self):
        mdn = MdnProposal(4, 2, PortableRng(16))
        f = self.features(1)
        draws = mdn.sample(PortableRng(17), mdn.heads(f), 100_000)[0]
        edges = np.linspace(-6.0, 6.0, 25)
        counts, _ = np.histogram(draws, bins=edges)
        ys = np.linspace(-6.0, 6.0, 4801)
        dens = np.exp(mdn.log_density(mdn.heads(np.repeat(f, ys.size, axis=0)), ys))
        cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(ys))])
        probs = np.interp(edges, ys, cdf)
        expected = np.diff(probs) * draws.size
        keep = expected > 20
        chi2 = float(np.sum((counts[keep] - expected[keep]) ** 2 / expected[keep]))
        # dof <= 23; 99.9th percentile of chi2(23) is 49.7
        assert chi2 < 49.7

    def test_loglik_gradient_matches_finite_differences(self):
        mdn = MdnProposal(3, 2, PortableRng(18))
        f = PortableRng(19).normal((12, 3))
        y = PortableRng(20).normal(12)
        _, grad = mdn.loglik_gradient(mdn.heads(f), y)
        theta0 = mdn.theta
        step = 1e-6
        for i in range(0, theta0.size, 17):  # spot-check a spread of coordinates
            up = theta0.copy()
            up[i] += step
            mdn.theta = up
            v_up = mdn_log_likelihood(mdn, f, y)
            down = theta0.copy()
            down[i] -= step
            mdn.theta = down
            v_down = mdn_log_likelihood(mdn, f, y)
            fd = (v_up - v_down) / (2 * step)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)
        mdn.theta = theta0

    def test_fit_approaches_gaussian_entropy_bound(self):
        # constant features make the MDN unconditional; the best attainable
        # mean log-likelihood on N(0,1) data is about -0.5 log(2 pi e)
        rng = PortableRng(21)
        y = rng.normal(2000)
        f = np.zeros((2000, 2))
        mdn = MdnProposal(2, 2, PortableRng(22))
        history = mdn_log_likelihood_and_fit(mdn, f, y, epochs=400, learning_rate=1e-2)
        optimum = -0.5 * np.log(2 * np.pi * np.e)
        sample_opt = optimum + 0.0  # CLT wiggle of the sample entropy is < 0.03 here
        assert history[-1] > sample_opt - 0.05
        assert history[-1] < sample_opt + 0.05

    def test_zero_epochs_change_nothing(self):
        mdn = MdnProposal(2, 2, PortableRng(23))
        before = mdn.theta
        history = mdn_log_likelihood_and_fit(mdn, np.zeros((10, 2)), np.zeros(10), epochs=0)
        assert history == []
        np.testing.assert_array_equal(mdn.theta, before)

    def test_nonfinite_target_aborts_keeping_state(self):
        mdn = MdnProposal(2, 1, PortableRng(24))
        before = mdn.theta
        y = np.array([0.0, np.nan, 1.0])
        history = mdn_log_likelihood_and_fit(mdn, np.zeros((3, 2)), y, epochs=50)
        assert history == []
        np.testing.assert_array_equal(mdn.theta, before)

    def test_scale_floor_respected(self):
        mdn = MdnProposal(2, 2, PortableRng(27))
        # force hugely negative raw scales
        mdn.scale_net.theta = mdn.scale_net.theta * 0.0 - 0.0
        mdn.scale_net.biases[-1][...] = np.full(2, -100.0)
        assert np.all(mdn.heads(np.ones((3, 2))).sigma >= MdnProposal.SCALE_FLOOR)


def test_from_descriptor_rejects_unknown_kind():
    with pytest.raises(ValueError):
        from_descriptor({"kind": "cauchy"})


@pytest.mark.parametrize("kind", ["uniform_cube", "exhaustive_cube", "two_point_uniform", "two_point_exhaustive"])
def test_cube_kinds_are_not_read(kind):
    # no checkpoint stores a cube distribution, so the reader knows none
    with pytest.raises(ValueError, match=f"^unknown distribution kind '{kind}'$"):
        from_descriptor({"kind": kind, "dim": 3})


@pytest.mark.parametrize("desc, named", [
    ({"kind": "fitted_gaussian", "mean": ["0", "inf"], "cov": [["1", "0"], ["0", "1"]]},
     "mean: must be finite, got inf at index 1"),
    ({"kind": "fitted_gaussian", "mean": ["0"], "cov": "1"}, "cov: expected a list, got str"),
    ({"kind": "uniform_box", "lo": ["0", "x"], "hi": ["1", "1"]}, "lo: could not convert string to float: 'x'"),
    ({"kind": "uniform_box", "lo": ["0"], "hi": ["1e999"]}, "hi: must be finite, got inf at index 0"),
    ({"kind": "standard_gaussian", "dim": 2.9}, "dim: expected an integer of at least 1, got 2.9"),
    ({"kind": "standard_gaussian", "dim": 2.0}, "dim: expected an integer of at least 1, got 2.0"),
    ({"kind": "standard_gaussian", "dim": True}, "dim: expected an integer of at least 1, got True"),
    ({"kind": "standard_gaussian", "dim": "2"}, "dim: expected an integer of at least 1, got '2'"),
    ({"kind": "standard_gaussian", "dim": 0}, "dim: expected an integer of at least 1, got 0"),
], ids=["inf-mean", "flat-cov", "word-lo", "huge-hi", "fractional-dim", "float-dim", "bool-dim", "text-dim",
        "zero-dim"])
def test_from_descriptor_names_the_bad_number(desc, named):
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        from_descriptor(desc)
