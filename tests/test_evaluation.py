"""Held-out reporting: the two likelihood forms on shared draws, the grid
export, and the bounding-box helper."""

import warnings

import numpy as np
import pytest

from snl_ebm.evaluation import (
    DensityGrid,
    EvalReport,
    SplitReport,
    data_bounds,
    density_grid,
    evaluate,
    grid_points,
)
from snl_ebm.models import GaussianMeanModel, MlpEnergy
from snl_ebm.nets import Mlp
from snl_ebm.objectives import SNL_SHIFT_CAP, estimate_z, log_weights
from snl_ebm.proposals import FittedGaussian, StandardGaussian, sample_and_score
from snl_ebm.rng import PortableRng
from reference import weight_log_numerator

TWO_POINT = np.array([[1.0], [3.0]])


class TestEvaluate:
    def test_zero_model_is_exactly_zero(self):
        # base and proposal are the same standard normal, so every weight
        # cancels bitwise and both forms come out identically zero
        model = GaussianMeanModel(0.0)
        report = evaluate(model, 0.0, {"test": TWO_POINT}, StandardGaussian(1), n_samples=200, seed=3)
        (split,) = report.splits
        assert report.log_z_estimate == 0.0
        assert split.l_is == 0.0
        assert split.l_snl == 0.0
        assert split.l_is_se == 0.0
        assert split.l_snl_se == 0.0

    def test_empty_split_is_named(self):
        model = GaussianMeanModel(0.0)
        with pytest.raises(ValueError, match="split 'val' is empty"):
            evaluate(model, 0.0, {"test": TWO_POINT, "val": np.empty((0, 1))}, StandardGaussian(1),
                     n_samples=50, seed=0)

    def test_matched_proposal_recovers_exact_likelihood(self):
        # q = N(theta, 1) makes the importance weights constant, so even a
        # modest sample count nails l = mean(theta x) - theta^2 / 2 = 2
        model = GaussianMeanModel(2.0)
        q = FittedGaussian([2.0], [[1.0]])
        report = evaluate(model, 2.0, {"test": TWO_POINT}, q, n_samples=64, seed=0)
        (split,) = report.splits
        assert report.log_z_estimate == pytest.approx(2.0, abs=1e-12)
        assert split.l_is == pytest.approx(2.0, abs=1e-12)
        assert split.l_snl == pytest.approx(2.0, abs=1e-12)
        assert split.l_is_se < 1e-10
        assert split.l_snl_se < 1e-10
        assert not report.sandwich_violated()

    def test_data_term_and_its_error(self):
        model = GaussianMeanModel(2.0)
        report = evaluate(model, 1.0, {"test": TWO_POINT}, StandardGaussian(1), n_samples=50, seed=1)
        (split,) = report.splits
        want = model.unnorm_log_density(TWO_POINT)
        assert split.data_term == pytest.approx(float(want.mean()), abs=0)
        assert split.data_term_se == pytest.approx(float(np.std(want, ddof=1) / np.sqrt(2)), abs=0)
        assert split.n == 2

    def test_splits_share_the_normalizer_estimate(self):
        model = GaussianMeanModel(1.5)
        rng = PortableRng(77)
        splits = {"train": rng.normal((40, 1)) + 1.5, "val": rng.normal((10, 1)) + 1.5}
        report = evaluate(model, 1.0, splits, StandardGaussian(1), n_samples=400, seed=5)
        tr, va = report.splits
        assert (tr.name, va.name) == ("train", "val")
        assert tr.l_is_se == va.l_is_se
        # shared Z_hat: split differences reduce to data-term differences
        assert tr.l_is - va.l_is == pytest.approx(tr.data_term - va.data_term, rel=1e-12)
        assert tr.l_snl - va.l_snl == pytest.approx(tr.data_term - va.data_term, rel=1e-9)

    def test_deterministic_in_seed(self):
        model = GaussianMeanModel(0.7)
        a = evaluate(model, 0.3, {"test": TWO_POINT}, StandardGaussian(1), n_samples=300, seed=9)
        b = evaluate(model, 0.3, {"test": TWO_POINT}, StandardGaussian(1), n_samples=300, seed=9)
        c = evaluate(model, 0.3, {"test": TWO_POINT}, StandardGaussian(1), n_samples=300, seed=10)
        assert a == b
        assert a.log_z_estimate != c.log_z_estimate

    def test_explicit_rng_overrides_seed(self):
        model = GaussianMeanModel(0.7)
        a = evaluate(model, 0.0, {"t": TWO_POINT}, StandardGaussian(1), n_samples=100,
                     seed=1, rng=PortableRng(4).split("evaluate"))
        b = evaluate(model, 0.0, {"t": TWO_POINT}, StandardGaussian(1), n_samples=100, seed=4)
        assert a.splits[0].l_is == b.splits[0].l_is

    def test_report_lines(self):
        model = GaussianMeanModel(0.0)
        report = evaluate(model, 0.0, {"test": TWO_POINT}, StandardGaussian(1),
                          n_samples=20, seed=2, dataset="toy")
        lines = report.lines()
        assert lines[0] == "dataset toy"
        assert "seed 2" in lines
        assert "n_samples 20" in lines
        keys = {ln.split()[0] for ln in lines}
        assert {"test.n", "test.data_term", "test.l_snl", "test.l_is", "test.l_is_se"} <= keys
        assert not any(ln.startswith("SANDWICH_VIOLATION") for ln in lines)


class TestSandwich:
    def test_pointwise_order_and_equality_at_log_z(self):
        model = GaussianMeanModel(1.2)
        rng = PortableRng(21)
        batch = sample_and_score(StandardGaussian(1), rng, 500, base=model.base)
        log_z = estimate_z(model, batch)

        def sandwich(b):  # (l_snl, l_is) on the 500 draws of ``batch``
            report = evaluate(model, b, {"t": TWO_POINT}, StandardGaussian(1), n_samples=500, rng=PortableRng(21))
            return report.splits[0].l_snl, report.splits[0].l_is

        for b in np.linspace(log_z - 3.0, log_z + 3.0, 25):
            lo, hi = sandwich(float(b))
            assert lo <= hi + 1e-12
        lo, hi = sandwich(float(log_z))
        assert lo == pytest.approx(hi, abs=1e-12)

    def test_standard_errors_match_dense_formula(self):
        # l_is_se = std(w / mean w) / sqrt(m) and l_snl_se = std(w e^{-b}) / sqrt(m)
        model = GaussianMeanModel(0.9)
        for b in (-0.4, 0.3, 2.0):
            report = evaluate(model, b, {"t": TWO_POINT}, StandardGaussian(1), n_samples=3000, seed=8)
            batch = sample_and_score(StandardGaussian(1), PortableRng(8).split("evaluate"), 3000, base=model.base)
            w = np.exp(log_weights(model, batch))
            (split,) = report.splits
            assert split.l_is_se == pytest.approx(np.std(w / w.mean(), ddof=1) / np.sqrt(3000), rel=1e-12)
            assert split.l_snl_se == pytest.approx(np.std(w * np.exp(-b), ddof=1) / np.sqrt(3000), rel=1e-12)
            assert report.log_z_estimate == pytest.approx(np.log(w.mean()), rel=1e-12)

    @pytest.mark.parametrize("b", [-650.0, -800.0])
    def test_overflowing_normalizer_term(self, b):
        # past SNL_SHIFT_CAP the l_snl error is nan; where e^{log Z_hat - b}
        # overflows l_snl is -inf; l_is is unaffected and nothing warns
        model = GaussianMeanModel(1.0)
        ref = evaluate(model, 0.0, {"t": TWO_POINT}, StandardGaussian(1), n_samples=200, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = evaluate(model, b, {"t": TWO_POINT}, StandardGaussian(1), n_samples=200, seed=4)
        (split,), (want,) = report.splits, ref.splits
        assert -b > SNL_SHIFT_CAP
        assert split.l_is == pytest.approx(want.l_is, rel=1e-12)
        assert split.l_is_se == want.l_is_se
        assert np.isnan(split.l_snl_se)
        if b == -800.0:
            assert split.l_snl == -np.inf
        else:
            assert np.isfinite(split.l_snl) and split.l_snl < -1e280

    def test_violation_flag_on_fabricated_report(self):
        good = SplitReport("t", 2, 0.0, 0.0, l_snl=1.0, l_is=1.5, l_snl_se=0.01, l_is_se=0.01)
        bad = SplitReport("t", 2, 0.0, 0.0, l_snl=2.0, l_is=1.5, l_snl_se=0.01, l_is_se=0.01)
        assert not EvalReport(0.0, 0.0, 10, (good,)).sandwich_violated()
        report = EvalReport(0.0, 0.0, 10, (bad,))
        assert report.sandwich_violated()
        assert report.lines()[-1].startswith("SANDWICH_VIOLATION")


class TestGridPoints:
    def test_row_major_lattice(self):
        pts = grid_points(np.array([[0.0, 1.0], [10.0, 12.0]]), 3)
        want = np.array([
            [0.0, 10.0], [0.0, 11.0], [0.0, 12.0],
            [0.5, 10.0], [0.5, 11.0], [0.5, 12.0],
            [1.0, 10.0], [1.0, 11.0], [1.0, 12.0],
        ])
        np.testing.assert_array_equal(pts, want)

    def test_default_resolution_row_count(self):
        pts = grid_points(np.array([[-4.0, 4.0], [-4.0, 4.0]]), 200)
        assert pts.shape == (40000, 2)

    def test_one_dimensional(self):
        pts = grid_points(np.array([[-1.0, 1.0]]), 5)
        np.testing.assert_array_equal(pts, np.array([[-1.0], [-0.5], [0.0], [0.5], [1.0]]))

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            grid_points(np.array([1.0, 2.0]), 3)
        with pytest.raises(ValueError):
            grid_points(np.array([[2.0, 1.0]]), 3)


class TestDensityGrid:
    def test_gaussian_integrates_to_one(self):
        # exp(theta x) phi(x) / e^{theta^2/2} is the N(theta, 1) density
        model = GaussianMeanModel(1.0)
        grid = density_grid(model, 0.5, np.array([[-6.0, 8.0]]), resolution=4001)
        mass = np.trapezoid(np.exp(grid.log_density), grid.points[:, 0])
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_columns_are_consistent(self):
        model = GaussianMeanModel(0.6)
        grid = density_grid(model, 0.18, np.array([[-2.0, 2.0]]), resolution=11)
        np.testing.assert_array_equal(grid.energy, model.energy(grid.points))
        np.testing.assert_array_equal(grid.unnorm_log_density, weight_log_numerator(model, grid.points))
        np.testing.assert_array_equal(grid.log_density, grid.unnorm_log_density - 0.18)

    def test_two_dimensional_mlp(self):
        model = MlpEnergy(widths=[2, 8, 8, 1])  # zero-initialized: energy 0 everywhere
        grid = density_grid(model, 1.0, np.array([[-1.0, 1.0], [-1.0, 1.0]]), resolution=4)
        assert isinstance(grid, DensityGrid)
        assert grid.points.shape == (16, 2)
        np.testing.assert_array_equal(grid.energy, np.zeros(16))
        np.testing.assert_array_equal(grid.log_density, np.full(16, -1.0))

    def test_runs_the_net_once(self, monkeypatch):
        model = MlpEnergy(widths=[2, 8, 8, 1], base=StandardGaussian(2), rng=PortableRng(12))
        want = weight_log_numerator(model, grid_points(np.array([[-3.0, 3.0], [-3.0, 3.0]]), 200))
        calls = []
        original = Mlp.forward

        def counted(self, x, *args, **kwargs):
            calls.append(np.shape(x)[0])
            return original(self, x, *args, **kwargs)

        monkeypatch.setattr(Mlp, "forward", counted)
        grid = density_grid(model, 0.5, np.array([[-3.0, 3.0], [-3.0, 3.0]]), resolution=200)
        assert calls == [40000]
        np.testing.assert_array_equal(grid.unnorm_log_density, want)

    def test_rejects_high_dimensional_bounds(self):
        model = GaussianMeanModel(0.0)
        with pytest.raises(ValueError):
            density_grid(model, 0.0, np.array([[-1.0, 1.0]] * 3), resolution=4)


class TestDataBounds:
    def test_relative_margin(self):
        box = data_bounds(np.array([[0.0, 1.0], [2.0, 5.0]]))
        np.testing.assert_allclose(box, np.array([[-0.2, 2.2], [0.6, 5.4]]), rtol=1e-12)

    def test_degenerate_column_stays_ordered(self):
        box = data_bounds(np.array([[1.0, 0.0], [1.0, 2.0]]))
        assert box[0, 0] < box[0, 1]

    def test_margin_argument(self):
        box = data_bounds(np.array([[0.0], [10.0]]), margin=0.5)
        np.testing.assert_allclose(box, np.array([[-5.0, 15.0]]), rtol=1e-12)
