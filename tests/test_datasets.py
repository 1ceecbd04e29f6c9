"""Built-in datasets: construction invariants, splitting, loading.

The generators are synthetic, so instead of golden arrays the tests assert
distributional facts that define each shape (parity of checkerboard cells,
ring radii, mixture proportions) plus bit-determinism for a fixed seed.
"""

import numpy as np
import pytest

from snl_ebm.datasets import (
    DEFAULT_DENSITY_N,
    DEFAULT_REGRESSION_N,
    DatasetSplit,
    Standardizer,
    fit_standardizer,
    generate,
    load_delimited,
    load_named,
    split_70_10_20,
)
from snl_ebm.rng import PortableRng


class TestCheckerboard:
    def test_cells_have_even_parity(self):
        pts = generate("checkerboard", 5000, PortableRng(0))
        parity = (np.floor(pts[:, 0]) + np.floor(pts[:, 1])) % 2
        assert np.all(parity == 0)

    def test_bounds_and_count(self):
        pts = generate("checkerboard", 3000, PortableRng(1))
        assert pts.shape == (3000, 2)
        assert np.all(pts >= -4.0) and np.all(pts < 4.0)

    def test_covers_many_cells(self):
        pts = generate("checkerboard", 8000, PortableRng(2))
        cells = set(zip(np.floor(pts[:, 0]).astype(int), np.floor(pts[:, 1]).astype(int)))
        assert len(cells) == 32  # half of the 8 x 8 lattice


class TestFunnel:
    def test_clipped_to_box(self):
        pts = generate("funnel", 20000, PortableRng(3))
        assert np.all(np.abs(pts) <= 6.0)

    def test_spread_grows_with_first_coordinate(self):
        pts = generate("funnel", 50000, PortableRng(4))
        v, x = pts[:, 0], pts[:, 1]
        narrow = x[v < -1.0]
        wide = x[(v > 1.0) & (np.abs(x) < 6.0)]
        assert narrow.std() < 0.6  # e^{-1} scale region
        assert wide.std() > 1.5


class TestPinwheel:
    def test_radius_distribution(self):
        pts = generate("pinwheel", 50000, PortableRng(5))
        r = np.linalg.norm(pts, axis=1) / 2.0
        assert abs(r.mean() - 1.0) < 0.02
        assert abs(r.std() - 0.3) < 0.02

    def test_five_fold_structure(self):
        # unswirling by the radius collapses points onto 5 arm directions
        pts = generate("pinwheel", 20000, PortableRng(6))
        r = np.linalg.norm(pts, axis=1) / 2.0
        angle = np.arctan2(pts[:, 1], pts[:, 0]) - r
        frac = (angle * 5.0 / (2.0 * np.pi)) % 1.0
        # distance to the nearest arm center (multiples of 1/1 in frac units)
        dist = np.minimum(frac, 1.0 - frac)
        assert np.quantile(dist, 0.95) < 0.15


class TestFourCircles:
    def test_radii_cluster_on_integers(self):
        pts = generate("four_circles", 40000, PortableRng(7))
        r = np.linalg.norm(pts, axis=1)
        nearest = np.clip(np.round(r), 1, 4)
        assert np.all(np.abs(r - nearest) < 0.55)  # 5 sigma of the 0.1 noise, approx
        counts = np.bincount(nearest.astype(int), minlength=5)[1:]
        np.testing.assert_allclose(counts / 40000, 0.25, atol=0.02)

    def test_angles_cover_the_circle(self):
        pts = generate("four_circles", 20000, PortableRng(8))
        angles = np.arctan2(pts[:, 1], pts[:, 0])
        hist, _ = np.histogram(angles, bins=8, range=(-np.pi, np.pi))
        np.testing.assert_allclose(hist / 20000, 1 / 8, atol=0.02)


def test_density_determinism_and_unknown_name():
    a = generate("funnel", 100, PortableRng(9))
    b = generate("funnel", 100, PortableRng(9))
    assert np.array_equal(a, b)
    with pytest.raises(ValueError, match="unknown dataset 'spiral'"):
        generate("spiral", 10, PortableRng(0))


class TestRegression1:
    def test_x_range(self):
        pts = generate("regression1", 20000, PortableRng(10))
        assert np.all(pts[:, 0] >= -3.0) and np.all(pts[:, 0] < 3.0)

    def test_positive_branch_is_lognormal(self):
        pts = generate("regression1", 50000, PortableRng(11))
        y = pts[pts[:, 0] >= 0.0, 1]
        assert np.all(y > 0.0)
        logs = np.log(y)
        assert abs(logs.mean()) < 0.01
        assert abs(logs.std() - 0.25) < 0.01

    def test_negative_branch_mixture(self):
        pts = generate("regression1", 50000, PortableRng(12))
        y = pts[pts[:, 0] < 0.0, 1]
        low = y[y < -0.5]
        high = y[y >= -0.5]
        # the -0.5 cut misassigns ~0.1% of each component, so loose bounds
        assert abs(low.size / y.size - 0.2) < 0.02
        assert abs(low.mean() + 2.0) < 0.05
        assert abs(high.mean() - 1.0) < 0.05
        assert abs(low.std() - 0.5) < 0.05


class TestRegression2:
    @staticmethod
    def pts():
        return generate("regression2", 80000, PortableRng(13))

    def test_first_chunk_square_root_law(self):
        pts = self.pts()
        y = pts[pts[:, 0] < 0.21, 1]
        assert np.all((y >= 0.0) & (y < 1.0))
        assert abs(y.mean() - 1.0 / 3.0) < 0.01  # E[U^2]

    def test_second_chunk_location_scale(self):
        pts = self.pts()
        sel = (pts[:, 0] >= 0.21) & (pts[:, 0] < 0.47)
        x, y = pts[sel, 0], pts[sel, 1]
        m = 3.0 * np.cos(x) - 2.0
        z = (y - m) / np.abs(m)
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    def test_third_chunk_scaled_uniform(self):
        pts = self.pts()
        sel = (pts[:, 0] >= 0.47) & (pts[:, 0] < 0.61)
        x, y = pts[sel, 0], pts[sel, 1]
        assert np.all((y >= 0.0) & (y <= 4.0 * x))
        u = y / (4.0 * x)
        assert abs(u.mean() - 0.5) < 0.02

    def test_fourth_chunk_three_bands(self):
        pts = self.pts()
        y = pts[pts[:, 0] >= 0.61, 1]
        top = (y >= 8.0) & (y <= 8.5)
        mid = (y >= 1.0) & (y <= 4.0)
        bottom = (y >= -4.5) & (y <= -3.0)
        assert np.all(top | mid | bottom)
        for band in (top, mid, bottom):
            assert abs(band.mean() - 1.0 / 3.0) < 0.02


class TestSplitDataset:
    def test_sizes_and_disjoint_union(self):
        pts = PortableRng(14).normal((100, 2))
        split = split_70_10_20(pts, 15)
        assert split.train.shape == (70, 2)
        assert split.val.shape == (10, 2)
        assert split.test.shape == (20, 2)
        stacked = np.concatenate([split.train, split.val, split.test])
        assert np.array_equal(np.sort(stacked, axis=0), np.sort(pts, axis=0))

    def test_deterministic(self):
        pts = PortableRng(16).normal((50, 2))
        a = split_70_10_20(pts, 17)
        b = split_70_10_20(pts, 17)
        assert np.array_equal(a.train, b.train) and np.array_equal(a.test, b.test)

    def test_rejects_fewer_than_ten_rows(self):
        with pytest.raises(ValueError, match="at least 10 rows"):
            split_70_10_20(np.zeros((9, 2)), 0)


class TestLoadNamed:
    def test_default_density_split_sizes(self):
        split = load_named("four_circles", DEFAULT_DENSITY_N, 0)
        assert split.train.shape[0] == 7000
        assert split.val.shape[0] == 1000
        assert split.test.shape[0] == 2000

    def test_default_regression_split_gives_2000_train(self):
        split = load_named("regression1", DEFAULT_REGRESSION_N, 0)
        assert split.train.shape[0] == 2000

    def test_deterministic_in_seed(self):
        a = load_named("funnel", 500, 3)
        b = load_named("funnel", 500, 3)
        c = load_named("funnel", 500, 4)
        assert np.array_equal(a.train, b.train)
        assert not np.array_equal(a.train, c.train)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown dataset 'mystery'"):
            load_named("mystery", 100, 0)


class TestStandardizer:
    def test_two_point_column(self):
        s = fit_standardizer(np.array([[0.0], [2.0]]))
        out = s.transform(np.array([[0.0], [2.0]]))
        np.testing.assert_array_equal(out[:, 0], [-1.0, 1.0])

    def test_population_denominator(self):
        data = np.array([[1.0], [2.0], [3.0]])
        s = fit_standardizer(data)
        assert s.scale[0] == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-15)

    def test_transform_split_uses_train_stats(self):
        split = DatasetSplit(
            train=np.array([[0.0], [2.0]]),
            val=np.array([[1.0]]),
            test=np.array([[4.0]]),
        )
        s = fit_standardizer(split.train)
        out = s.transform_split(split)
        np.testing.assert_array_equal(out.val[:, 0], [0.0])
        np.testing.assert_array_equal(out.test[:, 0], [3.0])

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            fit_standardizer(np.array([[1.0, 0.0], [1.0, 1.0]]))


class TestLoadDelimited:
    def test_comma_and_whitespace(self, tmp_path):
        p1 = tmp_path / "a.csv"
        p1.write_text("1.0,2.0\n3.0,4.0\n")
        p2 = tmp_path / "b.txt"
        p2.write_text("1.0 2.0\n3.0\t4.0\n")
        np.testing.assert_array_equal(load_delimited(str(p1)), load_delimited(str(p2)))

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "h.csv"
        for text in ("x,y\n1.0,2.0\n", "\nx,y\n1.0,2.0\n"):  # the header is the first line that is not blank
            p.write_text(text)
            out = load_delimited(str(p), has_header=True)
            np.testing.assert_array_equal(out, [[1.0, 2.0]])

    def test_byte_order_mark_dropped(self, tmp_path):
        p = tmp_path / "bom.csv"
        for text, has_header in (("1.5,2\n3,4\n", False), ("x,y\n1.5,2\n3,4\n", True)):
            p.write_text("\ufeff" + text, encoding="utf-8")
            np.testing.assert_array_equal(load_delimited(str(p), has_header=has_header), [[1.5, 2.0], [3.0, 4.0]])

    def test_blank_lines_ignored(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("1,2\n\n3,4\n\n")
        assert load_delimited(str(p)).shape == (2, 2)

    def test_ragged_row_reported(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1,2\n3,4,5\n")
        with pytest.raises(ValueError, match="row 2"):
            load_delimited(str(p))

    def test_non_numeric_cell_reported(self, tmp_path):
        p = tmp_path / "n.csv"
        p.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match="row 2, column 2"):
            load_delimited(str(p))
        p.write_text("\nx,y\n1,2\n\n3,oops\n")  # rows are numbered by line of the file
        with pytest.raises(ValueError, match="row 5, column 2"):
            load_delimited(str(p), has_header=True)
        for cell in ("nan", "inf", "-inf", "1e999"):  # float() reads each, none is a finite value
            p.write_text(f"1,2\n{cell},4\n")
            with pytest.raises(ValueError, match=f"non-finite value '{cell}' at row 2, column 1"):
                load_delimited(str(p))

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_delimited(str(p))
