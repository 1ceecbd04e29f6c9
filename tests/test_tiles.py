"""Cache-free forward passes run in row tiles of at most ``nets.TILE_ROWS``,
and the conditional energy grid's head in draw tiles of at most
``regression.DRAW_TILE``: the same bits as one pass, one counted
``Mlp.forward`` call per caller pass, and working memory that does not grow
with the number of draws."""

import tracemalloc

import numpy as np
import pytest

from snl_ebm import nets, regression
from snl_ebm.evaluation import evaluate
from snl_ebm.models import DENSITY_WIDTHS, MlpEnergy
from snl_ebm.nets import TILE_ROWS, Mlp, row_tiles
from snl_ebm.proposals import StandardGaussian
from snl_ebm.regression import DRAW_TILE, ConditionalEnergyModel, eval_regression_l_is
from snl_ebm.rng import PortableRng


def one_pass(monkeypatch, fn, n):
    """``fn()`` with row and draw tiles large enough that n rows run in one piece."""
    monkeypatch.setattr(nets, "TILE_ROWS", n)
    monkeypatch.setattr(regression, "DRAW_TILE", n)
    try:
        return fn()
    finally:
        monkeypatch.setattr(nets, "TILE_ROWS", TILE_ROWS)
        monkeypatch.setattr(regression, "DRAW_TILE", DRAW_TILE)


def density_model():
    return MlpEnergy(list(DENSITY_WIDTHS), base=StandardGaussian(2), rng=PortableRng(1))


def count_forward(monkeypatch):
    calls = []
    original = Mlp.forward

    def counted(self, x, *args, **kwargs):
        calls.append(np.shape(x)[0])
        return original(self, x, *args, **kwargs)

    monkeypatch.setattr(Mlp, "forward", counted)
    return calls


def peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRowTiles:
    @pytest.mark.parametrize("n", [0, 1, TILE_ROWS, TILE_ROWS + 1, DRAW_TILE, DRAW_TILE + 1,
                                   7000, 20000, 20003, 160801])
    def test_tiles_cover_the_rows_in_near_equal_pieces(self, n):
        tiles = row_tiles(n)
        assert len(tiles) == max(1, -(-n // TILE_ROWS))
        assert tiles[0][0] == 0 and tiles[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(tiles, tiles[1:]))
        sizes = [hi - lo for lo, hi in tiles]
        assert max(sizes) <= TILE_ROWS
        assert all(size % 8 == 0 for size in sizes[:-1])  # tiles start on 8-row boundaries
        assert max(sizes) - min(sizes) < 8 * len(tiles)  # no tiny tail tile

    def test_twenty_thousand_rows_make_five_tiles_of_4000(self):
        assert row_tiles(20000, DRAW_TILE) == [(lo, lo + 4000) for lo in range(0, 20000, 4000)]

    def test_twenty_thousand_rows_make_ten_net_tiles_of_2000(self):
        assert row_tiles(20000) == [(lo, lo + 2000) for lo in range(0, 20000, 2000)]


class TestSameBits:
    @pytest.mark.parametrize("n", [20000, TILE_ROWS + 1, DRAW_TILE + 1])
    def test_density_net(self, monkeypatch, n):
        model = density_model()
        x = PortableRng(n).normal((n, 2))
        want = one_pass(monkeypatch, lambda: model.energy(x), n)
        assert np.array_equal(model.energy(x), want)

    @pytest.mark.parametrize("n", [20000, TILE_ROWS + 1, DRAW_TILE + 1])
    def test_feature_and_y_nets(self, monkeypatch, n):
        model = ConditionalEnergyModel(PortableRng(3))
        x = PortableRng(n).normal(n)
        for net in (model.feature_net, model.y_net):
            want = one_pass(monkeypatch, lambda: net.forward(x[:, None], keep_cache=False)[0], n)
            assert np.array_equal(net.forward(x[:, None], keep_cache=False)[0], want)

    @pytest.mark.parametrize("n, draws", [
        (3, (20000,)),            # the evaluation's shared draws: 5 draw tiles
        (286, (286, 16)),         # the validation's per-point draws: 4576 y-branch rows
        (2, (TILE_ROWS + 1,)),
        (2, (DRAW_TILE + 1,)),    # one draw past the head's draw tile
    ])
    def test_energy_grid_shared(self, monkeypatch, n, draws):
        model = ConditionalEnergyModel(PortableRng(3))
        x = PortableRng(4).normal(n)
        ys = PortableRng(5).normal(draws)
        rows = int(np.prod(draws))
        want = one_pass(monkeypatch, lambda: model.energy_grid_shared(x, ys), rows)
        assert np.array_equal(model.energy_grid_shared(x, ys), want)

    # the head's 138 -> 10 -> 1 pass; 1024-row tiles change its last bits here
    @pytest.mark.parametrize("n", [TILE_ROWS + 1, TILE_ROWS * 5 // 4, 20000])
    def test_energy_pairs(self, monkeypatch, n):
        model = ConditionalEnergyModel(PortableRng(3))
        x = PortableRng(n).normal(n)
        y = PortableRng(n + 1).normal(n)
        want = one_pass(monkeypatch, lambda: model.energy_pairs(x, y), n)
        assert np.array_equal(model.energy_pairs(x, y), want)


class TestOneCall:
    def test_energy_at_20000_rows_is_one_forward_call(self, monkeypatch):
        model = density_model()
        x = PortableRng(9).normal((20000, 2))
        calls = count_forward(monkeypatch)
        model.energy(x)
        assert calls == [20000]

    def test_y_branch_counts_one_call_per_tile(self, monkeypatch):
        model = ConditionalEnergyModel(PortableRng(3))
        calls = count_forward(monkeypatch)
        model.energy_grid_shared(np.zeros(2), PortableRng(5).normal(20000))
        assert calls == [2] + [2000] * 10  # the feature net, then the y-branch tiles


class TestShortLastTile:
    @pytest.mark.parametrize("n", [7000, 20003])
    def test_reuses_the_longer_tiles_arrays(self, monkeypatch, n):
        allocations = []

        class CountingWorkspace(nets.Workspace):
            def array(self, key, shape, dtype=np.float64):
                before = self._arrays.get(key)
                out = super().array(key, shape, dtype)
                if self._arrays[key] is not before:
                    allocations.append(key)
                return out

        model = density_model()
        x = PortableRng(n).normal((n, 2))
        want = np.concatenate([model.energy(x[lo:hi]) for lo, hi in row_tiles(n)])  # no workspace
        monkeypatch.setattr(nets, "Workspace", CountingWorkspace)
        got = model.energy(x)
        sizes = [hi - lo for lo, hi in row_tiles(n)]
        assert sizes[-1] < sizes[0]  # the last tile is the shorter one
        assert len(allocations) == len(DENSITY_WIDTHS) - 1  # one per layer, by the first tile
        assert np.array_equal(got, want)


class TestPeakMemory:
    def test_density_evaluate_at_20k_draws(self):
        model = density_model()
        data = {"test": PortableRng(10).normal((2000, 2))}
        peak = peak_bytes(lambda: evaluate(model, 0.0, data, StandardGaussian(2), n_samples=20000, seed=0))
        assert peak < 10 * 2**20  # 13 MB in 4096-row tiles, 46 MB in one pass

    def test_conditional_eval_at_400_points_and_20k_draws(self):
        model = ConditionalEnergyModel(PortableRng(67))
        x = PortableRng(68).normal(400)
        y = PortableRng(69).normal(400)
        peak = peak_bytes(lambda: eval_regression_l_is(model, (x, y), StandardGaussian(1), n_samples=20000,
                                                       rng=PortableRng(70)))
        assert peak < 7.5 * 2**20  # 9.5 MB in 4096-row tiles, 30 MB in one pass
