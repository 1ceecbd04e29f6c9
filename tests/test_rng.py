"""Portable RNG: golden values, counter discipline, split independence.

The golden constants below were produced by a separate pure-Python
reimplementation of the SplitMix64 finalizer and FNV-1a; the suite also
re-derives every draw through that scalar route so a regression in the
vectorized numpy path cannot hide.
"""

import numpy as np
import pytest

from snl_ebm.rng import PortableRng, fnv1a64, mix64

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64_scalar(z):
    # independent scalar route (no numpy, no shared helpers)
    z &= MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def test_mix64_golden_values():
    assert mix64(0) == 0
    assert mix64(1) == 0x5692161D100B05E5
    assert mix64(2**64 - 1) == 0xB4D055FCF2CBBD7B


def test_fnv1a64_golden_values():
    # offset basis for the empty string is part of the FNV spec
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("data") == 0x855B556730A34A05


def test_uint64_golden_sequence():
    out = PortableRng(42).uint64(3)
    assert out.dtype == np.uint64
    assert [int(v) for v in out] == [
        0xBDD732262FEB6E95,
        0x28EFE333B266F103,
        0x47526757130F9F52,
    ]


def test_uint64_matches_scalar_route():
    seed = 987654321
    want = [mix64_scalar((seed + (i + 1) * GOLDEN) & MASK) for i in range(64)]
    got = PortableRng(seed).uint64(64)
    assert [int(v) for v in got] == want


def test_counter_advances_across_calls():
    r = PortableRng(5)
    a = np.concatenate([r.uint64(3), r.uint64(4)])
    b = PortableRng(5).uint64(7)
    assert np.array_equal(a, b)


def test_counter_skipping_is_exact():
    skipped = PortableRng(11)
    skipped.counter = 100
    tail = skipped.uint64(5)
    full = PortableRng(11).uint64(105)[100:]
    assert np.array_equal(tail, full)


def test_uniform_golden_and_range():
    u = PortableRng(42).uniform(2)
    np.testing.assert_allclose(
        u, [0.74156487877182331, 0.1599103928769201], rtol=0, atol=0
    )
    big = PortableRng(1).uniform(20000)
    assert np.all(big >= 0.0) and np.all(big < 1.0)
    assert abs(big.mean() - 0.5) < 0.01


def test_uniform_low_high_and_shape():
    u = PortableRng(3).uniform((4, 5), low=-2.0, high=3.0)
    assert u.shape == (4, 5)
    assert np.all(u >= -2.0) and np.all(u < 3.0)
    # affine map of the unit draws, bit for bit
    base = PortableRng(3).uniform(20).reshape(4, 5)
    assert np.array_equal(u, -2.0 + 5.0 * base)


def test_normal_golden_and_moments():
    z = PortableRng(0).normal(2)
    np.testing.assert_allclose(
        z, [-0.45275774021745802, 0.20776603893419193], rtol=0, atol=0
    )
    big = PortableRng(2).normal(100000)
    assert abs(big.mean()) < 0.02
    assert abs(big.std() - 1.0) < 0.02
    assert abs((big**3).mean()) < 0.05  # symmetry


def test_normal_consumes_even_counter():
    r = PortableRng(9)
    r.normal(3)  # 2 * ceil(3/2) = 4 positions
    assert r.counter == 4


def test_split_ignores_parent_counter():
    parent = PortableRng(7)
    child_before = parent.split("proposal")
    parent.uint64(10)
    child_after = parent.split("proposal")
    assert child_before.seed == child_after.seed == 0x2F68BC7E1146C1DE
    assert child_before.counter == 0


def test_split_labels_decorrelate():
    parent = PortableRng(123)
    seeds = {parent.split(lbl).seed for lbl in ("a", "b", "data", "proposal", "init")}
    assert len(seeds) == 5
    # same label from different parents differs too
    assert PortableRng(1).split("x").seed != PortableRng(2).split("x").seed


def test_split_index_matches_string_label():
    assert PortableRng(4).split_index(17).seed == PortableRng(4).split("17").seed


def test_integers_bounds_and_distribution():
    draws = PortableRng(6).integers(50000, 8)
    assert draws.min() >= 0 and draws.max() <= 7
    counts = np.bincount(draws, minlength=8)
    # chi-square with 7 dof: 99.9th percentile ~ 24.3
    expected = 50000 / 8
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 24.3


def test_integers_rejects_bad_bounds():
    r = PortableRng(0)
    with pytest.raises(ValueError):
        r.integers(10, 0)
    with pytest.raises(ValueError):
        r.integers(10, 2000)


def test_permutation_is_valid_and_deterministic():
    p = PortableRng(13).permutation(257)
    assert sorted(p.tolist()) == list(range(257))
    q = PortableRng(13).permutation(257)
    assert np.array_equal(p, q)
    assert not np.array_equal(p, np.arange(257))
