import numpy as np
import pytest

from equiloc.bumps import Bump, BumpHat


@pytest.fixture(scope="module")
def bhat():
    return BumpHat(Bump(radius=1.0, order=6, kind="poly"), wmax=500.0)


def test_scalar_calls_equal_array_calls(bhat):
    rng = np.random.default_rng(5)
    knots = bhat._spline.x
    ws = np.concatenate([knots, [0.0, bhat.wmax],
                         rng.uniform(0.0, bhat.wmax, 20_000),
                         -rng.uniform(0.0, bhat.wmax, 2_000)])
    expected = bhat(ws)
    assert np.array_equal([bhat.value(float(w)) for w in ws], expected)
    assert np.array_equal([bhat(float(w)) for w in ws], expected)


def test_zero_dim_inputs_return_floats(bhat):
    ref = float(bhat(np.array([3.3]))[0])
    for w in (3.3, np.float64(3.3), np.array(3.3), -3.3):
        val = bhat(w)
        assert type(val) is float
        assert val == ref


def test_beyond_wmax_goes_through_direct(bhat, monkeypatch):
    seen = []
    direct = bhat._direct
    monkeypatch.setattr(bhat, "_direct",
                        lambda w: seen.append(w) or direct(w))
    assert bhat(-650.0) == bhat.value(650.0) == direct(650.0)
    assert seen == [650.0, 650.0]


def test_blocked_build_across_block_edges(bhat):
    # grid rows on both sides of each block edge of the cosine matrix
    grid = bhat._spline.x
    scale = bhat(0.0)
    for k in (0, 2047, 2048, 2049, 4095, 4096, 6143, 6144, 8191):
        assert abs(bhat(grid[k]) - bhat._direct(grid[k])) <= 1e-14 * scale
