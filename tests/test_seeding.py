"""Counter-based uniforms: Philox4x32-10 and the (seed, k, j, lane) layout."""

import numpy as np
import pytest
from scipy import stats

from ctqrw import engine, seeding
from ctqrw.kernels import HypoexponentialWaiting, MittagLefflerWaiting


@pytest.mark.parametrize(
    "counter, key, expected",
    [
        # known-answer vectors of the Random123 distribution (kat_vectors)
        ([0, 0, 0, 0], [0, 0], [0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8]),
        (
            [0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344],
            [0xA4093822, 0x299F31D0],
            [0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1],
        ),
        ([0xFFFFFFFF] * 4, [0xFFFFFFFF] * 2, [0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD]),
    ],
)
def test_philox_known_answers(counter, key, expected):
    assert seeding.philox4x32(counter, key).tolist() == expected


def test_uniforms_are_53_bit_and_elementwise():
    k, j = np.arange(7)[:, None], np.arange(11)
    for width in (1, 2, 3, 4):
        block = seeding.uniforms(2**40 + 5, k, j, seeding.MARK_LANE, width)
        assert block.shape == (7, 11, width)
        assert np.all((block >= 0.0) & (block < 1.0))
        assert np.array_equal(block * 2.0**53, np.floor(block * 2.0**53))
        alone = seeding.uniforms(2**40 + 5, 3, 4, seeding.MARK_LANE, width)
        assert np.array_equal(block[3, 4], alone)
    # realization indices past 2^32 and negative seeds are distinct counters / keys
    far = seeding.uniforms(1, [5, 5 + 2**32], 0, seeding.WAITING_LANE, 2)
    assert not np.array_equal(far[0], far[1])
    assert not np.array_equal(seeding.uniforms(-1, 0, 0, 0, 2), seeding.uniforms(1, 0, 0, 0, 2))


@pytest.mark.parametrize(
    "waiting",
    [MittagLefflerWaiting(amplitude=1 / np.sqrt(2), alpha=0.5), HypoexponentialWaiting(r1=0.5, r2=1.5)],
)
def test_event_counts_prefix_property(waiting):
    # row k depends on (seed, k) alone: any ensemble size, or k rebuilt alone
    grid = np.linspace(0.0, 60.0, 61)
    small = engine.event_counts(waiting, grid, 17, base_seed=8)
    large = engine.event_counts(waiting, grid, 50, base_seed=8)
    assert np.array_equal(small, large[:17])
    for k in (0, 9, 16):
        alone = engine.draw_event_times(waiting, grid[-1], 8, k)
        assert np.array_equal(small[k], np.searchsorted(alone, grid, side="right"))


@pytest.mark.parametrize("lane", [seeding.WAITING_LANE, seeding.MARK_LANE])
def test_uniforms_pass_ks_per_lane(lane):
    u = seeding.uniforms(20261018, np.arange(400)[:, None], np.arange(250), lane, 2)
    for column in (u[..., 0].ravel(), u[..., 1].ravel()):
        assert stats.kstest(column, "uniform").pvalue > 1e-3


def test_adjacent_counters_are_uncorrelated():
    # neighbours in k, in j, across lanes and within one 128-bit output
    u = np.stack(
        [seeding.uniforms(7, np.arange(301)[:, None], np.arange(301), lane, 2) for lane in (0, 1)]
    )
    pairs = {
        "k": (u[0, :-1, :, 0], u[0, 1:, :, 0]),
        "j": (u[0, :, :-1, 0], u[0, :, 1:, 0]),
        "lane": (u[0, ..., 0], u[1, ..., 0]),
        "word": (u[0, ..., 0], u[0, ..., 1]),
    }
    for name, (a, b) in pairs.items():
        r = np.corrcoef(a.ravel(), b.ravel())[0, 1]
        assert abs(r) < 5.0 / np.sqrt(a.size), name
