"""Counter-based uniforms: Philox4x32-10 and the (seed, k, j, lane) layout."""

import hashlib
import random

import numpy as np
import pytest
from scipy import stats

from ctqrw import engine, seeding
from ctqrw.errors import BadParametersError
from ctqrw.kernels import HypoexponentialWaiting, MittagLefflerWaiting

_M32 = 0xFFFFFFFF


def philox_oracle(counter, key):
    """Philox4x32-10 on Python ints: the Random123 round, written out."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for _ in range(10):
        p0, p1 = 0xD2511F53 * c0, 0xCD9E8D57 * c2
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 & _M32, (p0 >> 32) ^ c3 ^ k1, p0 & _M32
        k0, k1 = (k0 + 0x9E3779B9) & _M32, (k1 + 0xBB67AE85) & _M32
    return [c0, c1, c2, c3]


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


def test_philox_matches_the_oracle_on_random_words():
    draw = random.Random(20261020)

    def word():  # one in five an edge value
        return draw.choice([0, 1, _M32 - 1, _M32]) if draw.random() < 0.2 else draw.getrandbits(32)

    cases = [([0] * 4, [0] * 2), ([_M32] * 4, [_M32] * 2), ([0] * 4, [_M32] * 2), ([_M32] * 4, [0] * 2)]
    cases += [([word() for _ in range(4)], [word() for _ in range(2)]) for _ in range(100)]
    for counter, key in cases:
        assert seeding.philox4x32(counter, key).tolist() == philox_oracle(counter, key)
    # the same counters in one batch under one key
    counters = np.array([counter for counter, _ in cases], dtype=np.uint64)
    batch = seeding.philox4x32(counters.T, (0x12345678, 0x9ABCDEF0))
    for i, counter in enumerate(counters.tolist()):
        assert batch[:, i].tolist() == philox_oracle(counter, (0x12345678, 0x9ABCDEF0))


@pytest.mark.parametrize("size", [seeding.CHUNK - 1, seeding.CHUNK, seeding.CHUNK + 1, 3 * seeding.CHUNK + 5])
def test_philox_chunks_are_seamless(size):
    c0 = np.arange(size, dtype=np.uint64) * np.uint64(2654435761) % np.uint64(2**32)
    counter = (c0, 7, np.arange(size, dtype=np.uint64)[::-1], _M32)
    key = (0xDEADBEEF, 0x01234567)
    words = seeding.philox4x32(counter, key)
    assert words.shape == (4, size) and words.dtype == np.uint32
    # every counter next to a chunk boundary, plus a random sample
    seams = {s + d for s in range(0, size + seeding.CHUNK, seeding.CHUNK) for d in range(-2, 2)}
    picks = seams.union(random.Random(5).sample(range(size), 100))
    for i in sorted(i for i in picks if 0 <= i < size):
        expected = philox_oracle([int(c0[i]), 7, size - 1 - i, _M32], key)
        assert words[:, i].tolist() == expected, i
    # a batch gives the bits of its pieces, whatever the chunking
    pieces = [seeding.philox4x32((c0[a : a + 1000], 7, counter[2][a : a + 1000], _M32), key)
              for a in range(0, size, 1000)]
    assert np.array_equal(words, np.concatenate(pieces, axis=1))


def test_philox_takes_any_memory_layout():
    base = np.arange(6 * 5, dtype=np.uint64).reshape(6, 5) * np.uint64(0x9E3779B9) % np.uint64(2**32)
    key = (3, 0xFFFFFFFE)
    layouts = {
        "broadcast": (base[:, :1], np.arange(5, dtype=np.uint32), 11, base[:1, :]),
        "fortran": (np.asfortranarray(base), base.T.copy().T, np.asfortranarray(base[::-1]), base),
        "negative stride": (base[::-1, ::-1], base[:, ::-1], base[::-1], np.flip(base)),
    }
    for name, counter in layouts.items():
        words = seeding.philox4x32(counter, key)
        full = np.broadcast_arrays(*(np.asarray(c, dtype=np.uint64) for c in counter))
        assert words.shape == (4, 6, 5), name
        for index in np.ndindex(6, 5):
            expected = philox_oracle([int(c[index]) for c in full], key)
            assert words[(slice(None),) + index].tolist() == expected, (name, index)


# sha256 of ``uniforms(seed, arange(k range)[:, None], arange(j range), lane,
# width)`` as little-endian doubles: the uniforms are integer multiples of
# 2^-53, so these digests hold on every CPU
STREAM_DIGESTS = [
    (41, (0, 3000), (0, 8), 0, 1, "ed7844953ec81115cbcfb8db1a330db9f5e3ab45a54c63401119de41a3f4e248"),
    (7, (2**32 - 5, 2**32 + 2000), (40, 48), 1, 2, "e04e94f3a60a91a12ca64015c7e69040c507b57454412623ca642172e5819e1f"),
    (-3, (0, 50), (0, 700), 1, 3, "ff73bbc5aa7f9f5d9af544eca338f653958c6affa11a70ec06dbbde79feccf61"),
    (20261020, (5, 6), (2**32 - 300, 2**32), 0, 1, "6c9110d5dde2a881033f4478dac9b86c99b8d36fde581202f2a3138c78b0fd9f"),
    (2**64 - 1, (123456789, 123460889), (0, 4), 1, 4, "fe1634f130f0d618f84afc92f8f054d5cdf8e09d1c8e415e7ac0aea43547aecc"),
]


@pytest.mark.parametrize("seed, ks, js, lane, width, digest", STREAM_DIGESTS)
def test_uniform_stream_is_pinned(seed, ks, js, lane, width, digest):
    u = seeding.uniforms(seed, np.arange(*ks)[:, None], np.arange(*js), lane, width)
    assert u.shape == (ks[1] - ks[0], js[1] - js[0], width)
    assert hashlib.sha256(u.astype("<f8").tobytes()).hexdigest() == digest


@pytest.mark.parametrize("width", [2, 3])
def test_uniform_block_equals_its_rows(width):
    rows = seeding.CHUNK // 8 + 50
    block = seeding.uniforms(99, np.arange(rows)[:, None], np.arange(8), seeding.WAITING_LANE, width)
    for k in range(rows):
        assert np.array_equal(block[k], seeding.uniforms(99, k, np.arange(8), seeding.WAITING_LANE, width))


@pytest.mark.parametrize(
    "k, j, lane, width, name",
    [
        (np.array([-1]), 0, 0, 2, "k"),
        (-1, 0, 0, 2, "k"),
        (np.array([0.5]), 0, 0, 2, "k"),
        (0, np.array([-3]), 0, 2, "j"),
        (0, np.array([1.0]), 0, 2, "j"),
        (0, 0, 2**32, 2, "lane"),
        (0, 0, -1, 2, "lane"),
        (0, 0, 0, 0, "width"),
        (0, 0, 0, -1, "width"),
        (0, 2**32, 0, 1, "j"),  # draw word j = 2^32
        (0, 2**31, 0, 3, "j"),  # draw word 2 j = 2^32
        (0, [0, 2**31 - 1, 2**31], 0, 4, "j"),
    ],
)
def test_uniforms_refuse_counters_outside_their_words(k, j, lane, width, name):
    with pytest.raises(BadParametersError, match=rf"uniforms: (draw word )?{name}\b"):
        seeding.uniforms(1, k, j, lane, width)


def test_uniforms_take_the_last_draw_words():
    # the largest draw word of each width, and an empty batch
    for j, width in ((2**32 - 1, 1), (2**31 - 1, 3)):
        assert seeding.uniforms(1, 0, j, 2**32 - 1, width).shape == (width,)
    assert seeding.uniforms(1, np.arange(0)[:, None], np.arange(8), 0, 3).shape == (0, 8, 3)


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
