"""Deterministic random numbers for Monte Carlo runs.

Every Monte Carlo route draws from one counter-based source: the
Philox4x32-10 bijection (Salmon, Moraes, Dror and Shaw, "Parallel random
numbers: as easy as 1, 2, 3", SC'11), keyed by the run's base seed.  The
uniforms of draw j of realization k on a lane are a pure function of
(base seed, k, j, lane), so a whole ensemble is one vectorized call and any
realization can be rebuilt alone, whatever the ensemble size.  Lane
``WAITING_LANE`` feeds the renewal waiting times, lane ``MARK_LANE`` the
jumps or phases that the events carry.  A law turns the uniforms of a
draw into its value through its ``from_uniforms``; nothing in the library
draws from any other source.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = np.uint64((1 << 32) - 1)
_SHIFT32 = np.uint64(32)

WAITING_LANE = 0
MARK_LANE = 1

# Philox4x32 multipliers and Weyl key increments (Random123)
_PHILOX_M = (np.uint64(0xD2511F53), np.uint64(0xCD9E8D57))
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
_PHILOX_ROUNDS = 10


def philox4x32(counter, key) -> np.ndarray:
    """Philox4x32-10 of the 128-bit `counter` under the 64-bit `key`.

    `counter` holds four broadcastable arrays of 32-bit words (c0..c3) and
    `key` two 32-bit ints (k0, k1).  Returns the four output words, shape
    (4,) + broadcast shape, as uint64 values below 2^32.
    """
    c0, c1, c2, c3 = (np.array(c, dtype=np.uint64) for c in np.broadcast_arrays(*counter))
    p0, p1 = np.empty_like(c0), np.empty_like(c0)
    k0, k1 = (int(k) for k in key)
    m0, m1 = _PHILOX_M
    for _ in range(_PHILOX_ROUNDS):  # in place: no temporaries per round
        np.multiply(c0, m0, out=p0)  # exact: both factors are below 2^32
        np.multiply(c2, m1, out=p1)
        np.right_shift(p1, _SHIFT32, out=c0)
        c0 ^= c1
        c0 ^= np.uint64(k0)
        np.right_shift(p0, _SHIFT32, out=c2)
        c2 ^= c3
        c2 ^= np.uint64(k1)
        np.bitwise_and(p1, _MASK32, out=c1)
        np.bitwise_and(p0, _MASK32, out=c3)
        k0 = (k0 + _PHILOX_W[0]) & 0xFFFFFFFF
        k1 = (k1 + _PHILOX_W[1]) & 0xFFFFFFFF
    return np.stack([c0, c1, c2, c3])


def uniforms(base_seed: int, k, j, lane: int, width: int) -> np.ndarray:
    """The `width` uniforms in [0, 1) of draw `j` of realization `k`.

    `k` and `j` are broadcastable arrays of non-negative indices; the
    result has shape broadcast(k, j) + (width,).  Draw j takes the outputs
    of counters ``(j * b + m, lane, k mod 2^32, k div 2^32)`` for
    m < b = ceil(width / 2) under the key ``base_seed mod 2^64`` (low word
    first); each 128-bit output gives two 53-bit doubles, the first from
    words (0, 1), the second from words (2, 3).
    """
    blocks = -(-int(width) // 2)
    k = np.asarray(k, dtype=np.uint64)[..., None]
    draw = np.asarray(j, dtype=np.uint64)[..., None] * np.uint64(blocks) + np.arange(
        blocks, dtype=np.uint64
    )
    seed = int(base_seed) & _MASK64
    words = philox4x32((draw, lane, k & _MASK32, k >> _SHIFT32), (seed & 0xFFFFFFFF, seed >> 32))
    bits = ((words[0::2] << _SHIFT32) | words[1::2]) >> np.uint64(11)
    doubles = np.moveaxis(bits, 0, -1).astype(float) * 2.0**-53  # (..., blocks, 2)
    return doubles.reshape(doubles.shape[:-2] + (2 * blocks,))[..., :width]
