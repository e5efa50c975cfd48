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

The core copies the counters once into C-ordered uint32 words, pairs
(c0, c2) and (c1, c3), and runs the ten rounds on ``CHUNK`` counters at a
time, so its buffers stay in cache; ``uniforms`` turns each chunk into
doubles as soon as its rounds are done.  Every output bit depends on
(seed, k, j, lane) alone, not on the batch shape or the chunking.  Indices
outside the counter's 32-bit words are refused with
:class:`~ctqrw.errors.BadParametersError`, not wrapped: k and j must be
non-negative integers, the lane below 2^32, the width at least 1 and each
draw word ``j * ceil(width / 2) + m`` below 2^32.
"""

import sys

import numpy as np

from .errors import BadParametersError

_MASK64 = (1 << 64) - 1
_WORD = 1 << 32

WAITING_LANE = 0
MARK_LANE = 1

CHUNK = 16384  # counters per pass of the ten rounds: 512 KB of buffers

# Philox4x32 multipliers and Weyl key increments (Random123), as the
# columns that multiply the word pair (c0, c2) and step the key (k0, k1)
_PHILOX_M = np.array([[0xD2511F53], [0xCD9E8D57]], dtype=np.uint64)
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
_PHILOX_ROUNDS = 10

# the 32-bit halves of a uint64 in memory
_LO, _HI = (0, 1) if sys.byteorder == "little" else (1, 0)


def _round_keys(key) -> np.ndarray:
    """The (k0, k1) column of each round, shape (rounds, 2, 1) uint32."""
    return np.array(
        [[[(int(k) + r * w) % _WORD] for k, w in zip(key, _PHILOX_W)] for r in range(_PHILOX_ROUNDS)],
        dtype=np.uint32,
    )


def _philox_chunks(x: np.ndarray, y: np.ndarray, key):
    """Philox4x32-10 under `key`, in place, `CHUNK` counters at a time.

    `x` holds the words (c0, c2) and `y` the words (c1, c3) of n counters,
    each a C-ordered (2, n) uint32 array.  After each chunk's ten rounds
    this yields its slice and the chunk's uint64 scratch buffer with its
    (low, high) 32-bit halves as views, free until the next step.  Per
    round, one widening multiply forms both products; the high halves are
    copied out through their view and the low halves taken by the
    truncating uint64 -> uint32 cast, with no shift or mask pass (a copy
    and a contiguous xor run faster than one xor over the strided view).
    """
    keys = _round_keys(key)
    n = x.shape[1]
    prod = np.empty((2, min(n, CHUNK)), dtype=np.uint64)
    halves = prod.view(np.uint32).reshape(prod.shape + (2,))
    for start in range(0, n, CHUNK):
        part = slice(start, min(start + CHUNK, n))
        xs, ys = x[:, part], y[:, part]
        p = prod[:, : xs.shape[1]]
        lo, hi = (halves[:, : xs.shape[1], half] for half in (_LO, _HI))
        for k in keys:
            np.multiply(xs, _PHILOX_M, out=p)  # (c0 M0, c2 M1), exact in 64 bits
            np.copyto(xs, hi[::-1])
            xs ^= ys  # c0 = hi(c2 M1) ^ c1, c2 = hi(c0 M0) ^ c3
            xs ^= k
            np.copyto(ys, p[::-1], casting="unsafe")  # c1 = lo(c2 M1), c3 = lo(c0 M0)
        yield part, p, lo, hi


def _counter_words(counter, shape):
    """The words of `counter` broadcast to `shape`, as the C-ordered
    (2, n) uint32 pairs (c0, c2) and (c1, c3)."""
    x = np.empty((2,) + shape, dtype=np.uint32)
    y = np.empty_like(x)
    x[0], y[0], x[1], y[1] = counter
    return x.reshape(2, -1), y.reshape(2, -1)


def philox4x32(counter, key) -> np.ndarray:
    """Philox4x32-10 of the 128-bit `counter` under the 64-bit `key`.

    `counter` holds four broadcastable arrays of 32-bit words (c0..c3) and
    `key` two 32-bit ints (k0, k1).  Returns the four output words, shape
    (4,) + broadcast shape, as uint32.
    """
    shape = np.broadcast_shapes(*(np.shape(c) for c in counter))
    x, y = _counter_words(counter, shape)
    for _ in _philox_chunks(x, y, key):
        pass
    words = np.empty((4,) + shape, dtype=np.uint32)
    words[0::2] = x.reshape((2,) + shape)
    words[1::2] = y.reshape((2,) + shape)
    return words


def _indices(name: str, values) -> np.ndarray:
    """`values` as an array of non-negative integers, or a typed error."""
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        raise BadParametersError(f"uniforms: {name} must hold integers, got dtype {values.dtype}")
    if values.size and values.min() < 0:
        raise BadParametersError(f"uniforms: {name} must be >= 0, got {values.min()}")
    return values


def uniforms(base_seed: int, k, j, lane: int, width: int) -> np.ndarray:
    """The `width` uniforms in [0, 1) of draw `j` of realization `k`.

    `k` and `j` are broadcastable arrays of non-negative indices; the
    result has shape broadcast(k, j) + (width,).  Draw j takes the outputs
    of counters ``(j * b + m, lane, k mod 2^32, k div 2^32)`` for
    m < b = ceil(width / 2) under the key ``base_seed mod 2^64`` (low word
    first); each 128-bit output gives two 53-bit doubles, the first from
    words (0, 1), the second from words (2, 3).  Raises
    :class:`BadParametersError` for a non-integer or negative `k` or `j`,
    a `lane` outside [0, 2^32), a `width` below 1, or a draw word
    ``j * b + m`` of 2^32 or more.
    """
    width, lane = int(width), int(lane)
    if width < 1:
        raise BadParametersError(f"uniforms: width must be >= 1, got {width}")
    if not 0 <= lane < _WORD:
        raise BadParametersError(f"uniforms: lane must lie in [0, 2^32), got {lane}")
    blocks = -(-width // 2)
    k = _indices("k", k).astype(np.uint64)[..., None]
    j = _indices("j", j)
    if j.size and j.max() >= _WORD // blocks:
        raise BadParametersError(
            f"uniforms: draw word j * {blocks} + m must be below 2^32, got j = {j.max()}"
        )
    draw = j.astype(np.uint32)[..., None] * np.uint32(blocks) + np.arange(blocks, dtype=np.uint32)
    shape = np.broadcast_shapes(k.shape, draw.shape)
    x, y = _counter_words((draw, lane, k & np.uint64(_WORD - 1), k >> np.uint64(32)), shape)
    seed = int(base_seed) & _MASK64
    doubles = np.empty((x.shape[1], 2))
    for part, bits, lo, hi in _philox_chunks(x, y, (seed % _WORD, seed >> 32)):
        hi[...], lo[...] = x[:, part], y[:, part]  # bits = (c0, c2) << 32 | (c1, c3)
        bits >>= np.uint64(11)
        np.multiply(bits, 2.0**-53, out=doubles[part].T)
    return doubles.reshape(shape[:-1] + (2 * blocks,))[..., :width]
