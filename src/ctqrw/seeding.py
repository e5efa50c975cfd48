"""Deterministic seed derivation for parallel Monte Carlo streams.

Stream k of a run with base seed s is seeded by ``splitmix64`` applied to
``s + k * GOLDEN``.  The rule is a fixed avalanche hash, so per-realization
streams are reproducible independently of scheduling or worker count, and
any realization can be regenerated in isolation.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One round of the splitmix64 avalanche hash (64-bit)."""
    x = (x + GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(base_seed: int, index: int) -> int:
    """Seed for stream `index` of a run seeded with `base_seed`."""
    return splitmix64((base_seed & _MASK64) + (index * GOLDEN & _MASK64) & _MASK64)


def stream(base_seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for one realization/walker stream."""
    return np.random.Generator(np.random.PCG64(derive_seed(base_seed, index)))


def realization_streams(base_seed: int, n: int) -> list:
    """Generators of realizations 0..n-1 of a Monte Carlo run.

    Realization k draws from ``stream(derive_seed(base_seed, k))``; every
    stochastic route uses this mapping, so realization k can be rebuilt
    alone from its seed.
    """
    return [stream(derive_seed(base_seed, k)) for k in range(n)]
