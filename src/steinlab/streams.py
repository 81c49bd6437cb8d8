"""Deterministic chunked random streams.

Monte Carlo routines draw their randomness through fixed-size chunks, one
independent generator per chunk (stream id = chunk index).  The output for a
given (seed, count) is therefore byte-identical regardless of how chunks are
scheduled across workers.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

CHUNK_SIZE = 4096


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Generator for one chunk, derived from (seed, chunk index)."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    )


def derive_seed(seed: int, *key: int) -> int:
    """Seed of the sub-stream `key` of `seed`, for routines that take an int.

    Distinct (seed, key) pairs give independent seeds through the
    SeedSequence spawn tree, with no arithmetic that could make two collide.
    """
    state = np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint64)
    return int(state[0])


def chunk_sizes(count: int) -> Iterator[tuple[int, int]]:
    """Yield (chunk_index, size) covering `count` samples."""
    index = 0
    remaining = count
    while remaining > 0:
        size = min(CHUNK_SIZE, remaining)
        yield index, size
        index += 1
        remaining -= size


def standard_normal_chunks(seed: int, count: int, dim: int) -> Iterator[np.ndarray]:
    """Yield (size, dim) blocks of iid standard normals."""
    for index, size in chunk_sizes(count):
        yield chunk_rng(seed, index).standard_normal((size, dim))
