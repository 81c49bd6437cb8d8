"""Deterministic chunked random streams.

Monte Carlo routines draw their randomness through fixed-size chunks, one
independent generator per chunk (stream id = chunk index).  The output for a
given (seed, count) is therefore byte-identical regardless of how chunks are
scheduled across workers.

`quadratic_chunks` is the one Monte Carlo kernel: it reduces each chunk's
draws to the weighted sums of squares every statistic needs, in cache-sized
row blocks, on every usable core.  It matches the plain reduction of
`standard_normal_chunks` bit for bit as long as BLAS sums each row of a
matrix-vector product in the same order whatever the rows around it and
its own thread count; that was verified on x86-64 with OpenBLAS 0.3.31 at
1-4 BLAS threads and 1-3 workers, not in general.  `standard_normal_chunks`
yields the raw draws.  No library routine calls it: it is the reference
definition of the draws, against which tests check `quadratic_chunks` and
the LLR samplers.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Iterator

import numpy as np

CHUNK_SIZE = 4096

# Doubles in one worker's draw buffer: 256 KB, so a block stays in L2.
_BLOCK_DOUBLES = 32_768
# Block boundaries fall on multiples of this many rows.  The BLAS
# matrix-vector product sums a ragged last group of rows by another path,
# so a boundary inside such a group would change the low bits of its rows.
_ROW_ALIGN = 64


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


def _worker_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _quadratic_chunk(seed: int, index: int, size: int, coef: np.ndarray) -> np.ndarray:
    # One chunk's draws, a block of rows at a time, in one cache-sized buffer.
    dim = coef.size
    rows = max(_ROW_ALIGN, _BLOCK_DOUBLES // dim // _ROW_ALIGN * _ROW_ALIGN)
    buf = np.empty((rows + 1, dim))
    rng = chunk_rng(seed, index)
    out = np.empty(size)
    start = 0
    while start < size:
        # No one-row tail: numpy reduces a lone row by a dot product, which
        # sums in another order than the matrix-vector product does.
        stop = size if size - start <= rows + 1 else start + rows
        block = buf[: stop - start]
        rng.standard_normal(out=block)
        np.square(block, out=block)
        np.matmul(block, coef, out=out[start:stop])
        start = stop
    return out


def quadratic_chunks(seed: int, count: int, coef: np.ndarray) -> Iterator[np.ndarray]:
    """Yield, by chunk, sum_j coef[j] z_ij^2 over the rows z_i of
    `standard_normal_chunks(seed, count, coef.size)`, bit for bit.

    Chunks are computed on every usable core and yielded in chunk order.
    """
    coef = np.ascontiguousarray(coef, dtype=float)
    with ThreadPoolExecutor(_worker_count()) as pool:
        yield from pool.map(
            lambda chunk: _quadratic_chunk(seed, *chunk, coef), chunk_sizes(count)
        )
