"""Deterministic chunked random streams.

Monte Carlo routines draw their randomness through fixed-size chunks, one
independent generator per chunk (stream id = chunk index).  The output for a
given (seed, count) is therefore byte-identical regardless of how chunks are
scheduled across workers.

A chunk is coordinate-major: chunk c of a stream of dimension `dim` is
`chunk_rng(seed, c).standard_normal((dim, CHUNK_SIZE))`, one column per
sample, of which a last, partial chunk keeps its leading columns.  numpy
fills it row by row, so its first n rows are the same bits whatever `dim`
is: a study that sweeps n draws one stream at its largest n, and every n
reads the leading coordinates of the same samples (common random numbers
across n), each with the law of its own dimension.  The first k samples
are likewise the same whatever `count` is.

`quadratic_draws` is the one Monte Carlo kernel.  Every statistic a study
reads is offset + sum_j coef[j] z_j^2 for a form (coef, offset); the kernel
draws each chunk once, squares it, takes every form's values from its
leading rows, one matrix-vector product per form, and hands them to the
study's reducer.  Chunks hold `CHUNK_SIZE` = 256 samples, so a chunk of a
study at n = 384 is 768 KB.  The reducer runs in the worker that drew the
chunk and returns the few numbers the study reads of it (a count, a
maximum, sums); the study combines those in chunk order.  Only the draws of the
chunks in flight are held, one block per worker, never a value per sample
and n.  Reducers run in worker threads, so they must call no function that
the benchmark's tracer (`bench/tracer.py`) wraps: its span stack is not
thread-safe.

The values match those of `standard_normal_chunks`, the reference
definition of the draws, reduced the same way one chunk at a time, bit for
bit as long as BLAS sums each entry of a matrix-vector product in the same
order whatever its thread count; that was verified on x86-64 with OpenBLAS
0.3.31 at 1-4 BLAS threads and 1-3 workers, not in general.

A study finishes all of its LAPACK work (factors, eigensolves) before its
draws.  After a LAPACK call, OpenBLAS's own threads keep spinning for a
while and take cores from the workers here: on a 2-vCPU host, a `detect`
pass drew about a quarter slower when each n's factorizations came just
before its draws.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np
import numpy.random

CHUNK_SIZE = 256

Reduced = TypeVar("Reduced")


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


def _chunk_normals(seed: int, index: int, size: int, dim: int) -> np.ndarray:
    # The leading `size` columns of a full chunk, contiguous whatever `size`:
    # numpy reduces a one-sample chunk by a dot product, whose summation
    # order depends on the stride.
    block = chunk_rng(seed, index).standard_normal((dim, CHUNK_SIZE))
    return np.ascontiguousarray(block[:, :size])


def standard_normal_chunks(seed: int, count: int, dim: int) -> Iterator[np.ndarray]:
    """Yield (dim, size) blocks of iid standard normals, one column per sample."""
    for index, size in chunk_sizes(count):
        yield _chunk_normals(seed, index, size, dim)


def _worker_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def quadratic_draws(
    seed: int,
    count: int,
    forms: Sequence[tuple[np.ndarray, float]],
    reduce: Callable[[np.ndarray], Reduced],
) -> list[Reduced]:
    """`reduce(values)` for each chunk of `count` samples, in chunk order.

    `values` is a (len(forms), size) array whose row i holds
    offset_i + sum_j coef_i[j] z_j^2 over the chunk's columns z of
    `standard_normal_chunks(seed, count, dim)`, dim the largest coef size:
    each form reads the leading coordinates of the same samples.  Chunks
    are drawn and reduced on every usable core; every worker's exception
    is raised here, and the workers have ended when this returns.
    """
    forms = [(np.ascontiguousarray(c, dtype=float), float(offset)) for c, offset in forms]
    dim = max(coef.size for coef, _ in forms)

    def chunk(item: tuple[int, int]) -> Reduced:
        index, size = item
        z = _chunk_normals(seed, index, size, dim)
        np.square(z, out=z)
        values = np.empty((len(forms), size))
        for row, (coef, offset) in zip(values, forms):
            np.matmul(coef, z[: coef.size], out=row)
            row += offset
        return reduce(values)

    with ThreadPoolExecutor(_worker_count()) as pool:
        return list(pool.map(chunk, chunk_sizes(count)))


def quadratic_values(seed: int, count: int, coef: np.ndarray, offset: float) -> np.ndarray:
    """The `count` values offset + sum_j coef[j] z_j^2 of one form, in
    sample order: `quadratic_draws` keeping every value."""
    return np.concatenate(quadratic_draws(seed, count, [(coef, offset)], lambda v: v[0]))
