"""Deterministic chunked random streams.

Monte Carlo routines draw their randomness through fixed-size chunks, one
independent generator per chunk: numpy's SFC64, seeded by
SeedSequence(entropy=seed, spawn_key=(chunk index,)).  The output for a
given (seed, count) is therefore byte-identical regardless of how chunks
are scheduled across workers.  SFC64 draws a normal about a fifth faster
than numpy's default PCG64.

A chunk is coordinate-major: chunk c of a stream of dimension `dim` is
`chunk_rng(seed, c).standard_normal((dim, CHUNK_SIZE))`, one column per
sample, of which a last, partial chunk keeps its leading columns.  numpy
fills it row by row, so its first n rows are the same bits whatever `dim`
is: a study that sweeps n draws one stream at its largest n, and every n
reads the leading coordinates of the same samples (common random numbers
across n), each with the law of its own dimension.  The first k samples
are likewise the same whatever `count` is.

`quadratic_draws` is the one Monte Carlo kernel.  Every statistic a study
reads is a `qform.QuadraticForm`, offset + sum_j coef[j] z_j^2; the kernel
draws each chunk once, squares it, and takes every form's values from its
leading rows, one matrix-vector product per form.  Chunks hold
`CHUNK_SIZE` = 256 samples, so a chunk of a study at n = 384 is 768 KB.
A worker takes a run of up to `RUN_CHUNKS` consecutive chunks of one size
(a partial last chunk is a run of its own), writes their values into one
(chunks, forms, size) stack and hands that to the study's reducer once:
the reducer reduces the last axis in a few vectorised calls and returns
the few numbers the study reads of each chunk (a count, a maximum, sums),
one row per chunk, which the study combines in chunk order.  A worker
holds one chunk's draws and its run's stack, never a value per sample
and n.  Reducers run in worker threads, so they must call no function
that the benchmark's tracer (`bench/tracer.py`) wraps: its span stack is
not thread-safe.

The values match those of the chunks defined above, reduced the same way
one chunk at a time, bit for bit as long as BLAS sums each entry of a
matrix-vector product in the same order whatever its thread count; that
was verified on x86-64 with numpy 2.4 and OpenBLAS 0.3.31 at 1-4 BLAS
threads and 1-3 workers, not in general.  A reducer that reduces along
the last axis gets the bits of the same reduction of each chunk alone,
whatever the run length.

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

from .qform import QuadraticForm

CHUNK_SIZE = 256
# The most consecutive chunks a worker draws and reduces in one task.
RUN_CHUNKS = 8

Reduced = TypeVar("Reduced")


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Generator for one chunk: SFC64 seeded by (seed, chunk index)."""
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))
    )


def derive_seed(seed: int, *key: int) -> int:
    """Seed of the sub-stream `key` of `seed`, for routines that take an int.

    Distinct (seed, key) pairs give independent seeds through the
    SeedSequence spawn tree, with no arithmetic that could make two collide.
    """
    state = np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint64)
    return int(state[0])


def chunk_runs(count: int) -> Iterator[tuple[int, int, int]]:
    """Yield (first chunk index, chunks, size) covering `count` samples: runs
    of up to `RUN_CHUNKS` full chunks, then a partial last chunk alone."""
    full, tail = divmod(count, CHUNK_SIZE)
    for first in range(0, full, RUN_CHUNKS):
        yield first, min(RUN_CHUNKS, full - first), CHUNK_SIZE
    if tail:
        yield full, 1, tail


def _chunk_normals(seed: int, index: int, size: int, dim: int) -> np.ndarray:
    # The leading `size` columns of a full chunk, contiguous whatever `size`:
    # numpy reduces a one-sample chunk by a dot product, whose summation
    # order depends on the stride.
    block = chunk_rng(seed, index).standard_normal((dim, CHUNK_SIZE))
    return np.ascontiguousarray(block[:, :size])


def _worker_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def quadratic_draws(
    seed: int,
    count: int,
    forms: Sequence[QuadraticForm],
    reduce: Callable[[np.ndarray], Reduced],
) -> list[Reduced]:
    """`reduce(values)` for each run of chunks of `count` samples, in chunk
    order (`chunk_runs`).

    `values` is a (chunks, len(forms), size) array: entry [k, i] holds form
    i, offset_i + sum_j coef_i[j] z_j^2, over the columns z of chunk k's
    normals at dim, the largest coef size, so each form reads the leading
    coordinates of the same samples; `reduce` returns one row per chunk.
    Runs are drawn and reduced on every usable core; every worker's
    exception is raised here, and the workers have ended when this returns.
    """
    dim = max(form.coef.size for form in forms)
    offsets = np.array([form.offset for form in forms])[:, None]

    def run(item: tuple[int, int, int]) -> Reduced:
        first, chunks, size = item
        values = np.empty((chunks, len(forms), size))
        for index, chunk in enumerate(values, first):
            z = _chunk_normals(seed, index, size, dim)
            np.square(z, out=z)
            for row, form in zip(chunk, forms):
                np.matmul(form.coef, z[: form.coef.size], out=row)
            del z  # so that a worker holds one chunk's draws, not two
        values += offsets
        return reduce(values)

    with ThreadPoolExecutor(_worker_count()) as pool:
        return list(pool.map(run, chunk_runs(count)))
