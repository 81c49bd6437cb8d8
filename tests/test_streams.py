import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from steinlab import streams


def test_chunk_sizes_cover_count():
    assert list(streams.chunk_sizes(1)) == [(0, 1)]
    assert list(streams.chunk_sizes(streams.CHUNK_SIZE)) == [(0, streams.CHUNK_SIZE)]
    assert list(streams.chunk_sizes(streams.CHUNK_SIZE * 2 + 7)) == [
        (0, streams.CHUNK_SIZE),
        (1, streams.CHUNK_SIZE),
        (2, 7),
    ]


def test_same_seed_reproduces():
    a = np.concatenate(list(streams.standard_normal_chunks(3, 5000, 2)))
    b = np.concatenate(list(streams.standard_normal_chunks(3, 5000, 2)))
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = np.concatenate(list(streams.standard_normal_chunks(3, 1000, 1)))
    b = np.concatenate(list(streams.standard_normal_chunks(4, 1000, 1)))
    assert not np.array_equal(a, b)


def test_prefix_stable_under_larger_count():
    # per-chunk seeding: the first chunk does not depend on the total count
    short = np.concatenate(list(streams.standard_normal_chunks(7, 100, 3)))
    long = np.concatenate(list(streams.standard_normal_chunks(7, 9000, 3)))
    assert np.array_equal(long[:100], short)


def test_chunk_rng_independent_of_iteration_order():
    direct = streams.chunk_rng(5, 2).standard_normal(4)
    again = streams.chunk_rng(5, 2).standard_normal(4)
    assert np.array_equal(direct, again)


def test_derived_seeds_that_used_to_collide_differ():
    # seed * 1000 + i gave 2000 for both (seed=1, i=500) and (seed=2, i=0)
    assert streams.derive_seed(1, 500) != streams.derive_seed(2, 0)
    assert streams.derive_seed(1, 500, 0) != streams.derive_seed(2, 0, 0)
    assert streams.derive_seed(1, 500, 1) != streams.derive_seed(2, 0, 1)


def test_derived_seeds_are_distinct_ints():
    seeds = [
        streams.derive_seed(seed, i, *role)
        for seed in range(21)
        for i in range(601)
        for role in ((), (0,), (1,))
    ]
    assert all(type(s) is int for s in seeds)
    assert len(set(seeds)) == len(seeds)


def _reference(seed, count, coef):
    # The plain reduction of the raw draws, chunk by chunk.
    chunks = streams.standard_normal_chunks(seed, count, coef.size)
    return np.concatenate([(z * z) @ coef for z in chunks])


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("count", [1, 4095, 2 * streams.CHUNK_SIZE + 7])
@pytest.mark.parametrize("dim", [1, 3, 7, 64, 100, 384, 1000])
def test_quadratic_chunks_match_the_normal_stream(monkeypatch, dim, count, workers):
    monkeypatch.setattr(streams, "_worker_count", lambda: workers)
    coef = np.random.default_rng(dim).standard_normal(dim)
    got = streams.quadratic_draws(11, count, coef, 0.0)
    assert np.array_equal(got, _reference(11, count, coef))


def test_quadratic_draws_add_the_offset():
    coef = np.random.default_rng(5).standard_normal(5)
    count = streams.CHUNK_SIZE + 9
    got = streams.quadratic_draws(4, count, coef, -2.75)
    assert np.array_equal(got, _reference(4, count, coef) + -2.75)


@pytest.mark.parametrize("dim", [384, 1000])
def test_quadratic_chunks_leave_no_one_row_tail(dim):
    # 64-row blocks: a chunk of 65 or 129 rows ends in a lone row, which numpy
    # would reduce by a dot product instead of the matrix-vector product.
    coef = np.random.default_rng(dim).standard_normal(dim)
    for count in (65, 129, streams.CHUNK_SIZE + 65):
        got = streams.quadratic_draws(2, count, coef, 0.0)
        assert np.array_equal(got, _reference(2, count, coef))


_ONE_BLAS_THREAD_SCRIPT = """
import numpy as np
from steinlab import streams
for dim in (3, 384, 1000):
    coef = np.random.default_rng(dim).standard_normal(dim)
    count = 2 * streams.CHUNK_SIZE + 7
    expected = [(z * z) @ coef for z in streams.standard_normal_chunks(11, count, dim)]
    got = streams.quadratic_draws(11, count, coef, 0.0)
    assert np.array_equal(got, np.concatenate(expected))
    print(got.tobytes().hex())
"""


def test_quadratic_chunks_match_under_one_blas_thread():
    # OpenBLAS splits a large matrix-vector product across its own threads;
    # its thread count is fixed when numpy loads, hence the subprocess.
    src = os.path.dirname(os.path.dirname(streams.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    single = subprocess.run(
        [sys.executable, "-c", _ONE_BLAS_THREAD_SCRIPT],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    here = []
    for dim in (3, 384, 1000):
        coef = np.random.default_rng(dim).standard_normal(dim)
        got = streams.quadratic_draws(11, 2 * streams.CHUNK_SIZE + 7, coef, 0.0)
        here.append(got.tobytes().hex())
    # The default thread count gives the same bytes as one thread.
    assert single == here


def test_worker_failure_is_raised_and_leaves_no_threads(monkeypatch):
    chunk_rng = streams.chunk_rng

    def failing(seed, index):
        if index == 1:
            raise RuntimeError("chunk 1 failed")
        return chunk_rng(seed, index)

    monkeypatch.setattr(streams, "chunk_rng", failing)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="chunk 1 failed"):
        streams.quadratic_draws(3, 8 * streams.CHUNK_SIZE, np.ones(64), 0.0)
    assert threading.active_count() == threads


@pytest.mark.parametrize("dim", [3, 384])
def test_workers_sharing_the_output_lose_no_write(monkeypatch, dim):
    # More workers than cores and a short switch interval, so that writes to
    # neighbouring slices of the one output array interleave.  The pool starts
    # at most one thread per chunk: six here, whatever the core count.
    monkeypatch.setattr(streams, "_worker_count", lambda: 2 * (os.cpu_count() or 1) + 1)
    coef = np.random.default_rng(dim).standard_normal(dim)
    count = 5 * streams.CHUNK_SIZE + 7
    got = []

    def call():
        got.append(streams.quadratic_draws(8, count, coef, 0.0))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=call)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == 1
    assert np.array_equal(got[0], _reference(8, count, coef))
