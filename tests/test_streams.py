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


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("count", [1, 4095, 2 * streams.CHUNK_SIZE + 7])
@pytest.mark.parametrize("dim", [1, 3, 7, 64, 100, 384, 1000])
def test_quadratic_chunks_match_the_normal_stream(monkeypatch, dim, count, workers):
    monkeypatch.setattr(streams, "_worker_count", lambda: workers)
    coef = np.random.default_rng(dim).standard_normal(dim)
    expected = [(z * z) @ coef for z in streams.standard_normal_chunks(11, count, dim)]
    got = list(streams.quadratic_chunks(11, count, coef))
    assert len(got) == len(expected)
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))


@pytest.mark.parametrize("dim", [384, 1000])
def test_quadratic_chunks_leave_no_one_row_tail(dim):
    # 64-row blocks: a chunk of 65 or 129 rows ends in a lone row, which numpy
    # would reduce by a dot product instead of the matrix-vector product.
    coef = np.random.default_rng(dim).standard_normal(dim)
    for count in (65, 129, streams.CHUNK_SIZE + 65):
        expected = [(z * z) @ coef for z in streams.standard_normal_chunks(2, count, dim)]
        got = list(streams.quadratic_chunks(2, count, coef))
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))


_ONE_BLAS_THREAD_SCRIPT = """
import numpy as np
from steinlab import streams
for dim in (3, 384, 1000):
    coef = np.random.default_rng(dim).standard_normal(dim)
    count = 2 * streams.CHUNK_SIZE + 7
    expected = [(z * z) @ coef for z in streams.standard_normal_chunks(11, count, dim)]
    got = list(streams.quadratic_chunks(11, count, coef))
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))
    print(np.concatenate(got).tobytes().hex())
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
        got = streams.quadratic_chunks(11, 2 * streams.CHUNK_SIZE + 7, coef)
        here.append(np.concatenate(list(got)).tobytes().hex())
    # The default thread count gives the same bytes as one thread.
    assert single == here


def test_closing_quadratic_chunks_leaves_no_threads():
    threads = threading.active_count()
    chunks = streams.quadratic_chunks(3, 64 * streams.CHUNK_SIZE, np.ones(64))
    assert next(chunks).shape == (streams.CHUNK_SIZE,)
    chunks.close()
    assert threading.active_count() == threads
