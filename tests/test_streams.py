import hashlib
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from steinlab import detect, gaussian, qform, spectral, streams, typicality

import oracles


def test_chunk_runs_cover_count():
    size, runs = streams.CHUNK_SIZE, streams.RUN_CHUNKS
    assert list(streams.chunk_runs(1)) == [(0, 1, 1)]
    assert list(streams.chunk_runs(size)) == [(0, 1, size)]
    # Full chunks in runs of RUN_CHUNKS, then the partial last chunk alone.
    assert list(streams.chunk_runs(size * (runs + 2) + 7)) == [
        (0, runs, size),
        (runs, 2, size),
        (runs + 2, 1, 7),
    ]
    assert list(streams.chunk_runs(size * runs)) == [(0, runs, size)]


def _samples(seed, count, dim):
    # The draws as (count, dim): one row per sample.
    return np.concatenate(list(oracles.standard_normal_chunks(seed, count, dim)), axis=1).T


def test_same_seed_reproduces():
    assert np.array_equal(_samples(3, 5000, 2), _samples(3, 5000, 2))


def test_different_seeds_differ():
    assert not np.array_equal(_samples(3, 1000, 1), _samples(4, 1000, 1))


def test_prefix_stable_under_larger_count():
    # per-chunk seeding, and a partial chunk is the head of a full one: the
    # first samples do not depend on the total count
    short = _samples(7, 100, 3)
    long = _samples(7, 9000, 3)
    assert np.array_equal(long[:100], short)


def test_leading_coordinates_stable_under_larger_dim():
    # chunks are coordinate-major, so a sample's first n coordinates do not
    # depend on the stream's dimension
    for count in (1, 100, 2 * streams.CHUNK_SIZE + 7):
        assert np.array_equal(_samples(7, count, 9)[:, :4], _samples(7, count, 4))


def test_chunks_are_coordinate_major():
    block = streams._chunk_normals(5, 0, 10, 3)
    full = streams.chunk_rng(5, 0).standard_normal((3, streams.CHUNK_SIZE))
    assert block.shape == (3, 10) and block.flags.c_contiguous
    assert np.array_equal(block, full[:, :10])


# SHA-256 of chunk 0 of seed 0 at dimension 4, as little-endian doubles: a
# generator that changes, by its algorithm or by numpy's normal sampler,
# moves it.
CHUNK_0_SHA256 = "414456821f3a9659e9f38fd4cca1ad729f78985488102077e15340d1b8f5eeab"


def test_chunk_0_of_seed_0_is_pinned():
    (reference,) = oracles.standard_normal_chunks(0, streams.CHUNK_SIZE, 4)
    assert hashlib.sha256(reference.astype("<f8").tobytes()).hexdigest() == CHUNK_0_SHA256
    assert np.array_equal(streams._chunk_normals(0, 0, streams.CHUNK_SIZE, 4), reference)


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
    chunks = oracles.standard_normal_chunks(seed, count, coef.size)
    return np.concatenate([coef @ (z * z) for z in chunks])


def _values(seed, count, forms):
    # Every form's values from one kernel call, one row per form: the
    # kernel's runs, one stack of (form, sample) rows per chunk, joined.
    runs = streams.quadratic_draws(seed, count, forms, lambda v: v)
    return np.concatenate([chunk for run in runs for chunk in run], axis=1)


def _rows(seed, count, coefs):
    return _values(seed, count, [qform.QuadraticForm(c, 0.0) for c in coefs])


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("count", [1, 4095, 8199])
@pytest.mark.parametrize("dim", [1, 3, 7, 64, 100, 384, 1000])
def test_quadratic_chunks_match_the_normal_stream(monkeypatch, dim, count, workers):
    # Each form reads the leading coordinates of the one stream drawn at the
    # largest dimension, and gets the bits of a stream of its own dimension.
    monkeypatch.setattr(streams, "_worker_count", lambda: workers)
    coef = np.random.default_rng(dim).standard_normal(dim)
    coefs = [coef[:m] for m in sorted({1, (dim + 1) // 2, dim})]
    got = _rows(11, count, coefs)
    assert got.shape == (len(coefs), count)
    for row, c in zip(got, coefs):
        assert np.array_equal(row, _reference(11, count, c))


def test_quadratic_draws_add_the_offset():
    coef = np.random.default_rng(5).standard_normal(5)
    count = streams.CHUNK_SIZE + 9
    forms = [qform.QuadraticForm(coef[:2], 1.5), qform.QuadraticForm(coef, -2.75)]
    (alone,) = _values(4, count, forms[1:])
    assert np.array_equal(alone, _reference(4, count, coef) + -2.75)
    rows = _values(4, count, forms)
    assert np.array_equal(rows[0], _reference(4, count, coef[:2]) + 1.5)
    assert np.array_equal(rows[1], alone)


def test_quadratic_draws_reduce_runs_of_equal_chunks_in_order():
    # Each run of chunks of one size comes to the reducer as one stack, and
    # a reduction along its last axis gives each chunk's bits alone.
    coef = np.random.default_rng(6).standard_normal(4)
    count = (streams.RUN_CHUNKS + 2) * streams.CHUNK_SIZE + 5
    form = qform.QuadraticForm(coef, 0.0)
    got = streams.quadratic_draws(9, count, [form], lambda v: (v.shape, v.sum(axis=-1)[:, 0]))
    values = _reference(9, count, coef)
    parts = np.split(values, range(streams.CHUNK_SIZE, count, streams.CHUNK_SIZE))
    sizes = [(streams.RUN_CHUNKS, 1, streams.CHUNK_SIZE), (2, 1, streams.CHUNK_SIZE), (1, 1, 5)]
    assert [shape for shape, _ in got] == sizes
    assert np.array_equal(np.concatenate([sums for _, sums in got]), [p.sum() for p in parts])


@pytest.mark.parametrize("dim", [384, 1000])
def test_quadratic_chunks_leave_no_one_row_tail(dim):
    # A chunk of one sample is one column, which numpy reduces by a dot
    # product rather than a matrix-vector product; its bits must still be
    # the reference's, in a stream drawn at this dimension or a larger one.
    coef = np.random.default_rng(dim).standard_normal(dim)
    for count in (1, streams.CHUNK_SIZE + 1, 2 * streams.CHUNK_SIZE + 1):
        expected = _reference(2, count, coef)
        got = _rows(2, count, [coef])[0]
        assert np.array_equal(got, expected)
        assert np.array_equal(_rows(2, count, [coef, np.ones(dim + 5)])[0], expected)


_ONE_BLAS_THREAD_SCRIPT = """
import numpy as np
import oracles
from steinlab import qform, streams
for dim in (3, 384, 1000):
    coef = np.random.default_rng(dim).standard_normal(dim)
    count = 2 * streams.CHUNK_SIZE + 7
    expected = [coef @ (z * z) for z in oracles.standard_normal_chunks(11, count, dim)]
    form = qform.QuadraticForm(coef, 0.0)
    got = np.concatenate(streams.quadratic_draws(11, count, [form], lambda v: v[:, 0].ravel()))
    assert np.array_equal(got, np.concatenate(expected))
    print(got.tobytes().hex())
"""


def test_quadratic_chunks_match_under_one_blas_thread():
    # OpenBLAS splits a large matrix-vector product across its own threads;
    # its thread count is fixed when numpy loads, hence the subprocess.
    src = os.path.dirname(os.path.dirname(streams.__file__))
    path = os.pathsep.join([src, os.path.dirname(oracles.__file__)])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    single = subprocess.run(
        [sys.executable, "-c", _ONE_BLAS_THREAD_SCRIPT],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    here = []
    for dim in (3, 384, 1000):
        coef = np.random.default_rng(dim).standard_normal(dim)
        got = _rows(11, 2 * streams.CHUNK_SIZE + 7, [coef])[0]
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
        _rows(3, 8 * streams.CHUNK_SIZE, [np.ones(64)])
    assert threading.active_count() == threads


@pytest.mark.parametrize("dim", [3, 384])
def test_workers_sharing_the_output_lose_no_write(monkeypatch, dim):
    # More workers than cores and a short switch interval, so that the
    # workers' draws, products and reductions interleave.  Every chunk's
    # result must come back, in chunk order.
    monkeypatch.setattr(streams, "_worker_count", lambda: 2 * (os.cpu_count() or 1) + 1)
    coef = np.random.default_rng(dim).standard_normal(dim)
    count = 5 * streams.CHUNK_SIZE + 7
    got = []

    def call():
        got.append(_rows(8, count, [coef])[0])

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


@pytest.mark.parametrize("tail", [1, 100])
def test_studies_independent_of_run_length_and_workers(monkeypatch, tail):
    # 19 full chunks make runs of 8, 8 and 3 at the default run length,
    # then a last chunk of `tail` samples; the kernel's values and the
    # estimates of `detect` and `typical` are the same bits at every run
    # length and worker count.
    count = 19 * streams.CHUNK_SIZE + tail
    kappas = np.linspace(2.5, 0.4, 24)
    pair = oracles.diagonal_pair(kappas)
    form = gaussian.llr_form(pair)
    short = gaussian.llr_form(oracles.diagonal_pair(kappas[:10]))
    specs = [typicality.TypicalSetSpec(f, typicality.good_delta(f, 0.2)) for f in (form, short)]
    dets = [detect.NpThreshold(pair.kl), specs[0]]
    cov_p = spectral.CovarianceSequence.geometric(0.5)
    cov_q = spectral.CovarianceSequence.white()

    def outputs():
        return (
            _values(3, count, [form, short]).tobytes(),
            [detect.estimate_beta_is(det, pair, count, 3) for det in dets],
            typicality.mc_typical_probs(specs, count, 3),
            detect.gcsl_experiment(cov_p, cov_q, 0.2, [8, 16, 24], count, 3).rows,
        )

    results = []
    for run_chunks in (1, 8):
        for workers in (1, 2, 3):
            monkeypatch.setattr(streams, "RUN_CHUNKS", run_chunks)
            monkeypatch.setattr(streams, "_worker_count", lambda: workers)
            results.append(outputs())
    assert all(result == results[0] for result in results[1:])
    assert results[0][1][0].alpha_hat > 0.0 and results[0][2][0].estimate < 1.0
