import numpy as np

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
