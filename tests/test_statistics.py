import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncrossing import bijections, sampling, statistics
from noncrossing.structures import DyckPath, NCPairing, NCPartition, enumerate_dyck, enumerate_nc

FIG = NCPartition.from_text("{1,2,5,6,7,8}|{3,4}|{9}")


class TestScalarStatistics:
    def test_num_blocks(self):
        assert statistics.num_blocks(NCPartition(3, ((1, 2, 3),))) == 1
        assert statistics.num_blocks(FIG) == 3

    def test_mean_blocks_small(self):
        values = [statistics.num_blocks(p) for p in enumerate_nc(3)]
        assert sorted(values) == [1, 2, 2, 2, 3]
        assert sum(values) / len(values) == 2.0

    def test_histogram(self):
        assert statistics.block_size_histogram(NCPartition(3, ((1,), (2,), (3,)))) == [3, 0, 0]
        hist = statistics.block_size_histogram(FIG)
        assert hist[0] == 1 and hist[1] == 1 and hist[5] == 1
        assert sum(hist) == 3 and sum((l + 1) * c for l, c in enumerate(hist)) == 9

    def test_histogram_invariants_exhaustive(self):
        for pi in enumerate_nc(6):
            hist = statistics.block_size_histogram(pi)
            assert sum(hist) == statistics.num_blocks(pi)
            assert sum((l + 1) * c for l, c in enumerate(hist)) == pi.n
            if hist and any(hist):
                assert statistics.largest_block(pi) == max(
                    l + 1 for l, c in enumerate(hist) if c
                )

    def test_singleton_total_n3(self):
        total = sum(statistics.block_size_histogram(p)[0] for p in enumerate_nc(3))
        assert total == 6

    def test_largest_block(self):
        assert statistics.largest_block(FIG) == 6
        assert statistics.largest_block(NCPartition(4, ((1,), (2,), (3,), (4,)))) == 1
        assert statistics.largest_block(NCPartition(0, ())) == 0
        below = sum(1 for p in enumerate_nc(3) if statistics.largest_block(p) <= 2)
        assert below == 4  # 4/5 of NC(3)

    def test_width_profile(self):
        assert statistics.width_profile(FIG) == [1, 1, 2, 1, 1, 1, 1, 0]
        assert statistics.width_profile(NCPartition(3, ((1,), (2,), (3,)))) == [0, 0]
        assert statistics.width_profile(NCPartition(5, ((1, 5), (2,), (3,), (4,)))) == [1, 1, 1, 1]
        assert statistics.width_profile(NCPartition(1, ((1,),))) == []

    def test_width(self):
        assert statistics.width(FIG) == 2
        assert statistics.width(NCPartition(2, ((1,), (2,)))) == 0
        assert statistics.width(NCPartition(1, ((1,),))) == 0

    def test_width_bounds_exhaustive(self):
        for pi in enumerate_nc(7):
            profile = statistics.width_profile(pi)
            assert all(0 <= w <= pi.n // 2 for w in profile)

    def test_pairing_width(self):
        assert statistics.pairing_width(NCPairing(2, ((1, 2),))) == 1
        assert statistics.pairing_width(NCPairing(4, ((1, 4), (2, 3)))) == 2

    def test_height_and_peaks(self):
        p = DyckPath.from_text("UUDD")
        assert statistics.dyck_height(p) == 2 and statistics.dyck_peaks(p) == 1
        p = DyckPath.from_text("UDUD")
        assert statistics.dyck_height(p) == 1 and statistics.dyck_peaks(p) == 2


class TestBatchKernels:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_exhaustive_agreement(self, n):
        paths = list(enumerate_dyck(n))
        steps = np.array([p.steps for p in paths], dtype=np.int8)
        partitions = [bijections.dyck_to_partition(p) for p in paths]
        assert statistics.batch_num_blocks(steps).tolist() == [
            statistics.num_blocks(pi) for pi in partitions
        ]
        assert statistics.batch_largest_block(steps).tolist() == [
            statistics.largest_block(pi) for pi in partitions
        ]
        assert statistics.batch_width(steps).tolist() == [
            statistics.width(pi) for pi in partitions
        ]
        for size in range(1, n + 1):
            assert statistics.batch_count_blocks_of_size(steps, size).tolist() == [
                statistics.block_size_histogram(pi)[size - 1] for pi in partitions
            ]

    def test_sampled_agreement_large_n(self):
        gen = sampling.RngState(11, 0).generator()
        steps = sampling.sample_dyck_steps(300, 40, gen)
        partitions = [
            bijections.dyck_to_partition(DyckPath(tuple(int(x) for x in row)))
            for row in steps
        ]
        assert statistics.batch_width(steps).tolist() == [
            statistics.width(pi) for pi in partitions
        ]
        assert statistics.batch_largest_block(steps).tolist() == [
            statistics.largest_block(pi) for pi in partitions
        ]
        assert statistics.batch_count_blocks_of_size(steps, 2).tolist() == [
            statistics.block_size_histogram(pi)[1] for pi in partitions
        ]

    def test_out_of_range_size_is_zero(self):
        steps = np.array([[1, 1, -1, -1]], dtype=np.int8)
        assert statistics.batch_count_blocks_of_size(steps, 5).tolist() == [0]


def _assert_block_kernels_match_scalar(steps):
    partitions = [
        bijections.dyck_to_partition(DyckPath(tuple(int(x) for x in row)))
        for row in steps
    ]
    assert statistics.batch_num_blocks(steps).tolist() == [
        statistics.num_blocks(pi) for pi in partitions
    ]
    assert statistics.batch_largest_block(steps).tolist() == [
        statistics.largest_block(pi) for pi in partitions
    ]
    for size in range(1, 5):
        assert statistics.batch_count_blocks_of_size(steps, size).tolist() == [
            statistics.block_size_histogram(pi)[size - 1] if size <= pi.n else 0
            for pi in partitions
        ]
    assert statistics.batch_width(steps).tolist() == [
        statistics.width(pi) for pi in partitions
    ]


def _argsort_width(steps):
    """Width kernel matching level crossings by an int64 argsort key.

    The reference for ``statistics.batch_width``: positions sorted by
    boundary * m + position, then the net min/max flags scattered onto
    element labels.
    """
    rows, m = steps.shape
    n = m // 2
    if n == 0:
        return np.zeros(rows, dtype=np.int64)
    up = steps > 0
    after = np.cumsum(steps, axis=1, dtype=np.int32)
    before = after - steps
    boundary = np.where(up, before, before - 1).astype(np.int64)
    order = np.argsort(boundary * m + np.arange(m, dtype=np.int64), axis=1)
    up_pos = order[:, 0::2]
    down_pos = order[:, 1::2]
    is_max = down_pos == up_pos + 1
    nxt = down_pos + 1
    at_end = nxt == m
    next_is_up = np.take_along_axis(up, np.where(at_end, m - 1, nxt), axis=1)
    is_min = at_end | next_is_up
    net = is_min.astype(np.int32) - is_max.astype(np.int32)
    label = np.take_along_axis(np.cumsum(up, axis=1, dtype=np.int64), up_pos, axis=1)
    per_element = np.zeros((rows, n), dtype=np.int32)
    np.put_along_axis(per_element, label - 1, net, axis=1)
    return np.cumsum(per_element, axis=1).max(axis=1).astype(np.int64)


class TestBlockKernelProperties:
    """Block and width kernels against the scalar statistics beyond the
    enumeration range."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=3000),
        rows=st.integers(min_value=1, max_value=4),
    )
    def test_sampled_rows(self, seed, n, rows):
        steps = sampling.sample_dyck_steps(n, rows, sampling.RngState(seed, 0).generator())
        _assert_block_kernels_match_scalar(steps)

    @pytest.mark.parametrize("n", [1, 2, 5, 1000])
    def test_edge_rows(self, n):
        nested = [1] * n + [-1] * n  # one block of size n
        flat = [1, -1] * n  # n singletons
        steps = np.array([nested, flat], dtype=np.int8)
        _assert_block_kernels_match_scalar(steps)
        assert statistics.batch_largest_block(steps).tolist() == [n, 1]
        assert statistics.batch_count_blocks_of_size(steps, 1).tolist() == [
            1 if n == 1 else 0,
            n,
        ]
        assert statistics.batch_width(steps).tolist() == [1 if n >= 2 else 0, 0]

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_no_rows(self, n):
        steps = np.zeros((0, 2 * n), dtype=np.int8)
        for values in (
            statistics.batch_num_blocks(steps),
            statistics.batch_largest_block(steps),
            statistics.batch_count_blocks_of_size(steps, 1),
            statistics.batch_width(steps),
        ):
            assert values.shape == (0,) and values.dtype == np.int64

    def test_width_without_steps(self):
        values = statistics.batch_width(np.zeros((3, 0), dtype=np.int8))
        assert values.tolist() == [0, 0, 0] and values.dtype == np.int64

    @pytest.mark.parametrize("n", [2000, 2**15 - 1, 2**15])
    def test_width_matches_argsort_kernel_at_level_dtype_switch(self, n):
        # levels fit int16 below n = 2**15 and take int32 from there on
        steps = sampling.sample_dyck_steps(n, 1, sampling.RngState(n, 3).generator())
        new, old = statistics.batch_width(steps), _argsort_width(steps)
        assert new.dtype == old.dtype == np.int64
        assert new.tolist() == old.tolist()
