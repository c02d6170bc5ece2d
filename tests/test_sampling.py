import hashlib
from collections import Counter

import numpy as np
import pytest

import goodness_of_fit as gof
from noncrossing import sampling
from noncrossing.sampling import RngState, sample_dyck, sample_dyck_steps, sample_nc_partition
from noncrossing.structures import DyckPath, enumerate_dyck


class TestDeterminism:
    def test_same_key_same_samples(self):
        a = sample_dyck_steps(40, 64, RngState(123, 5).generator())
        b = sample_dyck_steps(40, 64, RngState(123, 5).generator())
        assert (a == b).all()

    def test_distinct_streams_differ(self):
        a = sample_dyck_steps(40, 64, RngState(123, 5).generator())
        b = sample_dyck_steps(40, 64, RngState(123, 6).generator())
        assert (a != b).any()

    def test_object_api_deterministic(self):
        assert sample_dyck(9, RngState(7, 1)) == sample_dyck(9, RngState(7, 1))
        assert sample_nc_partition(9, RngState(7, 1)) == sample_nc_partition(9, RngState(7, 1))


class TestValidity:
    @pytest.mark.parametrize("n", [1, 2, 7, 33, 200])
    def test_paths_are_valid(self, n):
        steps = sample_dyck_steps(n, 50, RngState(0, 0).generator())
        prefix = np.cumsum(steps, axis=1)
        assert (prefix >= 0).all()
        assert (prefix[:, -1] == 0).all()
        assert (np.sum(steps == 1, axis=1) == n).all()

    def test_n1_always_ud(self):
        for seed in range(5):
            assert sample_dyck(1, RngState(seed, 0)).to_text() == "UD"

    def test_n_below_one_rejected(self):
        with pytest.raises(ValueError):
            sample_dyck_steps(0, 1, RngState(0, 0).generator())


class TestUniformity:
    def test_n2_frequency_band(self):
        steps = sample_dyck_steps(2, 100_000, RngState(0, 0).generator())
        udud = np.mean((steps[:, 0] == 1) & (steps[:, 1] == -1))
        assert 0.494 <= udud <= 0.506  # exact 1/2 within the 3-sigma band

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_chi_square_per_size(self, n):
        paths = {p.steps: i for i, p in enumerate(enumerate_dyck(n))}
        samples = 100_000
        steps = sample_dyck_steps(n, samples, RngState(2024, 0).generator())
        counts = Counter(paths[tuple(int(x) for x in row)] for row in steps)
        observed = [counts.get(i, 0) for i in range(len(paths))]
        expected = [samples / len(paths)] * len(paths)
        stat = gof.chi_square_statistic(observed, expected)
        critical = gof.chi_square_critical(len(paths) - 1, 1e-3)
        assert stat < critical, (n, stat, critical)

    def test_n3_partitions_uniform(self):
        tallies = Counter(
            sample_nc_partition(3, RngState(5, i)).to_text() for i in range(2000)
        )
        assert len(tallies) == 5
        for count in tallies.values():
            assert abs(count / 2000 - 0.2) < 0.05

    def test_crossing_partition_never_appears(self):
        for i in range(500):
            pi = sample_nc_partition(4, RngState(9, i))
            assert pi.blocks != ((1, 3), (2, 4))


class TestCycleLemmaRotation:
    def test_every_rotation_recovers_same_path(self):
        # all 2n+1 rotations of an (n, n+1) step multiset map to one path
        base = [1, -1, -1, 1, -1]  # n = 2 arrangement
        results = set()
        for shift in range(5):
            arr = np.array([base[(i + shift) % 5] for i in range(5)], dtype=np.int8)[None, :]
            prefix = np.cumsum(arr, axis=1, dtype=np.int32)
            first_min = np.argmin(prefix, axis=1)
            idx = (first_min[:, None] + 1 + np.arange(4)) % 5
            rotated = np.take_along_axis(arr, idx, axis=1)
            results.add(DyckPath(tuple(int(x) for x in rotated[0])).to_text())
        assert len(results) == 1


def _rotate_by_index(n, count, gen):
    """Reference sampler: the cycle-lemma rotation through a modular index array."""
    m = 2 * n + 1
    base = np.concatenate([np.ones(n, dtype=np.int8), np.full(n + 1, -1, dtype=np.int8)])
    mat = np.tile(base, (count, 1))
    gen.permuted(mat, axis=1, out=mat)
    first_min = np.argmin(np.cumsum(mat, axis=1, dtype=np.int64), axis=1)
    idx = (first_min[:, None] + 1 + np.arange(2 * n, dtype=np.int64)) % m
    return np.take_along_axis(mat, idx, axis=1)


class TestStreamIdentity:
    """The sampled rows are part of every pinned report digest; a change to
    the stream or the rotation must show up here, not first in a benchmark."""

    # (n, seed, stream, count) -> SHA-256 of the int8 step bytes
    PINNED = {
        (1, 0, 0, 5): "c28e7ce5df0bb303e94d4e6c32b7f4f317cb24fc46a596a7488679a2e4c99071",
        (1, 3, 1, 16): "9d1e8c9add3a121ec5930c225bcb73dce5cba304814f2c4f0cbd802a45d43e58",
        (2, 0, 0, 5): "c46d005f8f11cb773c144eec8841507925e805a6646d4f0a510df65b9f9f7dbe",
        (2, 7, 4, 4): "2062b809a9a6474fd45e26c0cbf4a70ad8ed06f3f054024b25912fbab9ad3013",
        (3, 0, 0, 5): "2c524180f915f42d1bdfe57bc81ad46e098d04a0d805d0c06c7771a8b8a6d91f",
        (3, 3, 1, 16): "a2a904c512a7e23165350a142c8b0f4db8155193b41e764353304946e15a9f50",
        (2000, 0, 0, 5): "60d47332776ee47d4c0f41f762afbfb1b262d6e5e3c194288b98350a42f91bdc",
        (2000, 3, 1, 16): "131da9839a1ece50837047a92c5a089bcb6cc6828b0bc0ac537af767b629e289",
        (8192, 0, 0, 5): "93d049f7438e801d924a4adbd2ce4eab67870f39aa54fd289c45910d9d8f0cf8",
        (8192, 7, 4, 4): "4000b2f413164f7db35d27fb43de4a33e823c5bbcddba94d54628783ea94e9be",
    }

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_pinned_digest(self, key):
        n, seed, stream, count = key
        steps = sample_dyck_steps(n, count, RngState(seed, stream).generator())
        assert steps.dtype == np.int8 and steps.shape == (count, 2 * n)
        assert hashlib.sha256(steps.tobytes()).hexdigest() == self.PINNED[key]

    @pytest.mark.parametrize("n", [2**15 - 2, 2**15 - 1])
    def test_matches_index_rotation_at_prefix_width_switch(self, n):
        # the prefix sum narrows to int16 below 2**15 - 1
        got = sample_dyck_steps(n, 1, RngState(4, 2).generator())
        want = _rotate_by_index(n, 1, RngState(4, 2).generator())
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _same_state(a, b):
    """Equality of two ``bit_generator.state`` values, which hold arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _block_rows(n):
    return sampling._SHUFFLE_BUFFER_ELEMENTS // (2 * n + 1)


class TestScratchBufferShuffle:
    """Rows are shuffled in sub-blocks of an np.intp buffer; the rows and the
    generator state afterwards must equal one int8 shuffle of all rows."""

    CASES = [
        (1, 1),
        (2000, 1),
        (300, _block_rows(300) - 3),  # ends partway through the first sub-block
        (300, 2 * _block_rows(300) + 5),  # spans three sub-blocks, last one partial
        (2000, 3 * _block_rows(2000)),  # ends exactly on a sub-block boundary
        (2**16, 3),  # 2n+1 > buffer: one row per sub-block
        (2**15 - 2, 3),  # int16 prefix sums
        (2**15 - 1, 3),  # int32 prefix sums
    ]

    def test_cases_reach_the_sub_block_shapes(self):
        assert _block_rows(300) > 3 and _block_rows(2000) > 1
        assert 2 * 2**16 + 1 > sampling._SHUFFLE_BUFFER_ELEMENTS

    @pytest.mark.parametrize("n,count", CASES)
    def test_rows_and_generator_state_match_int8_reference(self, n, count):
        gen, ref_gen = RngState(11, 3).generator(), RngState(11, 3).generator()
        got = sample_dyck_steps(n, count, gen)
        want = _rotate_by_index(n, count, ref_gen)
        assert got.dtype == want.dtype == np.int8 and got.shape == (count, 2 * n)
        assert np.array_equal(got, want)
        assert _same_state(gen.bit_generator.state, ref_gen.bit_generator.state)
        assert gen.integers(1 << 62) == ref_gen.integers(1 << 62)
