import itertools

import pytest

from noncrossing import exact
from noncrossing.structures import (
    DyckPath,
    NCPairing,
    NCPartition,
    ValidationError,
    enumerate_dyck,
    enumerate_nc,
    is_noncrossing,
)


def crossing_quadruple_exists(n, blocks):
    """Brute-force oracle: scan every quadruple a<b<c<d."""
    owner = {}
    for i, block in enumerate(blocks):
        for x in block:
            owner[x] = i
    for a, b, c, d in itertools.combinations(range(1, n + 1), 4):
        if owner[a] == owner[c] and owner[b] == owner[d] and owner[a] != owner[b]:
            return True
    return False


def all_set_partitions(n):
    if n == 0:
        yield []
        return
    first, *rest = range(1, n + 1)
    for sub in all_set_partitions(n - 1):
        shifted = [[x + 1 for x in b] for b in sub]
        for i in range(len(shifted)):
            yield shifted[: i] + [[1] + shifted[i]] + shifted[i + 1 :]
        yield [[1]] + shifted


class TestIsNoncrossing:
    def test_canonical_crossing(self):
        assert not is_noncrossing(4, [[1, 3], [2, 4]])

    def test_reference_partition(self):
        assert is_noncrossing(9, [[1, 2, 5, 6, 7, 8], [3, 4], [9]])

    def test_all_singletons(self):
        assert is_noncrossing(3, [[1], [2], [3]])

    def test_malformed_rejected(self):
        with pytest.raises(ValidationError):
            is_noncrossing(3, [[1, 2]])
        with pytest.raises(ValidationError):
            is_noncrossing(3, [[1, 2], [2, 3]])
        with pytest.raises(ValidationError):
            is_noncrossing(3, [[1, 2], [3, 4]])

    @pytest.mark.parametrize("n", range(9))
    def test_agrees_with_quadruple_scan(self, n):
        for blocks in all_set_partitions(n):
            blocks = [sorted(b) for b in blocks]
            assert is_noncrossing(n, blocks) == (not crossing_quadruple_exists(n, blocks))


class TestNCPartition:
    def test_canonical_order(self):
        pi = NCPartition(4, ((3, 4), (2, 1)))
        assert pi.blocks == ((1, 2), (3, 4))

    def test_crossing_rejected(self):
        with pytest.raises(ValidationError):
            NCPartition(4, ((1, 3), (2, 4)))

    def test_text_round_trip(self):
        text = "{1,2,5,6,7,8}|{3,4}|{9}"
        assert NCPartition.from_text(text).to_text() == text
        assert NCPartition.from_text("").n == 0

    def test_empty(self):
        assert NCPartition(0, ()).blocks == ()

    @pytest.mark.parametrize("text", ["{}", "{1,x}", "{1,,2}", "{1}|{}"])
    def test_malformed_block_rejected(self, text):
        with pytest.raises(ValidationError, match="malformed block"):
            NCPartition.from_text(text)

    def test_spaces_inside_blocks_allowed(self):
        assert NCPartition.from_text("{1, 2}| {3}").to_text() == "{1,2}|{3}"


class TestDyckPath:
    def test_validation(self):
        with pytest.raises(ValidationError):
            DyckPath((1, -1, -1, 1))
        with pytest.raises(ValidationError):
            DyckPath((1, 1))
        with pytest.raises(ValidationError):
            DyckPath((1, 0))

    def test_text_round_trip(self):
        assert DyckPath.from_text("UUDD").steps == (1, 1, -1, -1)
        assert DyckPath.from_text("UUDD").to_text() == "UUDD"
        assert DyckPath.from_text("").n == 0

    def test_bad_character(self):
        with pytest.raises(ValidationError):
            DyckPath.from_text("UX")


class TestNCPairing:
    def test_valid(self):
        p = NCPairing(4, ((1, 4), (2, 3)))
        assert p.n_pairs == 2

    def test_crossing_rejected(self):
        with pytest.raises(ValidationError):
            NCPairing(4, ((1, 3), (2, 4)))

    def test_non_matching_rejected(self):
        with pytest.raises(ValidationError):
            NCPairing(4, ((1, 2), (3, 3)))


class TestEnumerators:
    @pytest.mark.parametrize("n", range(13))
    def test_nc_count_is_catalan(self, n):
        assert sum(1 for _ in enumerate_nc(n)) == exact.catalan(n)

    @pytest.mark.parametrize("n", range(13))
    def test_dyck_count_is_catalan(self, n):
        assert sum(1 for _ in enumerate_dyck(n)) == exact.catalan(n)

    def test_small_counts(self):
        assert sum(1 for _ in enumerate_nc(3)) == 5
        assert sum(1 for _ in enumerate_nc(4)) == 14
        assert [p.to_text() for p in enumerate_dyck(1)] == ["UD"]
        assert sorted(p.to_text() for p in enumerate_dyck(2)) == ["UDUD", "UUDD"]
        assert sum(1 for _ in enumerate_dyck(3)) == 5

    def test_n_zero(self):
        assert list(enumerate_nc(0)) == [NCPartition(0, ())]
        assert list(enumerate_dyck(0)) == [DyckPath(())]

    def test_golden_order_n3(self):
        # deterministic enumeration order, pinned
        assert [p.to_text() for p in enumerate_nc(3)] == [
            "{1,2,3}",
            "{1,2}|{3}",
            "{1,3}|{2}",
            "{1}|{2,3}",
            "{1}|{2}|{3}",
        ]
        assert [p.to_text() for p in enumerate_dyck(3)] == [
            "UUUDDD",
            "UUDUDD",
            "UUDDUD",
            "UDUUDD",
            "UDUDUD",
        ]

    def test_no_duplicates(self):
        for n in range(9):
            seen = list(enumerate_nc(n))
            assert len(seen) == len(set(seen))

    def test_guard(self):
        with pytest.raises(ValueError, match="refused"):
            next(enumerate_nc(15))
        with pytest.raises(ValueError, match="refused"):
            next(enumerate_dyck(15))

    def test_filter_and_recursion_regimes_agree(self):
        # n = 8 uses the filtered route, but the recursive construction
        # must produce the same set
        from noncrossing.structures import _nc_recursive

        filtered = {p for p in enumerate_nc(8)}
        recursive = {NCPartition(8, tuple(b)) for b in _nc_recursive(1, 8)}
        assert filtered == recursive

    def test_every_emitted_partition_is_valid(self):
        for n in range(7):
            for pi in enumerate_nc(n):
                NCPartition(pi.n, pi.blocks)  # re-validates
