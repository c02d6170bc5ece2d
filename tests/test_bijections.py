import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncrossing import bijections, statistics
from noncrossing.sampling import RngState, sample_nc_partition
from noncrossing.structures import (
    BinaryTree,
    DyckPath,
    NCPairing,
    NCPartition,
    PlanarTree,
    ValidationError,
    enumerate_dyck,
)


def _heights(steps):
    out = []
    h = 0
    for s in steps:
        h += s
        out.append(h)
    return out


def _recursive_binary_tree(steps, labels):
    """The former recursive construction, kept as an oracle (O(n^2)).

    A single-excursion path U S D becomes a new root whose left edge is a
    labeled leaf edge and whose right subtree encodes S.  Otherwise the
    path splits before its final excursion and the prefix tree is glued
    onto the leaf immediately left of the suffix tree's root.
    """
    heights = _heights(steps)
    last_return = None
    for i in range(len(steps) - 1):
        if heights[i] == 0:
            last_return = i
    if last_return is None:
        inner = steps[1:-1]
        right = _recursive_binary_tree(inner, labels[1:]) if inner else BinaryTree()
        return BinaryTree(left=BinaryTree(), right=right, label=labels[0])
    split = last_return + 1
    ups_before = sum(1 for s in steps[:split] if s == 1)
    prefix = _recursive_binary_tree(steps[:split], labels[:ups_before])
    suffix = _recursive_binary_tree(steps[split:], labels[ups_before:])
    return BinaryTree(left=prefix, right=suffix.right, label=suffix.label)


def _parent_map_blocks(tree):
    """The former blocks reading, kept as an oracle: map every vertex to
    its parent, then climb from each right leaf while the edge is a right
    edge, collecting left-edge labels."""
    if tree.is_leaf:
        return NCPartition(0, ())
    visit = [(tree, None, False)]
    parent_map = {}
    order = []
    while visit:
        node, parent, is_right = visit.pop()
        parent_map[id(node)] = (parent, is_right)
        order.append(node)
        if not node.is_leaf:
            visit.append((node.left, node, False))
            visit.append((node.right, node, True))
    blocks = []
    for node in order:
        parent, is_right = parent_map[id(node)]
        if node.is_leaf and is_right and parent is not None:
            block = [parent.label]
            cur, cur_right = parent, parent_map[id(parent)][1]
            while cur_right:
                cur_parent = parent_map[id(cur)][0]
                block.append(cur_parent.label)
                cur, cur_right = cur_parent, parent_map[id(cur_parent)][1]
            blocks.append(block)
    n = (tree.vertex_count() - 1) // 2
    return NCPartition(n, tuple(tuple(b) for b in blocks))


def _unchecked_pairing(m, pairs):
    """An NCPairing that skips validation, as a caller could hand one in."""
    pairing = object.__new__(NCPairing)
    object.__setattr__(pairing, "m", m)
    object.__setattr__(pairing, "pairs", pairs)
    return pairing


def path(text):
    return DyckPath.from_text(text)


class TestPathPartition:
    def test_reference_example(self):
        pi = bijections.dyck_to_partition(path("UUUUDDUUUUDDDDDDUD"))
        assert pi.to_text() == "{1,2,5,6,7,8}|{3,4}|{9}"

    def test_alternating_gives_singletons(self):
        pi = bijections.dyck_to_partition(path("UDUDUD"))
        assert pi.blocks == ((1,), (2,), (3,))

    def test_staircase_gives_one_block(self):
        pi = bijections.dyck_to_partition(path("UUUUDDDD"))
        assert pi.blocks == ((1, 2, 3, 4),)

    def test_inverse_examples(self):
        assert bijections.partition_to_dyck(NCPartition(3, ((1,), (2,), (3,)))).to_text() == "UDUDUD"
        assert bijections.partition_to_dyck(NCPartition(2, ((1, 2),))).to_text() == "UUDD"
        fig = NCPartition.from_text("{1,2,5,6,7,8}|{3,4}|{9}")
        assert bijections.partition_to_dyck(fig).to_text() == "UUUUDDUUUUDDDDDDUD"


class TestPlanarTree:
    def test_single_edge(self):
        tree = bijections.dyck_to_planar_tree(path("UD"))
        assert tree.vertex_count() == 2
        assert len(tree.children) == 1

    def test_two_children(self):
        tree = bijections.dyck_to_planar_tree(path("UDUD"))
        assert len(tree.children) == 2
        assert tree.vertex_count() == 3

    @pytest.mark.parametrize("n", range(9))
    def test_leaves_count_blocks(self, n):
        for p in enumerate_dyck(n):
            tree = bijections.dyck_to_planar_tree(p)
            pi = bijections.dyck_to_partition(p)
            if n > 0:
                assert tree.leaf_count() == statistics.num_blocks(pi)


class TestBinaryTree:
    def test_base_case(self):
        tree = bijections.dyck_to_binary_tree(path("UD"))
        assert tree.vertex_count() == 3
        assert tree.left.is_leaf and tree.right.is_leaf
        assert tree.label == 1

    def test_blocks_of_base(self):
        tree = bijections.dyck_to_binary_tree(path("UD"))
        assert bijections.binary_tree_blocks(tree).blocks == ((1,),)

    def test_reference_blocks(self):
        tree = bijections.dyck_to_binary_tree(path("UUUUDDUUUUDDDDDDUD"))
        assert bijections.binary_tree_blocks(tree).to_text() == "{1,2,5,6,7,8}|{3,4}|{9}"

    def test_non_full_rejected(self):
        with pytest.raises(ValidationError):
            BinaryTree(left=BinaryTree(), right=None)

    def test_missing_label_rejected(self):
        tree = BinaryTree(left=BinaryTree(), right=BinaryTree(), label=None)
        with pytest.raises(ValidationError):
            bijections.binary_tree_blocks(tree)

    @pytest.mark.parametrize("n", range(9))
    def test_round_trip_and_block_sizes(self, n):
        for p in enumerate_dyck(n):
            tree = bijections.dyck_to_binary_tree(p)
            assert tree.vertex_count() == 2 * n + 1
            if n > 0:
                assert bijections.binary_tree_to_dyck(tree) == p
                sizes_tree = sorted(
                    len(b) for b in bijections.binary_tree_blocks(tree).blocks
                )
                sizes_pi = sorted(
                    len(b) for b in bijections.dyck_to_partition(p).blocks
                )
                assert sizes_tree == sizes_pi

    @pytest.mark.parametrize("n", range(10))
    def test_matches_recursive_oracle(self, n):
        for p in enumerate_dyck(n):
            tree = bijections.dyck_to_binary_tree(p)
            oracle = (
                _recursive_binary_tree(p.steps, list(range(1, n + 1)))
                if n
                else BinaryTree()
            )
            # dataclass equality compares the shape and every label
            assert tree == oracle
            assert bijections.binary_tree_blocks(tree) == _parent_map_blocks(oracle)

    @pytest.mark.parametrize(
        "text",
        ["U" * 1500 + "D" * 1500, "UD" * 1500],
        ids=["right-chain", "left-chain"],
    )
    def test_deep_trees_do_not_recurse(self, text):
        # binary trees of depth 1500
        p = path(text)
        tree = bijections.dyck_to_binary_tree(p)
        assert tree.vertex_count() == 3001
        assert bijections.binary_tree_to_dyck(tree) == p
        assert bijections.binary_tree_blocks(tree) == bijections.dyck_to_partition(p)


class TestTreeComparison:
    @pytest.mark.parametrize(
        "build",
        [bijections.dyck_to_planar_tree, bijections.dyck_to_binary_tree],
        ids=["planar", "binary"],
    )
    @pytest.mark.parametrize(
        "text, other_text",
        [("U" * 1500 + "D" * 1500, "UD" * 1500), ("UD" * 1500, "U" * 1500 + "D" * 1500)],
        ids=["right-chain", "left-chain"],
    )
    def test_deep_trees_compare(self, build, text, other_text):
        tree = build(path(text))
        rebuilt = build(path(text))
        other = build(path(other_text))
        assert tree == rebuilt and tree is not rebuilt
        assert tree != other
        assert hash(tree) == hash(rebuilt)
        assert repr(tree) == repr(rebuilt) != repr(other)
        assert repr(tree).startswith(type(tree).__name__ + "(preorder=(")

    @pytest.mark.parametrize(
        "build",
        [bijections.dyck_to_planar_tree, bijections.dyck_to_binary_tree],
        ids=["planar", "binary"],
    )
    def test_distinct_paths_give_distinct_trees(self, build):
        for n in range(7):
            trees = [build(p) for p in enumerate_dyck(n)]
            assert len(set(trees)) == len(trees)
            assert len({repr(t) for t in trees}) == len(trees)
            assert all(t == build(p) for t, p in zip(trees, enumerate_dyck(n)))

    def test_labels_and_types_count(self):
        leaf = BinaryTree()
        assert BinaryTree(leaf, leaf, label=1) != BinaryTree(leaf, leaf, label=2)
        assert BinaryTree(leaf, leaf, label=1) != BinaryTree(leaf, leaf)
        assert BinaryTree(label=3) != leaf
        assert PlanarTree() != leaf
        assert PlanarTree((PlanarTree(),)) == PlanarTree((PlanarTree(),))
        assert repr(BinaryTree(leaf, leaf, label=1)) == \
            "BinaryTree(preorder=((False, 1), (True, None), (True, None)))"
        assert repr(PlanarTree((PlanarTree(), PlanarTree()))) == "PlanarTree(preorder=(2, 0, 0))"


class TestDoubling:
    def test_two_singletons(self):
        pairing = bijections.double(NCPartition(2, ((1,), (2,))))
        assert pairing.pairs == ((1, 2), (3, 4))

    def test_nested_example(self):
        pairing = bijections.double(NCPartition(3, ((1, 3), (2,))))
        assert pairing.pairs == ((1, 6), (2, 5), (3, 4))

    def test_undouble_examples(self):
        assert bijections.undouble(NCPairing(4, ((1, 2), (3, 4)))).blocks == ((1,), (2,))
        assert bijections.undouble(
            NCPairing(6, ((1, 6), (2, 5), (3, 4)))
        ).blocks == ((1, 3), (2,))

    def test_undouble_total_on_nc_pairings(self):
        # every non-crossing perfect matching of [2n] is a doubling image:
        # the span of any pair encloses an even number of points, so pair
        # endpoints always have opposite parity
        assert bijections.undouble(NCPairing(4, ((1, 4), (2, 3)))).blocks == ((1, 2),)
        from noncrossing.structures import enumerate_nc

        for n in (2, 3, 4):
            for pi in enumerate_nc(2 * n):
                if any(len(b) != 2 for b in pi.blocks):
                    continue
                pairing = NCPairing(2 * n, pi.blocks)
                assert bijections.double(bijections.undouble(pairing)) == pairing

    @pytest.mark.parametrize(
        "m, pairs",
        [
            (3, ((1, 2),)),  # odd ground set
            (4, ((1, 3), (2, 4))),  # crossing; outer pair closes oddly
            (4, ((1, 4),)),  # broken block chain
            (4, ((2, 3), (1, 4))),  # even opener reached before its block
            (6, ((1, 6), (2, 4), (3, 5))),  # inner pair closes evenly
            (6, ((1, 4), (2, 5), (3, 6))),  # chain escapes its outer pair
            (4, ((1, 2), (3, 4), (5, 6))),  # pair outside the ground set
            (4, ((1, 2), (1, 2), (3, 4))),  # duplicated pair
            (4, ((3, 4), (1, 2))),  # pairs not in sorted form
        ],
    )
    def test_undouble_rejects_non_doubled_input(self, m, pairs):
        with pytest.raises(ValidationError):
            bijections.undouble(_unchecked_pairing(m, pairs))

    @pytest.mark.parametrize("n", range(9))
    def test_round_trip_and_width_transport(self, n):
        for p in enumerate_dyck(n):
            pi = bijections.dyck_to_partition(p)
            pairing = bijections.double(pi)
            assert pairing.n_pairs == n
            assert bijections.undouble(pairing) == pi
            w = statistics.width(pi)
            pw = statistics.pairing_width(pairing)
            assert w == pw // 2
            assert pw in (2 * w, 2 * w + 1)


class TestPairingToDyck:
    def test_examples(self):
        assert bijections.pairing_to_dyck(NCPairing(2, ((1, 2),))).to_text() == "UD"
        assert bijections.pairing_to_dyck(NCPairing(4, ((1, 4), (2, 3)))).to_text() == "UUDD"

    @pytest.mark.parametrize("n", range(1, 9))
    def test_height_equals_width(self, n):
        for p in enumerate_dyck(n):
            pairing = bijections.double(bijections.dyck_to_partition(p))
            dyck = bijections.pairing_to_dyck(pairing)
            assert statistics.dyck_height(dyck) == statistics.pairing_width(pairing)


@pytest.mark.parametrize("n", range(9))
def test_partition_round_trip_exhaustive(n):
    for p in enumerate_dyck(n):
        assert bijections.partition_to_dyck(bijections.dyck_to_partition(p)) == p
        assert bijections.planar_tree_to_dyck(bijections.dyck_to_planar_tree(p)) == p


@pytest.mark.parametrize("n", range(9))
def test_peak_block_transport(n):
    for p in enumerate_dyck(n):
        pi = bijections.dyck_to_partition(p)
        assert statistics.dyck_peaks(p) == statistics.num_blocks(pi)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=2000),
)
def test_round_trips_and_width_transport_sampled(seed, n):
    pi = sample_nc_partition(n, RngState(seed, 0))
    path = bijections.partition_to_dyck(pi)
    assert bijections.dyck_to_partition(path) == pi
    assert bijections.partition_to_dyck(bijections.dyck_to_partition(path)) == path
    tree = bijections.dyck_to_binary_tree(path)
    assert bijections.binary_tree_to_dyck(tree) == path
    assert bijections.binary_tree_blocks(tree) == pi
    doubled = bijections.double(pi)
    assert bijections.undouble(doubled) == pi
    height = statistics.dyck_height(bijections.pairing_to_dyck(doubled))
    assert statistics.width(pi) == height // 2
