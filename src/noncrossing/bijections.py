"""Structure-preserving maps between the Catalan families, with inverses.

The Dyck path is the pivot: partitions, plane trees, full binary trees
and pairings all convert through it.  The doubling construction maps a
partition of [n] to a pairing of [2n] and transports the width statistic.
Every map is linear in its input, apart from one sort of the doubled
pairs, and none recurses, so paths and trees of any depth convert.
"""

from __future__ import annotations

from .structures import (
    BinaryTree,
    DyckPath,
    NCPairing,
    NCPartition,
    PlanarTree,
    ValidationError,
)


def dyck_to_partition(path: DyckPath) -> NCPartition:
    """Read the partition off a Dyck path.

    Up steps are labeled 1..n in order; every maximal run of down steps
    pops the labels of the matching up steps and forms one block.
    """
    label = 0
    stack: list[int] = []
    blocks: list[list[int]] = []
    prev_down = False
    for s in path.steps:
        if s == 1:
            label += 1
            stack.append(label)
            prev_down = False
        else:
            popped = stack.pop()
            if prev_down:
                blocks[-1].append(popped)
            else:
                blocks.append([popped])
            prev_down = True
    return NCPartition(path.n, tuple(tuple(b) for b in blocks))


def partition_to_dyck(pi: NCPartition) -> DyckPath:
    """Inverse of dyck_to_partition: each block closes right after its maximum."""
    block_of = {}
    for block in pi.blocks:
        for x in block:
            block_of[x] = block
    steps: list[int] = []
    for x in range(1, pi.n + 1):
        steps.append(1)
        block = block_of[x]
        if x == block[-1]:
            steps.extend([-1] * len(block))
    return DyckPath(tuple(steps))


def dyck_to_planar_tree(path: DyckPath) -> PlanarTree:
    """Depth-first-walk reading: up descends into a new child, down ascends."""
    stack: list[list[PlanarTree]] = [[]]
    for s in path.steps:
        if s == 1:
            stack.append([])
        else:
            kids = stack.pop()
            stack[-1].append(PlanarTree(tuple(kids)))
    return PlanarTree(tuple(stack[0]))


def planar_tree_to_dyck(tree: PlanarTree) -> DyckPath:
    steps: list[int] = []
    stack = [iter(tree.children)]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
            if stack:
                steps.append(-1)
        else:
            steps.append(1)
            stack.append(iter(child.children))
    return DyckPath(tuple(steps))


def dyck_to_binary_tree(path: DyckPath) -> BinaryTree:
    """Map a Dyck path with 2n steps to a full binary tree on 2n+1 vertices.

    T(empty) is a leaf, and T(w U S D) is a vertex whose left edge carries
    the label of that U, with left subtree T(w) and right subtree T(S).
    One stack holds, per open U, its label and the tree of the steps read
    since it.
    """
    leaf = BinaryTree()
    trees = [leaf]
    labels: list[int] = []
    label = 0
    for s in path.steps:
        if s == 1:
            label += 1
            labels.append(label)
            trees.append(leaf)
        else:
            inner = trees.pop()
            trees[-1] = BinaryTree(left=trees[-1], right=inner, label=labels.pop())
    return trees[0]


def binary_tree_to_dyck(tree: BinaryTree) -> DyckPath:
    """Inverse map; only the tree shape matters, labels are re-derived.

    Emits T(left) U T(right) D for every internal vertex, from a stack of
    pending subtrees and steps.
    """
    steps: list[int] = []
    pending: list[BinaryTree | int] = [tree]
    while pending:
        item = pending.pop()
        if isinstance(item, int):
            steps.append(item)
            continue
        while not item.is_leaf:
            pending += (-1, item.right, 1)  # type: ignore[arg-type]
            item = item.left  # type: ignore[assignment]
    return DyckPath(tuple(steps))


def binary_tree_blocks(tree: BinaryTree) -> NCPartition:
    """Read the partition from a labeled binary tree.

    Every internal vertex lies on exactly one maximal chain of right
    edges, which starts at the root or at a left child and ends at a
    leaf; the left-edge labels along each chain form one block.
    """
    blocks: list[list[int]] = []
    n = 0
    pending = [tree]
    while pending:
        node = pending.pop()
        chain: list[int] = []
        while not node.is_leaf:
            if node.label is None:
                raise ValidationError("internal vertex is missing its left-edge label")
            n += 1
            chain.append(node.label)
            pending.append(node.left)  # type: ignore[arg-type]
            node = node.right  # type: ignore[assignment]
        if chain:
            blocks.append(chain)
    return NCPartition(n, tuple(tuple(b) for b in blocks))


def _doubled_pairs(pi: NCPartition) -> tuple[tuple[int, int], ...]:
    """The pairs of ``double(pi)``, sorted as ``NCPairing`` stores them."""
    pairs: list[tuple[int, int]] = []
    for block in pi.blocks:
        if len(block) == 1:
            x = block[0]
            pairs.append((2 * x - 1, 2 * x))
        else:
            pairs.append((2 * block[0] - 1, 2 * block[-1]))
            for a, b in zip(block, block[1:]):
                pairs.append((2 * a, 2 * b - 1))
    pairs.sort()
    return tuple(pairs)


def double(pi: NCPartition) -> NCPairing:
    """Doubling construction: split each point x into 2x-1 and 2x.

    A singleton {x} becomes the pair (2x-1, 2x); a block x1<...<xk becomes
    the outer pair (2*x1-1, 2*xk) plus the inner pairs (2*xi, 2*x(i+1)-1).
    """
    return NCPairing(2 * pi.n, _doubled_pairs(pi))


def undouble(pairing: NCPairing) -> NCPartition:
    """Inverse of double; raises ValidationError off the image."""
    if pairing.m % 2:
        raise ValidationError("doubled pairings have even ground sets")
    n = pairing.m // 2
    start = {a: b for a, b in pairing.pairs}
    consumed: set[int] = set()
    blocks: list[list[int]] = []
    for a, b in pairing.pairs:
        if a in consumed:
            continue
        if a % 2 == 0:
            raise ValidationError(
                f"pair opening at even position {a} is not chained to any block"
            )
        consumed.add(a)
        x1 = (a + 1) // 2
        block = [x1]
        if b == a + 1:
            blocks.append(block)
            continue
        if b % 2:
            raise ValidationError(f"outer pair ({a},{b}) must close at an even position")
        cur = a + 1
        while True:
            if cur not in start:
                raise ValidationError(f"broken block chain at position {cur}")
            nxt = start[cur]
            if nxt % 2 == 0:
                raise ValidationError(f"inner pair ({cur},{nxt}) must close oddly")
            consumed.add(cur)
            x = (nxt + 1) // 2
            block.append(x)
            if 2 * x == b:
                break
            if 2 * x > b:
                raise ValidationError("block chain escapes its outer pair")
            cur = nxt + 1
        blocks.append(block)
    pi = NCPartition(n, tuple(tuple(b) for b in blocks))
    if _doubled_pairs(pi) != pairing.pairs:
        raise ValidationError("pairing is not of doubled form")
    return pi


def pairing_to_dyck(pairing: NCPairing) -> DyckPath:
    """Openers step up, closers step down; path height tracks pairing width."""
    opens = {a for a, _ in pairing.pairs}
    steps = tuple(1 if i in opens else -1 for i in range(1, pairing.m + 1))
    return DyckPath(steps)
