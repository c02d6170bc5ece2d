"""Partition statistics: block count, per-size counts, largest block, width.

Scalar functions operate on the domain objects.  The ``batch_*`` kernels
compute the same statistics directly on arrays of Dyck-path steps (one
row per sample, entries +1/-1, every row a Dyck path) so Monte Carlo runs
stay vectorized; the test suite pins them against the scalar versions.

Blocks are the maximal down runs of the path.  The block-size kernels
read them from one pass over the up positions: the down run after each
up step is the gap to the next up step minus one.  The block count is
the number of peaks.
"""

from __future__ import annotations

import numpy as np

from .structures import DyckPath, NCPairing, NCPartition


def num_blocks(pi: NCPartition) -> int:
    return len(pi.blocks)


def block_size_histogram(pi: NCPartition) -> list[int]:
    """Entry l-1 counts the blocks of size l, for l = 1..n."""
    hist = [0] * pi.n
    for block in pi.blocks:
        hist[len(block) - 1] += 1
    return hist


def largest_block(pi: NCPartition) -> int:
    return max((len(b) for b in pi.blocks), default=0)


def width_profile(pi: NCPartition) -> list[int]:
    """Number of blocks spanning each gap x+1/2, for x = 1..n-1.

    A block spans gap x iff min(block) <= x < max(block); within a block
    at most one arc crosses each gap, so this equals the arc-crossing
    count of the picture with blocks drawn as chained semicircles.
    """
    if pi.n <= 1:
        return []
    diff = [0] * (pi.n + 1)
    for block in pi.blocks:
        if len(block) > 1:
            diff[block[0]] += 1
            diff[block[-1]] -= 1
    out = []
    acc = 0
    for x in range(1, pi.n):
        acc += diff[x]
        out.append(acc)
    return out


def width(pi: NCPartition) -> int:
    return max(width_profile(pi), default=0)


def pairing_width(pairing: NCPairing) -> int:
    """Maximum number of simultaneously open pairs over all gaps."""
    opens = {a for a, _ in pairing.pairs}
    h = best = 0
    for i in range(1, pairing.m + 1):
        h += 1 if i in opens else -1
        best = max(best, h)
    return best


def dyck_height(path: DyckPath) -> int:
    h = best = 0
    for s in path.steps:
        h += s
        best = max(best, h)
    return best


def dyck_peaks(path: DyckPath) -> int:
    return sum(
        1 for a, b in zip(path.steps, path.steps[1:]) if a == 1 and b == -1
    )


# ---------------------------------------------------------------------------
# vectorized kernels over (rows, 2n) step arrays


def batch_num_blocks(steps: np.ndarray) -> np.ndarray:
    """Blocks per row = peaks (an up step directly followed by a down step)."""
    if steps.shape[1] == 0:
        return np.zeros(steps.shape[0], dtype=np.int64)
    peaks = (steps[:, :-1] > 0) & (steps[:, 1:] < 0)
    return peaks.sum(axis=1, dtype=np.int64)


def _down_runs(steps: np.ndarray) -> np.ndarray:
    """Down run after each up step, as a (rows, n) array.

    A Dyck path holds exactly n up steps, so their flat positions reshape
    to a fixed shape.  The gap to the next up step (or to the row's end),
    minus 1, is the down run that follows; 0 when an up step follows.
    """
    rows, m = steps.shape
    ups = np.flatnonzero(steps.ravel() > 0).reshape(rows, m // 2)
    ends = np.arange(1, rows + 1, dtype=ups.dtype)[:, None] * m
    return np.diff(ups, axis=1, append=ends) - 1


def batch_count_blocks_of_size(steps: np.ndarray, size: int) -> np.ndarray:
    """Blocks of exactly the given size = maximal down runs of that length.

    Rows must be Dyck paths.
    """
    rows, m = steps.shape
    if size < 1 or size > m // 2:
        return np.zeros(rows, dtype=np.int64)
    return (_down_runs(steps) == size).sum(axis=1, dtype=np.int64)


def batch_largest_block(steps: np.ndarray) -> np.ndarray:
    """Longest down run per row; rows must be Dyck paths."""
    rows, m = steps.shape
    if m == 0:
        return np.zeros(rows, dtype=np.int64)
    return _down_runs(steps).max(axis=1)


def batch_width(steps: np.ndarray) -> np.ndarray:
    """Width per row, straight from the path; rows must be Dyck paths.

    The width is the running maximum of is_min - is_max over the elements
    (a singleton is both).  An up step from level h and the down step that
    matches it both cross level h, and the crossings of one level alternate
    up, down; a stable sort of positions by level (a radix sort while int16
    holds the levels) thus lists each up step right before its match.  An
    up step is its block's maximum iff a down step follows it, and its
    minimum iff its match ends the row or precedes an up step.
    """
    rows, m = steps.shape
    if m == 0:
        return np.zeros(rows, dtype=np.int64)
    dt = np.int16 if m < 2**16 else np.int32
    up = steps > 0
    level = np.cumsum(steps, axis=1, dtype=dt) - up
    order = np.argsort(level, axis=1, kind="stable")
    closes = np.concatenate([up[:, 1:], np.ones((rows, 1), dtype=bool)], axis=1)
    net = np.zeros((rows, m), dtype=np.int8)
    is_min = np.take_along_axis(closes, order[:, 1::2], axis=1)
    np.put_along_axis(net, order[:, 0::2], is_min, axis=1)
    net[:, :-1] -= up[:, :-1] & ~up[:, 1:]
    return np.cumsum(net, axis=1, dtype=dt).max(axis=1).astype(np.int64)
