"""Exactly uniform random Dyck paths and non-crossing partitions.

Algorithm: the cycle lemma.  Shuffle n up steps and n+1 down steps
uniformly; the total is -1, so all 2n+1 rotations are distinct and
exactly one stays nonnegative before its final step: the one starting
right after the first prefix minimum.  Each row is read there as a
strided window of the row concatenated with itself, dropping the final
down step, which yields a Dyck path; every path has exactly 2n+1
preimages, so the output is uniform without any big-integer arithmetic.

The shuffle is numpy's Fisher-Yates (``Generator.permuted``) run on
the rows of one reused ``np.intp`` scratch buffer of about
``_SHUFFLE_BUFFER_ELEMENTS`` entries, a sub-block of rows at a time,
then cast into an int8 array that holds each row twice.  numpy swaps
pointer-sized elements on a compiled fast path and any other size
through a generic byte copy, so the wide dtype shuffles faster than
int8.  The swap indices come from the generator alone and do not depend
on the dtype, so the rows, and the generator's state afterwards, are the
same as shuffling the rows as int8.

Randomness comes from numpy's Philox counter-based generator keyed by
(seed, stream): identical keys reproduce identical samples on every
platform, and distinct streams are independent, which is what the
harness uses to parallelize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bijections import dyck_to_partition
from .structures import DyckPath, NCPartition

_MASK64 = (1 << 64) - 1

# Work-unit size used by the harness: sample index i is drawn from the
# stream i // SAMPLES_PER_STREAM, so results do not depend on how many
# threads consume the units.
SAMPLES_PER_STREAM = 4096

# Size of the shuffle scratch buffer (about 1 MB of np.intp); a sub-block
# holds as many whole rows as fit, and at least one.
_SHUFFLE_BUFFER_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class RngState:
    """Seed plus stream id for a keyed Philox generator."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = [self.seed & _MASK64, self.stream & _MASK64]
        return np.random.Generator(np.random.Philox(key=key))


def sample_dyck_steps(n: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """Draw ``count`` uniform Dyck paths as a (count, 2n) array of +-1 steps."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m = 2 * n + 1
    block_rows = max(1, _SHUFFLE_BUFFER_ELEMENTS // m)
    buf = np.empty((min(count, block_rows), m), dtype=np.intp)
    # each shuffled row of n ups and n+1 downs, followed by itself
    doubled = np.empty((count, 2 * m), dtype=np.int8)
    for start in range(0, count, block_rows):
        block = buf[: min(block_rows, count - start)]
        block[:, :n] = 1
        block[:, n:] = -1
        gen.permuted(block, axis=1, out=block)
        doubled[start : start + len(block), :m] = block
    doubled[:, m:] = doubled[:, :m]
    # partial sums lie in [-(n+1), n]
    prefix = np.cumsum(
        doubled[:, :m], axis=1, dtype=np.int16 if n < 2**15 - 1 else np.int32
    )
    # first position attaining the prefix minimum; the valid rotation
    # starts right after it and the dropped element is that down step
    first_min = np.argmin(prefix, axis=1)
    return sliding_window_view(doubled, 2 * n, axis=1)[np.arange(count), first_min + 1]


def sample_dyck(n: int, rng: RngState) -> DyckPath:
    """One uniform Dyck path with 2n steps."""
    steps = sample_dyck_steps(n, 1, rng.generator())[0]
    return DyckPath(tuple(int(s) for s in steps))


def sample_nc_partition(n: int, rng: RngState) -> NCPartition:
    """One uniform non-crossing partition of [n] (via the path bijection)."""
    return dyck_to_partition(sample_dyck(n, rng))
