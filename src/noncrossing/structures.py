"""Catalan-family domain types and brute-force enumerators.

Five structures, all counted by the Catalan numbers: non-crossing set
partitions, Dyck paths, rooted plane trees, full binary trees, and
non-crossing perfect matchings.  Every type validates its own invariants
on construction and is immutable afterwards; the enumerators are small
enough to double as oracles for the rest of the library.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

ENUMERATION_LIMIT = 14
# Below this size enumeration goes through all set partitions and filters,
# which doubles as an independent check of the direct NC recursion.
_FILTER_LIMIT = 8


class ValidationError(ValueError):
    """A structure violated one of its invariants."""


def _check_ground_set(n: int, blocks: Iterable[Iterable[int]]) -> list[list[int]]:
    """Check that ``blocks`` is a partition of {1,...,n}; return sorted blocks."""
    seen: set[int] = set()
    out = []
    for block in blocks:
        b = sorted(block)
        if not b:
            raise ValidationError("empty block")
        for x in b:
            if not isinstance(x, int) or x < 1 or x > n:
                raise ValidationError(f"label {x!r} outside 1..{n}")
            if x in seen:
                raise ValidationError(f"duplicated label {x}")
            seen.add(x)
        out.append(b)
    if len(seen) != n:
        missing = sorted(set(range(1, n + 1)) - seen)
        raise ValidationError(f"missing labels {missing}")
    return out


def is_noncrossing(n: int, blocks: Iterable[Iterable[int]]) -> bool:
    """True iff the given set partition of [n] has no crossing.

    A crossing is a quadruple a<b<c<d with a,c in one block and b,d in a
    different one.  Checked by a single left-to-right sweep: blocks must
    open and close like well-nested brackets, O(n).

    Raises ValidationError if ``blocks`` is not a partition of [n].
    """
    checked = _check_ground_set(n, blocks)
    owner: list[list[int]] = [[]] * (n + 1)
    for block in checked:
        for x in block:
            owner[x] = block
    stack: list[list[int]] = []
    for x in range(1, n + 1):
        block = owner[x]
        if x == block[0]:
            stack.append(block)
        elif stack[-1] is not block:
            return False
        if x == block[-1]:
            stack.pop()
    return True


@dataclass(frozen=True)
class NCPartition:
    """Non-crossing partition of {1,...,n} in canonical form.

    Blocks are stored sorted internally and ordered by their minimum, so
    structural equality coincides with equality of partitions.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValidationError("n must be >= 0")
        norm = tuple(
            sorted((tuple(sorted(b)) for b in self.blocks), key=lambda b: b[0])
        )
        object.__setattr__(self, "blocks", norm)
        if not is_noncrossing(self.n, self.blocks):
            raise ValidationError(f"partition {self.blocks} has a crossing")

    def to_text(self) -> str:
        """Canonical text form, e.g. ``{1,2,5,6,7,8}|{3,4}|{9}``."""
        return "|".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)

    @classmethod
    def from_text(cls, text: str) -> "NCPartition":
        text = text.strip()
        if not text:
            return cls(0, ())
        blocks = []
        for part in text.split("|"):
            part = part.strip()
            if not (part.startswith("{") and part.endswith("}")):
                raise ValidationError(f"malformed block {part!r}")
            try:
                blocks.append(tuple(int(t) for t in part[1:-1].split(",")))
            except ValueError:
                raise ValidationError(f"malformed block {part!r}") from None
        n = max(max(b) for b in blocks)
        return cls(n, tuple(blocks))

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class DyckPath:
    """Lattice path of +1/-1 steps staying >= 0 and ending at 0."""

    steps: tuple[int, ...]

    def __post_init__(self) -> None:
        steps = tuple(int(s) for s in self.steps)
        object.__setattr__(self, "steps", steps)
        height = 0
        for s in steps:
            if s not in (1, -1):
                raise ValidationError(f"step {s!r} is not +1/-1")
            height += s
            if height < 0:
                raise ValidationError("path dips below zero")
        if height != 0:
            raise ValidationError("path does not return to zero")

    @property
    def n(self) -> int:
        return len(self.steps) // 2

    def to_text(self) -> str:
        return "".join("U" if s == 1 else "D" for s in self.steps)

    @classmethod
    def from_text(cls, text: str) -> "DyckPath":
        mapping = {"U": 1, "D": -1}
        try:
            return cls(tuple(mapping[c] for c in text.strip()))
        except KeyError as exc:
            raise ValidationError(f"bad path character {exc.args[0]!r}") from None

    def __str__(self) -> str:
        return self.to_text()


class _PreorderKeyed:
    """Equality, hashing and ``repr`` by the flat ``_preorder()`` encoding.

    The encoding is built without recursion, so trees of any depth compare.
    """

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._preorder() == other._preorder()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._preorder())  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(preorder={self._preorder()})"  # type: ignore[attr-defined]


@dataclass(frozen=True, eq=False, repr=False)
class PlanarTree(_PreorderKeyed):
    """Rooted tree with ordered children; size-n objects have n+1 vertices."""

    children: tuple["PlanarTree", ...] = ()

    def _preorder(self) -> tuple[int, ...]:
        """The child count of every vertex in preorder; it fixes the tree."""
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            out.append(len(node.children))
            stack.extend(reversed(node.children))
        return tuple(out)

    def vertex_count(self) -> int:
        return len(self._preorder())

    def leaf_count(self) -> int:
        return self._preorder().count(0)


@dataclass(frozen=True, eq=False, repr=False)
class BinaryTree(_PreorderKeyed):
    """Full binary tree; internal nodes carry a label on their left edge."""

    left: "BinaryTree | None" = None
    right: "BinaryTree | None" = None
    label: int | None = None

    def __post_init__(self) -> None:
        if (self.left is None) != (self.right is None):
            raise ValidationError("binary tree vertex must have 0 or 2 children")

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def _preorder(self) -> tuple[tuple[bool, int | None], ...]:
        """(is_leaf, label) of every vertex in preorder; it fixes the tree."""
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            out.append((node.is_leaf, node.label))
            if not node.is_leaf:
                stack.append(node.right)  # type: ignore[arg-type]
                stack.append(node.left)  # type: ignore[arg-type]
        return tuple(out)

    def vertex_count(self) -> int:
        return len(self._preorder())


@dataclass(frozen=True)
class NCPairing:
    """Non-crossing perfect matching of {1,...,m} (m even)."""

    m: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.m % 2:
            raise ValidationError("ground set of a pairing must be even")
        norm = tuple(sorted((min(a, b), max(a, b)) for a, b in self.pairs))
        object.__setattr__(self, "pairs", norm)
        if not is_noncrossing(self.m, norm):
            raise ValidationError("pairing has a crossing")

    @property
    def n_pairs(self) -> int:
        return self.m // 2

    def to_text(self) -> str:
        return "|".join("{%d,%d}" % p for p in self.pairs)

    def __str__(self) -> str:
        return self.to_text()


def _guard(n: int) -> None:
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration of size {n} refused: the count is Catalan({n}), "
            f"which explodes combinatorially (limit {ENUMERATION_LIMIT})"
        )


def _restricted_growth_strings(n: int) -> Iterator[list[int]]:
    """All restricted growth strings of length n, lexicographically."""
    rgs = [0] * n

    def rec(i: int, top: int) -> Iterator[list[int]]:
        if i == n:
            yield rgs
            return
        for v in range(top + 2):
            rgs[i] = v
            yield from rec(i + 1, max(top, v))

    if n == 0:
        yield []
    else:
        yield from rec(1, 0)


def _rgs_to_blocks(rgs: list[int]) -> list[list[int]]:
    blocks: dict[int, list[int]] = {}
    for i, v in enumerate(rgs):
        blocks.setdefault(v, []).append(i + 1)
    return [blocks[v] for v in sorted(blocks)]


def _nc_recursive(lo: int, hi: int) -> Iterator[list[tuple[int, ...]]]:
    """NC partitions of the range lo..hi via the nested-gap decomposition.

    The block containing ``lo`` is chosen first; the remaining elements
    split into independent gaps between (and after) its elements.
    """
    if lo > hi:
        yield []
        return
    rest = range(lo + 1, hi + 1)
    for r in range(hi - lo + 1):
        for combo in itertools.combinations(rest, r):
            first = (lo,) + combo
            # gap i sits between first[i] and first[i+1]; the last gap is a tail
            bounds = [*first, hi + 1]
            gaps = [(bounds[i] + 1, bounds[i + 1] - 1) for i in range(len(first))]
            for parts in itertools.product(*(_nc_recursive(a, b) for a, b in gaps)):
                merged = [first]
                for p in parts:
                    merged.extend(p)
                yield merged


def enumerate_nc(n: int) -> Iterator[NCPartition]:
    """Yield every non-crossing partition of [n] exactly once.

    Deterministic order: for n <= 8 the restricted-growth-string order of
    all set partitions filtered through is_noncrossing (the filter doubles
    as an oracle); above that, the direct recursive construction.
    """
    _guard(n)
    if n == 0:
        yield NCPartition(0, ())
        return
    if n <= _FILTER_LIMIT:
        for rgs in _restricted_growth_strings(n):
            blocks = _rgs_to_blocks(rgs)
            if is_noncrossing(n, blocks):
                yield NCPartition(n, tuple(tuple(b) for b in blocks))
    else:
        for blocks in _nc_recursive(1, n):
            yield NCPartition(n, tuple(blocks))


def enumerate_dyck(n: int) -> Iterator[DyckPath]:
    """Yield every Dyck path with 2n steps exactly once (U-first lex order)."""
    _guard(n)
    steps = [0] * (2 * n)

    def rec(pos: int, ups_left: int, height: int) -> Iterator[DyckPath]:
        if pos == 2 * n:
            yield DyckPath(tuple(steps))
            return
        if ups_left > 0:
            steps[pos] = 1
            yield from rec(pos + 1, ups_left - 1, height + 1)
        if height > 0:
            steps[pos] = -1
            yield from rec(pos + 1, ups_left, height - 1)

    yield from rec(0, n, 0)
