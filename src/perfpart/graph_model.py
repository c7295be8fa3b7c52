"""Bipartite graph model: complete bipartite graphs with square diagonal holes.

The graph family L(r, m) is K_{n,n} with n = r*m, minus m vertex-disjoint
copies of K_{r,r} placed along the diagonal: adjacency(i, j) = 0 exactly when
ceil(i/r) == ceil(j/r).  r = 0 encodes a plain K_{n,n} (n given explicitly).
Arbitrary 0/1 adjacency matrices are supported alongside the family.

Adjacency rows are stored as bitmasks (bit j-1 set means (i, j) is an edge),
which caps n at 64; everything here is far below that.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from collections.abc import Sequence

from .perm_core import MAX_N, Perm, is_permutation


def short_repr(value: object) -> str:
    """repr of a value from outside the program, cut to at most 60 characters.

    Error messages echo bad input through this, so that a large bad value
    still gives a one-line message of bounded length.  reprlib stops at depth
    6 and at the first few items of each container, so the cost is bounded too.
    """
    text = reprlib.repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


@dataclass(frozen=True)
class GraphSpec:
    """An n x n bipartite adjacency pattern, either from the L family or explicit."""

    rows: tuple[int, ...]
    r: int | None = None
    m: int | None = None

    @property
    def kind(self) -> str:
        """The graph's family: "L" when r is set, else "matrix"."""
        return "matrix" if self.r is None else "L"

    @property
    def n(self) -> int:
        return len(self.rows)

    def adjacency(self, i: int, j: int) -> bool:
        """Edge test with 1-based row/column indices."""
        return bool(self.rows[i - 1] >> (j - 1) & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges (i, j), 1-based, in lexicographic order."""
        return [
            (i, j)
            for i in range(1, self.n + 1)
            for j in range(1, self.n + 1)
            if self.adjacency(i, j)
        ]


def l_size(r: int, m: int | None = None, n: int | None = None) -> int:
    """The side n of L(r, m), or of K_{n,n} for r = 0 and an explicit n.

    ValueError when the arguments name no such graph; n is not bounded by
    MAX_N here, so closed forms can use it at any size.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if r == 0:
        if n is None or n < 1:
            raise ValueError("r=0 needs an explicit n >= 1")
        if m is not None:
            raise ValueError("r=0 takes n, not m")
        return n
    if m is None or m < 1:
        raise ValueError("m must be >= 1 when r >= 1")
    if n is not None and n != r * m:
        raise ValueError(f"n={n} contradicts r*m={r * m}")
    return r * m


def l_graph(r: int, m: int | None = None, n: int | None = None) -> GraphSpec:
    """Build L(r, m); with r = 0 build K_{n,n} for an explicit n."""
    size = l_size(r, m, n)
    if size > MAX_N:
        raise ValueError(f"n={short_repr(size)} exceeds the bitset bound {MAX_N}")
    full = (1 << size) - 1
    rows = []
    for i in range(size):
        if r == 0:
            rows.append(full)
        else:
            block = i // r
            hole = ((1 << r) - 1) << (block * r)
            rows.append(full & ~hole)
    return GraphSpec(rows=tuple(rows), r=r, m=m)


def from_matrix(rows: Sequence[str]) -> GraphSpec:
    """Build a spec from a list of n rows of n '0'/'1' characters; column 1 is leftmost."""
    if not isinstance(rows, (list, tuple)):
        raise ValueError(f"rows must be a list of bitstrings, not {short_repr(rows)}")
    n = len(rows)
    if n == 0 or n > MAX_N:
        raise ValueError(f"need 1..{MAX_N} rows, got {n}")
    masks = []
    for row in rows:
        if not isinstance(row, str) or len(row) != n or set(row) - {"0", "1"}:
            raise ValueError(f"bad bitstring row {short_repr(row)}")
        masks.append(sum(1 << j for j, ch in enumerate(row) if ch == "1"))
    return GraphSpec(rows=tuple(masks))


def row_strings(spec: GraphSpec) -> list[str]:
    """Adjacency rows as '0101...' strings (leftmost character is column 1)."""
    return [
        "".join("1" if spec.adjacency(i, j) else "0" for j in range(1, spec.n + 1))
        for i in range(1, spec.n + 1)
    ]


def degree(spec: GraphSpec) -> int:
    """Common row/column degree; raises on an irregular explicit matrix."""
    if spec.r is not None:
        return spec.n - spec.r
    sums = {bin(row).count("1") for row in spec.rows}
    cols = {
        sum(spec.rows[i] >> j & 1 for i in range(spec.n)) for j in range(spec.n)
    }
    if len(sums) != 1 or cols != sums:
        raise ValueError("matrix is not regular; degree undefined")
    return sums.pop()


def is_matching(spec: GraphSpec, p: Sequence[int]) -> bool:
    """True when p is a permutation of 1..n whose edges all lie in the graph."""
    if not is_permutation(p, spec.n):
        return False
    return all(spec.adjacency(i, x) for i, x in enumerate(p, start=1))


# The L(2, 4) block-cell rule, read from the images of one block row.
# BLOCK_COLUMN[x]: the 0-based block column (x - 1) >> 1 of image x in 1..8;
# BLOCK_COLUMN[0] is unused.
BLOCK_COLUMN = (0, 0, 0, 1, 1, 2, 2, 3, 3)
# FILLS_BLOCK[8 * a + b - 9]: 1 when a block row's images a and b (1..8) lie
# in one block and differ, so they fill it as I2 or R2; else 0.
FILLS_BLOCK = tuple(
    int(BLOCK_COLUMN[a] == BLOCK_COLUMN[b] and a != b) for a in range(1, 9) for b in range(1, 9)
)


def invertible_blocks(p: Perm) -> list[tuple[int, int]]:
    """1-based block positions whose 2x2 cell is invertible: identity or reversal.

    Read from the images of each block row by the FILLS_BLOCK pair table; p
    must be a permutation of 8.
    """
    if len(p) != 8:
        raise ValueError("block view is defined for n = 8")
    return [
        (bi + 1, BLOCK_COLUMN[a] + 1)
        for bi, (a, b) in enumerate(zip(p[::2], p[1::2]))
        if FILLS_BLOCK[8 * a + b - 9]
    ]
