"""Matching counts: permanents, the closed-form hole-graph count, divisibility.

Two independent routes are kept deliberately separate so they can check each
other: `ryser_permanent` evaluates the permanent of an explicit 0/1 matrix,
while `count_matchings` evaluates the closed form for L(r, m) built from the
rook polynomial of one r x r hole.  A third route, counting by enumeration,
lives in the matchings module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence
from itertools import islice

from .graph_model import GraphSpec, degree, l_size
from .matchings import enumerate_matchings


def rook_block(r: int) -> list[int]:
    """Rook polynomial coefficients of the r x r board: k! * C(r,k)^2 for k=0..r."""
    return [math.factorial(k) * math.comb(r, k) ** 2 for k in range(r + 1)]


def poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def poly_pow(base: Sequence[int], exp: int) -> list[int]:
    out = [1]
    for _ in range(exp):
        out = poly_mul(out, base)
    return out


def count_matchings(r: int, m: int | None = None, n: int | None = None) -> int:
    """Number of perfect matchings of L(r, m) by inclusion-exclusion.

    With a_k the k-th coefficient of the m-th power of the hole rook
    polynomial, the count is sum_k (-1)^k a_k (n-k)!.  r = 0 gives n!.
    """
    size = l_size(r, m, n)
    if r == 0:
        return math.factorial(size)
    coeffs = poly_pow(rook_block(r), m)
    return sum(
        (-1) ** k * a_k * math.factorial(size - k)
        for k, a_k in enumerate(coeffs)
        if k <= size
    )


def closed_count(spec: GraphSpec) -> int | None:
    """The matching count of an L graph by its closed form; None for a matrix."""
    if spec.r is not None:
        return count_matchings(spec.r, spec.m, n=spec.n)
    return None


def count_up_to(spec: GraphSpec, limit: int) -> int:
    """The matching count of a graph, exact whenever it is at most limit.

    L graphs use the closed form, exact at any size.  A matrix is enumerated
    only up to one matching past limit, so a larger count reads as limit + 1;
    that costs about as much as listing limit matchings, where Ryser's
    permanent would cost 2^n whatever the limit.  The enumeration places the
    sparsest rows first: a sparse row left for last can strand every placement
    of the rows above it.  Permuting rows keeps the count, and a regular
    matrix keeps its order.  Sorting the rows here lets enumerate_matchings
    stream in their order, where it would list and sort every matching.
    """
    total = closed_count(spec)
    if total is None:
        rows = tuple(sorted(spec.rows, key=int.bit_count))
        total = sum(1 for _ in islice(enumerate_matchings(GraphSpec(rows)), limit + 1))
    return total


def ryser_permanent(rows: Sequence[int]) -> int:
    """Permanent of the n x n 0/1 matrix given as its n row bitmasks, by Ryser's formula.

    Gray-code iteration over column subsets keeps each step to one column
    update.  Exponential in n; intended for n <= 30.
    """
    n = len(rows)
    if n == 0:
        return 1
    # cols[j] = bitmask of rows with a 1 in column j
    cols = [0] * n
    for i, row in enumerate(rows):
        for j in range(n):
            if row >> j & 1:
                cols[j] |= 1 << i
    row_sums = [0] * n
    gray = 0
    total = 0
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1  # bit flipped between gray(k-1) and gray(k)
        bit = 1 << j
        gray ^= bit
        delta = 1 if gray & bit else -1
        col = cols[j]
        while col:
            low = col & -col
            row_sums[low.bit_length() - 1] += delta
            col ^= low
        prod = 1
        for s in row_sums:
            if s == 0:
                prod = 0
                break
            prod *= s
        if prod:
            total += prod if bin(gray).count("1") % 2 == n % 2 else -prod
    return total


def permanent_of_spec(spec: GraphSpec) -> int:
    return ryser_permanent(spec.rows)


@dataclass(frozen=True)
class CountReport:
    """Matching count of a graph and the divisibility test a perfect partition needs."""

    n: int
    r: int | None
    m: int | None
    rook_count: int | None
    oracle_count: int | None
    degree: int
    divisible: bool

    @property
    def count(self) -> int:
        """The rook count, else the oracle count; ValueError when it has neither."""
        if self.rook_count is not None:
            return self.rook_count
        if self.oracle_count is None:
            raise ValueError("CountReport has neither a rook count nor an oracle count")
        return self.oracle_count


def necessary_condition(spec: GraphSpec, oracle: bool = False) -> CountReport:
    """Count matchings and test whether the degree divides the count.

    Part sizes in a perfect partition equal the degree, so degree | count is
    necessary for one to exist.  `oracle` additionally runs the permanent on
    the adjacency matrix (always used for explicit matrices).
    """
    d = degree(spec)
    rook = closed_count(spec)
    perm = permanent_of_spec(spec) if oracle or rook is None else None
    count = perm if rook is None else rook
    if d == 0:
        divisible = count == 0
    else:
        divisible = count % d == 0
    return CountReport(
        n=spec.n,
        r=spec.r,
        m=spec.m,
        rook_count=rook,
        oracle_count=perm,
        degree=d,
        divisible=divisible,
    )
