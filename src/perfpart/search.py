"""Exhaustive search: 1-factorizations and perfect partitions via exact cover.

Two nested exact-cover problems.  The inner one covers the edge set of the
graph with matchings (one 1-factorization); the outer one covers the set of
all matchings with 1-factorizations (a perfect partition).  Branching always
targets the most constrained column, and the outer level always extends the
lexicographically least uncovered matching, which kills the part-order
symmetry without losing completeness.

Both levels run on a CoverIndex of the graph's matchings: the inner level
covers edges with the rows still alive, and the outer level removes a placed
part by clearing its rows from the alive bitset.  A node's cost grows with
the width of the index's row bitsets, not with the rows still alive, so once
half of a wide index's rows are placed the outer level descends into an index
over the free rows alone, and backtracking returns to the wider one.  A
restricted index keeps the rows in their order, so the anchor, the column
choices and the candidate order, and with them the search tree and its node
count, are those of the full index.  Both levels keep their path on an
explicit stack rather than the Python call stack, because a graph can need
thousands of parts and a cover thousands of rows.

Everything is deterministic: matchings are taken in lexicographic order and
candidates are tried in ascending index order.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .graph_model import GraphSpec, degree, is_matching
from .matchings import enumerate_matchings
from .perm_core import Perm


class SearchBudgetExceeded(Exception):
    """Raised when the node budget runs out before the search is decided."""


class CoverIndex:
    """Exact-cover index over a fixed list of rows, built once and shared.

    rows are column bitmasks.  cols[c] is (1 << c, the bitset of rows that
    cover column c), so at a search node the candidates for c are that bitset
    & alive, where alive is the bitset of rows still disjoint from everything
    chosen.  keep[idx] is the complement of the rows sharing a column with row
    idx (idx included), so choosing a row is one AND of alive with keep[idx];
    keep costs about len(rows)**2 / 8 bytes.  This is the bitset form of
    Knuth's Dancing Links: undoing a choice is free because each node keeps
    its own alive set.
    """

    __slots__ = ("rows", "full", "all_rows", "keep", "cols")

    def __init__(self, n_cols: int, rows: Sequence[int]) -> None:
        self.rows = list(rows)
        self.full = (1 << n_cols) - 1
        self.all_rows = (1 << len(self.rows)) - 1
        col_rows = [0] * n_cols
        row_cols = []
        for idx, mask in enumerate(self.rows):
            cols = []
            m = mask
            while m:
                low = m & -m
                m ^= low
                cols.append(low.bit_length() - 1)
            for col in cols:
                col_rows[col] |= 1 << idx
            row_cols.append(cols)
        self.keep = []
        for cols in row_cols:
            clash = 0
            for col in cols:
                clash |= col_rows[col]
            self.keep.append(~clash)
        self.cols = tuple((1 << c, col) for c, col in enumerate(col_rows))

    def restrict(self, alive: int) -> tuple[list[int], CoverIndex]:
        """The alive rows' ids in ascending order, and an index over just those rows.

        Row k of the new index is row ids[k] of this one, so the relative order
        of the rows, and with it every search over them, is unchanged.
        """
        ids = []
        while alive:
            low = alive & -alive
            alive ^= low
            ids.append(low.bit_length() - 1)
        rows = self.rows
        return ids, CoverIndex(self.full.bit_length(), [rows[i] for i in ids])

    def covers(
        self,
        alive: int,
        forced: Sequence[int] = (),
        budget: list[int] | None = None,
    ) -> Iterator[tuple[int, ...]]:
        """Yield exact covers using forced rows plus rows from the alive bitset.

        Covers come as sorted row-index tuples.  Branching takes the uncovered
        column with the fewest candidates (the lowest such column on ties) and
        tries its rows in ascending order.  budget, when given, is a
        single-element mutable list of remaining search nodes shared with the
        caller; it raises SearchBudgetExceeded at zero.
        """
        rows, full, keep, cols = self.rows, self.full, self.keep, self.cols
        covered = 0
        chosen = list(forced)
        for idx in forced:
            if rows[idx] & covered:
                return
            covered |= rows[idx]
            alive &= keep[idx]

        # Explicit DFS stack, one [covered, alive, untried candidates] entry
        # per open node on the current path; the last len(stack) entries of
        # chosen are the rows taken from them.  (covered, alive) is the node
        # being entered.
        no_best = len(rows) + 1
        stack: list[list[int]] = []
        while True:
            if budget is not None:
                if budget[0] <= 0:
                    raise SearchBudgetExceeded
                budget[0] -= 1
            if covered == full:
                yield tuple(sorted(chosen))
            else:
                best, best_n = 0, no_best
                for bit, col in cols:
                    if covered & bit:
                        continue
                    cands = col & alive
                    k = cands.bit_count()
                    if k < best_n:
                        best, best_n = cands, k
                        if k <= 1:
                            break
                if best:
                    stack.append([covered, alive, best])
                    chosen.append(-1)
            while stack:
                top = stack[-1]
                untried = top[2]
                if untried:
                    low = untried & -untried
                    top[2] = untried ^ low
                    idx = low.bit_length() - 1
                    chosen[-1] = idx
                    covered = top[0] | rows[idx]
                    alive = top[1] & keep[idx]
                    break
                stack.pop()
                chosen.pop()
            else:
                return


def exact_cover(
    n_cols: int,
    rows: Sequence[int],
    forced: Sequence[int] = (),
    budget: list[int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield exact covers of columns 0..n_cols-1 as sorted row-index tuples.

    rows are column bitmasks; forced rows are pre-selected.  budget, when
    given, is a single-element mutable list of remaining search nodes shared
    with the caller; it raises SearchBudgetExceeded at zero.
    """
    index = CoverIndex(n_cols, rows)
    yield from index.covers(index.all_rows, forced, budget)


def edge_masks(spec: GraphSpec, perms: Sequence[Perm]) -> list[int]:
    """Each matching as an edge bitmask: bit k is the k-th edge of spec.edges().

    A set of masks exactly covers the spec.n * degree(spec) edge columns
    when its matchings form a 1-factorization.
    """
    edge = {e: k for k, e in enumerate(spec.edges())}
    return [sum(1 << edge[(i, x)] for i, x in enumerate(p, start=1)) for p in perms]


def matching_index(spec: GraphSpec) -> tuple[list[Perm], CoverIndex]:
    """All matchings of spec in lexicographic order, and their edge-cover index.

    Row k of the index is edge_masks of matchings[k]; an exact cover of the
    edges is a 1-factorization.
    """
    matchings = list(enumerate_matchings(spec))
    return matchings, CoverIndex(spec.n * degree(spec), edge_masks(spec, matchings))


def find_factorizations(
    spec: GraphSpec,
    containing: Perm | None = None,
    budget: int | None = None,
) -> Iterator[tuple[Perm, ...]]:
    """Yield 1-factorizations of spec, optionally forced to contain a matching."""
    matchings, index = matching_index(spec)
    forced: list[int] = []
    if containing is not None:
        if not is_matching(spec, containing):
            raise ValueError("forced member is not a matching of the graph")
        forced = [matchings.index(tuple(containing))]
    shared = [budget] if budget is not None else None
    for sol in index.covers(index.all_rows, forced, shared):
        yield tuple(matchings[i] for i in sol)


# perfect_partitions re-indexes the free rows only of an index wider than
# this.  Each re-index builds a new CoverIndex, and a search that backtracks
# across a halving builds it again.  Below a few hundred rows a narrower
# bitset saves too little to pay for that: re-indexing at every halving made
# the first partition of L(2, 3) (80 rows) take 4-6 times as long and K_{5,5}
# (120 rows) about 1.5 times as long.  L(1, 7) (1854 rows) re-indexes three
# times, down to 228 rows.
RESTRICT_FLOOR = 256


def find_perfect_partition(
    spec: GraphSpec, budget: int | None = None, precheck: bool = True
) -> tuple[tuple[Perm, ...], ...] | None:
    """First perfect partition of spec, or None when provably none exists.

    budget bounds total search nodes across both cover levels; exceeding it
    raises SearchBudgetExceeded, which is distinct from the proven-none
    result.  precheck applies the divisibility shortcut before searching (a
    failed shortcut is itself a proof of none).
    """
    return next(perfect_partitions(spec, budget, precheck), None)


def perfect_partitions(
    spec: GraphSpec, budget: int | None = None, precheck: bool = True
) -> Iterator[tuple[tuple[Perm, ...], ...]]:
    """Yield every perfect partition of spec, in the order the search finds them.

    budget and precheck are as in find_perfect_partition; the budget is shared
    by the whole iteration.
    """
    d = degree(spec)
    matchings, index = matching_index(spec)
    if not matchings:
        if d == 0:
            yield ()
        return
    if precheck and len(matchings) % d != 0:
        return
    shared = [budget] if budget is not None else None

    def next_parts(index: CoverIndex, free: int) -> Iterator[tuple[int, ...]]:
        # One outer node: the parts through the least uncovered matching.
        if shared is not None:
            if shared[0] <= 0:
                raise SearchBudgetExceeded
            shared[0] -= 1
        anchor = (free & -free).bit_length() - 1
        return index.covers(free, (anchor,), shared)

    # Explicit DFS stack: levels[k] holds the candidates for part k, the index
    # they come from, that index's rows as matchings, and the rows free before
    # part k.  placed[k] is the part currently taken from levels[k], as row ids
    # of its index with that index's matchings.
    free = index.all_rows
    levels = [(next_parts(index, free), index, matchings, free)]
    placed: list[tuple[tuple[int, ...], list[Perm]]] = []
    while levels:
        candidates, index, names, free = levels[-1]
        part = next(candidates, None)
        if part is None:
            levels.pop()
            if placed:
                placed.pop()
            continue
        for i in part:
            free ^= 1 << i
        placed.append((part, names))
        if not free:
            yield tuple(tuple(ns[i] for i in ids) for ids, ns in placed)
            placed.pop()
            continue
        n_rows = len(index.rows)
        if n_rows > RESTRICT_FLOOR and 2 * free.bit_count() <= n_rows:
            ids, index = index.restrict(free)
            names = [names[i] for i in ids]
            free = index.all_rows
        levels.append((next_parts(index, free), index, names, free))
