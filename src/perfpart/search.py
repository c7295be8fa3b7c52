"""Exhaustive search: 1-factorizations and perfect partitions via exact cover.

Two nested exact-cover problems.  The inner one covers the edge set of the
graph with matchings (one 1-factorization); the outer one covers the set of
all matchings with 1-factorizations (a perfect partition).  Branching always
targets the most constrained column, and the outer level always extends the
lexicographically least uncovered matching, which kills the part-order
symmetry without losing completeness.

Both levels run on a CoverIndex of the graph's matchings: the inner level
covers edges with the rows still alive, forcing one row (the outer level's
anchor) or none, and the outer level removes a placed part by clearing its
rows from the alive bitset.  A node's cost grows with the width of the
index's row bitsets, not with the rows still alive, so once half of a wide
index's rows are placed the outer level descends into an index over the free
rows alone, and backtracking returns to the wider one.  A restricted index
keeps the rows in their order, so the anchor, the column choices and the
candidate order, and with them the search tree and its node count, are those
of the full index.  Both levels keep their path on an explicit stack rather
than the Python call stack, because a graph can need thousands of parts and a
cover thousands of rows.

The walk below an inner node depends only on the node's covered and alive
bitsets and the index, so each index remembers, up to FINISHED_MAX of them,
the subtrees it walked to the end (CoverIndex.finished).  A node that enters
a remembered state replays it: it charges the nodes up to each cover to the
budget, yields the cover, charges the rest and backtracks.  A dead subtree,
one that held no cover, is charged in one step.  So the search tree, its node
count, every result, the budget left after each one and the node where a
budget runs out stay those of the node-by-node walk; on L(1, 7) four fifths
of a 10**5-node search's inner nodes are replayed, not walked, and 17,492 of
its 19,883 replays are dead subtrees.

Everything is deterministic: matchings are taken in lexicographic order and
candidates are tried in ascending index order.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .graph_model import GraphSpec, degree, is_matching
from .matchings import enumerate_matchings
from .perm_core import Perm


# Most finished subtrees one CoverIndex remembers; a full cache is cleared.
# A remembered dead subtree is stored as its node count and charged in one
# step; one with covers is replayed chunk by chunk.
# An entry's key costs about width / 7.5 + 60 bytes with its dict slot (an
# int keeps 30 bits in 4 bytes), width being the index's rows plus columns in
# bits, and an entry with covers adds about 100 bytes plus 110 + 8 * d per
# cover, d being the rows in a cover.  At this bound the keys take at most
# 5.1 MB on L(1, 7) (1854 rows, 42 columns, d = 6) and 54 MB on the widest
# index search builds (MATCHINGS_MAX rows, at most 64 * 64 edge columns, so
# about that index's keep); covers, at most COVERS_MAX an entry, add at most
# 12 MB and 42 MB.  Each index that restrict builds has its own cache, and
# the widths at least halve down a search path, so the keys on one path take
# at most about twice the widest index's.  The inner level of a 10**5-node
# L(1, 7) search walks 96,794 nodes with no cache, 26,970 at a bound of
# 2048, 22,889 at 4096, 20,001 at 8192 and 18,245 at 16,384, where the cache
# stops filling; its narrowest index, 228 rows, then holds 10,389 entries
# with 3,014 covers in about 1.6 MB.
FINISHED_MAX = 16384

# Most covers a remembered subtree may hold; one that yielded more is not
# remembered.  Subtrees with more covers are rarely entered again: at 16 in
# place of 4, the search above walks 3 fewer nodes.
COVERS_MAX = 4

# A cover node as the chunks that replay charges: its one node, whose cover
# takes no row below it, then no node more.
LEAF = ((1, ()), (1, None))


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
    its own alive set.  finished maps covered << len(rows) | alive, the root
    of a subtree that covers walked to the end, to the nodes that subtree took
    when it held no cover, and else to the chunks its replay charges: one
    (the nodes up to and including the cover, the rows chosen below the root,
    in the order chosen) per cover, then (nodes, None).  It holds at most
    FINISHED_MAX entries, each with at most COVERS_MAX covers.
    """

    __slots__ = ("rows", "full", "all_rows", "keep", "cols", "finished")

    def __init__(self, n_cols: int, rows: Sequence[int]) -> None:
        self.rows = list(rows)
        n_rows = len(self.rows)
        self.full = (1 << n_cols) - 1
        self.all_rows = (1 << n_rows) - 1
        # each column's row bitset as base-2 digits, row 0 last, read by one
        # int() per column; the leading "0" makes an empty index parse
        digits = [bytearray(b"0" * (n_rows + 1)) for _ in range(n_cols)]
        row_cols = []
        for idx, mask in enumerate(self.rows):
            if not 0 <= mask <= self.full:
                if mask < 0:
                    raise ValueError(f"row {idx} is a negative mask: {mask}")
                col = mask.bit_length() - 1
                raise ValueError(f"row {idx} covers column {col}, outside 0..{n_cols - 1}")
            at = n_rows - idx
            cols = []
            m = mask
            while m:
                low = m & -m
                m ^= low
                col = low.bit_length() - 1
                digits[col][at] = 49  # ord("1")
                cols.append(col)
            row_cols.append(cols)
        col_rows = [int(d, 2) for d in digits]
        self.keep = []
        for cols in row_cols:
            clash = 0
            for col in cols:
                clash |= col_rows[col]
            self.keep.append(~clash)
        self.cols = tuple((1 << c, col) for c, col in enumerate(col_rows))
        self.finished: dict[int, int | tuple] = {}

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
        forced: int | None = None,
        budget: list[int] | None = None,
    ) -> Iterator[tuple[int, ...]]:
        """Yield exact covers made of the forced row, if any, and alive rows.

        Covers come as sorted row-index tuples.  Branching takes the uncovered
        column with the fewest candidates (the lowest such column on ties) and
        tries its rows in ascending order.  A forced row outside the index is
        a ValueError.  budget, when given, is a single-element mutable list of
        remaining search nodes shared with the caller; it raises
        SearchBudgetExceeded at zero.

        Entering a state stored in finished, in this call or a later one,
        replays its subtree as walking it again would: the nodes up to each
        cover are charged to the budget before the cover is yielded, and the
        rest after the last one.  The walk below a node reads only its covered
        and alive bitsets and this index, so the replay is exact.
        """
        rows, full, keep, cols, finished = (
            self.rows, self.full, self.keep, self.cols, self.finished
        )
        n_rows = len(rows)
        # rows past the index never count as candidates; dropping them keeps
        # the key covered << n_rows | alive one-to-one
        alive &= self.all_rows
        covered = 0
        chosen = []
        if forced is not None:
            if not 0 <= forced < n_rows:
                raise ValueError(f"forced row {forced} is outside 0..{n_rows - 1}")
            covered = rows[forced]
            alive &= keep[forced]
            chosen.append(forced)

        # Explicit DFS stack, one [key, covered, alive, untried candidates,
        # nodes before it, covers before it] entry per open node on the
        # current path; the last len(stack) entries of chosen are the rows
        # taken from them.  (covered, alive) is the node being entered.  nodes
        # and found count the nodes entered and the covers yielded so far,
        # replayed subtrees included.  log holds, for at least the last
        # COVERS_MAX covers, (nodes, the cover's rows in the order chosen).
        no_best = n_rows + 1
        nodes = found = 0
        log: list[tuple[int, tuple[int, ...]]] = []
        stack: list[list[int]] = []
        while True:
            key = covered << n_rows | alive
            entry = finished.get(key)
            if entry is None and covered != full:
                if budget is not None:
                    if budget[0] <= 0:
                        raise SearchBudgetExceeded
                    budget[0] -= 1
                nodes += 1
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
                    # enter the lowest candidate at once; the entry keeps the rest
                    low = best & -best
                    idx = low.bit_length() - 1
                    stack.append([key, covered, alive, best ^ low, nodes - 1, found])
                    chosen.append(idx)
                    covered |= rows[idx]
                    alive &= keep[idx]
                    continue
            elif entry.__class__ is int:
                # a remembered dead subtree: its nodes in one step
                if budget is not None:
                    if budget[0] < entry:
                        budget[0] = min(budget[0], 0)
                        raise SearchBudgetExceeded
                    budget[0] -= entry
                nodes += entry
            else:
                # a remembered subtree with covers, or a cover node: its chunks
                # charge the nodes up to each cover, then the rest, as walking
                # it would
                chunks = LEAF if entry is None else entry
                at = 0
                for offset, below in chunks:
                    if budget is not None:
                        if budget[0] < offset - at:
                            budget[0] = min(budget[0], 0)
                            raise SearchBudgetExceeded
                        budget[0] -= offset - at
                    at = offset
                    if below is None:
                        break
                    path = (*chosen, *below)
                    found += 1
                    log.append((nodes + offset, path))
                    if len(log) > 2 * COVERS_MAX:
                        del log[:COVERS_MAX]
                    yield tuple(sorted(path))
                nodes += at
            while stack:
                top = stack[-1]
                untried = top[3]
                if untried:
                    low = untried & -untried
                    top[3] = untried ^ low
                    idx = low.bit_length() - 1
                    chosen[-1] = idx
                    covered = top[1] | rows[idx]
                    alive = top[2] & keep[idx]
                    break
                stack.pop()
                chosen.pop()
                n_found = found - top[5]
                if n_found > COVERS_MAX:
                    continue
                base = top[4]
                entry = nodes - base
                if n_found:
                    cut = len(chosen)
                    covers = [(at - base, path[cut:]) for at, path in log[-n_found:]]
                    entry = (*covers, (entry, None))
                if len(finished) >= FINISHED_MAX:
                    finished.clear()
                finished[top[0]] = entry
            else:
                return


def exact_cover(
    n_cols: int,
    rows: Sequence[int],
    forced: int | None = None,
    budget: list[int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield exact covers of columns 0..n_cols-1 as sorted row-index tuples.

    rows are column bitmasks; forced, when given, is one row index that every
    cover holds.  budget, when given, is a single-element mutable list of
    remaining search nodes shared with the caller; it raises
    SearchBudgetExceeded at zero.
    """
    index = CoverIndex(n_cols, rows)
    yield from index.covers(index.all_rows, forced, budget)


def edge_masks(spec: GraphSpec, perms: Sequence[Perm]) -> list[int]:
    """Each matching as an edge bitmask: bit k is the k-th edge of spec.edges().

    A set of masks exactly covers the spec.n * degree(spec) edge columns
    when its matchings form a 1-factorization.
    """
    bits: list[dict[int, int]] = [{} for _ in range(spec.n)]
    for k, (i, x) in enumerate(spec.edges()):
        bits[i - 1][x] = 1 << k
    return [sum(map(dict.__getitem__, bits, p)) for p in perms]


def matching_index(spec: GraphSpec) -> tuple[list[Perm], CoverIndex]:
    """All matchings of spec in lexicographic order, and their edge-cover index.

    Row k of the index is edge_masks of matchings[k]; an exact cover of the
    edges is a 1-factorization.
    """
    matchings = list(enumerate_matchings(spec))
    return matchings, CoverIndex(spec.n * degree(spec), edge_masks(spec, matchings))


def find_factorizations(
    spec: GraphSpec, containing: Perm | None = None
) -> Iterator[tuple[Perm, ...]]:
    """Yield 1-factorizations of spec, optionally forced to contain a matching."""
    matchings, index = matching_index(spec)
    forced = None
    if containing is not None:
        if not is_matching(spec, containing):
            raise ValueError("forced member is not a matching of the graph")
        forced = matchings.index(tuple(containing))
    for sol in index.covers(index.all_rows, forced):
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
    return next(perfect_partitions(spec, None if budget is None else [budget], precheck), None)


def perfect_partitions(
    spec: GraphSpec, budget: list[int] | None = None, precheck: bool = True
) -> Iterator[tuple[tuple[Perm, ...], ...]]:
    """Yield every perfect partition of spec, in the order the search finds them.

    budget, when given, is a single-element mutable list of remaining search
    nodes shared with the caller and charged by both cover levels of the whole
    iteration; it raises SearchBudgetExceeded at zero.  precheck is as in
    find_perfect_partition.
    """
    d = degree(spec)
    matchings, index = matching_index(spec)
    if not matchings:
        if d == 0:
            yield ()
        return
    if precheck and len(matchings) % d != 0:
        return

    def next_parts(index: CoverIndex, free: int) -> Iterator[tuple[int, ...]]:
        # One outer node: the parts through the least uncovered matching.
        if budget is not None:
            if budget[0] <= 0:
                raise SearchBudgetExceeded
            budget[0] -= 1
        anchor = (free & -free).bit_length() - 1
        return index.covers(free, anchor, budget)

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
