"""The searches that perfpart.search must match node for node.

reference_covers is the generator form of the exact-cover search, one Python
frame per node.  It rebuilds each row's clash set from the column index at
every choice.  reference_partitions is the outer partition search on one
CoverIndex of all the graph's matchings, which it never narrows and which
remembers no finished subtree, so both walk every node one by one.  Tests
compare CoverIndex.covers and perfect_partitions against them: the same
results in the same order, the same budget left after each one, and
SearchBudgetExceeded at the same node.
"""

from collections.abc import Iterator, Sequence

from perfpart.graph_model import GraphSpec, degree
from perfpart.perm_core import Perm
from perfpart.search import SearchBudgetExceeded, matching_index


def reference_covers(
    n_cols: int,
    rows: Sequence[int],
    alive: int,
    forced: Sequence[int] = (),
    budget: list[int] | None = None,
) -> Iterator[tuple[int, ...]]:
    full = (1 << n_cols) - 1
    col_rows = [0] * n_cols
    row_cols = []
    for idx, mask in enumerate(rows):
        cols = []
        m = mask
        while m:
            low = m & -m
            m ^= low
            cols.append(low.bit_length() - 1)
        for col in cols:
            col_rows[col] |= 1 << idx
        row_cols.append(cols)

    def clashes(idx: int) -> int:
        out = 0
        for col in row_cols[idx]:
            out |= col_rows[col]
        return out

    covered = 0
    chosen = list(forced)
    for idx in forced:
        if rows[idx] & covered:
            return
        covered |= rows[idx]
        alive &= ~clashes(idx)

    def descend(covered: int, alive: int) -> Iterator[tuple[int, ...]]:
        if budget is not None:
            if budget[0] <= 0:
                raise SearchBudgetExceeded
            budget[0] -= 1
        if covered == full:
            yield tuple(sorted(chosen))
            return
        best, best_n = 0, -1
        rem = full & ~covered
        while rem:
            low = rem & -rem
            rem ^= low
            cands = col_rows[low.bit_length() - 1] & alive
            k = cands.bit_count()
            if best_n < 0 or k < best_n:
                if not k:
                    return
                best, best_n = cands, k
                if k == 1:
                    break
        while best:
            low = best & -best
            best ^= low
            idx = low.bit_length() - 1
            chosen.append(idx)
            yield from descend(covered | rows[idx], alive & ~clashes(idx))
            chosen.pop()

    yield from descend(covered, alive)


class Forgetful(dict):
    """A finished-subtree cache that stores nothing, so CoverIndex.covers replays
    no subtree: it walks every node, a cover node as a one-node replay."""

    def __setitem__(self, key, value):
        pass


def reference_partitions(
    spec: GraphSpec, budget: list[int] | None = None
) -> Iterator[tuple[tuple[Perm, ...], ...]]:
    d = degree(spec)
    matchings, index = matching_index(spec)
    index.finished = Forgetful()
    if not matchings:
        if d == 0:
            yield ()
        return
    if d == 0 or len(matchings) % d != 0:
        return

    def next_parts(free: int) -> Iterator[tuple[int, ...]]:
        # one outer node: the parts through the least free matching
        if budget is not None:
            if budget[0] <= 0:
                raise SearchBudgetExceeded
            budget[0] -= 1
        anchor = (free & -free).bit_length() - 1
        return index.covers(free, anchor, budget)

    # levels[k] yields the candidates for part k; placed[k] is the part taken
    # from it, with its row bitset
    free = index.all_rows
    levels = [next_parts(free)]
    placed: list[tuple[tuple[int, ...], int]] = []
    while levels:
        part = next(levels[-1], None)
        if part is None:
            levels.pop()
            if placed:
                free |= placed.pop()[1]
            continue
        bits = sum(1 << i for i in part)
        free &= ~bits
        placed.append((part, bits))
        if free:
            levels.append(next_parts(free))
            continue
        yield tuple(tuple(matchings[i] for i in ids) for ids, _ in placed)
        placed.pop()
        free |= bits
