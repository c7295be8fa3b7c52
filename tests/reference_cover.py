"""The recursive exact-cover search that CoverIndex.covers must match node for node.

This is the generator form of the search, one Python frame per node.  It
rebuilds each row's clash set from the column index at every choice.  Tests
compare the flat loop in perfpart.search against it: the same covers in the
same order, the same budget left after each one, and SearchBudgetExceeded at
the same node.
"""

from collections.abc import Iterator, Sequence

from perfpart.search import SearchBudgetExceeded


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
