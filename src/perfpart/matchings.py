"""Enumeration of perfect matchings and the cycle/block classifications.

Matchings of an n x n adjacency pattern are emitted as 1-based image tuples
in lexicographic order.  Backtracking over rows with column bitmasks keeps
this practical through n = 16.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from .graph_model import BLOCK_COLUMN, FILLS_BLOCK, GraphSpec
from .perm_core import Perm, cycle_type


def _augment(rows: Sequence[int], images: list[int], owner: list[int], i: int, seen: int) -> int:
    """Place row i by an augmenting path through columns outside seen: -1 when
    placed, else seen with the columns tried, which end no path this phase."""
    while cands := rows[i] & ~seen:
        low = cands & -cands
        seen |= low
        j = low.bit_length()
        k = owner[j - 1]
        if k < 0 or (seen := _augment(rows, images, owner, k, seen)) < 0:
            images[i] = j
            owner[j - 1] = i
            return -1
    return seen


def perfect_matching(rows: Sequence[int]) -> Perm | None:
    """A perfect matching of the rows (column bitmasks) as 1-based images, or None.

    Each row first takes its lowest free column; Kuhn's augmenting paths then
    place the rest in O(n * edges), polynomial where backtracking is not.
    """
    n = len(rows)
    images = [0] * n
    owner = [-1] * n  # column j - 1 -> the row whose image is j
    used = 0
    unplaced = []
    for i, row in enumerate(rows):
        free = row & ~used
        if free:
            low = free & -free
            used |= low
            images[i] = j = low.bit_length()
            owner[j - 1] = i
        else:
            unplaced.append(i)
    for i in unplaced:
        if _augment(rows, images, owner, i, 0) >= 0:
            return None
    return tuple(images)


def enumerate_matchings(spec: GraphSpec) -> Iterator[Perm]:
    """Yield all perfect matchings as image tuples, lexicographically sorted.

    One loop walks the rows with a stack of untried-column bitsets, lowest
    column first, and yields each matching from this frame.  Rows are placed
    sparsest first: a sparse row placed late can strand every placement of
    the rows above it.  When that order is the file's order, as in every
    regular matrix, matchings stream out in lexicographic order; otherwise
    the rows are walked in that order and the matchings, mapped back to the
    file's row order, are sorted before the first is yielded.
    """
    n = spec.n
    # The reach prune below misses a dead row or a Hall violation, which
    # backtracking finds only after trying every placement of the rows above.
    if perfect_matching(spec.rows) is None:
        return
    order = sorted(range(n), key=lambda i: spec.rows[i].bit_count())
    if order != list(range(n)):
        # at[r] is where file row r is placed; sorted() is stable, so the
        # reordered rows are already in placement order
        at = sorted(range(n), key=order.__getitem__)
        placed = enumerate_matchings(GraphSpec(rows=tuple(spec.rows[i] for i in order)))
        yield from sorted(tuple(m[i] for i in at) for m in placed)
        return
    if not n:  # the graph with no rows has one matching, the empty one
        yield ()
        return
    rows = spec.rows
    full = (1 << n) - 1
    # reach[i]: the columns rows i.. have an edge to.  A branch whose unused
    # columns are not all in reach[i] can complete no matching.
    reach = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        reach[i] = reach[i + 1] | rows[i]
    images = [0] * n
    used = [0] * n  # used[i]: the columns rows 0..i-1 take
    untried = [0] * n  # untried[i]: row i's free columns not yet tried
    untried[0] = rows[0]  # a matching exists, so reach[0] is every column
    last = n - 1
    i = 0
    while i >= 0:
        cands = untried[i]
        if not cands:
            i -= 1
            continue
        low = cands & -cands
        untried[i] = cands ^ low
        images[i] = low.bit_length()
        if i == last:
            yield tuple(images)
            continue
        taken = used[i] | low
        if taken | reach[i + 1] == full:
            i += 1
            used[i] = taken
            untried[i] = rows[i] & ~taken


def count_by_enumeration(spec: GraphSpec) -> int:
    """Matching count via backtracking; the third, slowest counting route."""
    return sum(1 for _ in enumerate_matchings(spec))


# L(1, 6) cycle-structure classes.  C24_0 is the refinement of the 2+4 type
# whose 2-cycle contains the point 1.

L61_LABELS = ("C6", "C33", "C24", "C24_0", "C222")


def label_l61(p: Perm) -> str:
    if len(p) != 6:
        raise ValueError("classification is defined for n = 6")
    ct = cycle_type(p)
    if ct == (6,):
        return "C6"
    if ct == (3, 3):
        return "C33"
    if ct == (2, 2, 2):
        return "C222"
    if ct == (2, 4):
        # 2-cycle membership of 1: p(p(1)) == 1 exactly on a 2-cycle
        return "C24_0" if p[p[0] - 1] == 1 else "C24"
    raise ValueError(f"not a matching of L(1,6): cycle type {ct}")


def classify_l61(perms: Iterable[Perm]) -> dict[str, list[Perm]]:
    out: dict[str, list[Perm]] = {lab: [] for lab in L61_LABELS}
    for p in perms:
        out[label_l61(p)].append(p)
    return out


def census_l61(classes: dict[str, list[Perm]]) -> tuple[int, int, int, int, int]:
    """(C6, C33, C24 total including C24_0, C24_0, C222)."""
    return (
        len(classes["C6"]),
        len(classes["C33"]),
        len(classes["C24"]) + len(classes["C24_0"]),
        len(classes["C24_0"]),
        len(classes["C222"]),
    )


# L(2, 4) block classes by number of invertible (I2 or R2) 2x2 blocks.
# ledger_l82 splits S0 into S0_1, whose four zero blocks pair up
# symmetrically (two disjoint block transpositions), and S0_rest, whose zero
# blocks lie on a block 4-cycle: L82_LEDGER, the classes the L(2, 4) build
# uses up.

L82_LABELS = ("S0", "S1", "S2", "S4")
L82_LEDGER = ("S0_1", "S0_rest", "S1", "S2", "S4")
_S_LABELS = ("S0", "S1", "S2", None, "S4")


def label_l82(p: Perm) -> str:
    """S0, S1, S2 or S4 by the invertible 2x2 blocks of p, a matching of
    L(2, 4): the count of block rows whose two images fill one block, read
    from graph_model.FILLS_BLOCK.  p is not checked beyond its length
    (certify labels thousands per pass); on another permutation of 8 the
    label means nothing: the identity is named S4.
    """
    if len(p) != 8:
        raise ValueError("block view is defined for n = 8")
    a, b, c, d, e, f, g, h = p
    t = FILLS_BLOCK
    k = t[8 * a + b - 9] + t[8 * c + d - 9] + t[8 * e + f - 9] + t[8 * g + h - 9]
    if k == 3:
        raise ValueError(f"impossible invertible-block count {k}")
    return _S_LABELS[k]


def ledger_l82(p: Perm) -> str:
    """The L82_LEDGER class of a matching of L(2, 4).

    An S0 matching's block row bi (0-based) sends its two images into two
    different off-diagonal block columns, so it misses exactly one, z(bi) =
    6 - bi - the two.  z is a derangement of the block rows, and the
    matching is in S0_1 exactly when z is an involution.

    p must be a matching of L(2, 4), unchecked as in label_l82; on another
    permutation of 8, z can leave range(4) and raise IndexError.
    """
    lab = label_l82(p)
    if lab != "S0":
        return lab
    a, b, c, d, e, f, g, h = p
    blk = BLOCK_COLUMN
    z = (6 - blk[a] - blk[b], 5 - blk[c] - blk[d], 4 - blk[e] - blk[f], 3 - blk[g] - blk[h])
    return "S0_1" if z[z[0]] == 0 and z[z[1]] == 1 and z[z[2]] == 2 and z[z[3]] == 3 else "S0_rest"


def classify_l82(perms: Iterable[Perm]) -> dict[str, list[Perm]]:
    """The matchings of each of S0, S1, S2 and S4, then of S0_1, in input order."""
    out: dict[str, list[Perm]] = {lab: [] for lab in (*L82_LABELS, "S0_1")}
    for p in perms:
        lab = ledger_l82(p)
        out[lab[:2]].append(p)
        if lab == "S0_1":
            out[lab].append(p)
    return out


def census_l82(classes: dict[str, list[Perm]]) -> tuple[int, int, int, int]:
    """(S0, S1, S2, S4)."""
    return tuple(len(classes[lab]) for lab in L82_LABELS)  # type: ignore[return-value]
