"""Block construction of the 792-part perfect partition for L(2, 4).

Matchings of L(2, 4) are permutations of 8 viewed as 4x4 matrices of 2x2
blocks with zero diagonal blocks.  Every off-diagonal block is zero, a
single-one E-block, or invertible (I2/R2), and the count of invertible
blocks sorts the 4752 matchings into S0 (none; 2304, of which the 768 in
S0_1 have their four zero blocks on a transposition pair), S1 (one; 1536),
S2 (two; 768), and S4 (four; 144); matchings.ledger_l82 names the class of
each.  Three part families exhaust them:

  * Type I   (build_type1): 384 parts, each two S0_1 members P, Q that are
    blockwise complements plus four S1 members S, T, U, V derived by
    deterministic chains; uses all of S0_1 and S1.
  * Type II  (build_type2): 384 parts, each four S0 - S0_1 members built
    from a block 4-cycle and four free chord blocks plus the S2 pair that
    covers what they leave, fixed by two chord parities and filled in by the
    type-I chain walker; one seed per part; uses all of S0 - S0_1 and S2.
  * Type III (build_type3): 24 parts expanding the three block-level
    factorizations of the 4x4 pattern by complementary I2/R2 assignments;
    uses all of S4.

build_l82 assembles the 792 parts into a verified certificate.
"""

from __future__ import annotations

from itertools import product

from .graph_model import BLOCK_COLUMN, GraphSpec, l_graph
from .matchings import L82_LEDGER, enumerate_matchings, ledger_l82
from .perm_core import Perm, is_permutation
from .tables import l41_table
from .verifier import PartitionCertificate, verified_certificate

N = 8
GRAPH = l_graph(2, 4)

# An E-block is the cell (a, b), a and b in {1, 2}, of its single one; an
# invertible block is the pair of its two cells.
EBlock = tuple[int, int]
InvBlock = tuple[EBlock, EBlock]

E11: EBlock = (1, 1)
E12: EBlock = (1, 2)
E21: EBlock = (2, 1)
E22: EBlock = (2, 2)

E_BLOCKS: tuple[EBlock, ...] = (E11, E12, E21, E22)

I2: InvBlock = (E11, E22)
R2: InvBlock = (E12, E21)


def e_complement(e: EBlock) -> EBlock:
    return (3 - e[0], 3 - e[1])


def e_row_flip(e: EBlock) -> EBlock:
    return (3 - e[0], e[1])


def e_col_flip(e: EBlock) -> EBlock:
    return (e[0], 3 - e[1])


Grid = dict[tuple[int, int], EBlock | InvBlock]


_COLUMNS = frozenset(range(1, N + 1))


def _grid_perm(cells: Grid) -> Perm:
    """Collapse sparse 4x4 block cells into the matching of L(2, 4) they encode.

    Cell (a, b) of block (bi, bj) puts image 2 * bj - 2 + b in row
    2 * bi - 2 + a; an invertible block puts both of its cells.  RuntimeError
    unless the images form a permutation with none in its row's diagonal
    block, so every member it returns meets ledger_l82's precondition.
    """
    images = [0] * N
    for (bi, bj), (a, b) in cells.items():
        top, left = 2 * bi - 3, 2 * bj - 2  # row 2 * bi - 2 + a is images[top + a]
        if a.__class__ is not int:  # an invertible block: put cell a, then cell b
            (r, c), (a, b) = a, b
            if images[top + r]:
                raise RuntimeError(f"two images in row {top + r + 1}")
            images[top + r] = left + c
        if images[top + a]:
            raise RuntimeError(f"two images in row {top + a + 1}")
        images[top + a] = left + b
    if set(images) != _COLUMNS:
        raise RuntimeError(f"block cells do not form a permutation: {cells}")
    for row, x in enumerate(images):
        if BLOCK_COLUMN[x] == row >> 1:
            b = BLOCK_COLUMN[x] + 1
            raise RuntimeError(f"block cells put an image in diagonal block ({b}, {b}): {cells}")
    return tuple(images)


def _require(ok: bool, failure: str) -> None:
    """A class-ledger check that python -O keeps: RuntimeError unless ok."""
    if not ok:
        raise RuntimeError(failure)


def _by_row(pair: tuple[EBlock, EBlock], a: int) -> EBlock:
    return pair[0] if pair[0][0] == a else pair[1]


def _by_col(pair: tuple[EBlock, EBlock], b: int) -> EBlock:
    return pair[0] if pair[0][1] == b else pair[1]


def _forced(grid: Grid, pos: tuple[int, int]) -> EBlock:
    """The E-block that grid's row and column sums force at pos.

    Its row is the other row of the grid's cell in the same block row, and its
    column the other column of its cell in the same block column; each line
    must already hold exactly one E-block besides pos.
    """
    row = col = 0
    for (bi, bj), blk in grid.items():
        if bi == pos[0] and bj != pos[1]:
            row = 3 - blk[0]
        elif bj == pos[1] and bi != pos[0]:
            col = 3 - blk[1]
    return (row, col)


def _walk(p_grid: Grid, ring: tuple[tuple[int, int], ...], members: tuple[Grid, ...], seed_row: int) -> bool:
    """Fill one determination chain around a block rectangle; True if it closes.

    A slot is the complementary pair of cells that p_grid's cell at a ring
    position and its complement leave free: for type I, the cells P + Q
    leave.  members[0] takes ring[0]'s slot cell in seed_row; members[n] then
    steps to ring[n + 1] along a block row (even n) or column (odd n),
    taking the slot cell off its previous row (column), and members[n + 1]
    takes the complementary cell.  The chain closes when members[3]'s cell at
    ring[0] complements members[0]'s.
    """
    p = p_grid[ring[0]]
    cell = first = members[0][ring[0]] = _by_row((e_col_flip(p), e_row_flip(p)), seed_row)
    for n, pos in enumerate((*ring[1:], ring[0])):
        p = p_grid[pos]
        slot = (e_col_flip(p), e_row_flip(p))
        cell = _by_row(slot, 3 - cell[0]) if n % 2 == 0 else _by_col(slot, 3 - cell[1])
        members[n][pos] = cell
        if n < 3:
            cell = members[n + 1][pos] = e_complement(cell)
    return cell == e_complement(first)


def _co_invertible(e: EBlock) -> InvBlock:
    """The all-ones block minus the complementary pair through e: R2 for
    diagonal e, else I2."""
    return R2 if e[0] == e[1] else I2


# A zero pattern (i, j, k) is the transposition product (1 i)(j k) of block
# indices, j < k: S0_1 members with it have their off-diagonal zero blocks at
# exactly (1, i), (i, 1), (j, k), (k, j).
ZERO_PATTERNS: tuple[tuple[int, int, int], ...] = ((2, 3, 4), (3, 2, 4), (4, 2, 3))


def type1_part(
    pattern: tuple[int, int, int], free: tuple[EBlock, EBlock, EBlock, EBlock]
) -> tuple[Perm, ...]:
    """One part of two complementary S0_1 members and four chained S1 members.

    free lists the blocks of P at (1, j), (i, k), (j, 1), (k, i); the other
    four E-blocks of P are forced by its row/column sums, Q is the blockwise
    complement, and the S1 members S, T, U, V (invertible block at (1, i),
    (i, 1), (j, k), (k, j) respectively) follow from two seeded determination
    chains plus corner closure.  Every forced step is checked, and
    ledger_l82 checks each member's class; a failed check raises instead of
    emitting a bad part.
    """
    i, j, k = pattern
    if {i, j, k} != {2, 3, 4} or j > k:
        raise ValueError(f"bad zero pattern (1 {i})({j} {k})")
    e1, e2, e3, e4 = free
    p_grid: Grid = {(1, j): e1, (i, k): e2, (j, 1): e3, (k, i): e4}
    for pos in ((1, k), (i, j), (k, 1), (j, i)):
        p_grid[pos] = _forced(p_grid, pos)
    q_grid: Grid = {pos: e_complement(b) for pos, b in p_grid.items()}
    s, t, u, v = {}, {}, {}, {}

    # chain through the top block rows: T(1,j) -> T(1,k) -> V(1,k) -> V(i,k)
    # -> S(i,k) -> S(i,j) -> U(i,j) -> U(1,j), closing back at slot (1, j).
    # Both chain seeds admit two closing choices per seed tuple; the choice
    # for T must vary with the free blocks or the derived S1 members repeat
    # across parts (any fixed tie to a single block of P covers only 960 of
    # the 1536).  Flipping on the parity below is a verified choice that
    # makes S, T, U, V each range over their whole position class.
    t_seed_row = p_grid[1, k][0] if (e1[1] + e2[0] + e3[0]) % 2 else e1[0]
    if not _walk(p_grid, ((1, j), (1, k), (i, k), (i, j)), (t, v, s, u), t_seed_row):
        raise RuntimeError(f"top chain failed to close for {pattern} {free}")

    # chain through the left block columns: V(j,1) -> V(j,i) -> T(j,i)
    # -> T(k,i) -> U(k,i) -> U(k,1) -> S(k,1) -> S(j,1), closing at (j, 1)
    if not _walk(p_grid, ((j, 1), (j, i), (k, i), (k, 1)), (v, t, u, s), p_grid[j, i][0]):
        raise RuntimeError(f"left chain failed to close for {pattern} {free}")

    # corners: at each zero position of P two members take complementary
    # forced E-blocks and the third takes the invertible block they leave
    for pos, a, b, c in (((j, k), t, s, u), ((k, j), t, s, v), ((1, i), v, u, s), ((i, 1), v, u, t)):
        a[pos] = _forced(a, pos)
        b[pos] = _forced(b, pos)
        if a[pos] != e_complement(b[pos]):
            raise RuntimeError(f"corner cells not complementary for {pattern} {free}")
        c[pos] = _co_invertible(b[pos])

    part = tuple(_grid_perm(g) for g in (p_grid, q_grid, s, t, u, v))
    if [ledger_l82(m) for m in part] != ["S0_1"] * 2 + ["S1"] * 4:
        raise RuntimeError(f"part for {pattern} {free} is not two S0_1 and four S1 members")
    return part


def build_type1() -> list[tuple[Perm, ...]]:
    """384 parts consuming every S0_1 and every S1 member exactly once.

    Per pattern, the four free blocks give 4^4 seeds; restricting P's block
    at (1, j) to the top row picks one representative of each {P, Q} swap,
    leaving 3 * 2^7 = 384 distinct parts.  type1_part labels every member,
    so 768 distinct S0_1 and 1536 distinct S1 members are both whole classes.
    """
    parts = []
    for pattern in ZERO_PATTERNS:
        for e1 in (E11, E12):
            for e2, e3, e4 in product(E_BLOCKS, repeat=3):
                parts.append(type1_part(pattern, (e1, e2, e3, e4)))
    _require(len(parts) == 384, "type I: not 384 parts")
    _require(len({tuple(sorted(p)) for p in parts}) == 384, "type I: a part repeats")

    _require(len({m for p in parts for m in p[:2]}) == 768, "type I: S0_1 is not covered")
    _require(len({m for p in parts for m in p[2:]}) == 1536, "type I: S1 is not covered")
    return parts


def _residual_pairs(members: tuple[Perm, ...]) -> list[tuple[Perm, Perm]]:
    """Every unordered matching pair summing to adjacency minus the members.

    The residual keeps two cells in every row, so each of its matchings
    pairs with the matching formed by the cells it leaves; each pair is
    listed once, as (smaller, larger), in sorted order.  A search over the
    residual's matchings: it serves type2_literal_diagnostic and the tests
    that check the type-II pairs, not the build.
    """
    rows = list(GRAPH.rows)
    for p in members:
        for row, img in enumerate(p):
            if not rows[row] >> (img - 1) & 1:
                raise RuntimeError("family members overlap")
            rows[row] ^= 1 << (img - 1)
    _require(all(r.bit_count() == 2 for r in rows), "residual row without two cells")
    pairs = []
    for b1 in enumerate_matchings(GraphSpec(rows=tuple(rows))):
        b2 = tuple((r ^ 1 << (x - 1)).bit_length() for r, x in zip(rows, b1))
        _require(is_permutation(b2, N), "residual cells left by a matching are no matching")
        if b1 < b2:
            pairs.append((b1, b2))
    return pairs


CYCLE_REPS: tuple[tuple[int, int, int, int], ...] = ((1, 2, 3, 4), (1, 2, 4, 3), (1, 3, 2, 4))


def _type2_member(grid: Grid, context: str) -> Perm:
    m = _grid_perm(grid)
    if ledger_l82(m) != "S0_rest":
        raise RuntimeError(f"family member not in S0 minus S0_1: {context}")
    return m


def _type2_grids(
    cycle: tuple[int, int, int, int],
    chords: tuple[EBlock, EBlock, EBlock, EBlock],
) -> tuple[Grid, Grid]:
    """A1, with zero blocks on the cycle, and A1', with them on its inverse."""
    one, i, j, k = cycle
    if one != 1 or {i, j, k} != {2, 3, 4}:
        raise ValueError(f"cycle must visit 1, i, j, k once starting at 1: {cycle}")
    ch1j, chj1, chki, chik = chords
    a1: Grid = {(1, j): ch1j, (j, 1): chj1, (k, i): chki, (i, k): chik}
    a1p: Grid = dict(a1)
    for pos in ((1, k), (k, j), (j, i), (i, 1)):
        a1[pos] = _forced(a1, pos)
    for pos in ((1, i), (i, j), (j, k), (k, 1)):
        a1p[pos] = _forced(a1p, pos)
    return a1, a1p


def _members(x: Grid, y: Grid) -> tuple[Grid, Grid, Grid, Grid]:
    """x, complement(x), column-flipped y and row-flipped y.  A row flip of a
    complement is a column flip, so _members(A1, A1) is A1, A2, A3, A4."""
    return (
        x,
        {pos: e_complement(b) for pos, b in x.items()},
        {pos: e_col_flip(b) for pos, b in y.items()},
        {pos: e_row_flip(b) for pos, b in y.items()},
    )


def _type2_family(
    cycle: tuple[int, int, int, int],
    chords: tuple[EBlock, EBlock, EBlock, EBlock],
) -> tuple[Perm, ...]:
    """The family {A1, A2, A3', A4'} of one seed, completed by the S2 pair
    that covers the residual its members leave.

    The residual is an invertible block at each position of the cycle and of
    its inverse, the co-pair of any family cell there.  A chord parity is 0
    for a diagonal chord, 1 for an antidiagonal one.  Parity 0 at (1, j)
    gives M1 the whole blocks at (1, i), (j, k) and M2 those at (1, k),
    (j, i), and the walk splits block rows i and k between them; parity 1
    swaps the roles of block rows 1, j and i, k.  The walk's seed row is 2
    when the parities at (1, j) and (j, 1) agree, else 1.
    """
    grids = _members(*_type2_grids(cycle, chords))
    ctx = f"cycle={cycle} chords={chords}"
    members = tuple(_type2_member(g, ctx) for g in grids)
    _, i, j, k = cycle
    used = {pos: blk for g in grids for pos, blk in g.items()}
    p1, p2 = (chords[n] in (E12, E21) for n in (0, 1))
    # whole residual blocks of M1, then of M2, and the ring the walk splits
    if p1:
        wholes, ring = ((i, j), (k, 1), (i, 1), (k, j)), ((1, k), (1, i), (j, i), (j, k))
    else:
        wholes, ring = ((1, i), (j, k), (1, k), (j, i)), ((i, j), (i, 1), (k, 1), (k, j))
    m1, m2 = ({pos: _co_invertible(used[pos]) for pos in half} for half in (wholes[:2], wholes[2:]))
    if not _walk(used, ring, (m1, m2, m1, m2), 2 if p1 == p2 else 1):
        raise RuntimeError(f"S2 chain failed to close: {ctx}")
    pair = sorted((_grid_perm(m1), _grid_perm(m2)))
    if any(ledger_l82(m) != "S2" for m in pair):
        raise RuntimeError(f"residual pair not in S2: {ctx}")
    return (*members, *pair)


def type2_families(
    cycle: tuple[int, int, int, int],
    chords: tuple[EBlock, EBlock, EBlock, EBlock],
) -> tuple[tuple[Perm, ...], tuple[Perm, ...]]:
    """The two parts seeded by one block 4-cycle and its four chord blocks.

    A1 has zero blocks on the cycle (1, i), (i, j), (j, k), (k, 1) and A1' on
    the inverse cycle; both share the chord blocks at (1, j), (j, 1), (k, i),
    (i, k), and their remaining blocks are forced by row/column sums.  With
    A2 = complement(A1), A3/A4 = row/column-swapped A2 and A2', A3', A4'
    the same of A1', the mixed family {A1, A2, A3', A4'} leaves a residual
    of invertible blocks on the cycle plus its inverse.  The S2 pair that
    covers it follows from the chord parities at (1, j) and (j, 1) (see
    _type2_family), which is what lets the pairs cover S2 without repeats
    across the whole sweep.

    The second part is the family of the column-flipped chords.  Flipping
    every chord column-flips A1 and A1', so that family is the other mixed
    one, {A1', A2', A3, A4}, of this seed.
    """
    return _type2_family(cycle, chords), _type2_family(cycle, tuple(map(e_col_flip, chords)))


def type2_literal_diagnostic(
    cycle: tuple[int, int, int, int],
    chords: tuple[EBlock, EBlock, EBlock, EBlock],
) -> tuple[tuple[Perm, ...], list[tuple[Perm, Perm]]]:
    """The rejected same-zero-pattern family {A1, A2, A3, A4} and its residual
    decompositions.

    All four members share A1's zero cycle, so the residual degenerates to
    four all-ones blocks on that cycle and every decomposition lands in S4;
    none lies in S2.  Kept as a diagnostic for why the mixed families above
    are the composition that works.
    """
    a1, _ = _type2_grids(cycle, chords)
    members = tuple(_type2_member(g, "literal family") for g in _members(a1, a1))
    return members, _residual_pairs(members)


def build_type2() -> list[tuple[Perm, ...]]:
    """384 parts consuming every S0 - S0_1 and every S2 member exactly once.

    The full sweep of type2_families over 3 cycle representatives x 4^4
    chord choices builds each part four times: its second family is the
    first family of the column-flipped chords, and complementing every chord
    rebuilds the same family with A1 and A2 swapped.  Complementing moves the
    chord at (1, j) between block rows, so the first families whose (1, j)
    chord lies in the top row give each part from exactly one seed:
    3 * 2 * 4^3 = 384.  _type2_family labels every member, so 1536 distinct
    S0_rest and 768 distinct S2 members are both whole classes.  Parts are
    returned with sorted members, in sorted order.
    """
    families = [
        _type2_family(cycle, (ch1j, *rest))
        for cycle in CYCLE_REPS
        for ch1j in (E11, E12)
        for rest in product(E_BLOCKS, repeat=3)
    ]
    _require(len(families) == 384, "type II: not 384 parts")
    _require(len({m for f in families for m in f[:4]}) == 1536, "type II: S0_rest is not covered")
    _require(len({m for f in families for m in f[4:]}) == 768, "type II: S2 is not covered")
    return sorted(tuple(sorted(f)) for f in families)


FLIP_SETS: tuple[tuple[int, ...], ...] = ((), (1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4))


def build_type3() -> list[tuple[Perm, ...]]:
    """24 parts consuming every S4 member exactly once.

    Each of the three block-level factorizations gives 8 parts, one per flip
    set.  Each of its three block matchings contributes two members: I2 in
    every block row and R2 in every block row, with I2 and R2 swapped on the
    block rows of the flip set.  The 8 flip sets hit exactly one of each
    complementary pair of the 16 I/R assignments per block matching, so the
    3 * 8 parts tile all 9 * 16 = 144 S4 members: 144 distinct members that
    ledger_l82 puts in S4 are the whole class.
    """
    parts = [
        tuple(
            _grid_perm({(p, bp[p - 1]): swap if p in flips else cell for p in range(1, 5)})
            for bp in block_fact
            for cell, swap in ((I2, R2), (R2, I2))
        )
        for block_fact in l41_table()
        for flips in FLIP_SETS
    ]
    _require(len(parts) == 24, "type III: not 24 parts")
    flat = {m for p in parts for m in p}
    _require(len(flat) == 144 and all(ledger_l82(m) == "S4" for m in flat), "type III: S4 is not covered")
    return parts


def classify_parts(parts) -> dict[str, int]:
    """Census of a part list: per-type part counts and per-class member usage,
    each member labelled by ledger_l82.

    Every member must be a matching of L(2, 4), as every part build_l82
    emits is; ledger_l82 does not check that.
    """
    out = dict.fromkeys(("type1_parts", "type2_parts", "type3_parts", *L82_LEDGER), 0)
    for part in parts:
        part_labels = [ledger_l82(m) for m in part]
        for lab in part_labels:
            out[lab] += 1
        if "S0_1" in part_labels:
            out["type1_parts"] += 1
        elif "S2" in part_labels:
            out["type2_parts"] += 1
        else:
            out["type3_parts"] += 1
    return out


def build_l82() -> PartitionCertificate:
    """The full 792-part partition of L(2, 4)'s 4752 matchings, verified by
    check_partition before it is returned."""
    return verified_certificate(GRAPH, [*build_type1(), *build_type2(), *build_type3()])
