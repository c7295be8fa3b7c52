"""The 2x2 block view of a degree-8 permutation, a test reference.

graph_model.invertible_blocks, matchings.ledger_l82 and the L(2, 4)
builders read the same cells from the images through graph_model's block
and pair tables.  This view builds the dense 8x8 matrix instead and shares
no code with them, so the tests check all three against it and against the
zero blocks and ledger class read off it.
"""

Block = tuple[tuple[int, int], tuple[int, int]]

I2: Block = ((1, 0), (0, 1))
R2: Block = ((0, 1), (1, 0))
O2: Block = ((0, 0), (0, 0))


def block_view(p: tuple[int, ...]) -> tuple[tuple[Block, ...], ...]:
    """The 4x4 block matrix of 2x2 cells for a degree-8 permutation."""
    if len(p) != 8:
        raise ValueError("block view is defined for n = 8")
    mat = [[0] * 8 for _ in range(8)]
    for i, x in enumerate(p, start=1):
        mat[i - 1][x - 1] = 1
    out = []
    for bi in range(4):
        row = []
        for bj in range(4):
            row.append(
                (
                    (mat[2 * bi][2 * bj], mat[2 * bi][2 * bj + 1]),
                    (mat[2 * bi + 1][2 * bj], mat[2 * bi + 1][2 * bj + 1]),
                )
            )
        out.append(tuple(row))
    return tuple(out)


def oracle_zero_blocks(p: tuple[int, ...]) -> list[tuple[int, int]]:
    """1-based off-diagonal block positions whose 2x2 cell is all zero."""
    view = block_view(p)
    return [
        (i + 1, j + 1) for i in range(4) for j in range(4) if i != j and view[i][j] == O2
    ]


def block_label(p: tuple[int, ...]) -> str:
    """The ledger class of an L(2, 4) matching, read off the dense view: S<k>
    for k invertible cells, with S0 split into S0_1, whose four zero blocks
    pair up symmetrically, and S0_rest."""
    view = block_view(p)
    k = sum(cell in (I2, R2) for row in view for cell in row)
    if k:
        return f"S{k}"
    zeros = set(oracle_zero_blocks(p))
    return "S0_1" if len(zeros) == 4 and all((j, i) in zeros for i, j in zeros) else "S0_rest"
