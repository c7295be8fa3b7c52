"""The 2x2 block view of a degree-8 permutation, a test reference.

graph_model.invertible_blocks and zero_blocks read the same cells straight
from the images; the tests check them and the L(2, 4) builders against this
dense view.
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
