"""Graph specs: the hole family, explicit matrices, and the 2x2 block kernels."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blocks import I2, O2, R2, block_view, oracle_zero_blocks
from perfpart.graph_model import (
    degree,
    from_matrix,
    invertible_blocks,
    is_matching,
    l_graph,
    row_strings,
)
from perfpart.matchings import enumerate_matchings


def test_l16_is_complete_minus_diagonal():
    g = l_graph(1, 6)
    assert g.n == 6 and g.kind == "L" and (g.r, g.m) == (1, 6)
    for i in range(1, 7):
        for j in range(1, 7):
            assert g.adjacency(i, j) == (i != j)
    assert degree(g) == 5
    assert len(g.edges()) == 30


def test_l24_holes_are_2x2_diagonal_blocks():
    g = l_graph(2, 4)
    assert g.n == 8
    for i in range(1, 9):
        for j in range(1, 9):
            assert g.adjacency(i, j) == ((i - 1) // 2 != (j - 1) // 2)
    assert degree(g) == 6


def test_r0_builds_complete_graph():
    g = l_graph(0, n=5)
    assert g.n == 5 and g.m is None
    assert all(g.adjacency(i, j) for i in range(1, 6) for j in range(1, 6))
    assert degree(g) == 5


def test_l_graph_rejects_bad_parameters():
    with pytest.raises(ValueError):
        l_graph(0)
    with pytest.raises(ValueError):
        l_graph(1)
    with pytest.raises(ValueError):
        l_graph(-1, 2)
    with pytest.raises(ValueError, match="contradicts"):
        l_graph(2, 3, n=7)
    with pytest.raises(ValueError, match="bound"):
        l_graph(1, 65)
    # K_{n,n} has no holes, so an m with r = 0 is refused rather than ignored
    with pytest.raises(ValueError, match="r=0 takes n, not m"):
        l_graph(0, 3, n=4)


def test_from_matrix_reads_bitstring_rows():
    g = l_graph(2, 2)
    spec = from_matrix(row_strings(g))
    assert spec.rows == g.rows
    assert spec.kind == "matrix" and spec.r is None
    assert from_matrix(("10", "01")).rows == (0b01, 0b10)


def test_row_strings_round_trip():
    rows = ["0110", "1010", "1101", "0011"]
    assert row_strings(from_matrix(rows)) == rows


def test_from_matrix_rejects_malformed():
    with pytest.raises(ValueError):
        from_matrix([])
    with pytest.raises(ValueError, match="bitstring"):
        from_matrix(["01", "2x"])
    with pytest.raises(ValueError, match="bitstring"):
        from_matrix(["011", "101", "110x"])
    # rows are '0'/'1' strings only: masks, cell lists and JSON numbers are not
    for rows in (
        [4, 1], [1, 2], [True, 2], [[0, 1], [1, 0]], [[1.0, 0], [0, True]], [b"01", b"10"],
    ):
        with pytest.raises(ValueError, match="bitstring"):
            from_matrix(rows)


def test_degree_requires_regularity():
    with pytest.raises(ValueError, match="not regular"):
        degree(from_matrix(["11", "01"]))
    assert degree(from_matrix(["01", "10"])) == 1


def test_is_matching():
    g = l_graph(1, 4)
    assert is_matching(g, (2, 1, 4, 3))
    assert not is_matching(g, (1, 2, 3, 4))  # uses hole edges
    assert not is_matching(g, (2, 2, 4, 3))  # not a permutation
    assert not is_matching(g, (2, 1, 4))  # wrong length


def test_block_view_shape_and_content():
    p = (3, 4, 1, 2, 7, 8, 5, 6)
    view = block_view(p)
    assert view[0][1] == I2 and view[1][0] == I2
    assert view[2][3] == I2 and view[3][2] == I2
    assert view[0][0] == O2
    assert invertible_blocks(p) == [(1, 2), (2, 1), (3, 4), (4, 3)]
    assert oracle_zero_blocks(p) == [
        (1, 3), (1, 4), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (4, 2),
    ]


def test_block_view_recognizes_reversal():
    p = (4, 3, 2, 1, 8, 7, 6, 5)
    view = block_view(p)
    assert view[0][1] == R2 and view[1][0] == R2
    assert set(invertible_blocks(p)) == {(1, 2), (2, 1), (3, 4), (4, 3)}


def test_block_view_needs_degree_8():
    with pytest.raises(ValueError):
        block_view((2, 1, 4, 3))


@given(st.permutations(list(range(1, 9))).map(tuple))
def test_block_view_reconstructs_the_permutation(p):
    view = block_view(p)
    total = 0
    for bi in range(4):
        for bj in range(4):
            for a in range(2):
                for b in range(2):
                    if view[bi][bj][a][b]:
                        total += 1
                        assert p[2 * bi + a] == 2 * bj + b + 1
    assert total == 8


def oracle_invertible_blocks(p):
    view = block_view(p)
    return [(i + 1, j + 1) for i in range(4) for j in range(4) if view[i][j] in (I2, R2)]


def test_block_kernels_match_the_block_view_on_every_l24_matching():
    matchings = list(enumerate_matchings(l_graph(2, 4)))
    assert len(matchings) == 4752
    for p in matchings:
        assert invertible_blocks(p) == oracle_invertible_blocks(p)


@given(st.permutations(list(range(1, 9))).map(tuple))
def test_block_kernels_match_the_block_view_on_s8(p):
    assert invertible_blocks(p) == oracle_invertible_blocks(p)


def test_block_kernels_need_degree_8():
    with pytest.raises(ValueError):
        invertible_blocks((2, 1, 4, 3))
