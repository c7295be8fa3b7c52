"""Matching enumeration and the two classification schemes."""

import random
import time
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from blocks import block_label
from perfpart.counting import ryser_permanent
from perfpart.graph_model import from_matrix, invertible_blocks, l_graph
from perfpart.matchings import (
    census_l61,
    census_l82,
    classify_l82,
    count_by_enumeration,
    enumerate_matchings,
    label_l61,
    label_l82,
    ledger_l82,
    perfect_matching,
)
from perfpart.perm_core import inverse, parse_cycles


def test_enumeration_is_sorted_and_exact():
    got = list(enumerate_matchings(l_graph(1, 4)))
    assert got == sorted(got)
    assert len(got) == len(set(got)) == 9
    assert all(i + 1 != x for p in got for i, x in enumerate(p))


def test_enumeration_of_complete_graph():
    assert count_by_enumeration(l_graph(0, n=5)) == 120
    assert list(enumerate_matchings(l_graph(0, n=8))) == list(permutations(range(1, 9)))
    assert count_by_enumeration(l_graph(2, 1)) == 0


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 6))
    row = st.text(alphabet="01", min_size=n, max_size=n)
    return from_matrix(draw(st.lists(row, min_size=n, max_size=n)))


@given(matrices())
# 7 x 7, past the strategy's sizes, with its rows out of degree order
@example(from_matrix(["1111111", "1010101", "0110011", "1100000", "0011110", "1001011", "0100101"]))
def test_enumeration_matches_brute_force(spec):
    n = spec.n
    want = [
        p
        for p in permutations(range(1, n + 1))
        if all(spec.adjacency(i, x) for i, x in enumerate(p, start=1))
    ]
    assert list(enumerate_matchings(spec)) == want


@given(
    st.integers(1, 7).flatmap(
        lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
    )
)
def test_perfect_matching_is_found_exactly_when_one_exists(rows):
    n = len(rows)

    def is_matching(p):
        return all(rows[i] >> (x - 1) & 1 for i, x in enumerate(p))

    found = perfect_matching(rows)
    if found is None:
        assert not any(map(is_matching, permutations(range(1, n + 1))))
    else:
        assert sorted(found) == list(range(1, n + 1)) and is_matching(found)


def test_sparse_rows_are_placed_first():
    # placed in file order, the seven full rows try about 14!/7! placements
    # before the single-column rows below them fail; placed sparsest first,
    # the single-column rows go first and every branch after them is a matching
    spec = from_matrix(["1" * 14] * 7 + ["0" * c + "1" + "0" * (13 - c) for c in range(7, 14)])
    start = time.perf_counter()
    got = list(enumerate_matchings(spec))
    assert time.perf_counter() - start < 1
    want = sorted(p + tuple(range(8, 15)) for p in permutations(range(1, 8)))
    assert len(want) == ryser_permanent(spec.rows) == 5040
    assert got == want


@pytest.mark.parametrize(
    ("cycles", "want"),
    [
        ("(1 2 3 4 5 6)", "C6"),
        ("(1 2 3)(4 6 5)", "C33"),
        ("(1 2)(3 4 5 6)", "C24_0"),
        ("(1 3)(2 4 5 6)", "C24_0"),
        ("(2 3)(1 4 5 6)", "C24"),
        ("(1 2)(3 4)(5 6)", "C222"),
    ],
)
def test_label_l61(cycles: str, want: str):
    assert label_l61(parse_cycles(cycles, 6)) == want


def test_label_l61_rejects_non_matchings():
    with pytest.raises(ValueError):
        label_l61((1, 2, 3, 4, 5, 6))  # fixed points
    with pytest.raises(ValueError):
        label_l61((2, 1, 4, 3))  # wrong degree


def test_l61_census(l61_classes):
    assert census_l61(l61_classes) == (120, 40, 90, 30, 15)
    sizes = {k: len(v) for k, v in l61_classes.items()}
    assert sizes == {"C6": 120, "C33": 40, "C24": 60, "C24_0": 30, "C222": 15}
    assert sum(sizes.values()) == 265


def test_c33_closes_under_inverse_in_20_pairs(l61_classes):
    c33 = set(l61_classes["C33"])
    assert {inverse(p) for p in c33} == c33
    assert all(inverse(p) != p for p in c33)
    assert len({frozenset((p, inverse(p))) for p in c33}) == 20


def test_label_l82_examples():
    assert label_l82((3, 4, 1, 2, 7, 8, 5, 6)) == "S4"
    assert label_l82((4, 3, 2, 1, 8, 7, 6, 5)) == "S4"
    assert label_l82((3, 4, 5, 6, 7, 8, 1, 2)) == "S4"  # block 4-cycle of I2s
    # one invertible block: rows 1-2 hit columns 3-4 as I2, the rest spread out
    assert label_l82((3, 4, 5, 7, 1, 8, 6, 2)) == "S1"


def test_l82_census(l82_classes):
    assert census_l82(l82_classes) == (2304, 1536, 768, 144)
    assert len(l82_classes["S0_1"]) == 768
    assert sum(census_l82(l82_classes)) == 4752


def test_no_matching_has_three_invertible_blocks(l82_classes):
    for members in l82_classes.values():
        for p in members:
            assert len(invertible_blocks(p)) != 3


def test_s0_split_by_zero_pattern(l82_classes):
    """S0_1 is the part of S0 whose four zero blocks, in the dense block
    view, pair up symmetrically."""
    s01 = set(l82_classes["S0_1"])
    assert s01 <= set(l82_classes["S0"])
    for p in l82_classes["S0"]:
        assert (block_label(p) == "S0_1") == (p in s01)
    for lab in ("S1", "S2", "S4"):
        assert all(block_label(p) == lab for p in l82_classes[lab])


def test_ledger_l82_matches_the_block_view_on_every_l24_matching():
    matchings = list(enumerate_matchings(l_graph(2, 4)))
    assert len(matchings) == 4752
    assert all(ledger_l82(p) == block_label(p) for p in matchings)
    assert all(label_l82(p) == f"S{len(invertible_blocks(p))}" for p in matchings)
    assert Counter(map(ledger_l82, matchings)) == {
        "S0_1": 768, "S0_rest": 1536, "S1": 1536, "S2": 768, "S4": 144
    }


def test_ledger_l82_needs_degree_8():
    for p in ((2, 1, 4, 3), (3, 4, 1, 2, 7, 8, 5, 6, 9), ()):
        with pytest.raises(ValueError):
            ledger_l82(p)


def test_label_l82_refuses_three_invertible_blocks():
    # no permutation of 8 has three: block rows filling three blocks leave
    # the fourth block whole to the last block row
    with pytest.raises(ValueError, match="impossible invertible-block count 3"):
        label_l82((2, 1, 4, 3, 6, 5, 1, 3))


def test_classify_l82_keeps_the_input_order():
    matchings = list(enumerate_matchings(l_graph(2, 4)))
    random.Random(20).shuffle(matchings)
    classes = classify_l82(matchings)
    assert list(classes) == ["S0", "S1", "S2", "S4", "S0_1"]
    for lab, members in classes.items():
        assert members == [p for p in matchings if block_label(p).startswith(lab)]
