"""Counting routes: rook closed form, Ryser permanent, and their agreement."""

import math
import random
import re
from itertools import permutations

import pytest

from perfpart.counting import (
    CountReport,
    closed_count,
    count_matchings,
    necessary_condition,
    permanent_of_spec,
    poly_mul,
    poly_pow,
    rook_block,
    ryser_permanent,
)
from perfpart.graph_model import from_matrix, l_graph
from perfpart.matchings import count_by_enumeration

CIRCULANT_ROWS = ["11100", "01110", "00111", "10011", "11001"]


def brute_permanent(rows: list[int], n: int) -> int:
    total = 0
    for images in permutations(range(n)):
        prod = 1
        for i, j in enumerate(images):
            prod *= rows[i] >> j & 1
            if not prod:
                break
        total += prod
    return total


def test_rook_block_small_boards():
    assert rook_block(0) == [1]
    assert rook_block(1) == [1, 1]
    assert rook_block(2) == [1, 4, 2]
    assert rook_block(3) == [1, 9, 18, 6]


def test_poly_helpers():
    assert poly_mul([1, 1], [1, 1]) == [1, 2, 1]
    assert poly_pow([1, 1], 3) == [1, 3, 3, 1]
    assert poly_pow([1, 4, 2], 0) == [1]


@pytest.mark.parametrize(("r", "m"), [(1, 3), (2, 2), (2, 4), (3, 2)])
def test_rook_power_leading_coefficients(r: int, m: int):
    coeffs = poly_pow(rook_block(r), m)
    assert coeffs[0] == 1
    assert coeffs[1] == m * r * r


@pytest.mark.parametrize(
    ("r", "m", "want"),
    [(1, 1, 0), (1, 2, 1), (1, 6, 265), (2, 1, 0), (2, 4, 4752), (3, 1, 0)],
)
def test_count_matchings_frozen_values(r: int, m: int, want: int):
    assert count_matchings(r, m) == want


def test_count_matchings_r0_is_factorial():
    for n in range(1, 8):
        assert count_matchings(0, n=n) == math.factorial(n)


def test_count_matchings_validates_arguments():
    with pytest.raises(ValueError):
        count_matchings(0)
    with pytest.raises(ValueError):
        count_matchings(2)
    with pytest.raises(ValueError, match="contradicts"):
        count_matchings(2, 3, n=7)


@pytest.mark.parametrize(("r", "m", "n"), [(-1, 3, None), (0, 3, 4), (0, None, 0), (0, None, -2)])
def test_count_matchings_refuses_what_l_graph_refuses(r, m, n):
    with pytest.raises(ValueError) as refused:
        l_graph(r, m, n)
    with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
        count_matchings(r, m, n)


def test_single_hole_count_is_the_derangement_number():
    # n = 100 is past the bitset bound of l_graph, which the closed form lacks
    for n in [*range(1, 10), 100]:
        want = sum((-1) ** k * math.factorial(n) // math.factorial(k) for k in range(n + 1))
        assert count_matchings(1, n) == want


def test_ryser_base_cases():
    assert ryser_permanent([]) == 1
    assert ryser_permanent([1, 2, 4]) == 1  # identity
    n = 5
    assert ryser_permanent([(1 << n) - 1] * n) == math.factorial(n)
    assert ryser_permanent([0, 3]) == 0


def test_ryser_matches_brute_force_on_random_matrices():
    rng = random.Random(20260821)
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = [rng.getrandbits(n) for _ in range(n)]
        assert ryser_permanent(rows) == brute_permanent(rows, n)


@pytest.mark.parametrize(("r", "m"), [(1, 4), (1, 5), (2, 2), (2, 3), (3, 1)])
def test_three_routes_agree(r: int, m: int):
    g = l_graph(r, m)
    assert count_matchings(r, m) == permanent_of_spec(g) == count_by_enumeration(g)


SHIPPED_GRAPHS = [
    l_graph(1, 6),
    l_graph(2, 4),
    *(l_graph(0, n=n) for n in range(1, 10)),
    *(l_graph(n, 2) for n in range(1, 7)),
]


@pytest.mark.parametrize("spec", SHIPPED_GRAPHS, ids=lambda g: f"r{g.r}n{g.n}")
def test_count_of_every_shipped_graph_matches_enumeration(spec):
    """The verifier's completeness-by-count rests on these counts."""
    assert necessary_condition(spec).count == count_by_enumeration(spec)


def test_circulant_example_has_13_matchings():
    g = from_matrix(CIRCULANT_ROWS)
    assert permanent_of_spec(g) == 13
    report = necessary_condition(g)
    assert report.count == 13 and report.oracle_count == 13
    assert report.rook_count is None and closed_count(g) is None
    assert report.degree == 3
    assert not report.divisible


def test_necessary_condition_on_the_hole_family():
    report = necessary_condition(l_graph(1, 6))
    assert report.rook_count == closed_count(l_graph(1, 6)) == 265
    assert report.oracle_count is None
    assert report.degree == 5 and report.divisible
    oracle = necessary_condition(l_graph(1, 6), oracle=True)
    assert oracle.oracle_count == 265

    assert necessary_condition(l_graph(2, 4)).divisible  # 4752 = 6 * 792

    empty = necessary_condition(l_graph(3, 1))
    assert empty.degree == 0 and empty.count == 0 and empty.divisible


def test_a_report_with_no_count_raises_value_error():
    """The check is a raise, so python -O keeps it."""
    report = CountReport(
        n=5, r=None, m=None, rook_count=None, oracle_count=None, degree=3, divisible=False
    )
    with pytest.raises(ValueError, match="neither a rook count nor an oracle count"):
        report.count
