"""Coset-based partitions of the complete graph and the two-hole graph."""

import math
from itertools import permutations

import pytest

from perfpart.construct_group import _coset_reps, knn_partition, l2nn_partition
from perfpart.graph_model import is_matching, l_graph
from perfpart.perm_core import compose, inverse
from perfpart.verifier import check_partition, make_certificate


def cycle_powers(n: int) -> list[tuple[int, ...]]:
    """c^0, c^1, ..., c^(n-1) for the n-cycle c = (1 2 ... n), by composition."""
    c = tuple(list(range(2, n + 1)) + [1])
    powers = [tuple(range(1, n + 1))]
    for _ in range(n - 1):
        powers.append(compose(c, powers[-1]))
    return powers


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_knn_partition_shape_and_validity(n: int):
    cert = knn_partition(n)
    assert cert.graph == l_graph(0, n=n)
    assert cert.complete
    assert len(cert.parts) == math.factorial(n - 1)
    assert all(len(part) == n for part in cert.parts)
    assert check_partition(cert).ok


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_coset_reps_are_the_least_member_of_each_coset(n: int):
    powers = cycle_powers(n)
    least = [
        g
        for g in permutations(range(1, n + 1))
        if g == min(compose(g, h) for h in powers)
    ]
    assert _coset_reps(n) == least


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_coset_builders_equal_a_composition_build(n: int):
    """Rotated image tuples give the same certificates as composing each
    representative with every power of the cycle."""
    powers = cycle_powers(n)
    cosets = [[compose(g, h) for h in powers] for g in _coset_reps(n)]
    assert knn_partition(n) == make_certificate(l_graph(0, n=n), cosets, complete=True)
    if n == 7:
        return  # L(7, 2) has (6!)^2 * 7 = 3,628,800 parts

    l2nn = [
        [tuple(n + x for x in alpha[t]) + beta[(t + d) % n] for t in range(n)]
        for alpha in cosets
        for beta in cosets
        for d in range(n)
    ]
    assert l2nn_partition(n) == make_certificate(l_graph(n, 2), l2nn, complete=True)


def test_knn_parts_are_cosets_of_the_cycle_group():
    cert = knn_partition(4)
    cycle_group = None
    for part in cert.parts:
        g = part[0]
        quotient = {compose(inverse(g), p) for p in part}
        if cycle_group is None:
            cycle_group = quotient
        assert quotient == cycle_group, "every part must be a left coset"
    assert cycle_group is not None and (2, 3, 4, 1) in cycle_group


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_l2nn_partition_shape_and_validity(n: int):
    cert = l2nn_partition(n)
    assert cert.graph == l_graph(n, 2)
    assert cert.complete
    assert len(cert.parts) == math.factorial(n - 1) ** 2 * n
    assert all(len(part) == n for part in cert.parts)
    assert all(is_matching(cert.graph, p) for part in cert.parts for p in part)
    assert check_partition(cert).ok


def test_l2nn_n3_counts():
    cert = l2nn_partition(3)
    assert len(cert.parts) == 12
    members = [p for part in cert.parts for p in part]
    assert len(members) == len(set(members)) == 36


def test_degenerate_arguments():
    with pytest.raises(ValueError):
        knn_partition(0)
    with pytest.raises(ValueError):
        l2nn_partition(0)
    assert len(knn_partition(1).parts) == 1
    assert l2nn_partition(1).parts == (((2, 1),),)
