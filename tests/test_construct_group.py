"""Coset-based partitions of the complete graph and the two-hole graph."""

import math
from itertools import permutations

import pytest

from perfpart.construct_group import _coset_reps, _cycle_powers, knn_partition, l2nn_partition
from perfpart.graph_model import is_matching, l_graph
from perfpart.perm_core import compose, inverse
from perfpart.verifier import check_partition


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
    powers = _cycle_powers(n)
    least = [
        g
        for g in permutations(range(1, n + 1))
        if g == min(compose(g, h) for h in powers)
    ]
    assert _coset_reps(n) == least


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
