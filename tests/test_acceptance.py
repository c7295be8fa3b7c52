"""Acceptance gate: one test per shipped guarantee, each with its time budget.

Run with `pytest -v tests/test_acceptance.py` to get exactly one pass/fail
line per criterion.  Every test re-does its own work (no reliance on other
test modules) and asserts both the mathematical claim and the runtime bound.
"""

import math
import time
from contextlib import contextmanager

from perfpart.construct_group import knn_partition, l2nn_partition
from perfpart.construct_l61 import (
    DEFAULT_PATTERN,
    DEFAULT_Y0,
    build_l61,
    build_t1,
    build_t3,
    build_t4,
    canonical_rep,
    class_of,
    linked_zones,
)
from perfpart.construct_l82 import (
    CYCLE_REPS,
    E11,
    E12,
    E21,
    E22,
    build_l82,
    classify_parts,
    type2_families,
    type2_literal_diagnostic,
)
from perfpart.counting import count_matchings, necessary_condition, permanent_of_spec
from perfpart.graph_model import from_matrix, invertible_blocks, l_graph
from perfpart.matchings import (
    census_l61,
    census_l82,
    classify_l61,
    classify_l82,
    count_by_enumeration,
    enumerate_matchings,
    label_l82,
)
from perfpart.perm_core import cycles_of, from_cycle_tuples
from perfpart.search import find_perfect_partition
from perfpart.tables import (
    canonical_parts,
    diff_parts,
    l41_table,
    l61_golden_parts,
    t1_table,
    t3_table,
    t4_table,
    zone_table,
)
from perfpart.verifier import check_extendability, check_partition, make_certificate

CIRCULANT_ROWS = ["11100", "01110", "00111", "10011", "11001"]


@contextmanager
def budget(seconds: float):
    """Fail the criterion when its stated runtime bound is exceeded."""
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


def test_criterion_01_counting_three_way_agreement():
    with budget(10.0):
        cases = [(r, m) for r in range(1, 10) for m in range(1, 10) if r * m <= 9]
        for r, m in cases:
            rook = count_matchings(r, m)
            spec = l_graph(r, m)
            assert rook == permanent_of_spec(spec) == count_by_enumeration(spec), (r, m)
        for n in range(1, 8):
            spec = l_graph(0, n=n)
            want = math.factorial(n)
            assert count_matchings(0, n=n) == want
            assert permanent_of_spec(spec) == count_by_enumeration(spec) == want
        assert count_matchings(1, 6) == 265
        assert count_matchings(2, 4) == 4752


def test_criterion_02_circulant_counterexample():
    with budget(1.0):
        spec = from_matrix(CIRCULANT_ROWS)
        report = necessary_condition(spec)
        assert report.count == 13 and report.degree == 3
        assert not report.divisible  # 3 does not divide 13
        assert find_perfect_partition(spec) is None
        assert find_perfect_partition(spec, precheck=False) is None


def test_criterion_03_class_censuses():
    with budget(1.0):
        l61 = classify_l61(enumerate_matchings(l_graph(1, 6)))
        assert census_l61(l61) == (120, 40, 90, 30, 15)
        matchings82 = list(enumerate_matchings(l_graph(2, 4)))
        l82 = classify_l82(matchings82)
        assert census_l82(l82) == (2304, 1536, 768, 144)
        assert all(len(invertible_blocks(p)) != 3 for p in matchings82)


def test_criterion_04_reference_build_matches_printed_tables():
    with budget(1.0):
        cert = build_l61()
        assert len(cert.parts) == 53
        assert check_partition(cert).ok

        zones = linked_zones(DEFAULT_PATTERN)
        assert diff_parts(build_t1(), t1_table()) == ([], [])
        for y in range(2, 7):
            assert diff_parts(zones[y].subsets, zone_table()[y]) == ([], []), y
        assert diff_parts(build_t3(DEFAULT_Y0, zones[DEFAULT_Y0]), t3_table()) == ([], [])
        assert diff_parts(build_t4(DEFAULT_Y0, zones[DEFAULT_Y0]), t4_table()) == ([], [])
        assert diff_parts(cert.parts, l61_golden_parts()) == ([], [])


def test_criterion_05_build_is_seed_and_axis_robust():
    with budget(30.0):
        reps = sorted(
            {
                canonical_rep(p)
                for p in classify_l61(enumerate_matchings(l_graph(1, 6)))["C33"]
                if class_of(p) == 2
            }
        )
        assert len(reps) == 4
        for y0 in range(2, 7):
            for rep in reps:
                (_, x, y), (a, b, c) = cycles_of(rep)
                for word in ((a, b, c), (a, c, b)):
                    pattern = from_cycle_tuples([(1, x, y), word], 6)
                    cert = build_l61(y0, seed=rep, pattern=pattern)
                    report = check_partition(cert)
                    assert report.ok, f"y0={y0} rep={rep} word={word}"
                    assert report.n_parts == 53 and report.n_matchings == 265


def test_criterion_06_block_build_and_class_ledger():
    with budget(30.0):
        cert = build_l82()
        assert len(cert.parts) == 792
        assert all(len(part) == 6 for part in cert.parts)
        assert check_partition(cert).ok
        members = [m for part in cert.parts for m in part]
        assert len(members) == len(set(members)) == 4752
        ledger = classify_parts(cert.parts)
        assert ledger["S0_1"] == 768
        assert ledger["S0_rest"] == 1536
        assert ledger["S1"] == 1536
        assert ledger["S2"] == 768
        assert ledger["S4"] == 144


def test_criterion_07_mixed_family_diagnostic():
    for cycle in CYCLE_REPS:
        for chords in ((E11, E11, E11, E11), (E12, E21, E11, E22)):
            members, residual_pairs = type2_literal_diagnostic(cycle, chords)
            assert all(label_l82(m) == "S0" for m in members)
            assert residual_pairs
            assert all(
                (label_l82(a), label_l82(b)) == ("S4", "S4")
                for a, b in residual_pairs
            )
            for fam in type2_families(cycle, chords):
                assert sum(label_l82(m) == "S2" for m in fam) == 2


def test_criterion_08_search_existence():
    with budget(300.0):
        found41 = find_perfect_partition(l_graph(1, 4))
        assert found41 is not None
        assert canonical_parts(found41) == canonical_parts(l41_table())

        for (r, m), want in (((1, 5), 11), ((2, 3), 20)):
            spec = l_graph(r, m)
            found = find_perfect_partition(spec)
            assert found is not None
            assert len(found) == want and all(len(p) == 4 for p in found)
            cert = make_certificate(spec, list(found), complete=True)
            assert check_partition(cert).ok


def test_criterion_09_group_constructions():
    for n in range(1, 6):
        cert = knn_partition(n)
        assert len(cert.parts) == math.factorial(n - 1)
        assert check_partition(cert).ok, f"knn {n}"
    for n in range(1, 5):
        cert = l2nn_partition(n)
        assert len(cert.parts) == math.factorial(n - 1) ** 2 * n
        assert check_partition(cert).ok, f"l2nn {n}"


def test_criterion_10_every_matching_is_extendable():
    with budget(60.0):
        for spec in (l_graph(1, 6), l_graph(0, n=4)):
            report = check_extendability(spec)
            assert report.all_extendable
        assert report.total == 24  # K44 was checked last
