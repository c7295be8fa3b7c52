"""Certificate verification: factorization checks, tamper detection, JSON I/O."""

import json
import random

import pytest

from perfpart.graph_model import from_matrix, l_graph
from perfpart.matchings import enumerate_matchings
from perfpart.perm_core import parse_cycles
from perfpart.tables import t1_table
from perfpart.verifier import (
    certificate_from_json,
    certificate_to_json,
    check_extendability,
    check_factorization,
    check_partition,
    load_certificate,
    make_certificate,
    save_certificate,
)


def kinds(violations) -> set[str]:
    return {v.kind for v in violations}


def matrix_sum_equals_adjacency(spec, perms) -> bool:
    n = spec.n
    cover = [[0] * n for _ in range(n)]
    for p in perms:
        for i, x in enumerate(p, start=1):
            cover[i - 1][x - 1] += 1
    return all(
        cover[i - 1][j - 1] == (1 if spec.adjacency(i, j) else 0)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )


def test_valid_factorizations_pass():
    assert check_factorization(l_graph(1, 6), t1_table()[0]) == []
    cyclic = [(1, 2, 3), (2, 3, 1), (3, 1, 2)]
    assert check_factorization(l_graph(0, n=3), cyclic) == []


def test_size_violation():
    part = t1_table()[0][:4]
    assert "size" in kinds(check_factorization(l_graph(1, 6), part))


def test_member_violations():
    g = l_graph(1, 3)
    good = [(2, 3, 1), (3, 1, 2)]
    assert check_factorization(g, good) == []
    assert "not_permutation" in kinds(check_factorization(g, [(1, 1, 3), (3, 1, 2)]))
    assert "duplicate" in kinds(check_factorization(g, [(2, 3, 1), (2, 3, 1)]))
    assert "not_matching" in kinds(check_factorization(g, [(1, 2, 3), (3, 1, 2)]))


def test_doubled_edge_is_a_coverage_violation():
    part = list(t1_table()[0])
    assert parse_cycles("(1 2)(3 4)(5 6)", 6) not in part
    part[1] = parse_cycles("(1 2)(3 4)(5 6)", 6)
    violations = check_factorization(l_graph(1, 6), part)
    assert violations and kinds(violations) == {"coverage"}


def test_check_agrees_with_the_matrix_sum_oracle():
    g = l_graph(1, 4)
    matchings = list(enumerate_matchings(g))
    rng = random.Random(7)
    seen_valid = seen_invalid = 0
    for _ in range(300):
        perms = rng.sample(matchings, 3)
        ok = not check_factorization(g, perms)
        assert ok == matrix_sum_equals_adjacency(g, perms)
        seen_valid += ok
        seen_invalid += not ok
    assert seen_valid and seen_invalid


def test_check_partition_accepts_the_reference_build(l61_cert):
    report = check_partition(l61_cert)
    assert report.ok and report.n_parts == 53 and report.n_matchings == 265
    assert report.summary() == "PASS: 53 parts, 265 matchings, 0 violation(s)"


def test_check_partition_with_workers_matches_serial(l61_cert):
    serial = check_partition(l61_cert, workers=1)
    parallel = check_partition(l61_cert, workers=2)
    assert parallel.ok == serial.ok
    assert parallel.violations == serial.violations


def test_overlap_detection(l61_cert):
    cert = make_certificate(
        l61_cert.graph, (l61_cert.parts[0], *l61_cert.parts), complete=True
    )
    report = check_partition(cert)
    assert not report.ok
    assert kinds(report.violations) == {"overlap"}
    assert len(report.violations) == 5


def test_completeness_violations(l61_cert):
    partial = make_certificate(l61_cert.graph, l61_cert.parts[1:], complete=False)
    assert check_partition(partial).ok

    claimed = make_certificate(l61_cert.graph, l61_cert.parts[1:], complete=True)
    report = check_partition(claimed)
    assert not report.ok
    assert kinds(report.violations) == {"missing"}
    assert len(report.violations) == 5


def test_swapped_members_fail_two_parts(l61_cert):
    parts = [list(p) for p in l61_cert.parts]
    parts[0][0], parts[1][0] = parts[1][0], parts[0][0]
    report = check_partition(make_certificate(l61_cert.graph, parts, complete=True))
    assert not report.ok
    assert kinds(report.violations) == {"coverage"}
    assert {v.part for v in report.violations} == {0, 1}


def test_json_round_trip_for_both_graph_kinds(l61_cert):
    back = certificate_from_json(certificate_to_json(l61_cert))
    assert back == l61_cert

    g = from_matrix(["011", "101", "110"])
    cert = make_certificate(g, [[(2, 3, 1), (3, 1, 2)]], complete=False)
    back = certificate_from_json(certificate_to_json(cert))
    assert back == cert and back.graph.kind == "matrix"


def test_json_rejects_corruption(l61_cert):
    obj = certificate_to_json(l61_cert)
    with pytest.raises(ValueError, match="not a certificate"):
        certificate_from_json({k: v for k, v in obj.items() if k != "parts"})
    with pytest.raises(ValueError, match="degree"):
        certificate_from_json({**obj, "degree": 4})
    with pytest.raises(ValueError, match="contradicts"):
        certificate_from_json({**obj, "n": 7})
    with pytest.raises(ValueError, match="kind"):
        certificate_from_json({**obj, "graph": {"kind": "mystery"}})


def test_save_load_is_byte_stable(tmp_path, l61_cert):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_certificate(l61_cert, a)
    save_certificate(l61_cert, b)
    assert a.read_bytes() == b.read_bytes()
    assert load_certificate(a) == l61_cert
    payload = json.loads(a.read_text())
    assert payload["n"] == 6 and payload["degree"] == 5 and payload["complete"]


def test_extendability_of_a_small_graph():
    report = check_extendability(l_graph(1, 4))
    assert report.total == 9 and report.all_extendable

    # two 3x3 holes: matchings are bijection pairs, all coverable
    report = check_extendability(l_graph(3, 2))
    assert report.total == 36 and report.all_extendable


def test_extendability_of_l24():
    report = check_extendability(l_graph(2, 4))
    assert report.total == 4752 and report.all_extendable
