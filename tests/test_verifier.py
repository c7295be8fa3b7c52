"""Certificate verification: factorization checks, tamper detection, JSON I/O."""

import ast
import copy
import importlib
import json
import random
import re
import subprocess
import sys
import time
import tracemalloc
from functools import lru_cache, partial
from itertools import islice, permutations
from pathlib import Path

import independent_check
import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference_extendability import reference_extendability

from perfpart import counting, verifier
from perfpart.construct_group import knn_partition, l2nn_partition
from perfpart.construct_l61 import build_l61
from perfpart.construct_l82 import build_l82
from perfpart.graph_model import GraphSpec, degree, from_matrix, l_graph, row_strings
from perfpart.matchings import enumerate_matchings
from perfpart.perm_core import parse_cycles
from perfpart.search import find_factorizations, find_perfect_partition
from perfpart.tables import l41_table, t1_table
from perfpart.verifier import PartitionCertificate
from perfpart.verifier import (
    _factorization_violations,
    _is_factorization,
    _row_sets,
    certificate_from_json,
    certificate_to_json,
    check_extendability,
    check_factorization,
    check_partition,
    load_certificate,
    make_certificate,
    save_certificate,
)


CIRCULANT_ROWS = ["11100", "01110", "00111", "10011", "11001"]


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


@pytest.mark.parametrize(
    "perms, words",
    [
        # every row holds both columns, but neither member is a permutation
        ([(1, 1), (2, 2)], ["images [1, 1]", "images [2, 2]"]),
        # too long beside a member of length n: zip stops at the shorter
        # one, so the rows it sees are (1, 2) and (2, 1) and match
        ([(1, 2), (2, 1, 2)], ["images [2, 1, 2]"]),
        ([(1, 2, 1), (2, 1)], ["images [1, 2, 1]"]),
        ([(1, 2, 1), (2, 1, 2)], ["images [1, 2, 1]", "images [2, 1, 2]"]),
        ([(1, 2, 3), (2, 1, 3)], ["images [1, 2, 3]", "images [2, 1, 3]"]),
        # too short: zip would see only row 1
        ([(1, 2), (2,)], ["images [2]"]),
    ],
)
def test_fast_accept_rejects_rows_that_match_without_permutations(perms, words):
    k22 = l_graph(0, n=2)
    assert not _is_factorization(perms, 2, _row_sets(k22))
    violations = check_factorization(k22, perms)
    assert kinds(violations) == {"not_permutation"}
    assert [v.detail for v in violations] == words


@pytest.mark.parametrize("graph", [l_graph(2, 1), from_matrix(["00", "00"])])
def test_degree_zero_graph(graph):
    """The edgeless graph has no matching; its one factorization is empty."""
    assert degree(graph) == 0
    assert _is_factorization([], 0, _row_sets(graph))
    assert check_factorization(graph, []) == []
    assert [str(v) for v in check_factorization(graph, [(2, 1)])] == [
        "size: expected 0 matchings (the degree), got 1",
        "not_matching: edge (1,2) absent",
        "not_matching: edge (2,1) absent",
    ]
    assert check_partition(make_certificate(graph, [[], []], complete=True)).ok
    report = check_partition(make_certificate(graph, [[(1, 2)]], complete=True))
    assert [str(v) for v in report.violations] == [
        "size [part 0]: expected 0 matchings (the degree), got 1",
        "not_matching [part 0, member 0]: edge (1,1) absent",
        "not_matching [part 0, member 0]: edge (2,2) absent",
        "extra: [1, 2] is not a matching of the graph",
    ]


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


SMALL_GRAPHS = {"l14": l_graph(1, 4), "l15": l_graph(1, 5)}


@lru_cache(maxsize=None)
def small_graph_members(name):
    """(matchings, 1-factorizations) of a small hole graph."""
    spec = SMALL_GRAPHS[name]
    return list(enumerate_matchings(spec)), list(find_factorizations(spec))


@st.composite
def member_lists(draw):
    """A 1-factorization, then a few edits that may or may not break it."""
    name = draw(st.sampled_from(sorted(SMALL_GRAPHS)))
    spec = SMALL_GRAPHS[name]
    matchings, factorizations = small_graph_members(name)
    perms = list(draw(st.sampled_from(factorizations)))
    any_index = st.integers(0, 10**6)
    edits = ["duplicate", "drop", "add", "replace", "permutation", "non_permutation", "swap_row"]
    for edit in draw(st.lists(st.sampled_from(edits), max_size=3)):
        k = draw(any_index) % len(perms) if perms else None
        if edit == "duplicate" and perms:
            perms.append(perms[k])
        elif edit == "drop" and perms:
            del perms[k]
        elif edit == "add":
            perms.append(draw(st.sampled_from(matchings)))
        elif edit == "replace" and perms:
            perms[k] = draw(st.sampled_from(matchings))
        elif edit == "permutation" and perms:
            perms[k] = tuple(draw(st.permutations(range(1, spec.n + 1))))
        elif edit == "non_permutation" and perms:
            size = draw(st.integers(spec.n - 1, spec.n + 1))
            images = st.integers(0, spec.n + 1)
            perms[k] = tuple(draw(st.lists(images, min_size=size, max_size=size)))
        elif edit == "swap_row" and len(perms) > 1:
            # exchange one row's images between two members: every row keeps
            # its set of images, but the two members stop being permutations
            j = (k + 1 + draw(any_index) % (len(perms) - 1)) % len(perms)
            a, b = list(perms[k]), list(perms[j])
            if a and b:
                i = draw(any_index) % min(len(a), len(b))
                a[i], b[i] = b[i], a[i]
                perms[k], perms[j] = tuple(a), tuple(b)
    return spec, perms


@given(member_lists())
def test_fast_accept_holds_exactly_when_no_violation_is_worded(case):
    spec, perms = case
    d, rows = degree(spec), _row_sets(spec)
    accepted = _is_factorization(perms, d, rows)
    assert accepted == (not _factorization_violations(perms, d, rows))
    assert accepted == (check_factorization(spec, perms) == [])
    cells = set(range(1, spec.n + 1))
    if all(len(p) == spec.n and set(p) <= cells for p in perms):
        # a swap_row edit keeps the matrix sum but breaks the permutations
        assert accepted == (
            len(perms) == d == len(set(perms))
            and all(set(p) == cells for p in perms)
            and matrix_sum_equals_adjacency(spec, perms)
        )


def test_fast_accept_takes_every_small_factorization():
    for name, spec in SMALL_GRAPHS.items():
        _, factorizations = small_graph_members(name)
        assert factorizations
        for fact in factorizations:
            assert _is_factorization(fact, degree(spec), _row_sets(spec))


def test_check_partition_accepts_the_reference_build(l61_cert):
    report = check_partition(l61_cert)
    assert report.ok and report.n_parts == 53 and report.n_matchings == 265
    assert report.summary() == "PASS: 53 parts, 265 matchings, 0 violation(s)"


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


def test_completeness_by_count_needs_no_enumeration(l61_cert, monkeypatch):
    def refuse(spec):
        raise AssertionError("a valid complete certificate must not enumerate")

    monkeypatch.setattr(verifier, "enumerate_matchings", refuse)
    assert check_partition(l61_cert).ok


def test_completeness_names_extra_members_of_a_bad_part(l61_cert):
    """A non-matching member fails its part and is also reported as extra."""
    parts = [list(p) for p in l61_cert.parts]
    parts[0][0] = tuple(range(1, 7))  # the identity uses every hole edge
    report = check_partition(make_certificate(l61_cert.graph, parts, complete=True))
    assert not report.ok
    assert {"not_matching", "missing", "extra"} <= kinds(report.violations)


def test_check_partition_builds_the_row_sets_once(l61_cert, monkeypatch):
    """A part that fails is worded against the row sets the whole check
    shares, not against its own copy."""
    calls = []
    real = verifier._row_sets
    monkeypatch.setattr(verifier, "_row_sets", lambda spec: calls.append(spec) or real(spec))
    short = tuple(part[:-1] for part in l61_cert.parts)
    report = check_partition(PartitionCertificate(l61_cert.graph, False, short))
    assert {v.part for v in report.violations} == set(range(53))
    assert kinds(report.violations) == {"size"}
    assert len(calls) == 1


def block_diagonal_parts(blocks):
    """The graph of `blocks` diagonal 2x2 all-ones blocks and its partition.

    Every matching picks I2 or R2 per block; a part pairs a matching with
    its flip in every block.
    """
    n = 2 * blocks
    graph = from_matrix(
        ["".join("1" if j // 2 == i // 2 else "0" for j in range(n)) for i in range(n)]
    )

    def matching(bits):
        images = []
        for k in range(blocks):
            low, high = 2 * k + 1, 2 * k + 2
            images.extend((high, low) if bits >> k & 1 else (low, high))
        return tuple(images)

    full = (1 << blocks) - 1
    return graph, [(matching(b), matching(b ^ full)) for b in range(1 << (blocks - 1))]


def test_completeness_of_a_large_sparse_matrix_is_cheap():
    """n = 26 with 8192 matchings: Ryser's permanent would take about a
    minute here, while counting up to the members takes milliseconds."""
    graph, parts = block_diagonal_parts(13)
    start = time.perf_counter()
    report = check_partition(make_certificate(graph, parts, complete=True))
    assert report.ok and report.n_matchings == 8192
    assert time.perf_counter() - start < 10

    report = check_partition(make_certificate(graph, parts[1:], complete=True))
    assert [str(v) for v in report.violations] == [
        f"missing: matching {list(p)} uncovered" for p in sorted(parts[0])
    ]


def cyclic_part(n):
    """The n cyclic shifts of 1..n: one 1-factorization of K_{n,n}."""
    return [tuple((i + k) % n + 1 for i in range(n)) for k in range(n)]


@pytest.mark.parametrize("kind", ["L", "matrix"])
def test_missing_matchings_of_a_huge_graph_are_capped(kind):
    """K_{11,11} has 39916800 matchings; a complete claim holding one part
    names the first 100 missing ones and sums up the rest in one line."""
    n = 11
    graph = l_graph(0, n=n) if kind == "L" else from_matrix(["1" * n] * n)
    part = cyclic_part(n)
    start = time.perf_counter()
    report = check_partition(make_certificate(graph, [part], complete=True))
    assert time.perf_counter() - start < 5
    assert not report.ok and kinds(report.violations) == {"missing"}
    first = [p for p in islice(permutations(range(1, n + 1)), 200) if p not in part][:100]
    lines = [str(v) for v in report.violations]
    assert lines[:100] == [f"missing: matching {list(p)} uncovered" for p in first]
    count = "39916689 " if kind == "L" else ""
    assert lines[100:] == [
        f"missing: {count}more matchings uncovered; only the first 100 are named"
    ]


@pytest.mark.parametrize("dropped, named, summary", [(50, 100, False), (51, 100, True)])
def test_missing_cap_boundary(dropped, named, summary):
    """100 missing matchings are all named; 102 get the summary line."""
    graph, parts = block_diagonal_parts(8)
    report = check_partition(make_certificate(graph, parts[dropped:], complete=True))
    lines = [str(v) for v in report.violations]
    want = sorted(m for part in parts[:dropped] for m in part)[:named]
    assert lines[:named] == [f"missing: matching {list(p)} uncovered" for p in want]
    assert lines[named:] == (
        ["missing: more matchings uncovered; only the first 100 are named"] if summary else []
    )


# L(1, 4)'s partition with a member repeated inside part 0, a member of
# part 0 repeated in part 1, and both at once (part 2 a copy of part 0);
# the lines are those the per-member disjointness loop wrote, in its order
A, B, C = (tuple(part) for part in l41_table())
REPEATS = {
    "within": (
        [(A[0], A[0], A[2]), B, C],
        [
            "duplicate [part 0, member 1]: same matching as member 0",
            "missing: matching [3, 4, 2, 1] uncovered",
        ],
    ),
    "across": (
        [A, (A[1], B[1], B[2]), C],
        [
            "coverage [part 1]: edge (3,1) covered 0 times, expected 1",
            "coverage [part 1]: edge (3,2) covered 2 times, expected 1",
            "coverage [part 1]: edge (4,1) covered 2 times, expected 1",
            "coverage [part 1]: edge (4,2) covered 0 times, expected 1",
            "overlap [part 1]: matching [3, 4, 2, 1] also in part 0",
            "missing: matching [3, 4, 1, 2] uncovered",
        ],
    ),
    "both": (
        [(A[0], A[0], A[2]), (A[0], B[1], B[2]), A],
        [
            "duplicate [part 0, member 1]: same matching as member 0",
            "coverage [part 1]: edge (1,2) covered 2 times, expected 1",
            "coverage [part 1]: edge (1,3) covered 0 times, expected 1",
            "coverage [part 1]: edge (2,1) covered 2 times, expected 1",
            "coverage [part 1]: edge (2,4) covered 0 times, expected 1",
            "coverage [part 1]: edge (3,1) covered 0 times, expected 1",
            "coverage [part 1]: edge (3,4) covered 2 times, expected 1",
            "coverage [part 1]: edge (4,2) covered 0 times, expected 1",
            "coverage [part 1]: edge (4,3) covered 2 times, expected 1",
            "overlap [part 1]: matching [2, 1, 4, 3] also in part 0",
            "overlap [part 2]: matching [2, 1, 4, 3] also in part 0",
            "overlap [part 2]: matching [4, 3, 1, 2] also in part 0",
            "missing: matching [2, 4, 1, 3] uncovered",
            "missing: matching [3, 1, 4, 2] uncovered",
            "missing: matching [3, 4, 1, 2] uncovered",
            "missing: matching [4, 3, 2, 1] uncovered",
        ],
    ),
}


@pytest.mark.parametrize("case", REPEATS)
@pytest.mark.parametrize("complete", [True, False])
def test_repeated_members_are_worded_in_order(case, complete):
    parts, lines = REPEATS[case]
    cert = PartitionCertificate(l_graph(1, 4), complete, tuple(parts))
    report = check_partition(cert)
    want = [ln for ln in lines if complete or not ln.startswith("missing")]
    assert [str(v) for v in report.violations] == want
    assert report.summary() == f"FAIL: 3 parts, 9 matchings, {len(want)} violation(s)"


@pytest.mark.parametrize("target", ["l61", "knn:5", "l2nn:3"])
def test_repeats_are_found_in_any_member_order(target):
    """Repeats are found, and the report is the one the same parts give with
    their members in canonical order, but for the order of its lines: a
    part's repeats are worded in its member order."""
    cert = BUILDERS[target]()
    rng = random.Random(target)
    canonical = list(cert.parts)
    shuffled = [tuple(rng.sample(part, len(part))) for part in canonical]
    cases = [
        canonical,
        shuffled,
        [*canonical, canonical[0][::-1]],  # the repeats sit at other indexes
        [*shuffled, shuffled[-1]],
        canonical[1:],
    ]
    for parts in cases:
        in_order = tuple(tuple(sorted(part)) for part in parts)
        for complete in (True, False):
            claim = PartitionCertificate(cert.graph, complete, tuple(parts))
            report = check_partition(claim)
            reference = check_partition(PartitionCertificate(cert.graph, complete, in_order))
            assert report.summary() == reference.summary()
            assert sorted(map(str, report.violations)) == sorted(map(str, reference.violations))
            repeats = len(parts) > len(canonical)
            assert report.ok == (not repeats and (len(parts) == len(canonical) or not complete))
            assert ("overlap" in kinds(report.violations)) == repeats


def test_swapped_members_fail_two_parts(l61_cert):
    parts = [list(p) for p in l61_cert.parts]
    parts[0][0], parts[1][0] = parts[1][0], parts[0][0]
    report = check_partition(make_certificate(l61_cert.graph, parts, complete=True))
    assert not report.ok
    assert kinds(report.violations) == {"coverage"}
    assert {v.part for v in report.violations} == {0, 1}


# The gated builders, each with a part builder it calls by module global.
GATED_BUILDS = {
    "l61": ("construct_l61", "build_t1", "build_l61"),
    "l82": ("construct_l82", "build_type3", "build_l82"),
}

# Swaps member 1 of the first two parts a part builder returns, runs the
# partition builder and prints the RuntimeError it raises.
SWAP_SCRIPT = """
import sys
from importlib import import_module

module = import_module("perfpart." + sys.argv[1])
build_parts = getattr(module, sys.argv[2])


def swapped():
    parts = [list(part) for part in build_parts()]
    parts[0][1], parts[1][1] = parts[1][1], parts[0][1]
    return parts


setattr(module, sys.argv[2], swapped)
try:
    getattr(module, sys.argv[3])()
except RuntimeError as exc:
    print(f"debug={__debug__} {exc}")
"""

GATE_ERROR = (
    r"build fails verification: \d+ violation\(s\), "
    r"first coverage \[part \d+\]: edge \(\d+,\d+\) covered \d times, expected 1"
)


@pytest.mark.parametrize("target", GATED_BUILDS)
def test_a_build_that_is_no_partition_raises(target, monkeypatch):
    """Two parts that trade a member keep every class whole, so no per-type
    assert sees it; the check of the whole partition does."""
    module, parts_builder, builder = GATED_BUILDS[target]
    module = importlib.import_module(f"perfpart.{module}")
    build_parts = getattr(module, parts_builder)

    def swapped():
        parts = [list(part) for part in build_parts()]
        parts[0][1], parts[1][1] = parts[1][1], parts[0][1]
        return parts

    monkeypatch.setattr(module, parts_builder, swapped)
    with pytest.raises(RuntimeError, match=GATE_ERROR):
        getattr(module, builder)()


@pytest.mark.parametrize("target", GATED_BUILDS)
def test_a_build_that_is_no_partition_raises_under_optimize(target):
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SWAP_SCRIPT, *GATED_BUILDS[target]],
        capture_output=True,
        text=True,
        check=False,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(f"debug=False {GATE_ERROR}\n", proc.stdout)


def test_json_round_trip_for_both_graph_kinds(l61_cert):
    back = certificate_from_json(certificate_to_json(l61_cert))
    assert back == l61_cert

    g = from_matrix(["011", "101", "110"])
    cert = make_certificate(g, [[(2, 3, 1), (3, 1, 2)]], complete=False)
    back = certificate_from_json(certificate_to_json(cert))
    assert back == cert and back.graph.kind == "matrix"


def corruptions(obj: dict):
    """Each corruption of the certificate JSON obj that loading must refuse,
    with the error's wording: obj's members are 1-based image lists, the
    second image of its first member being 1."""
    yield {k: v for k, v in obj.items() if k != "parts"}, "not a certificate"
    yield {**obj, "degree": 4}, "degree"
    yield {**obj, "n": 7}, "contradicts"
    yield {**obj, "graph": {"kind": "mystery"}}, "kind"
    first = obj["parts"][0]
    for bad in (
        [[2.5, *first[0][1:]], *first[1:]],
        [[str(x) for x in p] for p in first],
        [[first[0][0], True, *first[0][2:]], *first[1:]],  # bool is an int subclass
    ):
        yield {**obj, "parts": [bad, *obj["parts"][1:]]}, "not a certificate"
    yield {**obj, "complete": "false"}, "complete must be true or false"
    # a JSON object where an array belongs, which tuple() would read as the
    # tuple of its keys: parts {} as 0 parts, a part or member {} as empty
    yield {**obj, "complete": False, "parts": {}}, "not a certificate: parts must be an array"
    yield {**obj, "parts": [{}, *obj["parts"][1:]]}, "not a certificate: part 0 must be"
    yield (
        {**obj, "parts": [[first[0], {}, *first[2:]], *obj["parts"][1:]]},
        "not a certificate: part 0 member 1 must be an array",
    )
    # header numbers are exact integers too (6.0 == 6 and True == 1); the graph is an object
    for bad in (
        {"n": 6.0},
        {"degree": 5.0},
        {"graph": {"kind": "L", "r": True, "m": 6}},
        {"graph": {"kind": "L", "r": 1, "m": 6.0}},
        {"graph": {"kind": "L", "r": 1, "m": True}},
        {"graph": {"kind": "L", "r": "1", "m": 6}},
        {"graph": []},
    ):
        yield {**obj, **bad}, "not a certificate"
    # matrix rows are '0'/'1' strings: numbers, booleans and cell lists once
    # read as bitmasks or cells and passed
    k22 = certificate_to_json(
        make_certificate(from_matrix(["11", "11"]), [[(1, 2), (2, 1)]], complete=True)
    )
    assert certificate_from_json(k22).graph.rows == (0b11, 0b11)
    for rows in ([[1.0, 0], [0, True]], [1, 2], [True, 2], [[1.0, 1], [1, 1]], "1"):
        yield {**k22, "graph": {"kind": "matrix", "rows": rows}}, "not a certificate"


def test_json_rejects_corruption(l61_cert):
    obj = certificate_to_json(l61_cert)
    assert obj["parts"][0][0][1] == 1
    for bad, words in corruptions(obj):
        with pytest.raises(ValueError, match=words):
            certificate_from_json(bad)


def verify_accepts(obj: dict) -> bool:
    """The verdict of perfpart verify on a certificate's JSON."""
    try:
        return check_partition(certificate_from_json(obj)).ok
    except ValueError:
        return False


def as_read(obj: dict) -> dict:
    """obj as json.load reads it back from a file: tuples become lists."""
    return json.loads(json.dumps(obj))


def test_independent_check_rejects_each_corruption(l61_cert):
    for bad, _ in corruptions(certificate_to_json(l61_cert)):
        assert not verify_accepts(bad)
        assert not independent_check.accepts(as_read(bad))


def test_a_file_and_an_object_load_alike(tmp_path, l61_cert):
    """load_certificate drops the parts it decoded as it reads them; the
    wording of a refusal is certificate_from_json's all the same."""
    path = tmp_path / "bad.json"
    for bad, _ in corruptions(certificate_to_json(l61_cert)):
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError) as from_file:
            load_certificate(path)
        with pytest.raises(ValueError) as from_object:
            certificate_from_json(as_read(bad))
        assert str(from_file.value) == str(from_object.value)


def test_certificate_from_json_leaves_its_argument_alone(l61_cert):
    obj = certificate_to_json(l61_cert)
    for arg in (obj, as_read(obj), *(bad for bad, _ in corruptions(obj))):
        before = copy.deepcopy(arg)
        try:
            certificate_from_json(arg)
        except ValueError:
            pass
        assert arg == before


BUILDERS = {
    "l61": build_l61,
    "l82": build_l82,
    **{f"knn:{n}": partial(knn_partition, n) for n in range(1, 9)},
    **{f"l2nn:{n}": partial(l2nn_partition, n) for n in range(1, 6)},
}


@pytest.mark.parametrize("target", BUILDERS)
def test_independent_check_agrees_on_every_built_certificate(target):
    cert = BUILDERS[target]()
    obj = as_read(certificate_to_json(cert))
    assert independent_check.accepts(obj) == verify_accepts(obj) is True
    # the partition less its first part: complete is then a false claim
    partial_obj = {**obj, "parts": obj["parts"][1:]}
    for complete in (True, False):
        claim = {**partial_obj, "complete": complete}
        assert independent_check.accepts(claim) == verify_accepts(claim) == (not complete)


def test_independent_check_agrees_on_tampered_parts(l61_cert):
    swapped = [list(p) for p in l61_cert.parts]
    swapped[0][0], swapped[1][0] = swapped[1][0], swapped[0][0]
    repeated = [*l61_cert.parts[:2], l61_cert.parts[0]]  # each part is valid
    for parts in (swapped, repeated):
        cert = PartitionCertificate(l61_cert.graph, False, tuple(map(tuple, parts)))
        obj = as_read(certificate_to_json(cert))
        assert independent_check.accepts(obj) == verify_accepts(obj) is False


def row_orbit(p, d, size):
    """The sorted members p o sigma^t, t = 0..d-1, where sigma rotates every
    block of size consecutive rows by one row."""
    n = len(p)
    return tuple(
        sorted(
            tuple(p[b + (k + t) % size] for b in range(0, n, size) for k in range(size))
            for t in range(d)
        )
    )


def orbit_test_cases(cert):
    """(name, parts, complete): cert as built, then under each corruption."""
    parts = list(cert.parts)
    n, d = cert.n, len(parts[0])
    size = d if n % d == 0 else n  # a graph with no blocks of d rows gets one block
    p = parts[0][0]
    yield "as built", parts, True
    yield "incomplete", parts, False
    yield "repeated", [*parts, parts[0]], True
    yield "reversed", [parts[0][::-1], *parts[1:]], True
    yield "dropped", parts[1:], True
    if len(parts) > 1:
        a, b = list(parts[0]), list(parts[1])
        a[-1], b[-1] = b[-1], a[-1]
        yield "swapped", [tuple(a), tuple(b), *parts[2:]], True
    if n > 1:
        doubled = (p[0], p[0], *p[2:])  # rows 1 and 2 share an image
        yield "orbit of a non-matching", [row_orbit(doubled, d, size), *parts[1:]], True
    outside = (n + 1, *p[1:])
    yield "orbit with an image outside 1..n", [row_orbit(outside, d, size), *parts[1:]], True
    r = cert.graph.r
    if cert.graph.m == 2 and r > 1:
        # the top block of every member turned by one row: the orbit of
        # another part, whose first member it shares
        top = tuple(sorted(q[1:r] + q[:1] + q[r:] for q in parts[0]))
        yield "top block rotated", [top, *parts[1:]], True


def k55_search_cert():
    k55 = from_matrix(["11111"] * 5)
    return make_certificate(k55, find_perfect_partition(k55), complete=True)


ORBIT_TEST_BUILDS = {
    **{f"knn:{n}": partial(knn_partition, n) for n in range(1, 8)},
    **{f"l2nn:{n}": partial(l2nn_partition, n) for n in range(1, 5)},
    "k55 search": k55_search_cert,
    "l82": build_l82,
    "l61": build_l61,
}


@pytest.mark.parametrize("target", ORBIT_TEST_BUILDS)
def test_the_orbit_test_and_the_general_path_agree(target, monkeypatch):
    """Every report, passing or not, is the one the general path gives
    with the orbit test turned off."""
    cert = ORBIT_TEST_BUILDS[target]()
    for name, parts, complete in orbit_test_cases(cert):
        claim = PartitionCertificate(cert.graph, complete, tuple(parts))
        with monkeypatch.context() as patch:
            patch.setattr(verifier, "_are_row_orbits", lambda parts, d, rows: False)
            general = check_partition(claim)
        report = check_partition(claim)
        assert report == general, name
        assert report.ok == (name in ("as built", "incomplete", "reversed")), name


def general_path_calls(monkeypatch):
    """The names of the general path's per-part tests, one entry per call."""
    calls = []
    real = verifier._is_factorization
    monkeypatch.setattr(
        verifier, "_is_factorization", lambda *args: calls.append("_is_factorization") or real(*args)
    )
    return calls


@pytest.mark.parametrize(
    "target, orbits", [("knn:8", True), ("l2nn:5", True), ("l82", False), ("l61", False)]
)
def test_orbit_certificates_skip_the_general_path(target, orbits, monkeypatch):
    cert = knn8_cert() if target == "knn:8" else BUILDERS[target]()
    calls = general_path_calls(monkeypatch)
    assert check_partition(cert).ok
    assert set(calls) == (set() if orbits else {"_is_factorization"})


def interleaved_l2nn2():
    """l2nn:2 with the rows of L(2, 2) in the order 1, 3, 2, 4, as a matrix:
    no block of two consecutive rows has equal rows."""
    order = (0, 2, 1, 3)
    cert = l2nn_partition(2)
    rows = row_strings(cert.graph)
    graph = from_matrix([rows[i] for i in order])
    parts = [[tuple(p[i] for i in order) for p in part] for part in cert.parts]
    return make_certificate(graph, parts, complete=True)


@pytest.mark.parametrize(
    "cert, orbits",
    [
        (knn_partition(1), False),  # d = 1
        (l2nn_partition(1), False),  # d = 1, two rows
        (make_certificate(l_graph(2, 1), [[]], complete=True), False),  # d = 0
        (make_certificate(from_matrix(["11111"] * 5), knn_partition(5).parts, complete=True), True),
        (interleaved_l2nn2(), False),
    ],
    ids=["k11", "l12", "edgeless l21", "knn5 as a matrix", "l2nn2 interleaved"],
)
def test_the_orbit_test_at_the_edges_of_its_lemma(cert, orbits, monkeypatch):
    rows = _row_sets(cert.graph)
    assert verifier._are_row_orbits(cert.parts, degree(cert.graph), rows) == orbits
    calls = general_path_calls(monkeypatch)
    assert check_partition(cert).ok
    assert ("_is_factorization" in calls) != orbits


def test_an_orbit_on_blocks_of_unequal_rows_is_no_factorization():
    """On the 8-cycle, (2, 1, 3, 4) is a matching whose images on rows 1-2
    and 3-4 are the row sets of rows 1 and 3.  Rows 1 and 2 differ, as do
    rows 3 and 4, so rotating the blocks gives the edges (2,2) and (4,3),
    which are not in the graph."""
    c8 = from_matrix(["1100", "1010", "0011", "0101"])
    cert = PartitionCertificate(c8, False, (row_orbit((2, 1, 3, 4), 2, 2),))
    assert cert.parts == (((1, 2, 4, 3), (2, 1, 3, 4)),)
    assert not verifier._are_row_orbits(cert.parts, 2, _row_sets(c8))
    assert [str(v) for v in check_partition(cert).violations] == [
        "not_matching [part 0, member 0]: edge (2,2) absent",
        "not_matching [part 0, member 0]: edge (4,3) absent",
    ]


@lru_cache(maxsize=1)
def knn8_cert() -> PartitionCertificate:
    return knn_partition(8)


def one_shot_bytes(cert: PartitionCertificate) -> bytes:
    """The file that save_certificate writes, encoded in one call."""
    return (json.dumps(certificate_to_json(cert), check_circular=False) + "\n").encode()


def slice_edges():
    """Certificates of exactly one slice of save_certificate, and one part
    more, cut from knn:8 (5040 parts)."""
    cert = knn8_cert()
    for count in (verifier.SAVE_SLICE, verifier.SAVE_SLICE + 1):
        yield PartitionCertificate(cert.graph, False, cert.parts[:count])


@pytest.mark.parametrize("target", BUILDERS)
def test_saved_bytes_equal_the_one_shot_encoder(tmp_path, target):
    cert = BUILDERS[target]()
    save_certificate(cert, tmp_path / "cert.json")
    assert (tmp_path / "cert.json").read_bytes() == one_shot_bytes(cert)


def test_saved_bytes_equal_the_one_shot_encoder_at_the_edges(tmp_path):
    empty = make_certificate(l_graph(1, 4), [], complete=False)
    matrix = make_certificate(from_matrix(["011", "101", "110"]), [[(2, 3, 1), (3, 1, 2)]], True)
    for cert in (empty, matrix, *slice_edges()):
        save_certificate(cert, tmp_path / "cert.json")
        assert (tmp_path / "cert.json").read_bytes() == one_shot_bytes(cert)
        assert load_certificate(tmp_path / "cert.json") == cert


def tuple_bytes(parts) -> int:
    """The bytes of parts' tuples; their images are cached small ints."""
    return sys.getsizeof(parts) + sum(
        sys.getsizeof(part) + sum(map(sys.getsizeof, part)) for part in parts
    )


def traced_peak(call) -> tuple[object, int]:
    """call() and the peak of the bytes it allocated, as tracemalloc counts
    them: requested bytes, whatever the allocator makes of them."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The bounds below sit between two figures measured on knn:8 with Python
# 3.11: encoding the whole file in one call peaks near 3.8 times its bytes
# and one slice at a time near 1.2; holding every decoded list until all the
# tuples exist peaks near 2.15 times the tuples' bytes and dropping each list
# as its part is read near 1.4; a list and a set of every member come to 0.67
# times the tuples' bytes and one set per member index to 0.3.


def test_save_holds_one_slice_of_text(tmp_path):
    cert, path = knn8_cert(), tmp_path / "knn8.json"
    _, peak = traced_peak(lambda: save_certificate(cert, path))
    assert peak < 2.0 * path.stat().st_size


def test_load_drops_each_decoded_part(tmp_path):
    path = tmp_path / "knn8.json"
    save_certificate(knn8_cert(), path)
    back, peak = traced_peak(lambda: load_certificate(path))
    assert back == knn8_cert()
    assert peak < 1.75 * tuple_bytes(back.parts)


def test_check_holds_no_list_or_set_of_every_member():
    cert = knn8_cert()
    report, peak = traced_peak(lambda: check_partition(cert))
    assert report.ok
    assert peak < 0.45 * tuple_bytes(cert.parts)


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


# the 3-regular 5x5 circulant and a relabelling of it: neither is symmetric,
# and both agree with the one-search-per-matching oracle
@pytest.mark.parametrize(
    "rows", [CIRCULANT_ROWS, ["11001", "10101", "00111", "01110", "11010"]]
)
def test_extendability_of_a_non_symmetric_graph_takes_no_inverses(rows):
    spec = from_matrix(rows)
    report = check_extendability(spec)
    want = reference_extendability(spec)
    assert (report.total, report.blocked) == (want.total, want.blocked) == (13, [])


def test_extendability_blocks_every_matching_of_a_graph_that_is_not_regular():
    # a 1-factorization needs a regular graph, so no matching extends
    spec = from_matrix(["110", "011", "111"])
    report = check_extendability(spec)
    assert report.blocked == list(enumerate_matchings(spec)) == [(1, 2, 3), (1, 3, 2), (2, 3, 1)]
    assert report.total == 3


def test_verifier_imports_nothing_from_search():
    tree = ast.parse(Path(verifier.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    assert "perfpart.matchings" in names or "matchings" in names
    assert not [name for name in names if "search" in name.split(".")]


@st.composite
def regular_graphs(draw):
    """A d-regular bipartite graph on n <= 6: d shifted diagonals, rows and
    columns relabelled."""
    n = draw(st.integers(1, 6))
    shifts = draw(st.sets(st.integers(0, n - 1), min_size=1))
    row_of = draw(st.permutations(range(n)))
    col_of = draw(st.permutations(range(n)))
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for s in shifts:
            rows[row_of[i]][col_of[(i + s) % n]] = "1"
    return from_matrix(["".join(row) for row in rows])


SMALL_REGULAR = [l_graph(1, 4), l_graph(3, 2), l_graph(2, 3), l_graph(0, n=4)]


@st.composite
def zero_one_matrices(draw):
    """Any n x n 0/1 matrix with n <= 5, regular or not."""
    n = draw(st.integers(1, 5))
    return GraphSpec(tuple(draw(st.lists(st.integers(0, 2**n - 1), min_size=n, max_size=n))))


@given(st.sampled_from(SMALL_REGULAR) | regular_graphs() | zero_one_matrices())
def test_extendability_matches_one_search_per_matching(spec):
    report = check_extendability(spec)
    want = reference_extendability(spec)
    assert (report.total, report.blocked) == (want.total, want.blocked)


def spy_on_enumeration(monkeypatch, *modules):
    yielded = []

    def spy(spec):
        for p in enumerate_matchings(spec):
            yielded.append(p)
            yield p

    for module in modules:
        monkeypatch.setattr(module, "enumerate_matchings", spy)
    return yielded


@pytest.mark.parametrize(
    "spec, total", [(l_graph(1, 6), 265), (l_graph(0, n=6), 720)], ids=["l16", "k66"]
)
def test_extendability_of_an_l_graph_lists_no_matching(spec, total, monkeypatch):
    yielded = spy_on_enumeration(monkeypatch, verifier, counting)
    report = check_extendability(spec)
    assert (report.total, report.blocked) == (total, [])
    assert yielded == []


def test_extendability_of_a_matrix_enumerates_every_matching(monkeypatch):
    # the same K_{6,6} with no closed form: its count is enumerated
    yielded = spy_on_enumeration(monkeypatch, counting)
    report = check_extendability(from_matrix(["111111"] * 6))
    assert (report.total, report.blocked) == (720, [])
    assert len(yielded) == 720


@pytest.mark.parametrize("spec, total", [(l_graph(1, 8), 14833), (l_graph(3, 3), 12096)])
def test_extendability_of_the_largest_graphs_under_the_bound(spec, total):
    report = check_extendability(spec)
    assert report.total == total and report.all_extendable
