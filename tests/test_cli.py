"""End-to-end exercises of the command-line interface."""

import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter

import pytest

from perfpart.cli import main
from perfpart.construct_group import knn_partition
from perfpart.graph_model import from_matrix, l_graph, row_strings
from perfpart.verifier import ExtendabilityReport, make_certificate, save_certificate

CIRCULANT_ROWS = "11100\n01110\n00111\n10011\n11001\n"


@pytest.fixture()
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    return invoke


@pytest.fixture()
def circulant_file(tmp_path):
    path = tmp_path / "circulant.txt"
    path.write_text(CIRCULANT_ROWS)
    return str(path)


def usage_error(*argv):
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert err.value.code == 2


def test_count_human_plus_json(run):
    code, out = run("count", "--r", "1", "--m", "6", "--oracle")
    assert code == 0
    human, payload_line = out.strip().splitlines()
    assert human == "n=6 matchings=265 degree=5 divisible=yes"
    payload = json.loads(payload_line)
    assert payload["count"] == payload["rook_count"] == payload["oracle_count"] == 265
    assert payload["degree"] == 5 and payload["divisible"] is True


def test_count_json_only(run):
    code, out = run("count", "--r", "0", "--n", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 24 and payload["m"] is None
    assert payload["rook_count"] == 24 and payload["oracle_count"] is None


def test_count_matrix_runs_the_permanent(run, circulant_file):
    code, out = run("count", "--matrix", circulant_file, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == payload["oracle_count"] == 13
    assert payload["rook_count"] is None
    assert payload["degree"] == 3 and payload["divisible"] is False


def test_count_usage_errors(circulant_file):
    usage_error("count")
    usage_error("count", "--matrix", circulant_file, "--r", "1")
    usage_error("count", "--r", "1")  # missing m
    usage_error("count", "--matrix", "/no/such/file")
    usage_error("count", "--r", "0", "--m", "3", "--n", "4")  # K_{n,n} has no m
    usage_error("check", "--r", "0", "--m", "9", "--n", "4")


def test_count_oracle_fails_when_the_counts_disagree(run, monkeypatch):
    """--oracle compares the closed form with the permanent, not just prints both."""
    monkeypatch.setattr("perfpart.counting.permanent_of_spec", lambda spec: 266)
    code, out = run("count", "--r", "1", "--m", "6", "--oracle")
    assert code == 1
    assert out.splitlines()[-1] == "FAIL: closed form 265 != permanent 266"
    code, out = run("count", "--r", "1", "--m", "6", "--oracle", "--json")
    assert code == 1 and json.loads(out)["oracle_count"] == 266


def test_count_bounds_the_permanent(tmp_path):
    """Ryser's 2^n permanent is refused above n = 20, before any work."""
    ones = tmp_path / "ones21.txt"
    ones.write_text(("1" * 21 + "\n") * 21)
    for argv in (("--matrix", str(ones)), ("--r", "1", "--m", "21", "--oracle")):
        start = time.perf_counter()
        usage_error("count", *argv)
        assert time.perf_counter() - start < 1


def test_enumerate_plain_and_classified(run, tmp_path):
    code, out = run("enumerate", "--r", "1", "--n", "4", "--m", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9 and lines[0] == "(1 2)(3 4)"

    code, out = run("enumerate", "--r", "1", "--m", "6", "--classify")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 265
    assert lines[0].split("\t") == ["(1 2)(3 4)(5 6)", "C222"]

    code, out = run("enumerate", "--r", "1", "--m", "4", "--json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 9 and records[0] == {"cycles": "(1 2)(3 4)"}

    code, out = run("enumerate", "--r", "2", "--m", "4", "--classify", "--json")
    assert code == 0
    records = json.loads(out)
    assert records[0] == {"cycles": "(1 3)(2 4)(5 7)(6 8)", "class": "S4"}
    census = Counter(rec["class"] for rec in records)
    assert census == {"S0": 2304, "S1": 1536, "S2": 768, "S4": 144}

    # seven full rows, then seven single-column rows: placed sparsest first
    path = tmp_path / "sparse-last.txt"
    rows = ["1" * 14] * 7 + ["0" * c + "1" + "0" * (13 - c) for c in range(7, 14)]
    path.write_text("".join(row + "\n" for row in rows))
    code, out = run("enumerate", "--matrix", str(path), "--json")
    assert code == 0 and len(json.loads(out)) == 5040


def test_enumerate_classify_needs_a_known_family():
    usage_error("enumerate", "--r", "1", "--m", "4", "--classify")


def test_graphs_over_the_matching_bound_are_refused_at_once(tmp_path):
    """enumerate, search and check list every matching before any budgeted
    node; K_{9,9} and K_{10,10} stop with a usage error instead of running on."""
    k10 = tmp_path / "k10.txt"
    k10.write_text(("1" * 10 + "\n") * 10)
    for argv in (
        ("search", "--matrix", str(k10), "--budget", "10"),
        ("check", "--r", "0", "--n", "9"),
        ("enumerate", "--r", "0", "--n", "10"),
    ):
        start = time.perf_counter()
        usage_error(*argv)
        assert time.perf_counter() - start < 5


def test_a_non_regular_matrix_is_a_usage_error(run, tmp_path, capsys):
    """count, search and check need one degree; enumerate lists any matrix."""
    path = tmp_path / "irregular.txt"
    path.write_text("110\n011\n111\n")
    for command in ("count", "search", "check"):
        usage_error(command, "--matrix", str(path))
        assert "matrix is not regular" in capsys.readouterr().err
    code, out = run("enumerate", "--matrix", str(path))
    assert code == 0 and out.split() == ["()", "(2", "3)", "(1", "2", "3)"]


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "--matrix", "k10.txt", "--budget", "10"),
        ("check", "--matrix", "irregular.txt"),
        ("count", "--r", "0", "--m", "3", "--n", "4"),
        ("count", "--matrix", "irregular.txt", "--m", "3"),
        ("count", "--r", "1", "--m", "21", "--oracle"),
        ("enumerate", "--r", "1", "--m", "4", "--classify"),
        ("construct", "--target", "knn:x"),
        ("construct", "--target", "l82", "--seed", "(1 2 3)(4 5 6)"),
        ("search", "--target", "l41", "--out", "."),
        ("check", "--r", "1", "--m", "4", "--budget", "1"),
    ],
    ids=[
        "matching-bound",
        "not-regular",
        "graph-flags",
        "matrix-flags",
        "permanent-bound",
        "classifier",
        "bad-target",
        "target-flag",
        "unwritable-out",
        "unknown-flag",
    ],
)
def test_a_usage_error_prints_its_subcommands_usage(tmp_path, monkeypatch, capsys, argv):
    """Errors the CLI words itself show the usage line argparse's own would."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k10.txt").write_text(("1" * 10 + "\n") * 10)
    (tmp_path / "irregular.txt").write_text("110\n011\n111\n")
    usage_error(*argv)
    assert capsys.readouterr().err.startswith(f"usage: perfpart {argv[0]} ")


def test_construct_l61_golden_then_verify(run, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run("construct", "--target", "l61", "--golden")
    assert code == 0
    assert "wrote l61.json: 53 parts of 5" in out
    assert "golden: all 53 parts match the reference tables" in out
    assert (tmp_path / "l61.json").exists()

    code, out = run("verify", "l61.json")
    assert code == 0
    assert out.startswith("PASS: 53 parts, 265 matchings")


def test_construct_other_axis_fails_golden(run, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run("construct", "--target", "l61", "--y0", "2", "--golden", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["golden_ok"] is False
    assert payload["golden_missing"] and payload["golden_unexpected"]

    # without the golden diff the same build is still a valid certificate
    code, out = run("verify", "l61.json", "--json")
    assert code == 0 and json.loads(out)["ok"] is True

    # so is one from another seed and its other pattern
    code, _ = run(
        "construct", "--target", "l61", "--y0", "2",
        "--seed", "(1 2 3)(4 5 6)", "--pattern", "(1 2 3)(4 6 5)", "--out", "axis2.json",
    )
    assert code == 0
    code, out = run("verify", "axis2.json", "--json")
    assert code == 0 and json.loads(out)["ok"] is True


def test_construct_l82_audit(run, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run("construct", "--target", "l82", "--audit")
    assert code == 0
    assert out.splitlines() == [
        "wrote l82.json: 792 parts of 6",
        "audit type1_parts = 384",
        "audit type2_parts = 384",
        "audit type3_parts = 24",
        "audit S0_1 = 768",
        "audit S0_rest = 1536",
        "audit S1 = 1536",
        "audit S2 = 768",
        "audit S4 = 144",
    ]
    code, out = run("construct", "--target", "l82", "--audit", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["parts"] == 792 and payload["part_size"] == 6
    assert payload["audit"] == {
        "type1_parts": 384,
        "type2_parts": 384,
        "type3_parts": 24,
        "S0_1": 768,
        "S0_rest": 1536,
        "S1": 1536,
        "S2": 768,
        "S4": 144,
    }


def test_construct_group_targets(run, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run("construct", "--target", "knn:4")
    assert code == 0 and "wrote knn4.json: 6 parts of 4" in out
    code, out = run("verify", "knn4.json")
    assert code == 0

    code, out = run("construct", "--target", "l2nn:3", "--out", "two_holes.json")
    assert code == 0 and "wrote two_holes.json: 12 parts of 3" in out
    code, out = run("verify", "two_holes.json")
    assert code == 0


def test_construct_usage_errors():
    usage_error("construct", "--target", "nope")
    usage_error("construct", "--target", "knn:x")
    usage_error("construct", "--target", "l61", "--audit")
    usage_error("construct", "--target", "l82", "--golden")
    usage_error("construct", "--target", "knn:3", "--y0", "2")
    usage_error("construct", "--target", "l61", "--seed", "(1 2)(3 4)")
    usage_error("construct", "--target", "l82", "--pattern", "(1 2 3)(4 6 5)")
    usage_error("construct", "--target", "knn:3", "--pattern", "(1 2 3)(4 6 5)")
    usage_error("construct", "--target", "l82", "--seed", "(1 2 3)(4 5 6)")
    usage_error("construct", "--target", "l2nn:2", "--audit")


def test_construct_takes_an_empty_seed_as_not_given(run, tmp_path):
    """An empty --seed or --pattern means the flag was not given."""
    path = tmp_path / "l61.json"
    code, _ = run(
        "construct", "--target", "l61", "--seed", "", "--pattern", "", "--out", str(path)
    )
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CERT_SHA256["l61"]


def test_construct_rejects_oversized_group_targets():
    """knn:10 would build 10! matchings and l2nn:7 (7!)^2; both stop at once."""
    start = time.perf_counter()
    usage_error("construct", "--target", "knn:10")
    usage_error("construct", "--target", "l2nn:7")
    usage_error("construct", "--target", "knn:11")
    assert time.perf_counter() - start < 5


def test_out_to_an_unwritable_path_is_a_usage_error(tmp_path, capsys):
    out = str(tmp_path / "no-such-dir" / "x.json")
    for argv in (("construct", "--target", "l61"), ("search", "--target", "l41")):
        usage_error(*argv, "--out", out)
        assert f"error: cannot write {out}: " in capsys.readouterr().err


def test_certificates_are_byte_stable(run, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run("construct", "--target", "l61", "--out", "a.json")
    run("construct", "--target", "l61", "--out", "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


# sha256 of each certificate `construct --target T` writes; the benchmark pins
# the same values, and a rewrite of a builder must leave them unchanged
CERT_SHA256 = {
    "l61": "f9abfd93059e1576bbfc25312799bc3d909b331006c35ed13d82a0969a298488",
    "l82": "62c0a69453e3b6782de2644ca4938c77d8939846cdc6dfe60f13c95f4b42af5f",
    "knn:8": "adfc26e04b9f98142da8b5c304fa00b4440301172fde2adcbca9d2aac26010fc",
    "l2nn:5": "2b06a7bbd6bf5cdba299999f71c80c7ada71db654883e7008a60dd70b03e6c90",
}


@pytest.mark.parametrize("target", CERT_SHA256)
def test_certificate_bytes_are_pinned(run, tmp_path, target):
    path = tmp_path / "cert.json"
    code, _ = run("construct", "--target", target, "--out", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CERT_SHA256[target]
    code, out = run("verify", str(path))
    assert code == 0 and out.startswith("PASS: ")


def test_verify_detects_tampering(run, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run("construct", "--target", "l61")
    payload = json.loads((tmp_path / "l61.json").read_text())
    parts = payload["parts"]
    parts[0][0], parts[1][0] = parts[1][0], parts[0][0]
    (tmp_path / "bad.json").write_text(json.dumps(payload))

    code, out = run("verify", "bad.json")
    assert code == 1
    assert out.startswith("FAIL") and "coverage" in out

    code, out = run("verify", "bad.json", "--json")
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False and report["violations"]


def test_verify_names_the_missing_part_of_a_matrix_certificate(run, tmp_path):
    """Completeness by count falls back to enumeration to word what is missing."""
    graph = from_matrix(["1111"] * 4)
    parts = knn_partition(4).parts
    path = tmp_path / "k44.json"
    save_certificate(make_certificate(graph, parts[1:], complete=True), path)

    code, out = run("verify", str(path))
    assert code == 1
    assert out.splitlines() == [
        "FAIL: 5 parts, 20 matchings, 4 violation(s)",
        *(f"  missing: matching {list(p)} uncovered" for p in sorted(parts[0])),
    ]


def test_verify_caps_the_missing_list_of_a_huge_graph(run, tmp_path):
    """A one-part K_{11,11} certificate claiming completeness fails with 100
    named matchings and one summary line, not with a MemoryError."""
    part = [tuple((i + k) % 11 + 1 for i in range(11)) for k in range(11)]
    path = tmp_path / "k11.json"
    save_certificate(make_certificate(l_graph(0, n=11), [part], complete=True), path)

    code, out = run("verify", str(path))
    lines = out.splitlines()
    assert code == 1 and len(lines) == 102
    assert lines[0] == "FAIL: 1 parts, 11 matchings, 101 violation(s)"
    assert all(ln.startswith("  missing: matching [") for ln in lines[1:101])
    assert lines[101] == "  missing: 39916689 more matchings uncovered; only the first 100 are named"


def test_verify_unreadable_file(run, tmp_path):
    code, out = run("verify", str(tmp_path / "missing.json"))
    assert code == 1 and "unreadable certificate" in out

    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3}')
    code, out = run("verify", str(bad))
    assert code == 1 and "unreadable certificate" in out


K22_HEADER = '"n": 2, "degree": 2, "complete": true, "parts": [[[1, 2], [2, 1]]]'


def test_verify_rejects_a_float_image(run, tmp_path):
    """int() would read 2.5 as 2 and pass the certificate."""
    path = tmp_path / "l61.json"
    run("construct", "--target", "l61", "--out", str(path))
    payload = json.loads(path.read_text())
    assert payload["parts"][0][0] == [2, 1, 4, 3, 6, 5]
    payload["parts"][0][0] = [2.5, 1, 4, 3, 6, 5]
    path.write_text(json.dumps(payload))
    code, out = run("verify", str(path))
    assert code == 1 and out.startswith("FAIL: unreadable certificate")

    # matrix rows are '0'/'1' strings: [1.0, 1] was once read as the row 11
    path.write_text('{"graph": {"kind": "matrix", "rows": [[1.0, 1], [1, 1]]}, %s}' % K22_HEADER)
    code, out = run("verify", str(path))
    assert code == 1 and out.startswith("FAIL: unreadable certificate")


def test_verify_rejects_a_boolean_image(run, tmp_path):
    """JSON true is a Python bool, an int subclass equal to 1, and would pass."""
    path = tmp_path / "l61.json"
    run("construct", "--target", "l61", "--out", str(path))
    payload = json.loads(path.read_text())
    payload["parts"][0][0] = [2, True, 4, 3, 6, 5]
    path.write_text(json.dumps(payload))
    assert '[[[2, true, 4, 3, 6, 5], ' in path.read_text()
    code, out = run("verify", str(path))
    assert code == 1
    assert out == (
        "FAIL: unreadable certificate: not a certificate: "
        "'bool' object cannot be interpreted as an integer\n"
    )

    # header numbers too: a graph r of true was once read as 1 and passed
    payload = json.loads(path.read_text())
    payload["parts"][0][0] = [2, 1, 4, 3, 6, 5]
    payload["graph"]["r"] = True
    path.write_text(json.dumps(payload))
    code, out = run("verify", str(path))
    assert code == 1
    assert out == (
        "FAIL: unreadable certificate: not a certificate: r must be an integer, not True\n"
    )


@pytest.mark.parametrize(
    "text",
    [
        '{"graph": {"kind": "matrix", "rows": ["11", %s]}, %s}'
        % ("[" * 900 + "]" * 900, K22_HEADER),
        '{"graph": {"kind": "matrix", "rows": ["11", "11"]}, %s}'
        % K22_HEADER.replace('"n": 2', '"n": "%s"' % ("7" * 5000)),
        '{"graph": {"kind": "L", "r": 0}, %s}'
        % K22_HEADER.replace('"n": 2', '"n": 1%s' % ("0" * 4000)),
    ],
    ids=["nested-row", "long-string-n", "huge-n"],
)
def test_verify_echoes_a_large_bad_value_in_one_short_line(run, tmp_path, text):
    """The error once echoed the whole repr of the bad value, thousands of bytes."""
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out = run("verify", str(path))
    assert code == 1 and out.startswith("FAIL: unreadable certificate: not a certificate")
    assert len(out.splitlines()) == 1 and len(out.encode()) < 200


def test_verify_deeply_nested_json_is_unreadable(run, tmp_path, capsys):
    """json.load recurses per nesting level; 100,000 levels once ended in a traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["verify", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("FAIL: unreadable certificate: ") and err == ""
    assert len(out.splitlines()) == 1
    code, out = run("verify", "--json", str(path))
    assert code == 1
    report = json.loads(out)
    assert list(report) == ["ok", "error"] and report["ok"] is False
    assert report["error"].startswith("unreadable certificate: ")


def test_search_target_found(run, tmp_path):
    out_path = str(tmp_path / "l41.json")
    code, out = run("search", "--target", "l41", "--out", out_path)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "FOUND: 3 parts of 3"
    assert lines[1] == "  part 1: (1 2)(3 4); (1 3 2 4); (1 4 2 3)"

    code, out = run("verify", out_path)
    assert code == 0 and out.startswith("PASS: 3 parts, 9 matchings")

    # an edgeless graph has no matching: its one partition is the empty one
    edgeless = tmp_path / "zero.txt"
    edgeless.write_text("00\n00\n")
    code, out = run("search", "--matrix", str(edgeless), "--out", out_path)
    assert code == 0 and out.splitlines()[0] == "FOUND: 0 parts of 0"
    code, out = run("verify", out_path)
    assert code == 0 and out.startswith("PASS: 0 parts, 0 matchings")


def test_search_all_counts_partitions(run):
    code, out = run("search", "--target", "l41", "--all", "--json")
    assert code == 0 and json.loads(out) == {"partitions": 1}


def test_search_matrix_none_is_not_an_error(run, circulant_file):
    code, out = run("search", "--matrix", circulant_file)
    assert code == 0 and out.startswith("NONE")
    code, out = run("search", "--matrix", circulant_file, "--json")
    assert code == 0 and json.loads(out) == {"found": False}


def test_search_budget_exhaustion(run, tmp_path):
    code, out = run("search", "--target", "l62", "--budget", "3")
    assert code == 1 and out.startswith("UNDECIDED")
    # L(1, 7): row i is all ones but position i
    path = tmp_path / "l17.txt"
    path.write_text("".join("1" * i + "0" + "1" * (6 - i) + "\n" for i in range(7)))
    code, out = run("search", "--matrix", str(path), "--budget", "100000")
    assert code == 1 and out == "UNDECIDED: node budget exhausted\n"
    code, out = run("search", "--target", "l62", "--budget", "3", "--json")
    assert code == 1 and json.loads(out)["error"] == "budget exhausted"


def test_search_large_matrix_ends_in_a_verdict(run, tmp_path):
    # L(3, 3) needs 2016 parts; the search must stop on its budget, not crash
    path = tmp_path / "l33.txt"
    path.write_text("\n".join(row_strings(l_graph(3, 3))) + "\n")
    code, out = run("search", "--matrix", str(path), "--budget", "20000")
    first = out.strip().splitlines()[0]
    if code == 1:
        assert first == "UNDECIDED: node budget exhausted"
    else:
        assert code == 0 and first == "FOUND: 2016 parts of 6"


def test_search_usage_errors(circulant_file, tmp_path):
    usage_error("search")
    usage_error("search", "--target", "l99")
    usage_error("search", "--target", "l41", "--matrix", circulant_file)
    usage_error("search", "--matrix", str(tmp_path / "no-such-file.txt"))
    out = tmp_path / "all.json"
    usage_error("search", "--target", "l41", "--all", "--out", str(out))
    assert not out.exists()


def _enumerate_in_a_subprocess(tmp_path, rows):
    path = tmp_path / "rows.txt"
    path.write_text("".join(row + "\n" for row in rows))
    return subprocess.run(
        [sys.executable, "-m", "perfpart.cli", "enumerate", "--matrix", str(path), "--json"],
        capture_output=True,
        text=True,
        check=False,
        timeout=10,
    )


@pytest.mark.parametrize(
    "rows",
    [
        ["11111111111110"] * 14,  # a column no row reaches
        ["11111111111111"] * 13 + ["00000000000000"],  # a row with no edge
        ["11111111111111"] * 12 + ["10000000000000"] * 2,  # two rows share one column
    ],
    ids=["dead-column", "dead-row", "hall-violation"],
)
def test_enumerate_ends_at_once_on_a_matrix_with_no_matching(tmp_path, rows):
    # 14 rows and no matching; backtracking alone tries up to 13! placements
    proc = _enumerate_in_a_subprocess(tmp_path, rows)
    assert proc.returncode == 0
    assert proc.stdout == "[]\n"


def test_enumerate_ends_at_once_on_a_matrix_that_strands_its_last_rows(tmp_path):
    """Two sparse last rows: 2 * 12! matchings, but listed in row order the
    first row takes column 1 and every placement of rows 2-12 strands them.
    The matching bound counts with the sparse rows first and refuses it."""
    rows = ["11111111111111"] * 12 + ["11000000000000"] * 2
    proc = _enumerate_in_a_subprocess(tmp_path, rows)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "bounded to 20000 matchings" in proc.stderr


def test_check_extendability(run, circulant_file):
    code, out = run("check", "--r", "0", "--n", "3")
    assert code == 0
    assert out.strip() == "OK: all 6 matchings extend to a 1-factorization"
    for graph, total in (
        (("--r", "1", "--m", "6"), 265),
        (("--r", "2", "--m", "4"), 4752),
        (("--r", "1", "--m", "8"), 14833),
        (("--r", "3", "--m", "3"), 12096),
        (("--matrix", circulant_file), 13),
    ):
        code, out = run("check", *graph)
        assert code == 0
        assert out == f"OK: all {total} matchings extend to a 1-factorization\n"

    code, out = run("check", "--r", "1", "--m", "4", "--json")
    assert code == 0 and json.loads(out) == {"total": 9, "blocked": []}


def test_check_reports_blocked_matchings(run, monkeypatch):
    """check_extendability can report blocked matchings (every matching of a
    graph that is not regular), though check refuses every such graph; a
    stand-in report shows how the CLI words and exits on one."""
    calls = []

    def one_blocked(spec):
        calls.append(spec)
        return ExtendabilityReport(total=9, blocked=[(2, 1, 4, 3)])

    monkeypatch.setattr("perfpart.cli.check_extendability", one_blocked)
    code, out = run("check", "--r", "1", "--m", "4")
    assert code == 1
    assert out.splitlines() == ["FAIL: 1 of 9 matchings blocked", "  (1 2)(3 4)"]
    code, out = run("check", "--r", "1", "--m", "4", "--json")
    assert code == 1
    assert out == '{"blocked": ["(1 2)(3 4)"], "total": 9}\n'
    assert [(s.r, s.m) for s in calls] == [(1, 4), (1, 4)]


def test_check_of_the_largest_matrix_is_quick(run, tmp_path):
    """The 64 x 64 identity is the largest matrix from_matrix accepts; check
    counts its one matching by enumerating it."""
    path = tmp_path / "identity64.txt"
    path.write_text("".join("0" * i + "1" + "0" * (63 - i) + "\n" for i in range(64)))
    start = time.perf_counter()
    code, out = run("check", "--matrix", str(path))
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out.strip() == "OK: all 1 matchings extend to a 1-factorization"


def test_json_key_order_is_pinned(run, circulant_file, tmp_path):
    """search, enumerate and the unreadable-certificate line of verify keep
    their keys in insertion order; the other payloads sort them."""
    code, out = run("search", "--target", "l41", "--json")
    assert out == (
        '{"found": true, "parts": [[[2, 1, 4, 3], [3, 4, 2, 1], [4, 3, 1, 2]], '
        '[[2, 3, 4, 1], [3, 4, 1, 2], [4, 1, 2, 3]], '
        '[[2, 4, 1, 3], [3, 1, 4, 2], [4, 3, 2, 1]]], "out": null}\n'
    )
    code, out = run("search", "--matrix", circulant_file, "--json")
    assert out == '{"found": false}\n'
    code, out = run("search", "--target", "l62", "--budget", "3", "--json")
    assert out == '{"found": null, "error": "budget exhausted"}\n'
    code, out = run("check", "--r", "1", "--m", "4", "--json")
    assert out == '{"blocked": [], "total": 9}\n'

    code, out = run("enumerate", "--r", "1", "--m", "6", "--classify", "--json")
    assert out.startswith('[{"cycles": "(1 2)(3 4)(5 6)", "class": "C222"}, {"cycles": ')

    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3}')
    code, out = run("verify", str(bad), "--json")
    assert out == (
        '{"ok": false, "error": "unreadable certificate: not a certificate: \'graph\'"}\n'
    )


def _cli(*argv):
    return [sys.executable, "-m", "perfpart.cli", *argv]


# PYTHONUNBUFFERED turns a write to a closed pipe into a silent short write;
# without it stdout is buffered, as from a plain shell, and the write raises
BUFFERED_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--r", "1", "--m", "6"),
        ("check", "--r", "1", "--m", "6"),
        ("enumerate", "--r", "1", "--m", "6"),
    ],
    ids=["count", "check", "enumerate"],
)
def test_a_failed_stdout_write_ends_in_one_line(argv):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            _cli(*argv),
            stdout=full,
            stderr=subprocess.PIPE,
            env=BUFFERED_ENV,
            text=True,
            check=False,
            timeout=10,
        )
    assert proc.returncode == 1
    assert proc.stderr == (
        "perfpart: error: cannot write stdout: [Errno 28] No space left on device\n"
    )


def test_a_closed_pipe_ends_quietly():
    """enumerate L(1, 8) writes 14833 lines, more than a pipe holds; the
    reader closes after the first one."""
    with subprocess.Popen(
        _cli("enumerate", "--r", "1", "--m", "8"),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=BUFFERED_ENV,
    ) as proc:
        assert proc.stdout.readline() == b"(1 2)(3 4)(5 6)(7 8)\n"
        proc.stdout.close()
        assert proc.wait(timeout=10) == 0
        assert proc.stderr.read() == b""


def test_an_oserror_elsewhere_is_no_stdout_failure(monkeypatch):
    """Only the write of stdout is worded as its failure."""

    def unreadable(*args, **kwargs):
        raise OSError("no data file")

    monkeypatch.setattr("perfpart.cli.build_l61", unreadable)
    with pytest.raises(OSError, match="no data file"):
        main(["construct", "--target", "l61"])


def test_module_entry_point_runs_in_a_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "perfpart.cli", "count", "--r", "1", "--m", "4", "--json"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 9
