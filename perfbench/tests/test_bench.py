"""Tests of the benchmark itself: metric names, failure detection, relabelling.

Run from the repository root with `python3 -m pytest perfbench/tests`.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import child  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def last_json_line(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_pass_prints_every_end_to_end_metric(workload):
    result = last_json_line(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_pass_prints_every_per_layer_metric():
    result = last_json_line("extend", trace=1)
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["search.exact_cover_nodes"] == 25658
    assert metrics["construct_l82.type2_useful_ratio"] == 384 / 1536
    assert metrics["verifier.cert_bytes_knn8"] == 1058494


def swap_first_members(path: Path) -> None:
    """Exchange member 0 of part 0 with member 0 of part 1 in a certificate file."""
    cert = json.loads(path.read_text(encoding="utf-8"))
    parts = cert["parts"]
    parts[0][0], parts[1][0] = parts[1][0], parts[0][0]
    path.write_text(json.dumps(cert) + "\n", encoding="utf-8")


def test_swapped_member_raises_failed_ratio(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bench = run.Run("certify", seed=3, seconds=1)
    results = []
    for cmd in bench.commands:
        results.append(child.run_command(cmd["argv"]))
        if cmd["argv"][:3] == ["construct", "--target", "l61"]:
            swap_first_members(tmp_path / "l61.json")
    bench.judge_pass({"commands": results, "verified": {}}, tmp_path)
    assert bench.failed_ratio() > 0
    # the tampered certificate fails its sha256 and its verification; nothing else fails
    assert sorted(f.split(":")[0] for f in bench.failures) == [
        "construct --target l61 --golden",
        "verify l61.json",
    ]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabelled_matrix_keeps_its_verdict(tmp_path, monkeypatch, seed):
    monkeypatch.chdir(tmp_path)
    commands, inputs = run.make_plan("search", seed)
    assert (commands, inputs) == run.make_plan("search", seed)
    l23 = ["".join("0" if i // 2 == j // 2 else "1" for j in range(6)) for i in range(6)]
    rng = random.Random(seed)
    relabelled = run.relabel(l23, rng)
    assert relabelled != l23
    inputs["l23.txt"] = "\n".join(relabelled) + "\n"
    found_20 = {"outcomes": [{"exit": 0, "lines": ["FOUND: 20 parts of 4"], "verify": "l23.json",
                              "verify_lines": ["PASS: 20 parts, 80 matchings, 0 violation(s)"]}]}
    cases = [(cmd, cmd["argv"]) for cmd in commands if "--matrix" in cmd["argv"] and "l17.txt" not in cmd["argv"]]
    cases.append((found_20, ["search", "--matrix", "l23.txt", "--out", "l23.json"]))
    for name, text in inputs.items():
        Path(name).write_text(text, encoding="ascii")
    for expected, argv in cases:
        result = child.run_command(argv)
        verified = {p: child.run_command(["verify", p]) for p in ("k55.json", "l23.json") if Path(p).exists()}
        assert run.judge(expected, result, verified, tmp_path) is None, argv


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.*"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "extend", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
