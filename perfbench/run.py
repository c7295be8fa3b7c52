"""The perfpart benchmark: real CLI commands per workload, verdicts checked, medians reported.

    python3 perfbench/run.py --workload certify|search|extend --seed N --seconds S --trace 0|1

Run from a checkout of the repository; see README.md in this directory.
Each pass runs the workload's fixed command list in a fresh child process
(child.py), and passes repeat until the next one would end after --seconds.
Load is closed-loop with one client: one command at a time, no threads,
PERFPART_WORKERS unset.

The seed decides the order of the command groups within a pass and a
row/column relabelling of the small --matrix inputs.  Every command's exit
code and verdict lines, the census of `enumerate`, the sha256 of every
certificate `construct` writes and the verification of every certificate
`search` writes are checked against workloads.json.

Times are CPU seconds of the child scaled to reference speed: the child
runs a fixed calibration job before and after every command, and each
command's CPU time is multiplied by CAL_REF_S over the mean of the two
calibration times around it.  On a shared host the speed of the machine
drifts by tens of percent within minutes, and the scaling removes most of
that drift; wall times are printed too.

With --trace 0 the last stdout line carries the end-to-end metrics, each a
median over the run's passes.  With --trace 1 it carries the per-layer
metrics: the probes of probes.py, the import time of perfpart.cli, the
calibration time and the tracing overhead (median traced pass minus median
untraced pass, the two alternating).  The last traced pass's spans and the
probe spans go to .perfbench/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from spans import layer_self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
# CPU seconds of child.calibrate() on the reference machine (2-CPU x86-64 VM
# at 2.0 GHz, Python 3.11.7) when it is otherwise idle.
CAL_REF_S = 0.030
# Hard cap on one run, under the 180 s every run must end within.
RUN_CAP_S = 170.0

clock = time.perf_counter
median = statistics.median


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def relabel(rows: list[str], rng: random.Random) -> list[str]:
    """Permute rows and columns independently; matching counts and verdicts are invariant."""
    n = len(rows)
    row_order = rng.sample(range(n), n)
    col_order = rng.sample(range(n), n)
    return ["".join(rows[i][j] for j in col_order) for i in row_order]


def make_inputs(rng: random.Random) -> dict[str, str]:
    matrices = {
        "k55.txt": relabel(["11111"] * 5, rng),
        "circulant.txt": relabel(["11100", "01110", "00111", "10011", "11001"], rng),
        # L(1, 7) keeps its own labelling: the budgeted search's tree, and so
        # its time for the same 100000 nodes, changes with the labelling
        # (5 s to 19 s over six relabellings), which would bury every other
        # change in per-seed spread.
        "l17.txt": ["".join("0" if i == j else "1" for j in range(7)) for i in range(7)],
    }
    return {name: "\n".join(rows) + "\n" for name, rows in matrices.items()}


def make_plan(workload: str, seed: int) -> tuple[list[dict], dict[str, str]]:
    """The workload's commands in the seed's group order, and the input files they read."""
    rng = random.Random(seed)
    groups = list(WORKLOADS[workload]["groups"])
    rng.shuffle(groups)
    commands = [cmd for group in groups for cmd in group]
    used = {arg for cmd in commands for arg in cmd["argv"]}
    inputs = {name: text for name, text in make_inputs(rng).items() if name in used}
    return commands, inputs


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PERFPART_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    return env


def run_child(plan: dict, workdir: Path, deadline: float) -> tuple[float, float, dict]:
    """(set-up wall seconds, child wall seconds, result) of one child process.

    Set-up ends when the child prints `ready`: interpreter start, the import
    of perfpart.cli and the writing of the pass's input files.
    """
    workdir.mkdir(parents=True)
    (workdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    t0 = clock()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py")],
        cwd=workdir,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = clock() - t0
        out, err = proc.communicate(timeout=max(1.0, deadline - clock()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"benchmark child failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    return setup_s, clock() - t0, json.loads(out.splitlines()[-1])


def mismatch(outcome: dict, result: dict, verified: dict, workdir: Path) -> str | None:
    """Why a command's result differs from one expected outcome, or None when it matches."""
    if result["exit"] != outcome["exit"]:
        return f"exit {result['exit']}, expected {outcome['exit']}"
    lines = set(result["stdout"].splitlines())
    for line in outcome.get("lines", ()):
        if line not in lines:
            return f"no line {line!r}"
    if "census" in outcome:
        try:
            census = Counter(rec["class"] for rec in json.loads(result["stdout"]))
        except (ValueError, KeyError, TypeError):
            return "output is not a classified JSON listing"
        if dict(census) != outcome["census"]:
            return f"census {dict(census)}"
    if "sha256" in outcome:
        cert = workdir / outcome["cert"]
        if not cert.is_file():
            return f"{outcome['cert']} not written"
        digest = hashlib.sha256(cert.read_bytes()).hexdigest()
        if digest != outcome["sha256"]:
            return f"{outcome['cert']} sha256 {digest} differs"
    if "verify" in outcome:
        check = verified.get(outcome["verify"])
        if check is None:
            return f"{outcome['verify']} not written"
        verdict = set(check["stdout"].splitlines())
        if check["exit"] != 0 or not all(line in verdict for line in outcome["verify_lines"]):
            return f"{outcome['verify']} fails verification"
    return None


def judge(cmd: dict, result: dict, verified: dict, workdir: Path) -> str | None:
    """None when the result matches some expected outcome, else every reason it does not."""
    reasons = []
    for outcome in cmd["outcomes"]:
        reason = mismatch(outcome, result, verified, workdir)
        if reason is None:
            return None
        reasons.append(reason)
    return " / ".join(reasons)


class Run:
    """One benchmark run: its plan, its passes, and the failures seen."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        start = clock()
        self.deadline = start + seconds
        self.hard_deadline = start + RUN_CAP_S
        self.commands, self.inputs = make_plan(workload, seed)
        self.verify = sorted(
            {o["verify"] for cmd in self.commands for o in cmd["outcomes"] if "verify" in o}
        )
        self.workdir = OUT / "work" / f"{workload}-{seed}-{os.getpid()}"
        self.passes: list[dict] = []
        self.last_spans: list[list] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.n_children = 0

    def child(self, mode: str, trace: bool) -> tuple[float, float, dict, Path]:
        self.n_children += 1
        workdir = self.workdir / f"{self.n_children}-{mode}"
        plan = {
            "mode": mode,
            "trace": trace,
            "seed": self.seed,
            "commands": [cmd["argv"] for cmd in self.commands],
            "inputs": self.inputs,
            "verify": self.verify,
        }
        return (*run_child(plan, workdir, self.hard_deadline), workdir)

    def run_pass(self, trace: bool) -> None:
        setup_wall_s, child_wall_s, result, workdir = self.child("pass", trace)
        self.judge_pass(result, workdir)
        shutil.rmtree(workdir)
        cal = result["cal_s"]
        commands = result["commands"]
        # each command is scaled by the calibration runs just before and after it
        cmd_s = [
            c["cpu_s"] * CAL_REF_S / ((before + after) / 2)
            for c, before, after in zip(commands, cal, cal[1:])
        ]
        self.passes.append(
            {
                "traced": trace,
                "child_wall_s": child_wall_s,
                "setup_wall_s": setup_wall_s,
                "setup_s": result["setup_cpu_s"] * CAL_REF_S / cal[0],
                "pass_wall_s": sum(c["seconds"] for c in commands),
                "pass_s": sum(cmd_s),
                "cmd_wall_s": [c["seconds"] for c in commands],
                "cmd_s": cmd_s,
                "cal_s": median(cal),
                "rss_kb": result["rss_kb"],
                "import_s": result["import_s"],
                "n_spans": len(result["spans"]),
                "layer_self_s": layer_self_times(result["spans"]),
            }
        )
        if trace:
            self.last_spans = result["spans"]

    def judge_pass(self, result: dict, workdir: Path) -> None:
        for cmd, res in zip(self.commands, result["commands"], strict=True):
            self.attempted += 1
            reason = judge(cmd, res, result["verified"], workdir)
            if reason is not None:
                self.failures.append(f"{' '.join(cmd['argv'])}: {reason}")

    def failed_ratio(self) -> float:
        return len(self.failures) / max(1, self.attempted)

    def probes(self) -> dict:
        _, _, result, workdir = self.child("probes", True)
        shutil.rmtree(workdir)
        self.attempted += result["attempted"]
        self.failures.extend(f"probe {name}" for name in result["failures"])
        return result

    def time_left(self, needed: float) -> bool:
        return clock() + needed <= self.deadline

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def command_medians(passes: list[dict], key: str) -> list[float]:
    return [median(col) for col in zip(*(p[key] for p in passes))]


def kind_seconds(run: Run, record: dict, kind: str) -> float:
    return sum(s for cmd, s in zip(run.commands, record["cmd_s"]) if cmd["kind"] == kind)


def report(run: Run, passes: list[dict]) -> None:
    """Human-readable lines: per-command medians, sums by command kind, raw wall times."""
    wall = command_medians(passes, "cmd_wall_s")
    ref = command_medians(passes, "cmd_s")
    print("  median wall ms   ref ms  command")
    for cmd, w, r in zip(run.commands, wall, ref):
        print(f"  {w * 1e3:13.2f} {r * 1e3:8.2f}  perfpart {' '.join(cmd['argv'])}")
    kinds = {cmd["kind"] for cmd in run.commands}
    for kind, name in (("construct", "construct_s"), ("verify", "verify_s"), ("search", "search_s")):
        if kind in kinds:
            print(f"  {name} = {median(kind_seconds(run, p, kind) for p in passes):.6f} s (ref)")
    if "budget" in kinds:
        cmd = next(c for c in run.commands if c["kind"] == "budget")
        budget = int(cmd["argv"][cmd["argv"].index("--budget") + 1])
        rate = median(budget / kind_seconds(run, p, "budget") for p in passes)
        print(f"  search_nodes_per_s = {rate:.1f} nodes/s (ref)")
    print(f"  failed_ratio = {run.failed_ratio():.6f} 1")
    print(f"  pass wall = {median(p['pass_wall_s'] for p in passes):.6f} s")
    print(f"  setup wall = {median(p['setup_wall_s'] for p in passes):.6f} s")
    print(f"  calibration = {median(p['cal_s'] for p in passes) * 1e3:.3f} ms CPU")


def end_to_end(passes: list[dict]) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (median(p["setup_s"] for p in passes), "s"),
        "pass_ref_s": (median(p["pass_s"] for p in passes), "s"),
        "cmd_geomean_ref_ms": (geomean(command_medians(passes, "cmd_s")) * 1e3, "ms"),
        "peak_rss_mb": (median(p["rss_kb"] for p in passes) / 1024, "MB"),
    }


def measure(run: Run) -> dict[str, tuple[float, str]]:
    while True:
        run.run_pass(trace=False)
        if not run.time_left(median(p["child_wall_s"] for p in run.passes)):
            break
    print(f"passes: {len(run.passes)}")
    report(run, run.passes)
    return end_to_end(run.passes)


def measure_traced(run: Run) -> dict[str, tuple[float, str]]:
    probe = run.probes()
    while True:
        run.run_pass(trace=False)
        run.run_pass(trace=True)
        if not run.time_left(sum(p["child_wall_s"] for p in run.passes[-2:])):
            break
    plain = [p for p in run.passes if not p["traced"]]
    traced = [p for p in run.passes if p["traced"]]
    overhead = median(p["pass_s"] for p in traced) - median(p["pass_s"] for p in plain)
    spans_per_pass = median(p["n_spans"] for p in traced)
    print(f"passes: {len(plain)} untraced, {len(traced)} traced")
    report(run, plain)
    print(f"tracing overhead: {overhead:.6f} s (ref) per pass, {spans_per_pass:.0f} spans per traced pass")
    print("layer self time per traced pass (wall):")
    totals = Counter()
    for p in traced:
        totals.update(p["layer_self_s"])
    for layer, seconds in totals.most_common():
        print(f"  {layer:16s} {seconds / len(traced):10.6f} s")
    path = OUT / f"trace-{run.workload}-{run.seed}.json"
    path.write_text(
        json.dumps(
            {
                "fields": ["span_id", "trace_id", "parent_id", "name", "start", "end", "busy"],
                "last_traced_pass": run.last_spans,
                "probes": probe["spans"],
            }
        ),
        encoding="utf-8",
    )
    print(f"spans written to {path.relative_to(ROOT)}")

    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    units = {m["name"]: m["unit"] for m in per_layer}
    metrics = {name: (value, units[name]) for name, value in probe["metrics"].items()}
    metrics["cli.import_s"] = (median([p["import_s"] for p in run.passes] + [probe["import_s"]]), "s")
    metrics["bench.calibration_ms"] = (median(p["cal_s"] for p in run.passes) * 1e3, "ms")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.spans_per_pass"] = (spans_per_pass, "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "perfpart" / "cli.py").is_file():
        print(f"perfpart sources not found under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)
    OUT.mkdir(exist_ok=True)

    spec = WORKLOADS[args.workload]
    print(f"workload {args.workload} (seed {args.seed}): {spec['why']}")
    print(f"targets: {spec['roadmap']}")
    run = Run(args.workload, args.seed, args.seconds)
    print("order: " + " | ".join(" ".join(c["argv"]) for c in run.commands))
    try:
        metrics = measure_traced(run) if args.trace else measure(run)
    finally:
        run.close()
    for line in run.failures:
        print(f"FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(
        json.dumps(
            {
                "correct": not run.failures,
                "attempted": run.attempted,
                "failed": len(run.failures),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
