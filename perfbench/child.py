"""One benchmark pass, or the probe set, in a fresh interpreter.

The parent starts this file with the checkout's `src` on PYTHONPATH, in a
working directory holding the JSON plan `plan.json`.  The child imports
`perfpart.cli` once, writes the plan's input files, prints `ready` (the end
of set-up), then calls `perfpart.cli.main(argv)` once per command with
stdout captured, and prints one JSON result line.  A fresh process per pass
keeps the builders' lru_caches cold, as they are for a user of the CLI,
while the interpreter's own start-up stays out of the command timings.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import time
import traceback
from pathlib import Path

from spans import Tracer, clock

cpu_clock = time.process_time

t_import = clock()
import perfpart.cli as cli  # noqa: E402  (the import is part of what set-up times)

import_s = clock() - t_import


def run_command(argv: list[str]) -> dict:
    """Call the CLI in-process; a traceback or usage error is an outcome, not a crash."""
    buf = io.StringIO()
    t0, c0 = clock(), cpu_clock()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = None
        buf.write(traceback.format_exc())
    return {"exit": code, "seconds": clock() - t0, "cpu_s": cpu_clock() - c0, "stdout": buf.getvalue()}


def calibrate() -> float:
    """CPU seconds of a fixed pure-Python job shaped like perfpart's hot loops.

    Part one enumerates every permutation of 7 by bitmask recursion, as
    enumerate_matchings does.  Part two filters a 2000-element list through a
    set and spreads low bits over 42 column lists, as the exact-cover levels
    do.  It runs before and after every command, so each command carries a
    measure of how fast the machine ran Python around it.  It keeps nothing
    alive once it returns.
    """
    c0 = cpu_clock()
    leaves = 0

    def extend(i: int, used: int, images: tuple) -> None:
        nonlocal leaves
        if i == 7:
            leaves += 1
            return
        free = ~used & 0x7F
        while free:
            low = free & -free
            free ^= low
            extend(i + 1, used | low, images + (low.bit_length(),))

    for _ in range(3):
        extend(0, 0, ())
    data = list(range(1 << 40, (1 << 40) + 2000))
    spread = 0
    for k in range(15):
        drop = set(data[k % 5 :: 7])
        cols: list[list[int]] = [[] for _ in range(42)]
        for x in [x for x in data if x not in drop]:
            for _ in range(3):
                low = x & -x
                cols[low.bit_length() % 42].append(x)
                x ^= low
        spread += sum(map(len, cols))
    if leaves != 3 * 5040 or spread != 15 * 3 * 1714:
        raise RuntimeError(f"calibration job miscounted: {leaves} {spread}")
    return cpu_clock() - c0


def run_pass(plan: dict, tracer: Tracer | None) -> dict:
    results = []
    cal = []
    for argv in plan["commands"]:
        cal.append(calibrate())
        if tracer is not None:
            tracer.new_trace()
        results.append(run_command(argv))
    cal.append(calibrate())
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    spans = list(tracer.spans) if tracer is not None else []
    # FOUND certificates are checked after the pass, outside its timings and spans.
    verified = {
        path: run_command(["verify", path]) for path in plan["verify"] if Path(path).exists()
    }
    return {"commands": results, "cal_s": cal, "rss_kb": rss_kb, "verified": verified, "spans": spans}


def run_probes(plan: dict) -> dict:
    from probes import Probes  # only the probe child needs it; passes keep it out of set-up

    tracer = Tracer()
    probes = Probes(tracer, plan["seed"], Path.cwd())
    probes.run()
    return {
        "metrics": probes.metrics,
        "failures": probes.failures,
        "attempted": probes.attempted,
        "spans": tracer.spans,
    }


def main() -> None:
    plan = json.loads(Path("plan.json").read_text(encoding="utf-8"))
    for name, text in plan["inputs"].items():
        Path(name).write_text(text, encoding="ascii")
    setup_cpu_s = cpu_clock()
    print("ready", flush=True)

    if plan["mode"] == "probes":
        result = run_probes(plan)
    else:
        tracer = Tracer() if plan["trace"] else None
        if tracer is not None:
            tracer.install()
        result = run_pass(plan, tracer)
    result["import_s"] = import_s
    result["setup_cpu_s"] = setup_cpu_s
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
