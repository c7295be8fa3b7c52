"""Command-line front end: count, enumerate, construct, verify, search, check.

Thin sequential shell over the library.  Exit codes: 0 on success/verified/
found, 1 on verification failure, a proven NONE where a target asserts
existence or a failed write of stdout, 2 on usage errors.  `--json` switches
machine-readable output on.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from itertools import chain

from .construct_group import knn_partition, l2nn_partition
from .construct_l61 import DEFAULT_Y0, build_l61
from .construct_l82 import build_l82, classify_parts
from .counting import count_up_to, necessary_condition
from .graph_model import GraphSpec, degree, from_matrix, l_graph
from .matchings import enumerate_matchings, label_l61, label_l82
from .perm_core import parse_cycles, to_cycles
from .search import SearchBudgetExceeded, find_perfect_partition, perfect_partitions
from .tables import diff_parts, l61_golden_parts
from .verifier import (
    check_extendability,
    check_partition,
    load_certificate,
    make_certificate,
    save_certificate,
)

SEARCH_TARGETS = {"l41": (1, 4), "l51": (1, 5), "l62": (2, 3)}

# The construct flags that apply to one target only, and that target.
TARGET_FLAGS = {"y0": "l61", "seed": "l61", "pattern": "l61", "golden": "l61", "audit": "l82"}

# Largest N each coset builder accepts: knn:9 has 9! = 362880 matchings and
# l2nn:6 has (6!)^2 = 518400; one size up is 10x or 49x that in time and memory.
GROUP_TARGETS = {"knn:": (knn_partition, 9), "l2nn:": (l2nn_partition, 6)}

# Largest n whose permanent `count` runs: Ryser's formula costs 2^n whatever
# the graph; on an all-ones matrix the CLI took 0.51 s at n = 16, 1.45 s at
# n = 18, 6.46 s at n = 20 and 24.7 s at n = 22 (2-CPU VM, Python 3.11).
PERMANENT_MAX_N = 20

# Most matchings a graph may have for enumerate and search, which list them,
# and check, which counts them (a matrix by listing, an L graph by its closed
# form: the CLI took 0.09-0.11 s CPU on L(2, 4), L(3, 3) and L(1, 8), almost
# all of it the import; medians of five runs, 2-CPU VM, Python 3.11).
# search's exact-cover index keeps one clash bitset per matching, about
# count**2 / 8 bytes: 0.4 MB on L(1, 7), 28 MB on L(1, 8) and 50 MB at this
# bound.  On K_{9,9} and K_{10,10} search --budget 10 was still listing
# matchings after 20 s.
MATCHINGS_MAX = 20_000


def _matrix_file(path: str) -> GraphSpec:
    try:
        with open(path, encoding="ascii") as fh:
            return from_matrix([line.strip() for line in fh if line.strip()])
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"bad matrix file {path}: {exc}") from None


def _add_graph_flags(sub: argparse.ArgumentParser) -> None:
    graph = sub.add_mutually_exclusive_group(required=True)
    graph.add_argument("--r", type=int, help="hole size r of L(r, m); 0 for K_{n,n}")
    graph.add_argument(
        "--matrix", metavar="FILE", type=_matrix_file, help="0/1 adjacency rows, one per line"
    )
    sub.add_argument("--m", type=int, help="number of holes m of L(r, m)")
    sub.add_argument("--n", type=int, help="side size; required when r = 0")


class _StdoutError(Exception):
    """A write to stdout failed for a reason other than a closed pipe."""


def _emit(args, payload, lines, sort_keys: bool = True) -> None:
    """Print payload as one JSON line under --json, else each of the text lines.

    The text is built first, so only the write itself can raise _StdoutError.
    """
    if args.json:
        text = json.dumps(payload, sort_keys=sort_keys) + "\n"
    else:
        text = "".join(line + "\n" for line in lines)
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise _StdoutError(exc) from None


def _save(parser: argparse.ArgumentParser, cert, path: str) -> None:
    try:
        save_certificate(cert, path)
    except OSError as exc:
        parser.error(f"cannot write {path}: {exc}")


def _bound_matchings(parser: argparse.ArgumentParser, spec: GraphSpec) -> None:
    """Refuse a graph with more than MATCHINGS_MAX matchings, before any work."""
    count = count_up_to(spec, MATCHINGS_MAX)
    if count > MATCHINGS_MAX:
        has = count if spec.kind == "L" else "more"
        parser.error(
            f"enumerate, search and check are bounded to {MATCHINGS_MAX} matchings; "
            f"this graph has {has}"
        )


def _require_regular(parser: argparse.ArgumentParser, spec: GraphSpec) -> None:
    """Refuse a graph whose vertices do not all have one degree, before any work."""
    try:
        degree(spec)
    except ValueError as exc:
        parser.error(f"{exc} (count, search and check need a regular graph)")


def _graph_from_flags(parser: argparse.ArgumentParser, args) -> GraphSpec:
    if args.matrix is not None:
        if args.m is not None or args.n is not None:
            parser.error("--matrix excludes --m/--n")
        return args.matrix
    try:
        return l_graph(args.r, args.m, args.n)
    except ValueError as exc:
        parser.error(str(exc))


def _cmd_count(parser, args) -> int:
    spec = _graph_from_flags(parser, args)
    _require_regular(parser, spec)
    oracle = args.oracle or spec.kind == "matrix"
    if oracle and spec.n > PERMANENT_MAX_N:
        parser.error(
            f"the permanent is bounded to n <= {PERMANENT_MAX_N}; this graph has n = {spec.n}"
        )
    report = necessary_condition(spec, oracle=oracle)
    payload = asdict(report)
    payload["count"] = report.count
    human = (
        f"n={report.n} matchings={report.count} degree={report.degree} "
        f"divisible={'yes' if report.divisible else 'no'}"
    )
    lines = [human, json.dumps(payload, sort_keys=True)]
    # both counts exist only under --oracle on an L graph: two routes to one number
    rook, perm = report.rook_count, report.oracle_count
    agree = rook is None or perm is None or rook == perm
    if not agree:
        lines.append(f"FAIL: closed form {rook} != permanent {perm}")
    _emit(args, payload, lines)
    return 0 if agree else 1


def _classifier(spec: GraphSpec, parser):
    if spec.kind == "L" and (spec.r, spec.m) == (1, 6):
        return label_l61
    if spec.kind == "L" and (spec.r, spec.m) == (2, 4):
        return label_l82
    parser.error("--classify is defined for L(1, 6) and L(2, 4) only")


def _cmd_enumerate(parser, args) -> int:
    spec = _graph_from_flags(parser, args)
    label = _classifier(spec, parser) if args.classify else None
    _bound_matchings(parser, spec)
    records = []
    for p in enumerate_matchings(spec):
        rec = {"cycles": to_cycles(p)}
        if label is not None:
            rec["class"] = label(p)
        records.append(rec)
    _emit(args, records, ("\t".join(rec.values()) for rec in records), sort_keys=False)
    return 0


def _build_target(parser, args):
    target = args.target
    if target == "l61":
        try:
            return build_l61(
                DEFAULT_Y0 if args.y0 is None else args.y0,
                seed=parse_cycles(args.seed, 6) if args.seed else None,
                pattern=parse_cycles(args.pattern, 6) if args.pattern else None,
            )
        except ValueError as exc:
            parser.error(str(exc))
    if target == "l82":
        return build_l82()
    for prefix, (builder, limit) in GROUP_TARGETS.items():
        if target.startswith(prefix):
            try:
                size = int(target[len(prefix):])
                if size > limit:
                    raise ValueError(f"N must be at most {limit}")
                return builder(size)
            except ValueError as exc:
                parser.error(f"bad target {target}: {exc}")
    parser.error(f"unknown target {target!r}; use l61, l82, knn:N or l2nn:N")


def _cmd_construct(parser, args) -> int:
    # an empty --seed or --pattern means the flag was not given
    for flag, target in TARGET_FLAGS.items():
        if getattr(args, flag) and args.target != target:
            parser.error(f"--{flag} applies to --target {target} only")

    cert = _build_target(parser, args)
    out = args.out or f"{args.target.replace(':', '')}.json"
    _save(parser, cert, out)

    payload = {
        "target": args.target,
        "out": out,
        "parts": len(cert.parts),
        "part_size": len(cert.parts[0]) if cert.parts else 0,
    }
    lines = [f"wrote {out}: {payload['parts']} parts of {payload['part_size']}"]
    code = 0
    if args.golden:
        missing, unexpected = diff_parts(cert.parts, l61_golden_parts())
        payload["golden_missing"] = [
            [to_cycles(p) for p in part] for part in missing
        ]
        payload["golden_unexpected"] = [
            [to_cycles(p) for p in part] for part in unexpected
        ]
        payload["golden_ok"] = not missing and not unexpected
        code = 0 if payload["golden_ok"] else 1
        if payload["golden_ok"]:
            lines.append(f"golden: all {payload['parts']} parts match the reference tables")
        lines += ["golden missing:   " + "; ".join(part) for part in payload["golden_missing"]]
        lines += [
            "golden unexpected: " + "; ".join(part) for part in payload["golden_unexpected"]
        ]
    if args.audit:
        payload["audit"] = classify_parts(cert.parts)
        lines += [f"audit {key} = {value}" for key, value in payload["audit"].items()]
    _emit(args, payload, lines)
    return code


def _cmd_verify(parser, args) -> int:
    try:
        cert = load_certificate(args.file)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        # json.load recurses once per nesting level, so deep [[[...]]] ends here
        error = f"unreadable certificate: {exc}"
        _emit(args, {"ok": False, "error": error}, [f"FAIL: {error}"], sort_keys=False)
        return 1
    report = check_partition(cert)
    payload = {
        "ok": report.ok,
        "n_parts": report.n_parts,
        "n_matchings": report.n_matchings,
        "violations": [str(v) for v in report.violations],
    }
    _emit(args, payload, [report.summary(), *(f"  {v}" for v in payload["violations"])])
    return 0 if report.ok else 1


def _cmd_search(parser, args) -> int:
    asserted = args.target is not None
    spec = l_graph(*SEARCH_TARGETS[args.target]) if asserted else args.matrix
    _require_regular(parser, spec)
    _bound_matchings(parser, spec)

    try:
        if args.all:
            count = sum(1 for _ in perfect_partitions(spec, budget=args.budget))
            payload = {"partitions": count}
            _emit(args, payload, [f"{count} perfect partition(s)"], sort_keys=False)
            return 0 if (count or not asserted) else 1
        found = find_perfect_partition(spec, budget=args.budget)
    except SearchBudgetExceeded:
        payload = {"found": None, "error": "budget exhausted"}
        _emit(args, payload, ["UNDECIDED: node budget exhausted"], sort_keys=False)
        return 1

    if found is None:
        _emit(args, {"found": False}, ["NONE: no perfect partition exists"], sort_keys=False)
        return 1 if asserted else 0

    if args.out:
        _save(parser, make_certificate(spec, list(found), complete=True), args.out)
    parts = [[list(p) for p in part] for part in found]
    lines = chain(
        [f"FOUND: {len(found)} parts of {degree(spec)}"],
        (f"  part {k}: " + "; ".join(map(to_cycles, part)) for k, part in enumerate(found, 1)),
        [f"wrote {args.out}"] if args.out else [],
    )
    _emit(args, {"found": True, "parts": parts, "out": args.out}, lines, sort_keys=False)
    return 0


def _cmd_check(parser, args) -> int:
    spec = _graph_from_flags(parser, args)
    _require_regular(parser, spec)
    _bound_matchings(parser, spec)
    report = check_extendability(spec)
    blocked = [to_cycles(p) for p in report.blocked]
    if report.all_extendable:
        lines = [f"OK: all {report.total} matchings extend to a 1-factorization"]
    else:
        lines = [f"FAIL: {len(blocked)} of {report.total} matchings blocked"]
        lines += [f"  {cycles}" for cycles in blocked]
    _emit(args, {"total": report.total, "blocked": blocked}, lines)
    return 0 if report.all_extendable else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfpart",
        description="Count, enumerate, construct, verify and search perfect "
        "partitions of K_{n,n} minus diagonal holes.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", help="machine-readable output")

    p = subs.add_parser("count", parents=[json_flag], help="matching count and divisibility test")
    _add_graph_flags(p)
    p.add_argument("--oracle", action="store_true", help="cross-check with the permanent")
    p.set_defaults(func=_cmd_count, parser=p)

    p = subs.add_parser("enumerate", parents=[json_flag], help="list all perfect matchings")
    _add_graph_flags(p)
    p.add_argument("--classify", action="store_true", help="append block-class tags")
    p.set_defaults(func=_cmd_enumerate, parser=p)

    p = subs.add_parser(
        "construct", parents=[json_flag], help="build a partition certificate file"
    )
    p.add_argument("--target", required=True, help="l61, l82, knn:N or l2nn:N")
    p.add_argument("--y0", type=int, choices=range(2, 7), help="l61 axis point")
    p.add_argument("--seed", help="l61 seed, cycle notation like '(1 2 3)(4 5 6)'")
    p.add_argument("--pattern", help="l61 pattern, cycle notation")
    p.add_argument("--golden", action="store_true", help="diff against reference tables")
    p.add_argument("--audit", action="store_true", help="print the class-usage ledger")
    p.add_argument("--out", help="certificate path (default <target>.json)")
    p.set_defaults(func=_cmd_construct, parser=p)

    p = subs.add_parser("verify", parents=[json_flag], help="verify a certificate file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify, parser=p)

    p = subs.add_parser("search", parents=[json_flag], help="exhaustive perfect-partition search")
    graph = p.add_mutually_exclusive_group(required=True)
    graph.add_argument("--target", choices=SEARCH_TARGETS, help="a graph expected to have one")
    graph.add_argument(
        "--matrix", metavar="FILE", type=_matrix_file, help="0/1 adjacency rows, one per line"
    )
    p.add_argument("--budget", type=int, help="search node budget")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true", help="count every partition")
    mode.add_argument("--out", help="write the found certificate here")
    p.set_defaults(func=_cmd_search, parser=p)

    p = subs.add_parser("check", parents=[json_flag], help="matching extendability check")
    _add_graph_flags(p)
    p.set_defaults(func=_cmd_check, parser=p)

    return parser


def main(argv=None) -> int:
    args, unknown = _parser().parse_known_args(argv)
    if unknown:
        # parse_args would word this with the top-level usage line
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.func(args.parser, args)
    except BrokenPipeError:
        # downstream pager/head closed the stream; not an error of ours
        _drop_stdout()
        return 0
    except _StdoutError as exc:
        # a full disk, say: one line, not a traceback
        _drop_stdout()
        print(f"perfpart: error: cannot write stdout: {exc}", file=sys.stderr)
        return 1


def _drop_stdout() -> None:
    """Point stdout at devnull, so the exit-time flush of what is left in its
    buffer cannot fail again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())


if __name__ == "__main__":
    sys.exit(main())
