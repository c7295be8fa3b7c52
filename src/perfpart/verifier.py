"""Certificate model and verification.

A certificate is a claimed partition (complete or partial) of the perfect
matchings of a graph into 1-factorizations.  Verification never raises on
bad mathematical content; it returns structured violations so a caller can
report every defect at once.  Exceptions are reserved for files that are not
structurally certificates at all.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from collections import Counter
from collections.abc import Sequence
from itertools import chain, islice

from .counting import closed_count, count_up_to
from .graph_model import (
    GraphSpec,
    degree,
    from_matrix,
    is_matching,
    l_graph,
    row_strings,
    short_repr,
)
from .matchings import enumerate_matchings
from .perm_core import Perm, is_permutation


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str
    part: int | None = None
    member: int | None = None

    def __str__(self) -> str:
        where = ""
        if self.part is not None:
            where = f" [part {self.part}" + (
                f", member {self.member}]" if self.member is not None else "]"
            )
        return f"{self.kind}{where}: {self.detail}"


@dataclass(frozen=True)
class PartitionCertificate:
    """A set of parts, each claiming to be a 1-factorization of `graph`."""

    graph: GraphSpec
    complete: bool
    parts: tuple[tuple[Perm, ...], ...]

    @property
    def n(self) -> int:
        return self.graph.n


def make_certificate(
    graph: GraphSpec, parts: Sequence[Sequence[Perm]], complete: bool
) -> PartitionCertificate:
    """The certificate of parts in canonical order: members sorted by image
    tuple, parts sorted by first member."""
    canonical = sorted(tuple(sorted(map(tuple, part))) for part in parts)
    return PartitionCertificate(graph=graph, complete=complete, parts=tuple(canonical))


def _row_sets(spec: GraphSpec) -> tuple[frozenset[int], ...]:
    """The 1-based columns of every adjacency row."""
    return tuple(
        frozenset(j + 1 for j in range(spec.n) if row >> j & 1) for row in spec.rows
    )


def _is_factorization(
    perms: Sequence[Perm], d: int, rows: tuple[frozenset[int], ...]
) -> bool:
    """Fast accept: d members of n distinct images each, whose images in row
    i are exactly rows[i], the columns of adjacency row i.

    Every row of the regular graph has d columns, so the d images of a row
    are distinct edges covering it: no edge is missing, absent from the
    graph, or doubled, and each member, with n distinct images among the
    columns 1..n, is a permutation.  Lengths are checked before the zip,
    which would truncate a long member.
    """
    n = len(rows)
    if len(perms) != d:
        return False
    if not d:
        return True  # the empty part factorizes the edgeless graph
    return (
        set(map(len, perms)) == {n}
        and set(map(len, map(set, perms))) == {n}
        and tuple(map(frozenset, zip(*perms))) == rows
    )


def check_factorization(spec: GraphSpec, perms: Sequence[Perm]) -> list[Violation]:
    """Violations of 'perms is a 1-factorization of spec'; empty means valid.

    Checks size == degree, membership of every matching, and exact single
    coverage of every edge (equivalently, permutation matrices sum to the
    adjacency matrix).  Valid parts are accepted by the row-set test of
    _is_factorization; _factorization_violations counts the covered edges
    only for a part that fails it.
    """
    d = degree(spec)
    rows = _row_sets(spec)
    if _is_factorization(perms, d, rows):
        return []
    return _factorization_violations(perms, d, rows)


def _factorization_violations(
    perms: Sequence[Perm], d: int, rows: tuple[frozenset[int], ...]
) -> list[Violation]:
    """Every violation of a member list against a graph of degree d whose
    adjacency rows have the column sets rows, worded one per defect."""
    out: list[Violation] = []
    n = len(rows)
    if len(perms) != d:
        out.append(
            Violation("size", f"expected {d} matchings (the degree), got {len(perms)}")
        )
    seen: dict[Perm, int] = {}
    cover: Counter[tuple[int, int]] = Counter()
    for k, p in enumerate(perms):
        p = tuple(p)
        if not is_permutation(p, n):
            out.append(Violation("not_permutation", f"images {list(p)}", member=k))
            continue
        if p in seen:
            out.append(
                Violation(
                    "duplicate", f"same matching as member {seen[p]}", member=k
                )
            )
            continue
        seen[p] = k
        for i, x in enumerate(p, start=1):
            if x not in rows[i - 1]:
                out.append(
                    Violation("not_matching", f"edge ({i},{x}) absent", member=k)
                )
            else:
                cover[i, x] += 1
    if not out:
        # every counted edge is in the graph, so only a graph edge can be miscovered
        for i, row in enumerate(rows, start=1):
            for j in sorted(row):
                got = cover[i, j]
                if got != 1:
                    detail = f"edge ({i},{j}) covered {got} times, expected 1"
                    out.append(Violation("coverage", detail))
    return out


@dataclass
class PartitionReport:
    ok: bool
    violations: list[Violation] = field(default_factory=list)
    n_parts: int = 0
    n_matchings: int = 0

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"{status}: {self.n_parts} parts, {self.n_matchings} matchings, "
            f"{len(self.violations)} violation(s)"
        )


# A failed completeness claim names at most this many missing matchings.
MISSING_NAMED = 100


def _completeness_violations(spec: GraphSpec, have: set[Perm]) -> list[Violation]:
    """The missing and extra matchings of a failed claim of completeness.

    Extra members are those that are not matchings of the graph.  Missing
    matchings are streamed in lexicographic order and the first
    MISSING_NAMED are named; any further ones get one summary line, with
    their count when the graph has a closed form.
    """
    extra = sorted(p for p in have if not is_matching(spec, p))
    missing = islice(
        (p for p in enumerate_matchings(spec) if p not in have), MISSING_NAMED + 1
    )
    out = [Violation("missing", f"matching {list(p)} uncovered") for p in missing]
    if len(out) > MISSING_NAMED:
        total = closed_count(spec)
        covered = len(have) - len(extra)
        count = "" if total is None else f"{total - covered - MISSING_NAMED} "
        out[MISSING_NAMED] = Violation(
            "missing",
            f"{count}more matchings uncovered; only the first {MISSING_NAMED} are named",
        )
    out.extend(Violation("extra", f"{list(p)} is not a matching of the graph") for p in extra)
    return out


def check_partition(cert: PartitionCertificate) -> PartitionReport:
    """Verify every part, cross-part disjointness, and (if claimed) completeness.

    Once every member is a valid matching and no two are equal, the claim
    of completeness holds exactly when the graph has no further matching,
    which count_up_to decides by count.  Matchings are enumerated only to
    name what is missing when that test does not pass, and only up to the
    first MISSING_NAMED of them.
    """
    spec = cert.graph
    violations: list[Violation] = []
    # once per certificate: degree() of a matrix sums every column
    d = degree(spec) if cert.parts else 0
    rows = _row_sets(spec)
    for k, part in enumerate(cert.parts):
        if not _is_factorization(part, d, rows):
            violations.extend(
                Violation(v.kind, v.detail, part=k, member=v.member)
                for v in _factorization_violations(part, d, rows)
            )

    members = list(chain.from_iterable(cert.parts))
    seen = set(members)
    if len(seen) < len(members):
        # some member repeats; word each repeat that crosses parts
        first: dict[Perm, int] = {}
        for k, part in enumerate(cert.parts):
            for p in part:
                if p in first and first[p] != k:
                    violations.append(
                        Violation(
                            "overlap", f"matching {list(p)} also in part {first[p]}", part=k
                        )
                    )
                first.setdefault(p, k)

    if cert.complete and (violations or count_up_to(spec, len(seen)) != len(seen)):
        violations.extend(_completeness_violations(spec, seen))

    return PartitionReport(
        ok=not violations,
        violations=violations,
        n_parts=len(cert.parts),
        n_matchings=len(members),
    )


def verified_certificate(
    graph: GraphSpec, parts: Sequence[Sequence[Perm]]
) -> PartitionCertificate:
    """The complete certificate of parts, which check_partition accepts; else
    RuntimeError names the first violation (a raise, not an assert, so -O
    keeps it)."""
    cert = make_certificate(graph, parts, complete=True)
    report = check_partition(cert)
    if not report.ok:
        count, first = len(report.violations), report.violations[0]
        raise RuntimeError(f"build fails verification: {count} violation(s), first {first}")
    return cert


@dataclass
class ExtendabilityReport:
    total: int
    blocked: list[Perm] = field(default_factory=list)

    @property
    def all_extendable(self) -> bool:
        return not self.blocked


def check_extendability(spec: GraphSpec) -> ExtendabilityReport:
    """For every matching, decide whether some 1-factorization contains it.

    The answer is a theorem, so nothing is listed or built on a regular
    graph.  A 1-factorization covers each vertex once per member, so a graph
    that is not regular has none, and every matching of it is blocked.  On a
    d-regular bipartite graph every matching p extends: the graph less p is
    (d - 1)-regular, and by König's edge-colouring theorem (1916) it splits
    into d - 1 perfect matchings.  total is then the matching count:
    the closed form of an L graph, or the enumerated count of a matrix.
    """
    try:
        degree(spec)
    except ValueError:
        blocked = list(enumerate_matchings(spec))
        return ExtendabilityReport(total=len(blocked), blocked=blocked)
    # no count reaches sys.maxsize, so this limit never truncates one
    return ExtendabilityReport(total=count_up_to(spec, sys.maxsize - 1))


# --- certificate JSON (the on-disk interface) ---


def graph_to_json(spec: GraphSpec) -> dict:
    if spec.kind == "L":
        return {"kind": "L", "r": spec.r, "m": spec.m}
    return {"kind": "matrix", "rows": row_strings(spec)}


def _json_int(obj: dict, key: str) -> int:
    """obj[key], which must be a JSON integer: int() would coerce floats and
    strings, and bool is an int."""
    value = obj[key]
    if type(value) is not int:
        raise TypeError(f"{key} must be an integer, not {short_repr(value)}")
    return value


def graph_from_json(obj: dict, n: int) -> GraphSpec:
    if not isinstance(obj, dict):
        raise TypeError(f"graph must be an object, not {short_repr(obj)}")
    kind = obj.get("kind")
    if kind == "L":
        r = _json_int(obj, "r")
        if r == 0:
            return l_graph(0, n=n)
        return l_graph(r, _json_int(obj, "m"))
    if kind == "matrix":
        return from_matrix(obj["rows"])
    raise ValueError(f"unknown graph kind {short_repr(kind)}")


def certificate_to_json(cert: PartitionCertificate) -> dict:
    return {
        "graph": graph_to_json(cert.graph),
        "n": cert.n,
        "degree": degree(cert.graph),
        "complete": cert.complete,
        "parts": cert.parts,  # json writes the tuples as lists
    }


def _images(parts):
    return chain.from_iterable(chain.from_iterable(parts))


def certificate_from_json(obj: dict) -> PartitionCertificate:
    try:
        if not isinstance(obj, dict):
            raise TypeError(f"certificate must be an object, not {short_repr(obj)}")
        n = _json_int(obj, "n")
        graph = graph_from_json(obj["graph"], n)
        stored_degree = _json_int(obj, "degree")
        complete = obj["complete"]
        if not isinstance(complete, bool):
            raise ValueError(f"complete must be true or false, not {short_repr(complete)}")
        parts = tuple(tuple(map(tuple, part)) for part in obj["parts"])
        # exact types, as _json_int requires of the header numbers
        if not set(map(type, _images(parts))) <= {int}:
            bad = next(x for x in _images(parts) if type(x) is not int)
            raise TypeError(f"{type(bad).__name__!r} object cannot be interpreted as an integer")
    except KeyError as exc:
        raise ValueError(f"not a certificate: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"not a certificate: {exc}") from exc
    if graph.n != n:
        raise ValueError(f"stored n={short_repr(n)} contradicts graph size {graph.n}")
    if stored_degree != degree(graph):
        raise ValueError(
            f"stored degree {short_repr(stored_degree)} contradicts graph degree {degree(graph)}"
        )
    return PartitionCertificate(graph=graph, complete=complete, parts=parts)


def save_certificate(cert: PartitionCertificate, path: str | os.PathLike) -> None:
    # json.dumps runs the C encoder; json.dump to a file would not.  A
    # certificate is a tree of tuples, so the encoder need not track cycles
    text = json.dumps(certificate_to_json(cert), check_circular=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_certificate(path: str | os.PathLike) -> PartitionCertificate:
    with open(path, encoding="utf-8") as fh:
        return certificate_from_json(json.load(fh))
