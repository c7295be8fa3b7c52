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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from collections.abc import Sequence

from .graph_model import GraphSpec, degree, from_matrix, l_graph, row_strings
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

    def canonical(self) -> "PartitionCertificate":
        """Members sorted by image tuple, parts sorted by first member."""
        parts = tuple(sorted(tuple(sorted(part)) for part in self.parts))
        return PartitionCertificate(self.graph, self.complete, parts)


def make_certificate(
    graph: GraphSpec, parts: Sequence[Sequence[Perm]], complete: bool
) -> PartitionCertificate:
    cert = PartitionCertificate(
        graph=graph,
        complete=complete,
        parts=tuple(tuple(tuple(p) for p in part) for part in parts),
    )
    return cert.canonical()


def check_factorization(spec: GraphSpec, perms: Sequence[Perm]) -> list[Violation]:
    """Violations of 'perms is a 1-factorization of spec'; empty means valid.

    Checks size == degree, membership of every matching, and exact single
    coverage of every edge (equivalently, permutation matrices sum to the
    adjacency matrix).
    """
    out: list[Violation] = []
    n = spec.n
    d = degree(spec)
    if len(perms) != d:
        out.append(
            Violation("size", f"expected {d} matchings (the degree), got {len(perms)}")
        )
    seen: dict[Perm, int] = {}
    cover = [[0] * n for _ in range(n)]
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
            if not spec.adjacency(i, x):
                out.append(
                    Violation("not_matching", f"edge ({i},{x}) absent", member=k)
                )
            else:
                cover[i - 1][x - 1] += 1
    if not out:
        for i in range(n):
            for j in range(n):
                want = 1 if spec.adjacency(i + 1, j + 1) else 0
                got = cover[i][j]
                if got != want:
                    out.append(
                        Violation(
                            "coverage",
                            f"edge ({i + 1},{j + 1}) covered {got} times, expected {want}",
                        )
                    )
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


def _check_part(args: tuple[GraphSpec, int, tuple[Perm, ...]]) -> list[Violation]:
    spec, k, part = args
    return [
        Violation(v.kind, v.detail, part=k, member=v.member)
        for v in check_factorization(spec, part)
    ]


def check_partition(cert: PartitionCertificate, workers: int = 1) -> PartitionReport:
    """Verify every part, cross-part disjointness, and (if claimed) completeness.

    workers > 1 verifies parts in a process pool; results are merged in part
    order so the report is identical either way.
    """
    spec = cert.graph
    violations: list[Violation] = []
    jobs = [(spec, k, part) for k, part in enumerate(cert.parts)]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for batch in pool.map(_check_part, jobs, chunksize=32):
                violations.extend(batch)
    else:
        for job in jobs:
            violations.extend(_check_part(job))

    seen: dict[Perm, int] = {}
    for k, part in enumerate(cert.parts):
        for p in part:
            if p in seen and seen[p] != k:
                violations.append(
                    Violation(
                        "overlap", f"matching {list(p)} also in part {seen[p]}", part=k
                    )
                )
            seen.setdefault(p, k)

    if cert.complete:
        want = set(enumerate_matchings(spec))
        have = set(seen)
        for p in sorted(want - have):
            violations.append(Violation("missing", f"matching {list(p)} uncovered"))
        for p in sorted(have - want):
            violations.append(
                Violation("extra", f"{list(p)} is not a matching of the graph")
            )

    return PartitionReport(
        ok=not violations,
        violations=violations,
        n_parts=len(cert.parts),
        n_matchings=sum(len(part) for part in cert.parts),
    )


@dataclass
class ExtendabilityReport:
    total: int
    blocked: list[Perm] = field(default_factory=list)

    @property
    def all_extendable(self) -> bool:
        return not self.blocked


def check_extendability(spec: GraphSpec, budget: int | None = None) -> ExtendabilityReport:
    """For every matching, decide whether some 1-factorization contains it.

    budget bounds the search nodes spent on each matching; exceeding it
    raises SearchBudgetExceeded.
    """
    from .search import matching_index  # deferred: search builds on matchings

    matchings, index = matching_index(spec)
    blocked = []
    for k, p in enumerate(matchings):
        shared = [budget] if budget is not None else None
        if next(index.covers(index.all_rows, (k,), shared), None) is None:
            blocked.append(p)
    return ExtendabilityReport(total=len(matchings), blocked=blocked)


# --- certificate JSON (the on-disk interface) ---


def graph_to_json(spec: GraphSpec) -> dict:
    if spec.kind == "L":
        return {"kind": "L", "r": spec.r, "m": spec.m}
    return {"kind": "matrix", "rows": row_strings(spec)}


def graph_from_json(obj: dict, n: int) -> GraphSpec:
    kind = obj.get("kind")
    if kind == "L":
        r = obj["r"]
        if r == 0:
            return l_graph(0, n=n)
        return l_graph(r, obj["m"])
    if kind == "matrix":
        return from_matrix(obj["rows"])
    raise ValueError(f"unknown graph kind {kind!r}")


def certificate_to_json(cert: PartitionCertificate) -> dict:
    return {
        "graph": graph_to_json(cert.graph),
        "n": cert.n,
        "degree": degree(cert.graph),
        "complete": cert.complete,
        "parts": [[list(p) for p in part] for part in cert.parts],
    }


def certificate_from_json(obj: dict) -> PartitionCertificate:
    try:
        n = obj["n"]
        graph = graph_from_json(obj["graph"], n)
        complete = bool(obj["complete"])
        parts = tuple(
            tuple(tuple(int(x) for x in p) for p in part) for part in obj["parts"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"not a certificate: {exc}") from exc
    if graph.n != n:
        raise ValueError(f"stored n={n} contradicts graph size {graph.n}")
    if obj.get("degree") != degree(graph):
        raise ValueError(
            f"stored degree {obj.get('degree')!r} contradicts graph degree {degree(graph)}"
        )
    return PartitionCertificate(graph=graph, complete=complete, parts=parts)


def save_certificate(cert: PartitionCertificate, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(certificate_to_json(cert), fh)
        fh.write("\n")


def load_certificate(path: str | os.PathLike) -> PartitionCertificate:
    with open(path, encoding="utf-8") as fh:
        return certificate_from_json(json.load(fh))
