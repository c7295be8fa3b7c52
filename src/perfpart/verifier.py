"""Certificate model and verification.

A certificate is a claimed partition (complete or partial) of the perfect
matchings of a graph into 1-factorizations.  Verification never raises on
bad mathematical content; it returns structured violations so a caller can
report every defect at once.  Exceptions are reserved for files that are not
structurally certificates at all.

A partition whose parts are row-rotation orbits is accepted by one test per
part.  Let the rows split into consecutive blocks of d rows, d the degree,
with the rows of a block equal, and let sigma rotate every block by one row.
The members p o sigma^t (0 <= t < d) of a matching p then give each row of
a block every column of its neighbourhood once, so they form a
1-factorization, and as sigma^t fixes no row for 0 < t < d, two such orbits
are equal or disjoint.  The coset partitions of K_{n,n} (one block) and of
L(n, 2) (two blocks) are such orbits, and construct_group builds them from
the same block test and rotations, _row_blocks and _block_rotations.
L(r, m) with m >= 3 or r = 1, and matrices without such blocks, skip the
test at once; a certificate that fails it in any way is checked by the
general path, which words every violation.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from collections import Counter
from collections.abc import Sequence
from itertools import chain, islice
from operator import itemgetter

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


def _row_blocks(rows: tuple[frozenset[int], ...], d: int) -> range | None:
    """The starts of the consecutive blocks of d equal rows that rows split
    into, or None when they do not split so."""
    n = len(rows)
    if n % d or any(rows[i] != rows[i - i % d] for i in range(n)):
        return None
    return range(0, n, d)


def _block_rotations(starts: range, d: int) -> list[itemgetter]:
    """rotations[t - 1](p) is p o sigma^t as an image tuple, for 0 < t < d,
    where sigma rotates every block of d rows starting at starts by one row.

    The identity, t = 0, is left out, so that no one-index itemgetter turns
    a member of K_{1,1} into a bare int.
    """
    return [
        itemgetter(*[b + (k + t) % d for b in starts for k in range(d)]) for t in range(1, d)
    ]


def _are_row_orbits(
    parts: Sequence[Sequence[Perm]], d: int, rows: tuple[frozenset[int], ...]
) -> bool:
    """True when the rows split into consecutive blocks of d equal rows, each
    part is, in sorted order, the orbit of its first member p under sigma,
    the rotation of every block by one row, p's images on each block are
    that block's row set, and no two parts share a first member.

    In a regular graph the blocks' row sets partition the columns, so p is a
    matching, and by the lemma in the module docstring the parts are then
    disjoint 1-factorizations.  False sends the certificate to the general
    path.
    """
    n = len(rows)
    starts = _row_blocks(rows, d) if d >= 2 else None
    if starts is None:
        return False
    block_rows = [rows[b] for b in starts]
    rotations = _block_rotations(starts, d)
    for part in parts:
        if not part:
            return False
        p = part[0]
        if (
            len(p) != n
            or [frozenset(p[b : b + d]) for b in starts] != block_rows
            or tuple(sorted([p, *[rotate(p) for rotate in rotations]])) != part
        ):
            return False
    return len({part[0] for part in parts}) == len(parts)


def check_partition(cert: PartitionCertificate) -> PartitionReport:
    """Verify every part, cross-part disjointness, and (if claimed) completeness.

    Once every member is a valid matching and no two are equal, the claim
    of completeness holds exactly when the graph has no further matching,
    which count_up_to decides by count.  Matchings are enumerated only to
    name what is missing when that test does not pass, and only up to the
    first MISSING_NAMED of them.

    First, though, _are_row_orbits tries the orbit test.  When the rows
    split into consecutive blocks of d rows, d the degree, each block's
    rows equal, and sigma rotates every block by one row, the orbit of a
    matching p, its members p o sigma^t for 0 <= t < d, is a
    1-factorization, and two such orbits are equal or disjoint.  K_{n,n} is
    one block of n rows and L(n, 2) two, so every knn:N and l2nn:N
    certificate in make_certificate's order takes that test: d - 1 rotations
    and one compare per part, and one set of first members.  When it holds,
    only the count of a complete certificate remains.  Any failure, of the
    test or of that count, runs the general check below, which words every
    violation.
    """
    spec = cert.graph
    violations: list[Violation] = []
    # once per certificate: degree() of a matrix sums every column
    d = degree(spec) if cert.parts else 0
    rows = _row_sets(spec)
    n_matchings = sum(map(len, cert.parts))
    if _are_row_orbits(cert.parts, d, rows) and not (
        cert.complete and count_up_to(spec, n_matchings) != n_matchings
    ):
        return PartitionReport(ok=True, n_parts=len(cert.parts), n_matchings=n_matchings)
    for k, part in enumerate(cert.parts):
        if not _is_factorization(part, d, rows):
            violations.extend(
                Violation(v.kind, v.detail, part=k, member=v.member)
                for v in _factorization_violations(part, d, rows)
            )

    members = set(chain.from_iterable(cert.parts))
    if len(members) < n_matchings:
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

    if cert.complete and (violations or count_up_to(spec, len(members)) != len(members)):
        violations.extend(_completeness_violations(spec, members))

    return PartitionReport(
        ok=not violations,
        violations=violations,
        n_parts=len(cert.parts),
        n_matchings=n_matchings,
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


def _certificate_from_json(obj: dict, release: bool) -> PartitionCertificate:
    """certificate_from_json, which load_certificate calls with release.

    A JSON object (a dict) where the format has an array is refused, since
    tuple() would read it as the tuple of its keys; lists and tuples are
    read alike.  With release, each part of the list obj["parts"] is
    replaced by None once its tuples exist, so the decoded lists and the
    tuples are never all alive at once.  Only the owner of obj may ask for
    that.
    """
    try:
        if not isinstance(obj, dict):
            raise TypeError(f"certificate must be an object, not {short_repr(obj)}")
        n = _json_int(obj, "n")
        graph = graph_from_json(obj["graph"], n)
        stored_degree = _json_int(obj, "degree")
        complete = obj["complete"]
        if not isinstance(complete, bool):
            raise ValueError(f"complete must be true or false, not {short_repr(complete)}")
        listed = obj["parts"]
        if isinstance(listed, dict):
            raise TypeError(f"parts must be an array, not {short_repr(listed)}")
        release = release and type(listed) is list
        parts = []
        for k, part in enumerate(listed):
            if isinstance(part, dict):
                raise TypeError(f"part {k} must be an array, not {short_repr(part)}")
            if dict in map(type, part):
                j = next(j for j, p in enumerate(part) if type(p) is dict)
                raise TypeError(f"part {k} member {j} must be an array, not {short_repr(part[j])}")
            parts.append(tuple(map(tuple, part)))
            if release:
                listed[k] = None
        parts = tuple(parts)
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


def certificate_from_json(obj: dict) -> PartitionCertificate:
    """The certificate that the JSON value obj describes; ValueError names the
    first reason it is none.  obj is left as it was."""
    return _certificate_from_json(obj, release=False)


# save_certificate encodes the parts this many at a time.  While it works,
# the C encoder holds about 75 bytes per image on Python 3.11, so a slice of
# 256 K_{8,8} parts peaks near 1.2 MB; search --out's 20 to 309 parts take
# one or two slices
SAVE_SLICE = 256


def save_certificate(cert: PartitionCertificate, path: str | os.PathLike) -> None:
    """Write the bytes json.dumps(certificate_to_json(cert),
    check_circular=False) + "\n" to path, without building that text.

    The header goes first, then the parts SAVE_SLICE at a time, each slice
    through json.dumps: it runs the C encoder, which json.dump to a file
    would not.  A certificate is a tree of tuples, so the encoder need not
    track cycles.  Only one slice's text is alive at a time, so a part that
    json cannot encode raises with the file already half written.
    """
    # the header ends '"parts": []}'; the parts go between its brackets
    head = json.dumps({**certificate_to_json(cert), "parts": ()}, check_circular=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head[:-2])
        for start in range(0, len(cert.parts), SAVE_SLICE):
            if start:
                fh.write(", ")
            text = json.dumps(cert.parts[start : start + SAVE_SLICE], check_circular=False)
            fh.write(text[1:-1])
        fh.write("]}\n")


def load_certificate(path: str | os.PathLike) -> PartitionCertificate:
    """The certificate saved at path, read as certificate_from_json reads it.

    Each decoded part is dropped as soon as its tuples exist, so the
    decoded lists and the certificate's tuples are not both held whole.
    """
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return _certificate_from_json(obj, release=True)
