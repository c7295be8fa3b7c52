"""Loaders for the bundled reference tables.

The data files under ``perfpart/data`` hold the hand-checkable reference
partitions: the 53-part default for the degree-5 graph on 6+6 vertices
(30 two-cycle parts, 20 zone rows, and the axis-5 leftovers) and the unique
3-part partition for the degree-3 graph on 4+4 vertices.  Lines are
pipe-separated cycle strings; ``#`` lines are comments.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from .perm_core import Perm, parse_cycles


def _data_lines(name: str) -> list[str]:
    text = resources.files("perfpart.data").joinpath(name).read_text("utf-8")
    return [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]


def _parse_parts(name: str, n: int) -> tuple[tuple[Perm, ...], ...]:
    return tuple(
        tuple(parse_cycles(cell, n) for cell in ln.split("|")) for ln in _data_lines(name)
    )


def _check(ok: bool, name: str, failure: str) -> None:
    """A data-file check that python -O keeps: ValueError naming the file unless ok."""
    if not ok:
        raise ValueError(f"perfpart/data/{name}: {failure}")


@lru_cache(maxsize=None)
def t1_table() -> tuple[tuple[Perm, ...], ...]:
    """30 reference parts: one 2-cycle-through-1 element plus four 6-cycles."""
    rows = _parse_parts("l61_t1.txt", 6)
    _check(len(rows) == 30, "l61_t1.txt", f"{len(rows)} parts, not 30")
    return rows


@lru_cache(maxsize=None)
def zone_table() -> dict[int, tuple[tuple[Perm, ...], ...]]:
    """Reference zone rows keyed by zone label; 4 rows of 5 members each."""
    out: dict[int, list[tuple[Perm, ...]]] = {}
    for ln in _data_lines("l61_zones.txt"):
        z_text, _, rest = ln.partition("|")
        z = int(z_text)
        row = tuple(parse_cycles(cell, 6) for cell in rest.split("|"))
        out.setdefault(z, []).append(row)
    _check(sorted(out) == [2, 3, 4, 5, 6], "l61_zones.txt", f"zones {sorted(out)}, not 2..6")
    _check(all(len(rows) == 4 for rows in out.values()), "l61_zones.txt", "a zone without 4 rows")
    return {z: tuple(rows) for z, rows in out.items()}


@lru_cache(maxsize=None)
def t3_table() -> tuple[tuple[Perm, ...], ...]:
    """3 reference axis-5 parts anchored at the triple-transposition elements."""
    rows = _parse_parts("l61_t3_y5.txt", 6)
    _check(len(rows) == 3, "l61_t3_y5.txt", f"{len(rows)} parts, not 3")
    return rows


@lru_cache(maxsize=None)
def t4_table() -> tuple[tuple[Perm, ...], ...]:
    """4 reference axis-5 parts carrying the class-5 inverse pairs."""
    rows = _parse_parts("l61_t4_y5.txt", 6)
    _check(len(rows) == 4, "l61_t4_y5.txt", f"{len(rows)} parts, not 4")
    return rows


@lru_cache(maxsize=None)
def l41_table() -> tuple[tuple[Perm, ...], ...]:
    """The 3-part partition of the degree-3 graph on 4+4 vertices."""
    rows = _parse_parts("l41_parts.txt", 4)
    _check(len(rows) == 3 and all(len(r) == 3 for r in rows), "l41_parts.txt", "not 3 parts of 3")
    return rows


def l61_golden_parts() -> list[tuple[Perm, ...]]:
    """All 53 reference parts of the default build (axis 5)."""
    parts: list[tuple[Perm, ...]] = list(t1_table())
    for z in (2, 3, 4, 6):
        parts.extend(zone_table()[z])
    parts.extend(t3_table())
    parts.extend(t4_table())
    _check(len(parts) == 53, "l61_*.txt", f"{len(parts)} reference parts, not 53")
    return parts


def canonical_parts(parts) -> set[tuple[Perm, ...]]:
    """Order-insensitive view of a collection of parts, for diffing."""
    return {tuple(sorted(tuple(p) for p in part)) for part in parts}


def diff_parts(got, want) -> tuple[list[tuple[Perm, ...]], list[tuple[Perm, ...]]]:
    """(parts only in got, parts only in want), canonically ordered."""
    a, b = canonical_parts(got), canonical_parts(want)
    return sorted(a - b), sorted(b - a)
