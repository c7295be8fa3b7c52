"""Permutations as 1-based image tuples, with cycle-notation parsing and printing."""

from __future__ import annotations

import re
from collections.abc import Iterable

Perm = tuple[int, ...]

_CYCLE_RE = re.compile(r"\(([^()]*)\)")

# Largest side n of a graph: adjacency rows are bitmasks of n bits.  Every
# matching is a permutation of degree at most this.
MAX_N = 64

# str(0) .. str(MAX_N), so to_cycles converts no int of a matching's cycles
_DIGITS = tuple(map(str, range(MAX_N + 1)))


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(a: Perm, b: Perm) -> Perm:
    """Composition applying b first: compose(a, b)(i) = a(b(i))."""
    return tuple(a[x - 1] for x in b)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, x in enumerate(p, start=1):
        inv[x - 1] = i
    return tuple(inv)


def apply(p: Perm, i: int) -> int:
    return p[i - 1]


def cycles_of(p: Perm) -> list[tuple[int, ...]]:
    """Cycle decomposition in canonical form.

    Fixed points are omitted, each cycle starts at its minimum element and
    cycles are ordered by that minimum.
    """
    n = len(p)
    seen = [False] * (n + 1)
    out: list[tuple[int, ...]] = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        seen[start] = True
        if p[start - 1] == start:
            continue
        cyc = [start]
        nxt = p[start - 1]
        while nxt != start:
            seen[nxt] = True
            cyc.append(nxt)
            nxt = p[nxt - 1]
        out.append(tuple(cyc))
    return out


def from_cycle_tuples(cycles: Iterable[Iterable[int]], n: int) -> Perm:
    """Build an image tuple from explicit cycles; unmentioned points are fixed."""
    images = list(range(n + 1))  # images[0] unused
    touched = set()
    for cyc in cycles:
        cyc = tuple(cyc)
        for e in cyc:
            if not 1 <= e <= n:
                raise ValueError(f"element {e} out of range 1..{n}")
            if e in touched:
                raise ValueError(f"element {e} repeated across cycles")
            touched.add(e)
        for i, e in enumerate(cyc):
            images[e] = cyc[(i + 1) % len(cyc)]
    return tuple(images[1:])


def to_cycles(p: Perm) -> str:
    """Canonical cycle string: min-first cycles sorted by minimum, "()" for identity.

    One walk writes each cycle from _DIGITS as it visits it: a cycle starts
    at the first point not yet seen that p moves, which is its minimum.
    """
    n = len(p)
    digits = _DIGITS if n <= MAX_N else tuple(map(str, range(n + 1)))
    seen = [False] * (n + 1)
    out = ""
    for start, nxt in enumerate(p, 1):
        if seen[start] or nxt == start:
            continue
        out += "(" + digits[start]
        while nxt != start:
            seen[nxt] = True
            out += " " + digits[nxt]
            nxt = p[nxt - 1]
        out += ")"
    return out or "()"


def parse_cycles(text: str, n: int) -> Perm:
    """Parse cycle notation into an image tuple of degree n.

    Elements inside a cycle are separated by whitespace or commas.  A run of
    digits with no separators, like "(12)(34)", is read one digit per element,
    which is only unambiguous for n <= 9.  "()" denotes the identity.
    """
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty cycle string")
    body = _CYCLE_RE.sub("", stripped)
    if body.strip():
        raise ValueError(f"stray text outside cycles: {text!r}")
    cycles: list[list[int]] = []
    for group in _CYCLE_RE.findall(stripped):
        group = group.strip()
        if not group:
            continue
        if re.search(r"[\s,]", group):
            elems = [int(tok) for tok in re.split(r"[\s,]+", group) if tok]
        elif group.isdigit():
            if len(group) > 1 and n > 9:
                raise ValueError(
                    f"ambiguous unseparated cycle {group!r} with n={n}; use spaces"
                )
            elems = [int(ch) for ch in group] if len(group) > 1 else [int(group)]
        else:
            raise ValueError(f"cannot parse cycle {group!r}")
        cycles.append(elems)
    return from_cycle_tuples(cycles, n)


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Sorted multiset of cycle lengths, fixed points included as 1s."""
    lengths = [len(c) for c in cycles_of(p)]
    lengths += [1] * (len(p) - sum(lengths))
    return tuple(sorted(lengths))


def is_permutation(images: Iterable[int], n: int) -> bool:
    seq = tuple(images)
    return len(seq) == n and sorted(seq) == list(range(1, n + 1))
