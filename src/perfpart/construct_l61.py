"""Zone construction of the 53-part perfect partition for L(1, 6).

L(1, 6) is the 6+6 bipartite graph with every edge except one hole per
vertex, so matchings are the 265 fixed-point-free images.  By cycle type
they split into 120 six-cycles (C6), 40 double 3-cycles (C33), 90 with a
2-cycle and a 4-cycle (C24, of which the 30 in C24_0 have the 2-cycle
through point 1), and 15 triple transpositions (C222).  The parts come in
four families:

  * 30 parts: each C24_0 element with four six-cycles (build_t1);
  * 16 parts: the zone rows of the four classes other than the axis y0
    (propagate_zone / linked_zones);
  * 3 parts:  the axis zone's twelve C24 elements grouped around the three
    C222 elements containing (1 y0) (build_t3);
  * 4 parts:  the axis-class C33 pairs with the other twelve C222 elements
    (build_t4).

A zone row holds a C33 pair {rep, rep^-1} with rep = (1 x y)(a b c) and
a < b < c.  Its pattern, (1 x y)(a b c) or (1 x y)(a c b), is that double
3-cycle with its other cycle in either orientation; a seed is such a rep.

The default axis, seed, and pattern reproduce the reference tables bundled
under perfpart/data exactly; every other (axis, seed, pattern) choice is
accepted and checked the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graph_model import l_graph
from .matchings import classify_l61, enumerate_matchings, label_l61
from .perm_core import Perm, cycles_of, from_cycle_tuples, inverse, to_cycles
from .verifier import PartitionCertificate, verified_certificate

N = 6
GRAPH = l_graph(1, 6)

DEFAULT_Y0 = 5
DEFAULT_SEED: Perm = (3, 1, 2, 5, 6, 4)  # (1 3 2)(4 5 6)
DEFAULT_PATTERN: Perm = (3, 1, 2, 6, 4, 5)  # (1 3 2)(4 6 5)


@lru_cache(maxsize=None)
def _classes() -> dict[str, tuple[Perm, ...]]:
    return {k: tuple(v) for k, v in classify_l61(enumerate_matchings(GRAPH)).items()}


def _require(ok: bool, failure: str) -> None:
    """A construction check that python -O keeps: RuntimeError unless ok."""
    if not ok:
        raise RuntimeError(failure)


def _c33_cycles(p: Perm) -> tuple[tuple[int, ...], tuple[int, ...]]:
    cyc = cycles_of(p)
    if [len(c) for c in cyc] != [3, 3]:
        raise ValueError(f"not a double 3-cycle: {to_cycles(p)}")
    return cyc[0], cyc[1]  # cycles are min-first, so cyc[0] contains 1


def class_of(p: Perm) -> int:
    """The zone label of a C33 element; an element and its inverse agree."""
    (_, x, y), (_, b, c) = _c33_cycles(p)
    return y if b < c else x


def canonical_rep(p: Perm) -> Perm:
    """Whichever of p and its inverse has the ascending second cycle."""
    _, (_, b, c) = _c33_cycles(p)
    return p if b < c else inverse(p)


def _rep(beta: Perm) -> Perm:
    """The canonical representative (1 x y)(a b c) of a pattern (1 x y)(word)."""
    first, second = _c33_cycles(beta)
    return from_cycle_tuples([first, sorted(second)], N)


def _steps(beta: Perm) -> tuple[int, int, list[tuple[int, int, int]]]:
    """x, y and (t, beta(t), beta^2(t)) per word letter t of beta = (1 x y)(word).

    On the word, beta and beta^2 step to the next and the previous letter.
    """
    (_, x, y), word = _c33_cycles(beta)
    return x, y, [(t, beta[t - 1], beta[beta[t - 1] - 1]) for t in sorted(word)]


def pattern_apply(beta: Perm) -> tuple[Perm, Perm, Perm]:
    """The three C24 elements a pattern pins to its zone row.

    For each word letter t the element is (1 t x beta(t))(y beta^2(t)); all
    three carry y, never 1, in their 2-cycle.
    """
    x, y, steps = _steps(beta)
    out = tuple(from_cycle_tuples([(1, t, x, nxt), (y, prv)], N) for t, nxt, prv in steps)
    _require(len({cycles_of(e)[1] for e in out}) == 3, "2-cycles must be distinct")
    return out


@dataclass(frozen=True)
class Zone:
    """Four rows of five matchings: a class-y C33 pair plus three C24 elements.

    A row is held as its pattern beta; its pair is _rep(beta) and the inverse.
    """

    y: int
    rows: tuple[Perm, ...]

    @property
    def subsets(self) -> list[tuple[Perm, ...]]:
        reps = [_rep(beta) for beta in self.rows]
        return [(r, inverse(r), *pattern_apply(b)) for r, b in zip(reps, self.rows)]

    @property
    def quads(self) -> list[Perm]:
        """The twelve C24 members, in row order."""
        return [e for beta in self.rows for e in pattern_apply(beta)]


def _zone_rows(beta: Perm) -> set[Perm]:
    """The patterns of all four rows spanned by one seeded row.

    The three other class-y rows have the patterns (1 l y)(x beta^2(l) beta(l))
    for the word letters l.
    """
    x, y, steps = _steps(beta)
    return {beta} | {from_cycle_tuples([(1, t, y), (x, prv, nxt)], N) for t, nxt, prv in steps}


def propagate_zone(beta: Perm) -> Zone:
    """Grow the full zone of pattern beta's class from its row, seeded by _rep(beta).

    Checks the defining consistency conditions, and raises RuntimeError when
    one fails: re-seeding from any derived row reproduces the identical zone,
    and C24 members sharing a 2-cycle have 4-cycle tails that are rotations
    of one another yet pairwise distinct as based words.
    """
    y = class_of(_rep(beta))
    rows = _zone_rows(beta)

    for row in rows:
        if _zone_rows(row) != rows:
            raise RuntimeError(
                f"zone not well defined: re-seeding from {to_cycles(_rep(row))} diverged"
            )

    members = {p for rep in map(_rep, rows) for p in (rep, inverse(rep))}
    _require(
        members == {p for p in _classes()["C33"] if class_of(p) == y},
        f"zone {y}: its rows' pairs are not the class's C33 elements",
    )

    tails_by_two: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for row in rows:
        for e in pattern_apply(row):
            _require(label_l61(e) == "C24", f"zone {y}: a pinned member is not in C24")
            four, two = cycles_of(e)  # the 4-cycle holds 1, so it sorts first
            _require(y in two and four[0] == 1, f"zone {y}: a pinned member's 2-cycle misses {y}")
            tails_by_two.setdefault(two, []).append(four[1:])
    _require(len(tails_by_two) == 4, f"zone {y}: the members do not share four 2-cycles")
    for tails in tails_by_two.values():
        rotations = {tails[0][i:] + tails[0][:i] for i in range(3)}
        _require(
            set(tails) == rotations and len(set(tails)) == 3,
            "members sharing a 2-cycle must have rotated, non-equal 4-cycles",
        )

    return Zone(y=y, rows=tuple(sorted(rows)))


def linked_zones(beta: Perm) -> dict[int, Zone]:
    """All five zones forced by the zone that pattern beta seeds.

    Each row pattern (1 z y)(word) of the seed zone hands zone z its seed:
    the inverse (1 y z)(word reversed) is a pattern of (1 y z)(a b c), which
    has class z.  The caller withholds the axis zone for build_t3/build_t4;
    all five are returned.
    """
    seeded = propagate_zone(beta)
    linked = [propagate_zone(gamma) for gamma in map(inverse, seeded.rows)]
    zones = {zone.y: zone for zone in (seeded, *linked)}
    _require(sorted(zones) == list(range(2, N + 1)), "the linked zones are not the classes 2..6")

    flat = [e for zone in zones.values() for sub in zone.subsets for e in sub]
    _require(len(flat) == len(set(flat)) == 100, "zones must be pairwise disjoint")
    return dict(sorted(zones.items()))


def t1_subset(sigma: Perm) -> tuple[Perm, ...]:
    """The part pairing a C24_0 element with four six-cycles.

    Writing sigma = (1 x2)(x3 x4 x5 x6), the six-cycles are
    (1 x3 x2 x5 x4 x6), (1 x4 x2 x6 x5 x3), (1 x5 x2 x3 x6 x4),
    (1 x6 x2 x4 x3 x5).  The result must not depend on which rotation of the
    4-cycle is written down; RuntimeError when it does.
    """
    if label_l61(sigma) != "C24_0":
        raise ValueError(f"{to_cycles(sigma)} does not carry 1 in its 2-cycle")
    (_, x2), four = cycles_of(sigma)
    variants = set()
    for s in range(4):
        x3, x4, x5, x6 = four[s:] + four[:s]
        sixes = [
            (1, x3, x2, x5, x4, x6),
            (1, x4, x2, x6, x5, x3),
            (1, x5, x2, x3, x6, x4),
            (1, x6, x2, x4, x3, x5),
        ]
        variants.add(frozenset([sigma, *(from_cycle_tuples([c], N) for c in sixes)]))
    _require(len(variants) == 1, "rotating the written 4-cycle changed the subset")
    part = tuple(sorted(variants.pop()))
    _require(
        len(part) == 5 and sum(label_l61(e) == "C6" for e in part) == 4,
        "a type-1 part is not its C24_0 element and four six-cycles",
    )
    return part


def build_t1() -> list[tuple[Perm, ...]]:
    """30 parts consuming every C6 and every C24_0 element exactly once."""
    parts = [t1_subset(s) for s in sorted(_classes()["C24_0"])]
    flat = [e for part in parts for e in part]
    _require(len(parts) == 30 and len(set(flat)) == 150, "type 1: not 30 disjoint parts")
    return parts


def build_t3(y0: int, zone: Zone) -> list[tuple[Perm, ...]]:
    """3 parts: the axis zone's C24 members grouped around the (1 y0) anchors.

    An axis-zone member e = (1 t x u)(y0 v) differs in every row from the
    C222 element (1 y0)(x v)(t u) and shares a row with each of the other
    two C222 elements containing (1 y0), so it fits that one anchor only.
    Each anchor, in ascending order, takes the four members that fit it, in
    ascending order.
    """
    if zone.y != y0:
        raise ValueError(f"zone is for class {zone.y}, not the axis {y0}")
    groups: dict[Perm, list[Perm]] = {}
    for e in sorted(zone.quads):
        t, x = e[0], e[e[0] - 1]
        anchor = from_cycle_tuples([(1, y0), (x, e[y0 - 1]), (t, e[x - 1])], N)
        groups.setdefault(anchor, []).append(e)
    anchors = sorted(p for p in _classes()["C222"] if (1, y0) in cycles_of(p))
    _require(
        sorted(groups) == anchors and {len(g) for g in groups.values()} == {4},
        f"axis {y0}: the C24 members do not fall into four per (1 {y0}) anchor",
    )

    return [(mu, *groups[mu]) for mu in anchors]


def build_t4(y0: int, zone: Zone) -> list[tuple[Perm, ...]]:
    """4 parts: each axis-class pair with three C222 elements avoiding (1 y0).

    A row with pattern (1 x y0)(word) contributes its pair and, for each word
    letter t, the C222 element (1 t)(x beta(t))(y0 beta^2(t)).
    """
    if zone.y != y0:
        raise ValueError(f"zone is for class {zone.y}, not the axis {y0}")
    parts = []
    for beta in zone.rows:
        x, _, steps = _steps(beta)
        trips = [from_cycle_tuples([(1, t), (x, nxt), (y0, prv)], N) for t, nxt, prv in steps]
        for e in trips:
            _require(
                label_l61(e) == "C222" and (1, y0) not in cycles_of(e),
                f"axis {y0}: a member is no C222 element avoiding (1 {y0})",
            )
        rep = _rep(beta)
        parts.append((rep, inverse(rep), *trips))
    flat = [e for part in parts for e in part]
    _require(len(flat) == len(set(flat)) == 20, f"axis {y0}: not 20 distinct members")
    return parts


def build_l61(
    y0: int = DEFAULT_Y0,
    seed: Perm | None = None,
    pattern: Perm | None = None,
) -> PartitionCertificate:
    """The full 53-part partition of L(1, 6)'s 265 matchings, verified by
    check_partition before it is returned.

    The defaults rebuild the bundled reference tables.  Any other axis y0 in
    2..6, any C33 seed (canonicalized automatically), and either of its two
    patterns are accepted; when a seed is given without a pattern, the seed's
    own ascending word is used.
    """
    rep = canonical_rep(seed) if seed is not None else DEFAULT_SEED
    if pattern is None:
        pattern = DEFAULT_PATTERN if seed is None else rep
    if _rep(pattern) != rep:
        raise ValueError(
            f"pattern {to_cycles(pattern)} does not fit the representative {to_cycles(rep)}: "
            "it must share the 3-cycle through 1 and rearrange the other one"
        )
    if y0 not in range(2, N + 1):
        raise ValueError(f"axis must be in 2..{N}, got {y0}")

    zones = linked_zones(pattern)
    zone_parts = [sub for z, zone in zones.items() if z != y0 for sub in zone.subsets]
    axis = zones[y0]
    return verified_certificate(
        GRAPH, [*build_t1(), *zone_parts, *build_t3(y0, axis), *build_t4(y0, axis)]
    )
