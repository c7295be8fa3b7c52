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

The default axis, seed, and pattern reproduce the reference tables bundled
under perfpart/data exactly; every other (axis, seed, pattern) choice is
accepted and checked the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graph_model import GraphSpec, degree, l_graph
from .matchings import classify_l61, enumerate_matchings, label_l61
from .perm_core import Perm, cycles_of, from_cycle_tuples, inverse, to_cycles
from .search import edge_masks, exact_cover
from .verifier import PartitionCertificate, check_factorization, make_certificate

N = 6

ClassLabel = int

DEFAULT_Y0 = 5
DEFAULT_SEED: Perm = (3, 1, 2, 5, 6, 4)  # (1 3 2)(4 5 6)
DEFAULT_PATTERN: Perm = (3, 1, 2, 6, 4, 5)  # (1 3 2)(4 6 5)


@lru_cache(maxsize=None)
def _graph() -> GraphSpec:
    return l_graph(1, 6)


@lru_cache(maxsize=None)
def _classes() -> dict[str, tuple[Perm, ...]]:
    return {k: tuple(v) for k, v in classify_l61(enumerate_matchings(_graph())).items()}


def _c33_cycles(p: Perm) -> tuple[tuple[int, ...], tuple[int, ...]]:
    cyc = cycles_of(p)
    if [len(c) for c in cyc] != [3, 3]:
        raise ValueError(f"not a double 3-cycle: {to_cycles(p)}")
    return cyc[0], cyc[1]  # cycles are min-first, so cyc[0] contains 1


def class_of(p: Perm) -> ClassLabel:
    """The zone label of a C33 element; an element and its inverse agree."""
    (_, x, y), (_, b, c) = _c33_cycles(p)
    return y if b < c else x


def canonical_rep(p: Perm) -> Perm:
    """Whichever of p and its inverse has the ascending second cycle."""
    _, (_, b, c) = _c33_cycles(p)
    return p if b < c else inverse(p)


@dataclass(frozen=True)
class Pattern:
    """Cyclic word attached to a canonical C33 representative (1 x y)(a b c).

    The word arranges {a, b, c} and decides which three C24 elements share a
    zone row with the pair {rep, rep^-1}.  Only the cyclic order matters, so
    the word is stored min-first.
    """

    x: int
    y: int
    word: tuple[int, int, int]

    def __post_init__(self) -> None:
        if len(set((1, self.x, self.y, *self.word))) != N:
            raise ValueError(f"pattern must involve all six points: {self}")
        k = self.word.index(min(self.word))
        if k:
            object.__setattr__(self, "word", self.word[k:] + self.word[:k])

    @classmethod
    def for_rep(cls, rep: Perm, beta: Perm) -> Pattern:
        """Read a full permutation as the pattern of a canonical rep."""
        first, second = _c33_cycles(rep)
        bfirst, bsecond = _c33_cycles(beta)
        if bfirst != first or set(bsecond) != set(second):
            raise ValueError(
                f"pattern {to_cycles(beta)} does not fit the representative "
                f"{to_cycles(rep)}: it must share the 3-cycle through 1 and "
                "rearrange the other one"
            )
        return cls(x=first[1], y=first[2], word=bsecond)

    def perm(self) -> Perm:
        return from_cycle_tuples([(1, self.x, self.y), self.word], N)

    def nxt(self, v: int) -> int:
        return self.word[(self.word.index(v) + 1) % 3]

    def prv(self, v: int) -> int:
        return self.word[(self.word.index(v) - 1) % 3]


def pattern_apply(beta: Pattern) -> tuple[Perm, Perm, Perm]:
    """The three C24 elements a pattern pins to its zone row.

    For each word letter t the element is (1 t x nxt(t))(y prv(t)); all three
    carry y, never 1, in their 2-cycle.
    """
    out = tuple(
        from_cycle_tuples([(1, t, beta.x, beta.nxt(t)), (beta.y, beta.prv(t))], N)
        for t in sorted(beta.word)
    )
    assert len({cycles_of(e)[1] for e in out}) == 3, "2-cycles must be distinct"
    return out


@dataclass(frozen=True)
class Zone:
    """Four rows of five matchings: a class-y C33 pair plus three C24 elements."""

    y: int
    rows: tuple[tuple[Perm, Pattern], ...]

    @property
    def subsets(self) -> list[tuple[Perm, ...]]:
        return [(rep, inverse(rep), *pattern_apply(pat)) for rep, pat in self.rows]

    @property
    def quads(self) -> list[Perm]:
        """The twelve C24 members, in row order."""
        return [e for _, pat in self.rows for e in pattern_apply(pat)]


def _zone_rows(rep: Perm, beta: Pattern) -> dict[Perm, Pattern]:
    """All four rows {canonical rep: pattern} spanned by one seeded row.

    The three other class-y pairs are (1 l y)(rest ascending) for the word
    letters l; each inherits the word (x prv(l) nxt(l)).
    """
    (_, x, y), _ = _c33_cycles(rep)
    rows = {rep: beta}
    for ell in sorted(beta.word):
        rest = sorted(({x, *beta.word}) - {ell})
        gamma = from_cycle_tuples([(1, ell, y), rest], N)
        rows[gamma] = Pattern(x=ell, y=y, word=(x, beta.prv(ell), beta.nxt(ell)))
    return rows


def propagate_zone(seed: Perm, beta: Pattern) -> Zone:
    """Grow the full zone of seed's class from one (representative, pattern) row.

    Asserts the defining consistency conditions: re-seeding from any derived
    row reproduces the identical zone, and C24 members sharing a 2-cycle have
    4-cycle tails that are rotations of one another yet pairwise distinct as
    based words.
    """
    first, second = _c33_cycles(seed)
    if second != tuple(sorted(second)):
        raise ValueError(
            f"seed must be the canonical representative, got {to_cycles(seed)}"
        )
    if (beta.x, beta.y) != (first[1], first[2]) or set(beta.word) != set(second):
        raise ValueError(f"pattern {beta} does not fit seed {to_cycles(seed)}")
    y = class_of(seed)
    rows = _zone_rows(seed, beta)

    for rep, pat in rows.items():
        assert _zone_rows(rep, pat) == rows, (
            f"zone not well defined: re-seeding from {to_cycles(rep)} diverged"
        )

    members = set(rows) | {inverse(r) for r in rows}
    assert members == {p for p in _classes()["C33"] if class_of(p) == y}

    tails_by_two: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for pat in rows.values():
        for e in pattern_apply(pat):
            assert label_l61(e) == "C24"
            four, two = cycles_of(e)  # the 4-cycle holds 1, so it sorts first
            assert y in two and four[0] == 1
            tails_by_two.setdefault(two, []).append(four[1:])
    assert len(tails_by_two) == 4
    for tails in tails_by_two.values():
        rotations = {tails[0][i:] + tails[0][:i] for i in range(3)}
        assert set(tails) == rotations and len(set(tails)) == 3, (
            "members sharing a 2-cycle must have rotated, non-equal 4-cycles"
        )

    return Zone(y=y, rows=tuple(sorted(rows.items())))


def linked_zones(seed: Perm, beta: Pattern, y0: int) -> dict[int, Zone]:
    """All five zones forced by one seeded zone.

    Each row (1 z y)(a b c) of the seed's zone hands zone z its seed: the
    transposed form (1 z y)(a c b) has class z, and its canonical rep carries
    the inverted pattern.  y0 only selects which zone the caller withholds
    for build_t3/build_t4; all five are returned.
    """
    if y0 not in range(2, N + 1):
        raise ValueError(f"axis must be in 2..{N}, got {y0}")
    seed = canonical_rep(seed)
    y = class_of(seed)
    zones = {y: propagate_zone(seed, beta)}
    for rep, pat in zones[y].rows:
        (_, z, _), (a, b, c) = _c33_cycles(rep)
        star = from_cycle_tuples([(1, z, y), (a, c, b)], N)
        grep = canonical_rep(star)
        gpat = Pattern.for_rep(grep, inverse(pat.perm()))
        zones[z] = propagate_zone(grep, gpat)
    assert sorted(zones) == list(range(2, N + 1))

    flat = [e for zone in zones.values() for sub in zone.subsets for e in sub]
    assert len(flat) == len(set(flat)) == 100, "zones must be pairwise disjoint"
    return dict(sorted(zones.items()))


def t1_subset(sigma: Perm) -> tuple[Perm, ...]:
    """The part pairing a C24_0 element with four six-cycles.

    Writing sigma = (1 x2)(x3 x4 x5 x6), the six-cycles are
    (1 x3 x2 x5 x4 x6), (1 x4 x2 x6 x5 x3), (1 x5 x2 x3 x6 x4),
    (1 x6 x2 x4 x3 x5).  The result must not depend on which rotation of the
    4-cycle is written down, and that independence is asserted here.
    """
    if label_l61(sigma) != "C24_0":
        raise ValueError(f"{to_cycles(sigma)} does not carry 1 in its 2-cycle")
    (_, x2), four = cycles_of(sigma)
    variants = set()
    for s in range(4):
        x3, x4, x5, x6 = four[s:] + four[:s]
        variants.add(
            frozenset(
                (
                    sigma,
                    from_cycle_tuples([(1, x3, x2, x5, x4, x6)], N),
                    from_cycle_tuples([(1, x4, x2, x6, x5, x3)], N),
                    from_cycle_tuples([(1, x5, x2, x3, x6, x4)], N),
                    from_cycle_tuples([(1, x6, x2, x4, x3, x5)], N),
                )
            )
        )
    assert len(variants) == 1, "rotating the written 4-cycle changed the subset"
    part = tuple(sorted(variants.pop()))
    assert len(part) == 5 and sum(label_l61(e) == "C6" for e in part) == 4
    return part


def build_t1() -> list[tuple[Perm, ...]]:
    """30 parts consuming every C6 and every C24_0 element exactly once."""
    parts = [t1_subset(s) for s in sorted(_classes()["C24_0"])]
    flat = [e for part in parts for e in part]
    assert len(parts) == 30 and len(set(flat)) == 150
    return parts


def build_t3(y0: int, zone: Zone) -> list[tuple[Perm, ...]]:
    """3 parts: the axis zone's C24 members grouped around the (1 y0) anchors.

    Each of the three C222 elements containing the 2-cycle (1 y0), taken in
    ascending order, is completed to a factorization by an exact cover of
    the edges with the anchor forced and four of the still unused C24
    elements; the first cover in ascending order is kept.  The grouping is
    forced (each anchor has exactly one completing 4-set), and every part
    passes check_factorization before it is committed.
    """
    if zone.y != y0:
        raise ValueError(f"zone is for class {zone.y}, not the axis {y0}")
    spec = _graph()
    n_edges = spec.n * degree(spec)
    remaining = sorted(zone.quads)
    anchors = sorted(p for p in _classes()["C222"] if (1, y0) in cycles_of(p))
    assert len(anchors) == 3 and len(remaining) == 12

    parts: list[tuple[Perm, ...]] = []
    for mu in anchors:
        rows = [mu, *remaining]
        cover = next(exact_cover(n_edges, edge_masks(spec, rows), forced=(0,)), None)
        if cover is None:
            raise RuntimeError(
                f"no grouping of the zone-{y0} C24 members around the three "
                f"(1 {y0}) anchors yields factorizations"
            )
        part = tuple(rows[i] for i in cover)
        if check_factorization(spec, part):
            raise RuntimeError(f"t3 part around {to_cycles(mu)} fails verification")
        parts.append(part)
        remaining = [q for q in remaining if q not in part]
    assert not remaining
    return parts


def build_t4(y0: int, zone: Zone) -> list[tuple[Perm, ...]]:
    """4 parts: each axis-class pair with three C222 elements avoiding (1 y0).

    A row with representative (1 x y0) and word (a b c) contributes
    {rep, rep^-1, (1 a)(x b)(y0 c), (1 b)(x c)(y0 a), (1 c)(x a)(y0 b)}.
    """
    if zone.y != y0:
        raise ValueError(f"zone is for class {zone.y}, not the axis {y0}")
    parts = []
    for rep, pat in zone.rows:
        trips = [
            from_cycle_tuples([(1, t), (pat.x, pat.nxt(t)), (y0, pat.prv(t))], N)
            for t in sorted(pat.word)
        ]
        for e in trips:
            assert label_l61(e) == "C222" and (1, y0) not in cycles_of(e)
        parts.append((rep, inverse(rep), *trips))
    flat = [e for part in parts for e in part]
    assert len(flat) == len(set(flat)) == 20
    return parts


def build_l61(
    y0: int = DEFAULT_Y0,
    seed: Perm | None = None,
    pattern: Perm | Pattern | None = None,
) -> PartitionCertificate:
    """The full 53-part partition of L(1, 6)'s 265 matchings.

    The defaults rebuild the bundled reference tables.  Any other axis y0 in
    2..6, any C33 seed (canonicalized automatically), and either of its two
    patterns are accepted; when a seed is given without a pattern, the seed's
    own ascending word is used.
    """
    rep = canonical_rep(seed) if seed is not None else DEFAULT_SEED
    if pattern is None:
        beta = (
            Pattern.for_rep(rep, DEFAULT_PATTERN)
            if seed is None
            else Pattern.for_rep(rep, rep)
        )
    elif isinstance(pattern, Pattern):
        beta = pattern
    else:
        beta = Pattern.for_rep(rep, pattern)

    zones = linked_zones(rep, beta, y0)
    parts: list[tuple[Perm, ...]] = build_t1()
    for z, zone in zones.items():
        if z != y0:
            parts.extend(zone.subsets)
    parts.extend(build_t3(y0, zones[y0]))
    parts.extend(build_t4(y0, zones[y0]))

    assert len(parts) == 53
    flat = [p for part in parts for p in part]
    assert len(flat) == len(set(flat)) == 265
    assert set(flat) == set(enumerate_matchings(_graph()))
    return make_certificate(_graph(), parts, complete=True)
