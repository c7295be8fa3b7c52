"""The 53-part construction: zones, the four part families, golden tables."""

import hashlib
import json
from itertools import count

import pytest

from perfpart import construct_l61
from perfpart.construct_l61 import (
    DEFAULT_PATTERN,
    DEFAULT_SEED,
    DEFAULT_Y0,
    build_l61,
    build_t1,
    build_t3,
    build_t4,
    canonical_rep,
    class_of,
    linked_zones,
    pattern_apply,
    propagate_zone,
    t1_subset,
)
from perfpart.graph_model import l_graph
from perfpart.matchings import label_l61
from perfpart.perm_core import cycles_of, from_cycle_tuples, inverse, parse_cycles
from perfpart.search import edge_masks, exact_cover
from perfpart.tables import (
    canonical_parts,
    diff_parts,
    l61_golden_parts,
    t1_table,
    t3_table,
    t4_table,
    zone_table,
)
from perfpart.verifier import certificate_to_json, check_partition


# sha256 over the certificates of every axis x class-2 seed x pattern build,
# in the order of test_every_axis_seed_and_pattern_build_is_pinned
CLASS2_BUILDS_SHA256 = "2b728c7f6fe8e98ad6af298996cac838c9d3ad8a30acaf5cf5a2716ea91e6c40"


def default_zones():
    return linked_zones(DEFAULT_PATTERN)


def c33_reps(l61_classes):
    return sorted({canonical_rep(p) for p in l61_classes["C33"]})


def patterns_of(rep):
    (_, x, y), (a, b, c) = cycles_of(rep)
    return [from_cycle_tuples([(1, x, y), w], 6) for w in ((a, b, c), (a, c, b))]


def test_class_of_examples():
    assert class_of(parse_cycles("(1 2 3)(4 6 5)", 6)) == 2
    assert class_of(parse_cycles("(1 2 3)(4 5 6)", 6)) == 3
    assert class_of(parse_cycles("(1 3 2)(4 5 6)", 6)) == 2


def test_class_is_inverse_invariant_and_balanced(l61_classes):
    for p in l61_classes["C33"]:
        assert class_of(p) == class_of(inverse(p))
    counts = {y: 0 for y in range(2, 7)}
    for p in l61_classes["C33"]:
        counts[class_of(p)] += 1
    assert counts == {y: 8 for y in range(2, 7)}


def test_canonical_rep(l61_classes):
    for p in l61_classes["C33"]:
        rep = canonical_rep(p)
        assert rep in (p, inverse(p))
        _, second = cycles_of(rep)
        assert list(second) == sorted(second)


def test_class_of_rejects_other_types():
    with pytest.raises(ValueError, match="double 3-cycle"):
        class_of(parse_cycles("(1 2 3 4 5 6)", 6))


def test_pattern_validation():
    with pytest.raises(ValueError, match="does not fit the representative"):
        build_l61(pattern=parse_cycles("(1 2 3)(4 6 5)", 6))
    with pytest.raises(ValueError, match="double 3-cycle"):
        build_l61(pattern=parse_cycles("(1 3 2 4 6 5)", 6))


def test_pattern_apply_frozen_example():
    got = pattern_apply(DEFAULT_PATTERN)
    want = (
        parse_cycles("(1 4 3 6)(2 5)", 6),
        parse_cycles("(1 5 3 4)(2 6)", 6),
        parse_cycles("(1 6 3 5)(2 4)", 6),
    )
    assert got == want


def test_t1_subset_pairs_each_anchor_with_four_six_cycles():
    sigma = parse_cycles("(1 2)(3 4 5 6)", 6)
    part = t1_subset(sigma)
    assert sigma in part and len(part) == 5
    assert sorted(label_l61(p) for p in part) == ["C24_0"] + ["C6"] * 4
    with pytest.raises(ValueError):
        t1_subset(parse_cycles("(2 3)(1 4 5 6)", 6))


def test_t1_matches_table():
    assert diff_parts(build_t1(), t1_table()) == ([], [])


def test_zone_reseeding_reproduces_the_zone():
    zone = default_zones()[class_of(DEFAULT_SEED)]
    for beta in zone.rows:
        assert propagate_zone(beta) == zone


def test_propagate_zone_validation():
    assert propagate_zone(DEFAULT_PATTERN).y == class_of(DEFAULT_SEED)
    other = parse_cycles("(1 2 3)(4 5 6)", 6)
    assert propagate_zone(other).y == class_of(other) != class_of(DEFAULT_SEED)
    with pytest.raises(ValueError, match="double 3-cycle"):
        propagate_zone(parse_cycles("(1 3 2 4 6 5)", 6))


def test_linked_zones_cover_c33_and_c24_disjointly(l61_classes):
    zones = default_zones()
    assert sorted(zones) == [2, 3, 4, 5, 6]
    members = [p for z in zones.values() for sub in z.subsets for p in sub]
    assert len(members) == len(set(members)) == 100
    assert set(members) == set(l61_classes["C33"]) | set(l61_classes["C24"])
    for y, zone in zones.items():
        assert zone.y == y
        for rep, *_ in zone.subsets:
            assert class_of(rep) == y


def test_zones_match_printed_tables():
    zones = default_zones()
    want = zone_table()
    for y in range(2, 7):
        assert diff_parts(zones[y].subsets, want[y]) == ([], []), f"zone {y}"


def test_t3_matches_table_and_t4_matches_table():
    zones = default_zones()
    assert diff_parts(build_t3(DEFAULT_Y0, zones[DEFAULT_Y0]), t3_table()) == ([], [])
    assert diff_parts(build_t4(DEFAULT_Y0, zones[DEFAULT_Y0]), t4_table()) == ([], [])


def test_t3_agrees_with_the_closed_formula(l61_classes):
    """Independent route: each anchor mu = (1 y0)(x a')(b'c') determines its

    part as {mu, (1 b'a'c')(y0 x), (1 c'x b')(y0 a'), (1 x c'a')(y0 b'),
    (1 a'b'x)(y0 c')} with b', c' the word neighbors of a'.  The same parts
    must come out of every row frame and of the constrained matching.
    """
    zones = default_zones()
    zone = zones[DEFAULT_Y0]
    anchors = [
        p for p in l61_classes["C222"] if (1, DEFAULT_Y0) in cycles_of(p)
    ]
    assert len(anchors) == 3

    def f_mu(mu, beta):
        x = beta[0]
        pairs = [set(c) for c in cycles_of(mu)]
        assert {1, DEFAULT_Y0} in pairs
        a = (next(s for s in pairs if x in s) - {x}).pop()
        b, c = beta[beta[a - 1] - 1], beta[a - 1]
        return frozenset(
            {
                mu,
                from_cycle_tuples([(1, b, a, c), (DEFAULT_Y0, x)], 6),
                from_cycle_tuples([(1, c, x, b), (DEFAULT_Y0, a)], 6),
                from_cycle_tuples([(1, x, c, a), (DEFAULT_Y0, b)], 6),
                from_cycle_tuples([(1, a, b, x), (DEFAULT_Y0, c)], 6),
            }
        )

    frames = [{f_mu(mu, beta) for mu in anchors} for beta in zone.rows]
    assert all(frame == frames[0] for frame in frames), "formula frame varies"
    formula_parts = [tuple(sorted(part)) for part in frames[0]]
    assert canonical_parts(formula_parts) == canonical_parts(
        build_t3(DEFAULT_Y0, zone)
    )


def _fixed(value):
    return lambda *args: value


def _numbered():
    """A fake from_cycle_tuples that returns a new value at each call."""
    calls = count()
    return lambda cycles, n: next(calls)


C24_0_EXAMPLE = parse_cycles("(1 2)(3 4 5 6)", 6)


@pytest.mark.parametrize(
    "name, fake, step, failure",
    [
        (
            "from_cycle_tuples",
            lambda real: _fixed((2, 1, 4, 3, 6, 5)),
            lambda zone: pattern_apply(DEFAULT_PATTERN),
            "2-cycles must be distinct",
        ),
        (
            "_zone_rows",
            lambda real: lambda beta: real(beta) if beta == DEFAULT_PATTERN else {beta},
            lambda zone: propagate_zone(DEFAULT_PATTERN),
            "zone not well defined",
        ),
        (
            "_zone_rows",
            lambda real: lambda beta: {beta},
            lambda zone: propagate_zone(DEFAULT_PATTERN),
            "not the class's C33 elements",
        ),
        (
            "label_l61",
            lambda real: _fixed("C6"),
            lambda zone: propagate_zone(DEFAULT_PATTERN),
            "a pinned member is not in C24",
        ),
        (
            "pattern_apply",
            lambda real: lambda beta: real(parse_cycles("(1 2 3)(4 5 6)", 6)),
            lambda zone: propagate_zone(DEFAULT_PATTERN),
            "2-cycle misses",
        ),
        (
            "pattern_apply",
            lambda real: lambda beta: real(DEFAULT_PATTERN),
            lambda zone: propagate_zone(DEFAULT_PATTERN),
            "do not share four 2-cycles",
        ),
        (
            "propagate_zone",
            lambda real: lambda beta: real(DEFAULT_PATTERN),
            lambda zone: linked_zones(DEFAULT_PATTERN),
            "not the classes 2..6",
        ),
        (
            "propagate_zone",
            lambda real: lambda beta: construct_l61.Zone(real(beta).y, real(DEFAULT_PATTERN).rows),
            lambda zone: linked_zones(DEFAULT_PATTERN),
            "zones must be pairwise disjoint",
        ),
        (
            "from_cycle_tuples",
            lambda real: _numbered(),
            lambda zone: t1_subset(C24_0_EXAMPLE),
            "changed the subset",
        ),
        (
            "label_l61",
            lambda real: _fixed("C24_0"),
            lambda zone: t1_subset(C24_0_EXAMPLE),
            "four six-cycles",
        ),
        (
            "t1_subset",
            lambda real: lambda sigma: real(C24_0_EXAMPLE),
            lambda zone: build_t1(),
            "not 30 disjoint parts",
        ),
        (
            "_classes",
            lambda real: lambda: {**real(), "C222": ()},
            lambda zone: build_t3(DEFAULT_Y0, zone),
            "do not fall into four per",
        ),
        (
            "label_l61",
            lambda real: _fixed("C24"),
            lambda zone: build_t4(DEFAULT_Y0, zone),
            "no C222 element",
        ),
        (
            "inverse",
            lambda real: lambda p: p,
            lambda zone: build_t4(DEFAULT_Y0, zone),
            "not 20 distinct members",
        ),
    ],
    ids=[
        "pattern_apply",
        "zone-reseeding",
        "zone-members",
        "zone-c24",
        "zone-axis",
        "zone-two-cycles",
        "linked_zones",
        "linked_zones-disjoint",
        "t1_subset-rotations",
        "t1_subset",
        "build_t1",
        "build_t3",
        "build_t4-c222",
        "build_t4-distinct",
    ],
)
def test_a_step_that_goes_wrong_raises(name, fake, step, failure, monkeypatch):
    """The construction checks are raises, so python -O keeps them."""
    zone = default_zones()[DEFAULT_Y0]
    monkeypatch.setattr(construct_l61, name, fake(getattr(construct_l61, name)))
    with pytest.raises(RuntimeError, match=failure):
        step(zone)


def test_builders_reject_mismatched_zone():
    zones = default_zones()
    with pytest.raises(ValueError, match="axis"):
        build_t3(3, zones[4])
    with pytest.raises(ValueError, match="axis"):
        build_t4(3, zones[4])
    with pytest.raises(ValueError, match="axis"):
        build_l61(7)


def test_default_build_matches_golden_parts(l61_cert):
    assert diff_parts(l61_cert.parts, l61_golden_parts()) == ([], [])
    assert len(l61_cert.parts) == 53
    assert check_partition(l61_cert).ok


def test_part_type_census(l61_cert):
    by_size = {}
    for part in l61_cert.parts:
        labels = tuple(sorted(label_l61(p) for p in part))
        by_size[labels] = by_size.get(labels, 0) + 1
    t1 = ("C24_0", "C6", "C6", "C6", "C6")
    zone_row = ("C24", "C24", "C24", "C33", "C33")
    t3 = ("C222", "C24", "C24", "C24", "C24")
    t4 = ("C222", "C222", "C222", "C33", "C33")
    assert by_size == {t1: 30, zone_row: 16, t3: 3, t4: 4}


def test_non_canonical_seed_is_normalized():
    assert build_l61(seed=inverse(DEFAULT_SEED), pattern=DEFAULT_PATTERN).parts == (
        build_l61(seed=DEFAULT_SEED, pattern=DEFAULT_PATTERN).parts
    )


def test_every_axis_choice_builds_a_complete_partition():
    for y0 in range(2, 7):
        cert = build_l61(y0)
        assert len(cert.parts) == 53
        assert check_partition(cert).ok, f"axis {y0}"


def test_every_seed_and_pattern_of_one_class_builds(l61_classes):
    reps = [r for r in c33_reps(l61_classes) if class_of(r) == 2]
    assert len(reps) == 4
    for rep in reps:
        for pat in patterns_of(rep):
            cert = build_l61(seed=rep, pattern=pat)
            assert check_partition(cert).ok, f"seed {rep} pattern {pat}"


def test_build_l61_rejects_bad_axis():
    with pytest.raises(ValueError, match="axis"):
        build_l61(1)


def test_every_t3_anchor_has_exactly_one_completing_cover(l61_classes):
    """Over every axis, seed and pattern that build_l61 accepts, each (1 y0)
    anchor has exactly one exact cover by four axis-zone C24 members, and
    build_t3's grouping by the anchor each member fits is those covers."""
    spec = l_graph(1, 6)
    inputs = 0
    for y0 in range(2, 7):
        anchors = sorted(p for p in l61_classes["C222"] if (1, y0) in cycles_of(p))
        for rep in c33_reps(l61_classes):
            for beta in patterns_of(rep):
                zone = linked_zones(beta)[y0]
                quads = sorted(zone.quads)
                parts = []
                for mu in anchors:
                    rows = [mu, *quads]
                    covers = list(exact_cover(30, edge_masks(spec, rows), forced=0))
                    assert len(covers) == 1
                    parts.append(tuple(rows[i] for i in covers[0]))
                assert sorted(e for part in parts for e in part[1:]) == quads
                assert build_t3(y0, zone) == parts
                inputs += 1
    assert inputs == 200


def test_every_axis_seed_and_pattern_build_is_pinned(l61_classes):
    """The certificates of all 40 builds over y0 in 2..6, the four class-2
    seeds and both patterns of each are byte-identical to the recorded ones."""
    reps = [r for r in c33_reps(l61_classes) if class_of(r) == 2]
    digest = hashlib.sha256()
    for y0 in range(2, 7):
        for rep in reps:
            for pat in patterns_of(rep):
                cert = build_l61(y0, seed=rep, pattern=pat)
                digest.update((json.dumps(certificate_to_json(cert)) + "\n").encode())
    assert digest.hexdigest() == CLASS2_BUILDS_SHA256
