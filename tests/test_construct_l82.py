"""Block-grid constructions behind the 792-part partition of L(2, 4)."""

import hashlib
import subprocess
import sys
from collections import Counter
from itertools import permutations, product

import pytest

from perfpart import construct_l82
from perfpart.construct_l82 import (
    CYCLE_REPS,
    E11,
    E12,
    E21,
    E22,
    E_BLOCKS,
    FLIP_SETS,
    ZERO_PATTERNS,
    _grid_perm,
    _residual_pairs,
    _type2_member,
    classify_parts,
    e_col_flip,
    e_complement,
    e_row_flip,
    type1_part,
    type2_families,
    type2_literal_diagnostic,
)
from blocks import block_label, block_view, oracle_zero_blocks
from perfpart.graph_model import invertible_blocks, l_graph
from perfpart.matchings import enumerate_matchings, label_l82, ledger_l82
from perfpart.verifier import check_factorization, check_partition


def grid_block(p, pos):
    """The E-block (the cell of its one) a permutation carries at 1-based
    block position pos."""
    cell = block_view(p)[pos[0] - 1][pos[1] - 1]
    ones = [(a + 1, b + 1) for a in range(2) for b in range(2) if cell[a][b]]
    assert len(ones) == 1, f"block at {pos} is not an E-block"
    return ones[0]


def perm_grid(p):
    """The sparse block grid of a permutation: an E-block (cell) or an
    invertible block (pair of cells) at each block its images reach."""
    grid = {}
    for row, x in enumerate(p, start=1):
        pos, cell = ((row + 1) // 2, (x + 1) // 2), ((row - 1) % 2 + 1, (x - 1) % 2 + 1)
        grid[pos] = (grid[pos], cell) if pos in grid else cell
    return grid


def test_grid_perm_reads_back_every_matching_grid():
    for p in enumerate_matchings(l_graph(2, 4)):
        assert _grid_perm(perm_grid(p)) == p


@pytest.mark.parametrize(
    "change, failure",
    [
        # a second E-block in block row 1 puts another image in row 1
        (lambda grid: grid.__setitem__((1, 1), E11), "two images in row 1"),
        # an invertible block whose first cell's row is taken
        (lambda grid: grid.__setitem__((1, 1), (E11, E22)), "two images in row 1"),
        # a cell left out leaves a row, and a column, without an image
        (lambda grid: grid.pop((1, 2)), "do not form a permutation"),
        # a cell moved to the other column of its block repeats that column
        (lambda grid: grid.__setitem__((1, 2), e_col_flip(grid[1, 2])), "do not form a permutation"),
        # block row 1's cell moved from block column 2 to the diagonal block
        # (1, 1), and block row 2's from block column 1 to block column 2:
        # still a permutation, but no matching of L(2, 4)
        (
            lambda grid: grid.update({(1, 1): grid.pop((1, 2)), (2, 2): grid.pop((2, 1))}),
            r"diagonal block \(1, 1\)",
        ),
    ],
)
def test_grid_perm_rejects_a_grid_that_is_no_permutation(change, failure):
    p = (3, 5, 1, 7, 8, 2, 4, 6)  # E-blocks only, one in each (block row, block column)
    grid = perm_grid(p)
    assert _grid_perm(grid) == p and all(isinstance(blk[0], int) for blk in grid.values())
    change(grid)
    with pytest.raises(RuntimeError, match=failure):
        _grid_perm(grid)


def test_type2_member_outside_s0_rest_raises():
    by_label = {}
    for m in enumerate_matchings(l_graph(2, 4)):
        by_label.setdefault(block_label(m), m)
    s0_rest = by_label.pop("S0_rest")
    assert _type2_member(perm_grid(s0_rest), "ok") == s0_rest
    for m in by_label.values():
        with pytest.raises(RuntimeError, match="not in S0 minus S0_1"):
            _type2_member(perm_grid(m), "test")
    # the identity is a permutation but no matching: its diagonal blocks are
    # I2, which _grid_perm refuses before any label is read
    with pytest.raises(RuntimeError, match=r"diagonal block \(1, 1\)"):
        _type2_member(perm_grid(tuple(range(1, 9))), "test")


@pytest.mark.parametrize(
    "build, label, failure",
    [
        (construct_l82.build_type1, "S1", "is not two S0_1 and four S1 members"),
        (construct_l82.build_type3, "S4", "S4 is not covered"),
    ],
)
def test_a_mislabelled_member_fails_the_ledger_check(build, label, failure, l82_classes, monkeypatch):
    """The ledger checks raise, so python -O keeps them."""
    wrong = l82_classes[label][0]
    monkeypatch.setattr(construct_l82, "ledger_l82", lambda m: "S2" if m == wrong else ledger_l82(m))
    with pytest.raises(RuntimeError, match=failure):
        build()


def test_e_block_helpers():
    assert E_BLOCKS == ((1, 1), (1, 2), (2, 1), (2, 2))
    assert (e_complement(E12), e_row_flip(E12), e_col_flip(E12)) == (E21, E22, E11)
    for e in E_BLOCKS:
        assert e_complement(e) == e_row_flip(e_col_flip(e))
        assert {e, e_complement(e), e_row_flip(e), e_col_flip(e)} == set(E_BLOCKS)


def test_zero_pattern_validation():
    assert ZERO_PATTERNS == ((2, 3, 4), (3, 2, 4), (4, 2, 3))
    free = (E11, E11, E11, E11)
    with pytest.raises(ValueError, match=r"bad zero pattern \(1 2\)\(4 3\)"):
        type1_part((2, 4, 3), free)  # j > k
    with pytest.raises(ValueError, match="bad zero pattern"):
        type1_part((1, 2, 3), free)  # 1 is implicit, not a free index
    with pytest.raises(ValueError, match="bad zero pattern"):
        type1_part((2, 2, 4), free)


def test_type1_part_structure():
    """Every (pattern, free) input, including the E21/E22 seeds at (1, j) that
    build_type1 skips, gives a valid part of the documented shape."""
    graph = l_graph(2, 4)
    for pattern, free in product(ZERO_PATTERNS, product(E_BLOCKS, repeat=4)):
        part = type1_part(pattern, free)
        assert len(part) == 6
        assert check_factorization(graph, part) == []
        assert [block_label(m) for m in part] == ["S0_1"] * 2 + ["S1"] * 4
        # P and Q share the zero pattern and complement each other blockwise
        i, j, k = pattern
        assert oracle_zero_blocks(part[0]) == oracle_zero_blocks(part[1])
        assert set(oracle_zero_blocks(part[0])) == {(1, i), (i, 1), (j, k), (k, j)}
        for pos in ((1, j), (i, k), (j, 1), (k, i)):
            assert grid_block(part[1], pos) == e_complement(grid_block(part[0], pos))
        # S, T, U, V carry their invertible block at (1, i), (i, 1), (j, k), (k, j)
        assert [invertible_blocks(m) for m in part[2:]] == [[(1, i)], [(i, 1)], [(j, k)], [(k, j)]]


def test_type1_rebuild_from_stored_blocks(type1_parts):
    """The first member alone determines the whole part."""
    for part in type1_parts[::17]:
        zeros = set(oracle_zero_blocks(part[0]))
        i = next(b for (a, b) in zeros if a == 1)
        j, k = sorted({2, 3, 4} - {i})
        pattern = (i, j, k)
        assert pattern in ZERO_PATTERNS
        free = tuple(grid_block(part[0], pos) for pos in ((1, j), (i, k), (j, 1), (k, i)))
        assert free[0] in (E11, E12)
        assert type1_part(pattern, free) == part


def test_type1_complement_seed_swaps_p_and_q():
    free = (E11, E21, E12, E22)
    part = type1_part(ZERO_PATTERNS[1], free)
    comp = type1_part(ZERO_PATTERNS[1], tuple(e_complement(e) for e in free))
    assert set(part[:2]) == set(comp[:2])
    assert check_factorization(l_graph(2, 4), comp) == []
    # the chain completion is seeded differently, so the S1 members differ;
    # restricting seeds to a top-row block at (1, j) is what removes the
    # double counting of {P, Q} pairs
    assert set(part) != set(comp)


def test_build_type1_sweeps_its_classes(type1_parts, l82_classes):
    assert len(type1_parts) == 384
    assert len({tuple(sorted(p)) for p in type1_parts}) == 384
    s01 = {m for part in type1_parts for m in part[:2]}
    s1 = {m for part in type1_parts for m in part[2:]}
    assert s01 == set(l82_classes["S0_1"])
    assert s1 == set(l82_classes["S1"])


def test_type2_families_structure():
    fam_a, fam_b = type2_families(CYCLE_REPS[0], (E11, E11, E11, E11))
    for fam in (fam_a, fam_b):
        assert len(fam) == 6
        assert check_factorization(l_graph(2, 4), fam) == []
        labels = sorted(block_label(m) for m in fam)
        assert labels == ["S0_rest"] * 4 + ["S2"] * 2
    assert not set(fam_a) & set(fam_b)


def test_type2_cycle_validation():
    with pytest.raises(ValueError, match="cycle"):
        type2_families((2, 1, 3, 4), (E11, E11, E11, E11))


# sha256 of the repr of every type-II family, members sorted, over all six
# block 4-cycles through 1 and all 4^4 chord tuples: 3072 families
TYPE2_SWEEP_SHA256 = "1c30acfa75410a3e64c0f111d6c44d4c1b8e12cbe6833b50bee4a3fc77b74e50"


def test_type2_sweep_over_every_cycle_is_pinned():
    families = [
        tuple(sorted(fam))
        for q in permutations((2, 3, 4))
        for chords in product(E_BLOCKS, repeat=4)
        for fam in type2_families((1, *q), chords)
    ]
    assert len(families) == 3072
    assert hashlib.sha256(repr(families).encode()).hexdigest() == TYPE2_SWEEP_SHA256


@pytest.mark.parametrize("cycle", CYCLE_REPS)
def test_literal_family_residual_is_s4_only(cycle):
    """The same-zero-pattern family leaves a residual with no S2 split."""
    for chords in ((E11, E11, E11, E11), (E12, E21, E11, E22)):
        members, residual_pairs = type2_literal_diagnostic(cycle, chords)
        assert all(label_l82(m) == "S0" for m in members)
        assert residual_pairs, "residual must decompose"
        for pair in residual_pairs:
            assert tuple(label_l82(m) for m in pair) == ("S4", "S4")


@pytest.mark.parametrize("cycle", CYCLE_REPS)
def test_mixed_family_uses_s2_members(cycle):
    for chords in ((E11, E11, E11, E11), (E12, E21, E11, E22)):
        for fam in type2_families(cycle, chords):
            assert sum(label_l82(m) == "S2" for m in fam) == 2


def test_build_type2_sweeps_its_classes(type2_parts, l82_classes):
    assert len(type2_parts) == 384
    assert len({tuple(sorted(p)) for p in type2_parts}) == 384
    s0_rest = {m for part in type2_parts for m in part if label_l82(m) == "S0"}
    s2 = {m for part in type2_parts for m in part if label_l82(m) == "S2"}
    assert len(s0_rest) == 384 * 4 and len(s2) == 384 * 2
    assert s0_rest == set(l82_classes["S0"]) - set(l82_classes["S0_1"])
    assert s2 == set(l82_classes["S2"])


def test_build_type3_consumes_all_s4(type3_parts, l82_classes):
    assert len(type3_parts) == 24 and len(FLIP_SETS) == 8
    members = [m for part in type3_parts for m in part]
    assert len(members) == len(set(members)) == 144
    assert all(label_l82(m) == "S4" for m in members)
    assert set(members) == set(l82_classes["S4"])
    for part in type3_parts:
        assert check_factorization(l_graph(2, 4), part) == []


def test_full_build(l82_cert):
    assert len(l82_cert.parts) == 792
    assert all(len(part) == 6 for part in l82_cert.parts)
    assert check_partition(l82_cert).ok
    census = classify_parts(l82_cert.parts)
    assert census == {
        "type1_parts": 384,
        "type2_parts": 384,
        "type3_parts": 24,
        "S0_1": 768,
        "S0_rest": 1536,
        "S1": 1536,
        "S2": 768,
        "S4": 144,
    }


# Builds L(2, 4) in a fresh interpreter, where no cache another test warmed
# can hide a call, with every module's enumerate_matchings made to raise.
BUILD_LISTING_NO_MATCHING = """
import sys
import perfpart
from perfpart import construct_l82
from perfpart.verifier import save_certificate

def refuse(spec):
    raise RuntimeError("the L(2, 4) build listed matchings")

for name, module in list(sys.modules.items()):
    if name.startswith("perfpart") and hasattr(module, "enumerate_matchings"):
        module.enumerate_matchings = refuse
save_certificate(construct_l82.build_l82(), sys.argv[1])
"""


def test_the_l24_build_lists_no_matching(tmp_path):
    path = tmp_path / "l82.json"
    proc = subprocess.run(
        [sys.executable, "-c", BUILD_LISTING_NO_MATCHING, str(path)],
        capture_output=True,
        text=True,
        check=False,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "62c0a69453e3b6782de2644ca4938c77d8939846cdc6dfe60f13c95f4b42af5f"


@pytest.fixture(scope="module")
def type2_sweep():
    """(cycle, chords, family role, sorted part) for all 1536 raw type-II
    families."""
    return [
        (cycle, chords, role, tuple(sorted(fam)))
        for cycle in CYCLE_REPS
        for chords in product(E_BLOCKS, repeat=4)
        for role, fam in zip(("seed", "flipped"), type2_families(cycle, chords))
    ]


def test_type2_choice_is_intrinsic_to_the_member_set(type2_parts, type2_sweep):
    """Every raw seed must rebuild the same completed part.

    The sweep visits each member set four times (two chord seeds per family
    role); the S2 completion has to be a function of the set alone or the
    global S2 cover would double up.
    """
    by_s0 = {}
    for *_, part in type2_sweep:
        key = tuple(m for m in part if label_l82(m) == "S0")
        by_s0.setdefault(key, set()).add(part)
    assert len(by_s0) == 384
    assert all(len(built) == 1 for built in by_s0.values())
    assert {next(iter(v)) for v in by_s0.values()} == set(type2_parts)


def test_type2_sweep_builds_each_part_four_times(type2_parts, type2_sweep):
    assert len(type2_sweep) == 1536
    assert set(Counter(part for *_, part in type2_sweep).values()) == {4}

    canonical = Counter(
        part for _, chords, role, part in type2_sweep
        if role == "seed" and chords[0] in (E11, E12)
    )
    assert len(canonical) == 384 and set(canonical.values()) == {1}
    assert sorted(canonical) == type2_parts


def test_type2_pairs_come_from_the_residual_decompositions(type2_sweep):
    """The S2 pair the parity rule builds is the one a search would pick.

    The residual search finds four (S2, S2) decompositions, two in each row
    class (invertible blocks in block row 1 or not).  The pick: the class in
    block row 1 if the two members with a zero block at (1, i) hold a
    diagonal pair at (1, j), and the first of the class, sorted, if they hold
    a diagonal pair at (j, 1), else the second.
    """
    for cycle, chords, role, part in type2_sweep:
        members = tuple(m for m in part if label_l82(m) == "S0")
        own = tuple(m for m in part if label_l82(m) == "S2")
        _, i, j, _ = cycle
        cycle_zero = [m for m in members if (1, i) in oracle_zero_blocks(m)]
        assert len(cycle_zero) == 2
        diagonal = [
            {grid_block(m, pos) for m in cycle_zero} == {E11, E22} for pos in ((1, j), (j, 1))
        ]
        by_label = {}
        for pr in _residual_pairs(members):
            by_label.setdefault(tuple(map(block_label, pr)), []).append(pr)
        assert {lab: len(prs) for lab, prs in by_label.items()} == {
            ("S0_1", "S0_1"): 2, ("S2", "S2"): 4, ("S4", "S4"): 2
        }, (chords, role)
        pairs = by_label["S2", "S2"]
        top = [any(a == 1 for m in pr for a, _ in invertible_blocks(m)) for pr in pairs]
        assert top.count(True) == top.count(False) == 2, (chords, role)
        row_class = sorted(pr for pr, t in zip(pairs, top) if t == diagonal[0])
        assert own == row_class[0 if diagonal[1] else 1], (cycle, chords, role)


def test_residual_pairs_match_a_brute_force_oracle():
    """Over every family of one cycle representative (both families of each
    seed and the literal diagnostic), the residual decompositions are
    exactly the pairs of L(2, 4) matchings that split the residual's cells."""
    spec = l_graph(2, 4)
    cells = {}
    for p in enumerate_matchings(spec):
        cells[p] = sum(1 << (8 * i + x - 1) for i, x in enumerate(p))
    full = sum(row << (8 * i) for i, row in enumerate(spec.rows))

    def oracle(members):
        residual = full & ~sum(cells[m] for m in members)
        inside = [p for p, mask in cells.items() if not mask & ~residual]
        return sorted(
            (a, b) for a in inside for b in inside if a < b and cells[a] | cells[b] == residual
        )

    cycle = CYCLE_REPS[0]
    for chords in product(E_BLOCKS, repeat=4):
        members, pairs = type2_literal_diagnostic(cycle, chords)
        assert pairs == oracle(members)
        for fam in type2_families(cycle, chords):
            members = tuple(m for m in fam if label_l82(m) == "S0")
            assert len(members) == 4
            assert _residual_pairs(members) == oracle(members)


def test_residual_pairs_reject_overlapping_members():
    fam = type2_families(CYCLE_REPS[0], (E11, E11, E11, E11))[0]
    with pytest.raises(RuntimeError, match="overlap"):
        _residual_pairs((fam[0], fam[0]))
