"""Exact-cover search: factorizations, whole partitions, budgets."""

import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_cover import reference_covers, reference_partitions

from perfpart import search
from perfpart.counting import necessary_condition
from perfpart.graph_model import degree, from_matrix, l_graph
from perfpart.matchings import enumerate_matchings
from perfpart.perm_core import parse_cycles
from perfpart.search import (
    COVERS_MAX,
    FINISHED_MAX,
    CoverIndex,
    SearchBudgetExceeded,
    edge_masks,
    exact_cover,
    find_factorizations,
    find_perfect_partition,
    perfect_partitions,
)
from perfpart.tables import canonical_parts, l41_table
from perfpart.verifier import check_partition, make_certificate

CIRCULANT_ROWS = ["11100", "01110", "00111", "10011", "11001"]
L17 = from_matrix(["1" * i + "0" + "1" * (6 - i) for i in range(7)])


def test_exact_cover_enumerates_all_solutions():
    # columns 0..2; rows: {0}, {1}, {2}, {0,1}, {1,2}, {0,1,2}
    rows = [0b001, 0b010, 0b100, 0b011, 0b110, 0b111]
    got = set(exact_cover(3, rows))
    assert got == {(0, 1, 2), (2, 3), (0, 4), (5,)}


def test_exact_cover_respects_forced_rows():
    rows = [0b001, 0b010, 0b100, 0b011, 0b110, 0b111]
    assert set(exact_cover(3, rows, forced=3)) == {(2, 3)}


def test_exact_cover_on_unsatisfiable_column():
    assert list(exact_cover(2, [0b01])) == []


@pytest.mark.parametrize(
    "rows, forced, message",
    [
        ([0b100], None, "row 0 covers column 2, outside 0..1"),
        ([-1], None, "row 0 is a negative mask: -1"),
        ([0b01, 0b10], -1, "forced row -1 is outside 0..1"),
        ([0b01, 0b10], 5, "forced row 5 is outside 0..1"),
    ],
    ids=["column-outside", "negative-mask", "forced-negative", "forced-past-the-rows"],
)
def test_exact_cover_names_a_bad_row(rows, forced, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        list(exact_cover(2, rows, forced))


def test_exact_cover_budget():
    rows = [1 << k for k in range(10)]
    with pytest.raises(SearchBudgetExceeded):
        list(exact_cover(10, rows, budget=[3]))
    budget = [10_000]
    assert list(exact_cover(10, rows, budget=budget)) == [tuple(range(10))]
    assert budget[0] < 10_000


@st.composite
def cover_instances(draw):
    n_cols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.integers(1, (1 << n_cols) - 1), max_size=10))
    forced = None
    if rows and draw(st.booleans()):
        forced = draw(st.integers(0, len(rows) - 1))
    return n_cols, rows, forced


def brute_force_covers(n_cols, rows, forced):
    full = (1 << n_cols) - 1
    out = set()
    for k in range(len(rows) + 1):
        for subset in combinations(range(len(rows)), k):
            masks = [rows[i] for i in subset]
            union = 0
            for mask in masks:
                union |= mask
            exact = sum(bin(mask).count("1") for mask in masks) == n_cols
            if union == full and exact and forced in (None, *subset):
                out.add(subset)
    return out


@given(cover_instances())
def test_exact_cover_matches_brute_force(instance):
    n_cols, rows, forced = instance
    assert set(exact_cover(n_cols, rows, forced)) == brute_force_covers(n_cols, rows, forced)


def test_deep_cover_needs_no_recursion():
    # one forced choice per column: the path is 1200 nodes deep
    assert list(exact_cover(1200, [1 << k for k in range(1200)])) == [tuple(range(1200))]


GRAPH_INSTANCES = [
    (spec.n * degree(spec), edge_masks(spec, list(enumerate_matchings(spec))))
    for spec in (l_graph(1, 5), from_matrix(["1111"] * 4))
]


@st.composite
def search_instances(draw):
    # matchings of two small graphs, whose columns tie on their candidate
    # counts, or random rows of at most three columns
    if draw(st.booleans()):
        n_cols, rows = draw(st.sampled_from(GRAPH_INSTANCES))
    else:
        n_cols = draw(st.integers(1, 8))
        row = st.lists(st.integers(0, n_cols - 1), max_size=3).map(
            lambda cols: sum(1 << c for c in set(cols))
        )
        rows = draw(st.lists(row, max_size=16))
    forced = None
    if rows:
        forced = draw(st.none() | st.integers(0, len(rows) - 1))
    alive = draw(st.integers(0, (1 << len(rows)) - 1))
    budget = draw(st.none() | st.integers(0, 300))
    return n_cols, rows, alive, forced, budget


def as_rows(forced):
    # the reference takes a sequence of forced rows
    return () if forced is None else (forced,)


def search_trace(results, left):
    # each result with the budget left after it, then how the search ended
    trace = []
    try:
        for result in results:
            trace.append((result, left()))
    except SearchBudgetExceeded:
        trace.append(("budget exceeded", left()))
    else:
        trace.append(("done", left()))
    return trace


@settings(max_examples=300)
@given(search_instances())
def test_covers_walks_the_reference_tree(instance):
    n_cols, rows, alive, forced, budget = instance
    shared = None if budget is None else [budget]
    got = search_trace(
        CoverIndex(n_cols, rows).covers(alive, forced, shared), lambda: shared and shared[0]
    )
    shared = None if budget is None else [budget]
    want = search_trace(
        reference_covers(n_cols, rows, alive, as_rows(forced), shared),
        lambda: shared and shared[0],
    )
    assert got == want


@settings(max_examples=100)
@given(search_instances())
def test_restrict_keeps_the_rows_and_their_covers(instance):
    n_cols, rows, alive, _, _ = instance
    index = CoverIndex(n_cols, rows)
    ids, narrow = index.restrict(alive)
    assert ids == sorted(ids) == [i for i in range(len(rows)) if alive >> i & 1]
    assert narrow.rows == [rows[i] for i in ids]
    for k, idx in enumerate(ids):
        shared = [10**6]
        covers = narrow.covers(narrow.all_rows, k, shared)
        got = search_trace((tuple(ids[j] for j in c) for c in covers), lambda: shared[0])
        shared = [10**6]
        want = search_trace(index.covers(alive, idx, shared), lambda: shared[0])
        assert got == want


@settings(max_examples=100)
@given(search_instances())
def test_index_matches_a_plain_construction(instance):
    n_cols, rows, _, _, _ = instance
    index = CoverIndex(n_cols, rows)
    col_rows = [sum(1 << i for i, row in enumerate(rows) if row >> c & 1) for c in range(n_cols)]
    assert index.rows == rows
    assert index.cols == tuple((1 << c, col) for c, col in enumerate(col_rows))
    assert index.keep == [
        ~sum(1 << j for j, other in enumerate(rows) if other & row) for row in rows
    ]
    assert index.finished == {}


class Lookups(dict):
    """A finished-subtree cache that records what each lookup found."""

    def __init__(self, entries):
        super().__init__(entries)
        self.found = []

    def get(self, key):
        entry = dict.get(self, key)
        self.found.append(entry)
        return entry


@settings(max_examples=300)
@given(search_instances())
def test_a_second_walk_replays_the_reference_tree(instance):
    # the first walk leaves its finished subtrees in the index, the root's
    # among them when it took more than one node and yielded at most
    # COVERS_MAX covers; the second walk replays them, and a budget may run
    # out anywhere inside a replayed subtree
    n_cols, rows, alive, forced, budget = instance
    index = CoverIndex(n_cols, rows)
    spent = [10**6]
    first = list(index.covers(alive, forced, spent))
    nodes = 10**6 - spent[0]
    index.finished = Lookups(index.finished)
    shared = None if budget is None else [budget]
    got = search_trace(index.covers(alive, forced, shared), lambda: shared and shared[0])
    shared = None if budget is None else [budget]
    want = search_trace(
        reference_covers(n_cols, rows, alive, as_rows(forced), shared),
        lambda: shared and shared[0],
    )
    assert got == want
    if nodes > 1 and len(first) <= COVERS_MAX:
        root = index.finished.found[0]
        chunks = ((root, None),) if isinstance(root, int) else root
        assert chunks[-1] == (nodes, None)
        covers = [tuple(sorted((*as_rows(forced), *below))) for _, below in chunks[:-1]]
        assert covers == first


def test_a_spent_budget_on_a_remembered_root_is_left_as_it_was():
    # column 0 forces row 0, which leaves column 2 without a row: the root's
    # two-node subtree holds no cover, and its key is every row alive
    rows = [0b011, 0b110]
    index = CoverIndex(3, rows)
    assert list(index.covers(index.all_rows)) == []
    assert index.finished == {index.all_rows: 2}
    for budget in (-3, 0, 1, 2, 5):
        shared = [budget]
        got = search_trace(index.covers(index.all_rows, budget=shared), lambda: shared[0])
        ref = [budget]
        want = search_trace(reference_covers(3, rows, index.all_rows, (), ref), lambda: ref[0])
        assert got == want
    assert got == [("done", 3)]
    # columns 0 and 1 tie, so column 0 branches: rows 0 and 1 make one cover
    # and row 2 the other, at nodes 3 and 4 of the root's four-node subtree
    rows = [0b01, 0b10, 0b11]
    index = CoverIndex(2, rows)
    assert list(index.covers(index.all_rows)) == [(0, 1), (2,)]
    assert index.finished[index.all_rows] == ((3, (0, 1)), (4, (2,)), (4, None))
    for budget in range(-3, 6):
        shared = [budget]
        got = search_trace(index.covers(index.all_rows, budget=shared), lambda: shared[0])
        ref = [budget]
        want = search_trace(reference_covers(2, rows, index.all_rows, (), ref), lambda: ref[0])
        assert got == want
    assert got == [((0, 1), 2), ((2,), 1), ("done", 1)]


def partitions_trace(spec, budget):
    """perfect_partitions' trace next to the one-index reference's.

    A spy on covers logs each inner cover, as its rows' edge masks, which
    narrowing an index keeps, with the budget left after it, and the two logs
    must agree.
    """
    log = []
    covers = CoverIndex.covers

    def spy(index, alive, forced=None, budget=None):
        for cover in covers(index, alive, forced, budget):
            log.append(([index.rows[i] for i in cover], budget and budget[0]))
            yield cover

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(CoverIndex, "covers", spy)
        shared = None if budget is None else [budget]
        got = search_trace(perfect_partitions(spec, shared), lambda: shared and shared[0])
        got_inner = log[:]
        log.clear()
        ref = None if budget is None else [budget]
        want = search_trace(reference_partitions(spec, ref), lambda: ref and ref[0])
    assert got_inner == log
    return got, want


@st.composite
def regular_matrices(draw):
    # a circulant with random shifts, its rows and columns relabelled
    n = draw(st.integers(1, 6))
    shifts = draw(st.sets(st.integers(0, n - 1), min_size=1))
    row_at = draw(st.permutations(range(n)))
    col_at = draw(st.permutations(range(n)))
    return from_matrix(
        [
            "".join("1" if (col_at[j] - row_at[i]) % n in shifts else "0" for j in range(n))
            for i in range(n)
        ]
    )


@pytest.mark.parametrize(
    "spec, budget",
    [
        (l_graph(1, 5), None),
        (l_graph(2, 3), 20_000),
        (from_matrix(["11111"] * 5), 20_000),
    ],
    ids=["l51", "l62", "k55"],
)
def test_restricted_search_walks_the_reference_tree(monkeypatch, spec, budget):
    # with no floor every halving re-indexes, even on these small graphs
    monkeypatch.setattr(search, "RESTRICT_FLOOR", 0)
    got, want = partitions_trace(spec, budget)
    assert got == want
    assert len(got) > 1


@settings(max_examples=50, deadline=None)
@given(regular_matrices(), st.integers(0, 2000))
def test_restricted_search_walks_the_reference_tree_on_regular_matrices(spec, budget):
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(search, "RESTRICT_FLOOR", 0)
        got, want = partitions_trace(spec, budget)
    assert got == want


def test_l17_search_restricts_and_walks_the_reference_tree(monkeypatch):
    calls = []
    restrict = CoverIndex.restrict

    def spy(index, alive):
        calls.append(len(index.rows))
        return restrict(index, alive)

    monkeypatch.setattr(CoverIndex, "restrict", spy)
    got, want = partitions_trace(L17, 20_000)
    assert got == want
    assert calls and calls[0] == 1854


def replay_log(spec, budget):
    """Each remembered subtree a budgeted perfect_partitions run replays, and
    every CoverIndex the run built.

    A replay is (entry, spent): the entry as the cache holds it, and the nodes
    spent when the replay began and, for an entry with covers, when it
    resumed after each of them.  Between a cover and the resume the outer
    level spends nodes of its own.  spent is as long as the entry's chunks
    when the replay ran to its end.
    """
    log, indexes, shared = [], [], [budget]
    init = CoverIndex.__init__

    def spent():
        return budget - shared[0]

    class Logged(dict):
        def get(self, key):
            entry = dict.get(self, key)
            if entry is None:
                return None
            times = [spent()]
            log.append((entry, times))
            if isinstance(entry, int):
                return entry

            def resumes():
                yield entry[0]
                for chunk in entry[1:]:
                    times.append(spent())
                    yield chunk

            return resumes()

    def init_spy(index, n_cols, rows):
        init(index, n_cols, rows)
        index.finished = Logged()
        indexes.append(index)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(CoverIndex, "__init__", init_spy)
        try:
            next(perfect_partitions(spec, shared), None)
        except SearchBudgetExceeded:
            pass
    return log, indexes


def test_l17_search_replays_dead_subtrees_and_walks_the_reference_tree():
    log, indexes = replay_log(L17, 100_000)
    assert any(isinstance(entry, int) for entry, _ in log)
    assert any(not isinstance(entry, int) for entry, _ in log)
    assert all(len(index.finished) <= FINISHED_MAX for index in indexes)
    got, want = partitions_trace(L17, 100_000)
    assert got == want


def test_l62_search_replays_subtrees_with_covers_and_walks_the_reference_tree():
    log, _ = replay_log(l_graph(2, 3), 100_000)
    assert any(not isinstance(entry, int) for entry, _ in log)
    got, want = partitions_trace(l_graph(2, 3), 100_000)
    assert got == want


@pytest.mark.parametrize(
    "spec, budget", [(from_matrix(["11111"] * 5), 15003), (L17, 20_000)], ids=["k55", "l17"]
)
def test_a_budget_that_ends_inside_a_replayed_subtree(spec, budget):
    log, _ = replay_log(spec, budget)
    inside = [(times[0], entry) for entry, times in log if isinstance(entry, int) and entry > 1]
    for spent, size in (inside[0], max(inside, key=lambda hit: hit[1]), inside[-1]):
        got, want = partitions_trace(spec, spent + size // 2)
        assert got == want
        assert got[-1] == ("budget exceeded", 0)


def budgets_between_covers(log):
    """Budgets that run out strictly between two covers of a replayed subtree,
    and after its last cover but before its last node, in replay order."""
    between, after = [], []
    for entry, times in log:
        if isinstance(entry, int) or len(times) < len(entry):
            continue
        size = entry[-1][0]
        offsets = [offset for offset, _ in entry[:-1]]
        for k, gap in enumerate(b - a for a, b in zip(offsets, offsets[1:])):
            if gap > 1:
                between.append(times[k + 1] + gap // 2)
        if size - offsets[-1] > 1:
            after.append(times[-1] + (size - offsets[-1]) // 2)
    return between, after


@pytest.mark.parametrize(
    "spec, budget",
    [(l_graph(2, 3), 4593), (from_matrix(["11111"] * 5), 15003), (L17, 20_000)],
    ids=["l62", "k55", "l17"],
)
def test_a_budget_that_ends_between_the_covers_of_a_replayed_subtree(spec, budget):
    log, _ = replay_log(spec, budget)
    # the spy sees the outer level's nodes between a cover and the resume
    assert any(len(set(times)) > 1 for entry, times in log if not isinstance(entry, int))
    between, after = budgets_between_covers(log)
    assert between and after
    for cut in (between[0], between[-1], after[0], after[-1]):
        got, want = partitions_trace(spec, cut)
        assert got == want
        assert got[-1] == ("budget exceeded", 0)


def test_a_full_cache_is_cleared_and_the_tree_is_unchanged(monkeypatch):
    monkeypatch.setattr(search, "FINISHED_MAX", 8)
    log, indexes = replay_log(L17, 20_000)
    assert any(not isinstance(entry, int) for entry, _ in log)
    assert all(len(index.finished) <= 8 for index in indexes)
    got, want = partitions_trace(L17, 20_000)
    assert got == want


def test_exact_cover_node_count_on_l61():
    # every 1-factorization of L(1, 6); the node count pins the search tree
    spec = l_graph(1, 6)
    edge = {e: k for k, e in enumerate(spec.edges())}
    masks = [
        sum(1 << edge[(i, x)] for i, x in enumerate(p, start=1))
        for p in enumerate_matchings(spec)
    ]
    budget = [10**9]
    assert sum(1 for _ in exact_cover(spec.n * 5, masks, budget=budget)) == 9408
    assert 10**9 - budget[0] == 25658


@pytest.mark.parametrize(
    "spec, nodes",
    [
        (l_graph(1, 5), 106),
        (l_graph(2, 3), 4593),
        (from_matrix(["11111"] * 5), 15003),
    ],
    ids=["l51", "l62", "k55"],
)
def test_first_partition_costs_exactly_its_node_count(spec, nodes):
    # the smallest budget that finds a partition pins the two-level search
    # tree, and a list passed to perfect_partitions ends at what it spent
    budget = [10**6]
    assert next(perfect_partitions(spec, budget)) == find_perfect_partition(spec, budget=nodes)
    assert 10**6 - budget[0] == nodes
    with pytest.raises(SearchBudgetExceeded):
        find_perfect_partition(spec, budget=nodes - 1)


def test_large_search_ends_in_a_verdict():
    # L(3, 3) needs 2016 parts: the outer level must not recurse once per part
    spec = l_graph(3, 3)
    try:
        found = find_perfect_partition(spec, budget=20_000)
    except SearchBudgetExceeded:
        return
    assert found is not None
    assert check_partition(make_certificate(spec, found, complete=True)).ok


def test_factorizations_of_k22_and_l41():
    assert list(find_factorizations(l_graph(0, n=2))) == [((1, 2), (2, 1))]

    g = l_graph(1, 4)
    anchor = parse_cycles("(1 2)(3 4)", 4)
    through = [frozenset(f) for f in find_factorizations(g, containing=anchor)]
    # two factorizations hold the anchor; only one extends to the partition
    assert len(through) == 2
    assert all(anchor in f for f in through)
    table_part = frozenset(
        {anchor, parse_cycles("(1 3 2 4)", 4), parse_cycles("(1 4 2 3)", 4)}
    )
    assert table_part in through
    with pytest.raises(ValueError, match="not a matching"):
        next(find_factorizations(g, containing=(1, 2, 3, 4)))


def test_l41_partition_is_found_and_unique():
    g = l_graph(1, 4)
    parts = find_perfect_partition(g)
    assert parts is not None
    assert canonical_parts(parts) == canonical_parts(l41_table())
    assert sum(1 for _ in perfect_partitions(g)) == 1


def test_search_certifies_l51_and_l62():
    for spec, want_parts in ((l_graph(1, 5), 11), (l_graph(2, 3), 20)):
        parts = find_perfect_partition(spec)
        assert parts is not None and len(parts) == want_parts
        assert all(len(p) == 4 for p in parts)


def test_circulant_has_no_partition():
    g = from_matrix(CIRCULANT_ROWS)
    assert not necessary_condition(g).divisible
    assert find_perfect_partition(g) is None
    # the exhaustive route must agree with the divisibility shortcut
    assert find_perfect_partition(g, precheck=False) is None


def test_budget_exhaustion_is_not_a_none_result():
    with pytest.raises(SearchBudgetExceeded):
        find_perfect_partition(l_graph(2, 3), budget=5)
    assert find_perfect_partition(l_graph(2, 3), budget=1_000_000) is not None


def test_empty_graph_partitions():
    # no edges, no matchings: the empty partition is the unique answer
    assert find_perfect_partition(l_graph(2, 1)) == ()
