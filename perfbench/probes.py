"""Per-layer probes: the public calls behind each per-layer metric, timed from outside.

Each probe runs its call `repeat` times inside a span and reports the median
time.  Calls repeated several times are the short ones, where one sample is
mostly noise; the first repeat also pays the builders' lru_cache fills, which
the median drops.  Every probe checks its result, and a wrong result is
reported as a failure, never as a number.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import replace
from itertools import product
from pathlib import Path

from perfpart import construct_l82
from perfpart.construct_group import knn_partition, l2nn_partition
from perfpart.construct_l61 import build_l61
from perfpart.counting import count_matchings, ryser_permanent
from perfpart.graph_model import from_matrix, invertible_blocks, l_graph, row_strings
from perfpart.matchings import census_l82, classify_l82, enumerate_matchings
from perfpart.perm_core import to_cycles
from perfpart.search import (
    SearchBudgetExceeded,
    exact_cover,
    find_factorizations,
    find_perfect_partition,
)
from perfpart.verifier import (
    check_extendability,
    check_partition,
    load_certificate,
    make_certificate,
    save_certificate,
)

from spans import Tracer, clock

L17_BUDGET = 100_000
FACTORIZATION_SAMPLE = 5
AUDIT = {
    "type1_parts": 384, "type2_parts": 384, "type3_parts": 24,
    "S0_1": 768, "S0_rest": 1536, "S1": 1536, "S2": 768, "S4": 144,
}


def edge_masks(spec, matchings) -> list[int]:
    """One bitmask per matching over the graph's edges in lexicographic order."""
    index = {edge: k for k, edge in enumerate(spec.edges())}
    return [sum(1 << index[(i, x)] for i, x in enumerate(p, start=1)) for p in matchings]


class Probes:
    def __init__(self, tracer: Tracer, seed: int, workdir: Path) -> None:
        self.tracer = tracer
        self.seed = seed
        self.workdir = workdir
        self.metrics: dict[str, float] = {}
        self.failures: list[str] = []
        self.attempted = 0

    def timed(self, name: str, fn, repeat: int = 1):
        """(median seconds, last result) of `repeat` calls, each in its own span."""
        times = []
        for _ in range(repeat):
            self.tracer.new_trace()
            with self.tracer.span(name):
                t0 = clock()
                result = fn()
                times.append(clock() - t0)
        return statistics.median(times), result

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def run(self) -> None:
        m = self.metrics
        spec24 = l_graph(2, 4)

        m["matchings.enumerate_l24_s"], m24 = self.timed(
            "matchings.enumerate_matchings", lambda: list(enumerate_matchings(spec24)), 5
        )
        self.check("matchings.enumerate_l24", len(m24) == 4752)
        m["matchings.enumerate_k88_s"], mk = self.timed(
            "matchings.enumerate_matchings", lambda: list(enumerate_matchings(l_graph(0, n=8))), 3
        )
        self.check("matchings.enumerate_k88", len(mk) == 40320)
        m["matchings.classify_l82_s"], classes = self.timed(
            "matchings.classify_l82", lambda: classify_l82(m24), 3
        )
        self.check("matchings.classify_l82", census_l82(classes) == (2304, 1536, 768, 144))
        m["graph_model.invertible_blocks_s"], blocks = self.timed(
            "graph_model.invertible_blocks", lambda: [invertible_blocks(p) for p in m24], 3
        )
        self.check("graph_model.invertible_blocks", sum(map(len, blocks)) == 1536 + 2 * 768 + 4 * 144)
        m["perm_core.to_cycles_s"], cycles = self.timed(
            "perm_core.to_cycles", lambda: [to_cycles(p) for p in m24], 5
        )
        self.check("perm_core.to_cycles", len(set(cycles)) == 4752)

        m["construct_l82.type1_s"], t1 = self.timed("construct_l82.build_type1", construct_l82.build_type1, 3)
        m["construct_l82.type2_s"], t2 = self.timed("construct_l82.build_type2", construct_l82.build_type2)
        m["construct_l82.type3_s"], t3 = self.timed("construct_l82.build_type3", construct_l82.build_type3, 5)
        parts = [*t1, *t2, *t3]
        m["construct_l82.audit_s"], audit = self.timed(
            "construct_l82.classify_parts", lambda: construct_l82.classify_parts(parts), 3
        )
        self.check("construct_l82.audit", audit == AUDIT)
        _, raw = self.timed(
            "construct_l82.type2_families",
            lambda: [
                family
                for cycle in construct_l82.CYCLE_REPS
                for chords in product(construct_l82.E_BLOCKS, repeat=4)
                for family in construct_l82.type2_families(cycle, chords)
            ],
        )
        useful = len({tuple(sorted(part)) for part in raw})
        m["construct_l82.type2_useful_ratio"] = useful / len(raw)
        self.check("construct_l82.type2_useful", useful == len(t2) == 384)

        m["construct_l61.build_s"], cert61 = self.timed("construct_l61.build_l61", build_l61, 5)
        self.check("construct_l61.build", len(cert61.parts) == 53)
        m["construct_group.knn8_s"], knn8 = self.timed(
            "construct_group.knn_partition", lambda: knn_partition(8)
        )
        m["construct_group.l2nn5_s"], l2nn5 = self.timed(
            "construct_group.l2nn_partition", lambda: l2nn_partition(5), 3
        )

        cert82 = make_certificate(spec24, parts, complete=True)
        for metric, cert, n_parts, repeat in (
            ("verifier.check_l82_s", cert82, 792, 3),
            ("verifier.check_knn8_s", knn8, 5040, 1),
            ("verifier.check_knn8_partial_s", replace(knn8, complete=False), 5040, 1),
            ("verifier.check_l2nn5_s", l2nn5, 2880, 1),
        ):
            m[metric], report = self.timed("verifier.check_partition", lambda: check_partition(cert), repeat)
            self.check(metric, report.ok and report.n_parts == n_parts)

        path = self.workdir / "probe_knn8.json"
        m["verifier.save_knn8_s"], _ = self.timed(
            "verifier.save_certificate", lambda: save_certificate(knn8, path), 3
        )
        m["verifier.cert_bytes_knn8"] = path.stat().st_size
        m["verifier.load_knn8_s"], loaded = self.timed(
            "verifier.load_certificate", lambda: load_certificate(path), 3
        )
        self.check("verifier.load_knn8", loaded == knn8)
        m["verifier.extendability_l16_s"], ext = self.timed(
            "verifier.check_extendability", lambda: check_extendability(l_graph(1, 6))
        )
        self.check("verifier.extendability_l16", ext.total == 265 and ext.all_extendable)

        self.exact_cover_probe()
        self.factorization_setup_probe(spec24, m24)

        m["search.partition_l62_s"], found = self.timed(
            "search.find_perfect_partition", lambda: find_perfect_partition(l_graph(2, 3)), 3
        )
        self.check("search.partition_l62", found is not None and len(found) == 20)
        m["search.partition_k55_s"], found = self.timed(
            "search.find_perfect_partition", lambda: find_perfect_partition(from_matrix(["11111"] * 5))
        )
        self.check("search.partition_k55", found is not None and len(found) == 24)
        m["search.budget_l17_s"], outcome = self.timed("search.find_perfect_partition", self.budget_l17)
        self.check("search.budget_l17", outcome)

        spec44 = l_graph(4, 4)
        m["counting.ryser_l44_s"], perm = self.timed(
            "counting.ryser_permanent", lambda: ryser_permanent(spec44.rows), 3
        )
        self.check("counting.ryser_l44", perm == count_matchings(4, 4))

    def exact_cover_probe(self) -> None:
        """Every 1-factorization of L(1, 6) through exact_cover, nodes counted by its budget."""
        spec = l_graph(1, 6)
        masks = edge_masks(spec, list(enumerate_matchings(spec)))
        start = 10**9
        budget = [start]
        seconds, solutions = self.timed(
            "search.exact_cover", lambda: sum(1 for _ in exact_cover(spec.n * 5, masks, budget=budget))
        )
        nodes = start - budget[0]
        self.metrics["search.exact_cover_nodes"] = nodes
        self.metrics["search.exact_cover_nodes_per_s"] = nodes / seconds
        self.check("search.exact_cover", solutions == 9408)

    def factorization_setup_probe(self, spec, matchings) -> None:
        """Median time to the first 1-factorization containing a seeded sample matching."""
        sample = random.Random(self.seed).sample(matchings, FACTORIZATION_SAMPLE)
        times = []
        for p in sample:
            seconds, first = self.timed(
                "search.find_factorizations", lambda: next(find_factorizations(spec, containing=p), None)
            )
            times.append(seconds)
            self.check("search.factorization_setup", first is not None and p in first)
        self.metrics["search.factorization_setup_s"] = statistics.median(times)

    def budget_l17(self) -> bool:
        """The workload's budgeted L(1, 7) search: UNDECIDED, or FOUND and verified."""
        spec = from_matrix(row_strings(l_graph(1, 7)))
        try:
            found = find_perfect_partition(spec, budget=L17_BUDGET)
        except SearchBudgetExceeded:
            return True
        if found is None:
            return False
        return check_partition(make_certificate(spec, found, complete=True)).ok
