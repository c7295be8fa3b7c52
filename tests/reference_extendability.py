"""The one-search-per-matching extendability loop that check_extendability must agree with.

It runs one exact-cover search of the graph's edges by its matchings for each
matching, with that matching forced in, and keeps nothing between searches.
It assumes nothing about degrees, so on a graph that is not regular the
search itself finds that no cover exists.  Tests require check_extendability
to give the same total and the same blocked list.
"""

from perfpart.graph_model import GraphSpec
from perfpart.matchings import enumerate_matchings
from perfpart.search import CoverIndex, edge_masks
from perfpart.verifier import ExtendabilityReport


def reference_extendability(spec: GraphSpec) -> ExtendabilityReport:
    matchings = list(enumerate_matchings(spec))
    index = CoverIndex(len(spec.edges()), edge_masks(spec, matchings))
    blocked = []
    for k, p in enumerate(matchings):
        if next(index.covers(index.all_rows, k), None) is None:
            blocked.append(p)
    return ExtendabilityReport(total=len(matchings), blocked=blocked)
