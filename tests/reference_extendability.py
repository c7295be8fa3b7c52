"""The one-search-per-matching extendability loop that check_extendability must agree with.

It runs one exact-cover search over every matching for each matching, with
that matching forced in, and keeps nothing between searches.  Tests require
check_extendability to give the same total and the same blocked list.
"""

from perfpart.graph_model import GraphSpec
from perfpart.search import matching_index
from perfpart.verifier import ExtendabilityReport


def reference_extendability(spec: GraphSpec) -> ExtendabilityReport:
    matchings, index = matching_index(spec)
    blocked = []
    for k, p in enumerate(matchings):
        if next(index.covers(index.all_rows, (k,)), None) is None:
            blocked.append(p)
    return ExtendabilityReport(total=len(matchings), blocked=blocked)
