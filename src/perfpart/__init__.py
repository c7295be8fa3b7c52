"""Perfect partitions of complete bipartite graphs with diagonal holes.

A perfect matching of the graph is identified with a permutation (1-based
image tuple); a 1-factorization is a set of matchings whose permutation
matrices sum to the adjacency matrix; a perfect partition splits the set of
all matchings into 1-factorizations.  The package counts matchings, builds
the known perfect partitions as machine-checkable certificates, verifies
certificates, and searches small graphs exhaustively.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .counting import CountReport, count_matchings, necessary_condition, ryser_permanent
from .construct_group import knn_partition, l2nn_partition
from .search import (
    SearchBudgetExceeded,
    find_factorizations,
    find_perfect_partition,
    perfect_partitions,
)
from .graph_model import GraphSpec, from_matrix, l_graph
from .construct_l61 import build_l61
from .construct_l82 import build_l82
from .matchings import classify_l61, classify_l82, enumerate_matchings
from .verifier import (
    PartitionCertificate,
    check_extendability,
    check_factorization,
    check_partition,
    load_certificate,
    save_certificate,
)

__all__ = [
    "CountReport",
    "GraphSpec",
    "PartitionCertificate",
    "SearchBudgetExceeded",
    "build_l61",
    "build_l82",
    "check_extendability",
    "check_factorization",
    "check_partition",
    "classify_l61",
    "classify_l82",
    "count_matchings",
    "enumerate_matchings",
    "find_factorizations",
    "find_perfect_partition",
    "from_matrix",
    "knn_partition",
    "l2nn_partition",
    "l_graph",
    "load_certificate",
    "necessary_condition",
    "perfect_partitions",
    "ryser_permanent",
    "save_certificate",
]
