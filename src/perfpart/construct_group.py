"""Group-theoretic perfect partitions: K_{n,n} and L(n, 2) as row-rotation orbits.

Let the rows of a d-regular graph split into consecutive blocks of d equal
rows, and let sigma rotate every block by one row.  The orbits of its
matchings under sigma are 1-factorizations, equal or disjoint (the lemma in
the verifier's module docstring), so they form a perfect partition.  K_{n,n}
is one block of n rows: its orbits are the left cosets of the cyclic group
generated by c = (1 2 ... n), (n-1)! parts of size n.  L(n, 2), the graph
on 2n points with two n x n holes, is two blocks: its orbits pair the cosets
of the top block with those of the bottom block at each of n offsets,
((n-1)!)^2 * n parts of size n.

Unlike build_l61 and build_l82, these builders skip verified_certificate.
The verifier checks their parts by its orbit test, and even so checking
knn:8 takes 14.5-14.9 ms of CPU against 11.3-11.9 ms to build it, and
l2nn:5 7.2-7.3 ms against 4.4-4.5 ms (medians of 11 calls in each of three
runs, 2-CPU VM, Python 3.11.7), so the check would more than double the
build's time.  The tests verify every build up to knn:8 and l2nn:5 instead, and pin
the bytes of those two and of knn:9 and l2nn:6.
"""

from __future__ import annotations

from itertools import permutations

from .graph_model import GraphSpec, degree, l_graph
from .verifier import PartitionCertificate, _block_rotations, _row_blocks, _row_sets


def _row_orbit_partition(graph: GraphSpec) -> PartitionCertificate:
    """The perfect partition of graph into the orbits of its matchings under
    sigma, the rotation of every block of d equal rows by one row; ValueError
    when its rows do not split into such blocks.

    In a regular graph the blocks' row sets partition the columns, so each
    orbit holds exactly one matching whose row-1 image is the least column
    of row 1.  These representatives are the first block's bijections onto
    its row set that start with its least column, times every bijection of
    each other block, in lexicographic order.  Each part is its
    representative's rotations, sorted, so it starts with the representative
    and the parts come out in make_certificate's canonical order.
    """
    d = degree(graph)
    rows = _row_sets(graph)
    starts = _row_blocks(rows, d)
    if starts is None:
        raise ValueError(f"the rows do not split into blocks of {d} equal rows")
    head, *tail = (sorted(rows[b]) for b in starts)
    reps = [(head[0], *q) for q in permutations(head[1:])]
    for columns in tail:
        reps = [r + q for r in reps for q in permutations(columns)]
    rotations = _block_rotations(starts, d)
    parts = tuple(tuple(sorted([p, *[rotate(p) for rotate in rotations]])) for p in reps)
    return PartitionCertificate(graph=graph, complete=True, parts=parts)


def knn_partition(n: int) -> PartitionCertificate:
    """Perfect partition of K_{n,n} into the (n-1)! left cosets of <(1 2 ... n)>."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _row_orbit_partition(l_graph(0, n=n))


def l2nn_partition(n: int) -> PartitionCertificate:
    """Perfect partition of L(n, 2) (two n x n holes) into ((n-1)!)^2 * n
    orbits of the rotation of both blocks."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _row_orbit_partition(l_graph(n, 2))
