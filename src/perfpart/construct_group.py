"""Group-theoretic perfect partitions: K_{n,n} by cosets, L(n, 2) by coset pairs.

For the cyclic subgroup H generated by the n-cycle c = (1 2 ... n), every
left coset gH of S_n is a 1-factorization of K_{n,n} (row i meets column
g(c^t(i)) once for each t), and the cosets partition S_n, so the coset
decomposition is a perfect partition with (n-1)! parts of size n.

For L(2n, n), the graph on 2n points with two n x n holes, every matching is
a pair (alpha, beta) of permutations of 1..n (top block to bottom, bottom to
top).  The parts {(g c^t, h c^{t+d}) : t = 0..n-1} over coset representatives
g, h and offsets d cover every pair exactly once, giving ((n-1)!)^2 * n parts
of size n.

knn_partition writes each coset as the sorted rotations of its
representative and emits the parts in canonical order as it goes, so it
sorts no part list; l2nn_partition hands its parts to make_certificate.

Unlike build_l61 and build_l82, these builders skip verified_certificate.
The verifier checks their parts by its orbit test, and even so checking
knn:8 takes 15-16 ms of CPU against 11-12 ms to build it, and l2nn:5
7.6-7.8 ms against 6.4-6.6 ms (medians of 11 calls in each of three runs,
2-CPU VM, Python 3.11.7), so the check would more than double the build's
time.  The tests verify every build up to knn:8 and l2nn:5 instead, and pin
the bytes of those two.
"""

from __future__ import annotations

from itertools import permutations

from .graph_model import l_graph
from .perm_core import Perm
from .verifier import PartitionCertificate, make_certificate


def _coset_reps(n: int) -> list[Perm]:
    """Lexicographically least member of each left coset of <(1 2 ... n)>.

    compose(g, c^t) rotates g's image tuple left by t, so the least member
    of g<c> is the rotation that starts with 1: the representatives are
    (1, *q) for q over the permutations of 2..n, in lexicographic order.
    """
    return [(1, *q) for q in permutations(range(2, n + 1))]


def _rotations(g: Perm) -> list[Perm]:
    """The coset g<c> in the order compose(g, c^t), t = 0..n-1: g rotated left by t."""
    return [g[t:] + g[:t] for t in range(len(g))]


def knn_partition(n: int) -> PartitionCertificate:
    """Perfect partition of K_{n,n} into the (n-1)! left cosets of <(1 2 ... n)>.

    g + g holds every rotation of g as a slice, and sorted, each coset starts
    with g, its representative.  The representatives come out in
    lexicographic order, so the parts are already in make_certificate's
    canonical order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    parts = []
    for g in _coset_reps(n):
        gg = g + g
        parts.append(tuple(sorted([gg[t : t + n] for t in range(n)])))
    return PartitionCertificate(graph=l_graph(0, n=n), complete=True, parts=tuple(parts))


def l2nn_partition(n: int) -> PartitionCertificate:
    """Perfect partition of L(n, 2) (two n x n holes) from paired cosets.

    Member t of part (g, h, d) is alpha = g c^t shifted into the bottom
    block, n + alpha, followed by beta = h c^(t+d).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    reps = _coset_reps(n)
    # each coset twice over, so betas[d : d + n] is h c^(t+d) for t = 0..n-1
    bottoms = [_rotations(h) * 2 for h in reps]
    parts = []
    for g in reps:
        tops = [tuple(n + x for x in alpha) for alpha in _rotations(g)]
        for betas in bottoms:
            for d in range(n):
                parts.append(list(map(tuple.__add__, tops, betas[d : d + n])))
    return make_certificate(l_graph(n, 2), parts, complete=True)
