"""A certificate checker that shares no code with perfpart.

It reads the certificate JSON, builds the adjacency matrix by its own rule,
checks that each part's permutation matrices sum to it and that no matching
is in two parts, and, for a certificate that claims completeness, compares
the number of matchings with the permanent of the adjacency, found by a
dynamic program over column subsets.  Only the verdict is reported.

    python tests/independent_check.py CERT.json   # exit 0 accept, 1 reject
"""

import json
import sys

PERMANENT_MAX_N = 12  # the permanent costs 2^n * n steps


def _int(value) -> int:
    # bool is an int subclass, and JSON numbers like 6.0 are floats
    if type(value) is not int:
        raise ValueError(f"not an integer: {value!r}")
    return value


def adjacency(graph: dict, n: int) -> list[list[int]]:
    """K_{n,n} when r = 0; L(r, m) has an r x r hole on each diagonal block."""
    if graph["kind"] == "L":
        r = _int(graph["r"])
        if r == 0:
            return [[1] * n for _ in range(n)]
        if r < 0 or r * _int(graph["m"]) != n:
            raise ValueError("r * m is not n")
        return [[int(i // r != j // r) for j in range(n)] for i in range(n)]
    if graph["kind"] == "matrix":
        rows = graph["rows"]
        if not isinstance(rows, list) or len(rows) != n:
            raise ValueError("the matrix is not n rows")
        if any(not isinstance(row, str) or len(row) != n or set(row) - {"0", "1"} for row in rows):
            raise ValueError("a row is not n characters 0 or 1")
        return [[int(c) for c in row] for row in rows]
    raise ValueError("unknown graph kind")


def permanent(adj: list[list[int]]) -> int:
    """ways[mask]: the matchings of the first popcount(mask) rows onto the columns in mask."""
    n = len(adj)
    if n > PERMANENT_MAX_N:
        raise NotImplementedError(f"the permanent is bounded to n <= {PERMANENT_MAX_N}")
    ways = [0] * (1 << n)
    ways[0] = 1
    for mask in range(1 << n):
        i = bin(mask).count("1")
        if ways[mask] and i < n:
            for j in range(n):
                if adj[i][j] and not mask >> j & 1:
                    ways[mask | 1 << j] += ways[mask]
    return ways[-1]


def accepts(cert: dict) -> bool:
    """True when the parsed certificate JSON is a valid (partial) partition."""
    try:
        n = _int(cert["n"])
        adj = adjacency(cert["graph"], n)
        degree = _int(cert["degree"])
        complete = cert["complete"]
        parts = cert["parts"]
        if n < 1 or not isinstance(complete, bool) or not isinstance(parts, list):
            return False
        if any(sum(line) != degree for line in (*adj, *zip(*adj))):
            return False
        seen = set()
        for part in parts:
            cover = [[0] * n for _ in range(n)]
            for p in part:
                images = tuple(map(_int, p))
                if sorted(images) != list(range(1, n + 1)) or images in seen:
                    return False
                seen.add(images)
                for i, x in enumerate(images):
                    cover[i][x - 1] += 1
            if cover != adj:
                return False
    except (KeyError, TypeError, ValueError):
        return False
    return not complete or len(seen) == permanent(adj)


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        sys.exit(0 if accepts(json.load(fh)) else 1)
