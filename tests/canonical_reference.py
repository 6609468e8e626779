"""The original colour-refinement canonical key of ``pdskit.generators``,
and its original per-child canonical-augmentation test.

Kept only as test oracles: the ordered bitmask refinement that replaced
the key must split graphs into the same isomorphism classes, and the
per-parent tables that replaced the test must pass the same children, so
that the enumerator keeps the same representative of every class.
"""

from __future__ import annotations

from pdskit.graph import _mask_component


def _new_vertex_may_be_removed(n: int, adj: tuple[int, ...]) -> bool:
    """Cheap first test of canonical augmentation: no non-cut vertex has a
    strictly larger (degree, sum of neighbour degrees) than vertex n-1."""
    deg = [row.bit_count() for row in adj]

    def nbr_degrees(v: int) -> int:
        return sum(deg[u] for u in range(n) if adj[v] >> u & 1)

    d = deg[n - 1]
    new_sum = None
    for w in range(n - 1):
        if deg[w] < d:
            continue
        if deg[w] == d:
            if new_sum is None:
                new_sum = nbr_degrees(n - 1)
            if nbr_degrees(w) <= new_sum:
                continue
        rest = ((1 << n) - 1) ^ (1 << w)
        if _mask_component(adj, rest) == rest:  # w is no cut vertex
            return False
    return True


def _refine(n: int, nbrs: list[tuple[int, ...]], colors: list[int]) -> list[int]:
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[w] for w in nbrs[v]))) for v in range(n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        fresh = [rank[s] for s in sigs]
        if fresh == colors:
            return colors
        colors = fresh


def _canonical_key(n: int, adj: tuple[int, ...]) -> int:
    nbrs = [tuple(w for w in range(n) if adj[v] >> w & 1) for v in range(n)]
    best: list[int | None] = [None]

    def emit(colors: list[int]) -> None:
        # colors are a bijection onto 0..n-1; read the relabeled adjacency
        pos = [0] * n
        for v, c in enumerate(colors):
            pos[c] = v
        key = 0
        for i in range(n):
            vi = pos[i]
            row = adj[vi]
            for j in range(i + 1, n):
                key = key << 1 | row >> pos[j] & 1
        if best[0] is None or key < best[0]:
            best[0] = key

    def search(colors: list[int]) -> None:
        colors = _refine(n, nbrs, colors)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        split = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                split = cells[c]
                break
        if split is None:
            emit(colors)
            return
        twins = all(
            adj[u] & ~(1 << v) == adj[v] & ~(1 << u)
            for i, u in enumerate(split)
            for v in split[i + 1 :]
        )
        scale = n + 2
        if twins:
            # interchangeable vertices: any fixed order gives the same key
            fresh = [c * scale for c in colors]
            for idx, v in enumerate(split):
                fresh[v] += idx + 1
            search(fresh)
            return
        for v in split:
            fresh = [c * scale for c in colors]
            fresh[v] += 1
            search(fresh)

    search([0] * n)
    assert best[0] is not None
    return best[0]
