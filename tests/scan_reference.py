"""The original O(n)-per-move scan loop of the half-size local search.

Kept only as a test oracle: the heap-based ``pdskit.approx.half_pds`` must
produce the same move trace and the same final set on every input.
"""

from __future__ import annotations

from pdskit import Graph, VertexSet
from pdskit.approx import ApproxTrace, MoveRecord


def half_pds_scan(g: Graph, start: VertexSet) -> tuple[VertexSet, ApproxTrace]:
    """Local search from a start of ceil(n/2) vertices, rescanning every vertex per move."""
    n = g.n
    adj = g.adj
    deg = g.deg
    in_s = start.flags()
    din = [0] * n
    for v in range(n):
        c = 0
        for w in adj[v]:
            c += in_s[w]
        din[v] = c
    ssize = len(start)
    cut = sum(deg[v] - din[v] for v in range(n) if in_s[v])

    moves: list[MoveRecord] = []
    for _ in range(2 * g.m + 2):
        co = n - ssize
        sm1 = ssize - 1
        is_pds = True
        pick = -1
        pick_diff = None
        for v in range(n):
            if in_s[v]:
                inside = din[v]
                if is_pds and inside * co < (deg[v] - inside) * sm1:
                    is_pds = False
                diff = deg[v] - 2 * inside
                if pick_diff is None or diff > pick_diff:
                    pick_diff = diff
                    pick = v
        if is_pds:
            break
        u = pick
        cut_before = cut
        cut -= deg[u] - 2 * din[u]
        moves.append(MoveRecord(u, din[u], deg[u] - din[u], cut_before, cut))
        # S := (V \ S) | {u}: complement every table, then patch u back in
        for v in range(n):
            din[v] = deg[v] - din[v]
            in_s[v] ^= 1
        for w in adj[u]:
            din[w] += 1
        in_s[u] = 1
        ssize = n - ssize + 1
    else:
        raise AssertionError("local search exceeded its 2m+1 move bound")

    final = VertexSet.from_ids(n, (v for v in range(n) if in_s[v]))
    return final, ApproxTrace(start, tuple(moves), final)
