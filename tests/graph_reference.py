"""The original edge-at-a-time Graph constructor, and the split and
bipartite tests.

Kept only as test oracles: ``pdskit.Graph`` must give the same fields
for every edge list this accepts, and raise the same exception with the
same message for every list it rejects; the two reductions' targets must
be split and bipartite graphs.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from pdskit import InvalidGraph


class GraphFields(NamedTuple):
    n: int
    m: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[tuple[int, ...], ...]
    deg: tuple[int, ...]


def fields(g) -> GraphFields:
    return GraphFields(g.n, g.m, g.edges, g.adj, g.deg)


def build_graph_loop(n: int, edges: Iterable[tuple[int, int]]) -> GraphFields:
    if n < 2:
        raise InvalidGraph("a graph needs at least two vertices")
    seen: set[tuple[int, int]] = set()
    canon: list[tuple[int, int]] = []
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidGraph(f"vertex id out of range: ({u}, {v}) with n={n}")
        if u == v:
            raise InvalidGraph(f"self-loop at {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise InvalidGraph(f"duplicate edge {e}")
        seen.add(e)
        canon.append(e)
    canon.sort()
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in canon:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return GraphFields(
        n, len(canon), tuple(canon), tuple(map(tuple, nbrs)), tuple(map(len, nbrs))
    )


def is_bipartite(g) -> bool:
    """Two-colouring by breadth-first search: the bipartite reduction's
    target must pass."""
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        order = [start]
        for u in order:
            for w in g.adj[u]:
                if color[w] == -1:
                    color[w] = color[u] ^ 1
                    order.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def is_split(g) -> bool:
    """Degree-sequence split test (Hammer and Simeone): the top
    clique-candidate degrees must absorb exactly the edge mass a
    clique-plus-independent-set allows.  The split reduction's target
    must pass."""
    d = sorted(g.deg, reverse=True)
    k = 0
    for i, di in enumerate(d, start=1):
        if di < i - 1:
            break
        k = i
    return sum(d[:k]) == k * (k - 1) + sum(d[k:])
