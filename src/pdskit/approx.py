"""Half-size local search: a guaranteed PDS of size ceil(n/2) or ceil(n/2)+1.

The search keeps a set S of roughly half the vertices.  While S is not a
PDS it picks the member u whose outside degree most exceeds its inside
degree (ties to the smallest id) and replaces S by (V \\ S) | {u}.  Each
such move shrinks the cut between S and its complement at least every
other iteration, so at most 2m+1 moves happen; with the degree tables
kept incrementally every iteration costs O(n), O(n*m) overall.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import exact
from .errors import GraphTooSmall, InstanceTooLarge, InvalidSubsetSize, KOutOfRange
from .graph import Graph, VertexSet, require_connected
from .pds import pds_size_upper_bound


@dataclass(frozen=True)
class MoveRecord:
    vertex: int
    inside_degree: int
    outside_degree: int
    cut_before: int
    cut_after: int


@dataclass(frozen=True)
class ApproxTrace:
    initial: VertexSet
    moves: tuple[MoveRecord, ...]
    final: VertexSet

    @property
    def iterations(self) -> int:
        return len(self.moves)


def half_pds(
    g: Graph, init: VertexSet | None = None, seed: int | None = None
) -> tuple[VertexSet, ApproxTrace]:
    """Run the local search; return the PDS found and the full move trace.

    init, when given, must hold exactly ceil(n/2) vertices.  Without init,
    a seed picks a random start; otherwise the start is {0..ceil(n/2)-1}.
    """
    n = g.n
    if n < 3:
        raise GraphTooSmall("the local search needs at least three vertices")
    require_connected(g)
    half = (n + 1) // 2
    if init is not None:
        if init.n != n or len(init) != half:
            raise InvalidSubsetSize(f"init must have exactly {half} vertices")
        start = init
    elif seed is not None:
        start = VertexSet.from_ids(n, random.Random(seed).sample(range(n), half))
    else:
        start = VertexSet(n, (1 << half) - 1, half)

    adj = g.adj
    deg = g.deg
    in_s = start.flags()
    din = [0] * n
    for v in range(n):
        c = 0
        for w in adj[v]:
            c += in_s[w]
        din[v] = c
    ssize = half
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
    assert len(final) in (half, half + 1)
    return final, ApproxTrace(start, tuple(moves), final)


def approx_ratio_bound(g: Graph) -> Fraction:
    """Guaranteed ratio of the half-size search: 2 - 2/(max_deg + 1)."""
    delta = g.max_degree
    return Fraction(2 * delta, delta + 1)


def decide_pds_at_least_k(g: Graph, k: int, cap: int | None = None) -> bool:
    """Is there a PDS with at least k vertices?

    For k up to ceil(n/2) the answer is always yes and comes with a live
    run of the local search; beyond that the question is settled by
    enumeration over the remaining (fewer than 2^(n-1)) subsets.
    """
    require_connected(g)
    n = g.n
    if not 2 <= k < n:
        raise KOutOfRange(f"need 2 <= k < n, got k={k}, n={n}")
    if k <= (n + 1) // 2:
        s, _ = half_pds(g)
        assert len(s) >= k
        return True
    cap = exact.resolve_cap(cap)
    if n > cap:
        raise InstanceTooLarge(f"n={n} exceeds the enumeration cap {cap}")
    adjm = exact.adjacency_masks(g)
    deg = g.deg
    for size in range(min(pds_size_upper_bound(g), n - 1), k - 1, -1):
        co = n - size
        sm1 = size - 1
        for smask in exact.ksubset_masks(n, size):
            if exact._mask_is_pds(adjm, deg, smask, co, sm1):
                return True
    return False
