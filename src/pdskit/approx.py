"""Half-size local search: a guaranteed PDS of size ceil(n/2) or ceil(n/2)+1.

The search keeps a set S of roughly half the vertices.  While S is not a
PDS it picks the member u whose outside degree most exceeds its inside
degree (ties to the smallest id) and replaces S by (V \\ S) | {u}.  Each
such move shrinks the cut between S and its complement at least every
other iteration, so at most 2m+1 moves happen.

Two paths make the same moves.  Up to SCAN_CUTOFF vertices S is one int
mask: every step runs over S's members, as graph.member_table lists
them, takes each inside degree as a popcount of the member's neighbour
mask and S, and finds the density violators, the pick and the cut in
that one pass; a move is S = (V ^ S) | 1 << u.  Above the cutoff every
vertex keeps a fixed side bit and its count of neighbours on its own
side, so S is just one of the two sides; a lazy heap per side yields the
pick and a per-side count of vertices below their density threshold
answers "is S a PDS?".  One move there costs O(deg(u) log n) instead of
a scan of all n vertices, but building the two heaps costs more than a
whole small search: on the tens of thousands of calls that every start
of every graph with n <= 8 makes, the set-up, not the moves, is the time.

The cutoff, n <= 12, is measured with the member table in place (2-CPU
VM, Python 3.11.7, 400 random starts on 40 random graphs per size and
density, best of seven, two runs; n = 13 and 16 read a wider table).  A
first call, which builds the neighbour masks, took 16.3-16.4 us against
the heap's 16.4-16.6 on sparse graphs (m = 1.25n) and 20-21 against 25-26
on denser ones (m = 4n, 2/3 of n(n-1)/2) at n = 12; 15.6-16.3 against
15.2-15.7 and 21 against 24 at 13; 23 against 20-21 and 28-33 against
33-41 at 16.  Later calls on a Graph took 7-8 us at 12.  Past 12 a sparse
first call stops winning, and each bit doubles the table (193 KB at 12).
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from typing import NamedTuple

from . import exact
from .errors import InvalidArgument, VerificationFailed
from .graph import MEMBER_BITS, Graph, VertexSet, adjacency_masks, member_table, require_connected

SCAN_CUTOFF = MEMBER_BITS  # the member table's width; measured in the module docstring

# _DIGITS[cur] turns side bits into the binary digits of S's mask, lowest bit first
_DIGITS = (bytes.maketrans(b"\x00\x01", b"10"), bytes.maketrans(b"\x00\x01", b"01"))


class MoveRecord(NamedTuple):
    vertex: int
    inside_degree: int
    outside_degree: int
    cut_before: int
    cut_after: int


class ApproxTrace(NamedTuple):
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
        raise InvalidArgument("the local search needs at least three vertices")
    require_connected(g)
    half = (n + 1) // 2
    if init is not None:
        if init.n != n or len(init) != half:
            raise InvalidArgument(f"init must have exactly {half} vertices")
        start = init
    elif seed is not None:
        start = VertexSet.from_ids(n, random.Random(seed).sample(range(n), half))
    else:
        start = VertexSet(n, (1 << half) - 1)

    search = _scan_search if n <= SCAN_CUTOFF else _heap_search
    mask, moves = search(g, start, half)
    if not moves:
        return start, tuple.__new__(ApproxTrace, (start, (), start))
    final = VertexSet(n, mask)
    if not half <= len(final) <= half + 1:
        raise VerificationFailed(
            f"local search returned {len(final)} vertices, not {half} or {half + 1}"
        )
    return final, tuple.__new__(ApproxTrace, (start, tuple(moves), final))


def _scan_search(g: Graph, start: VertexSet, half: int) -> tuple[int, list[MoveRecord]]:
    """The search on S as one mask, rescanning S's members on every step;
    n <= SCAN_CUTOFF, the member table's width."""
    s = start.mask
    n = g.n
    adjm = adjacency_masks(g)
    deg = g.deg
    n1 = n - 1
    full = (1 << n) - 1
    # k = |S| - 1, half - 1 and n - half in turn; a member with c neighbours in
    # S fails c*(n-|S|) >= (deg-c)*(|S|-1) iff c*(n-1) < deg*k
    k, k_next = half - 1, n - half
    table = member_table(n)
    moves: list[MoveRecord] = []
    for _ in range(2 * g.m + 2):
        dense = True
        gain = -n  # below every deg - 2*inside
        cut = 0
        for v in table[s]:
            c = (adjm[v] & s).bit_count()
            d = deg[v]
            if c * n1 < d * k:
                dense = False
            cut += d - c
            if d - 2 * c > gain:  # members ascend, so ties go to the smallest id
                gain = d - 2 * c
                u = v
                o = c
        if dense:
            return s, moves
        # tuple.__new__ skips the record's Python-level __new__, 0.15 us a call
        moves.append(tuple.__new__(MoveRecord, (u, o, deg[u] - o, cut, cut - gain)))
        s = (full ^ s) | 1 << u
        k, k_next = k_next, k
    raise VerificationFailed("local search exceeded its 2m+1 move bound")


def _heap_search(g: Graph, start: VertexSet, half: int) -> tuple[int, list[MoveRecord]]:
    """The search on side bits, own-side counts and a lazy heap per side."""
    n = g.n
    adj = g.adj
    deg = g.deg
    n1 = n - 1
    # side[v] changes only when v itself moves; S is the side equal to cur.
    # S starts as side 1 with half vertices and every move swaps the sides,
    # so |S| is half while S is side 1 and n-half+1 while it is side 0, and
    # v in S passes own*(n-|S|) >= (deg-own)*(|S|-1) iff own*(n-1) >= deg*sm1[side]
    sm1 = k0, k1 = (n - half, half - 1)
    side = start.flags()
    own = [0] * n  # neighbours of v on v's own side
    bad = [0, 0]  # bad[s]: vertices of side s failing the test while S is side s
    # heap key (2*own - deg)*n + v: the top has the largest gain deg - 2*own,
    # ties to the smallest id; an entry is stale once v's side or key moved on
    heaps = h0, h1 = ([], [])
    cut = 0
    for v in range(n):
        c = 0
        for w in adj[v]:
            c += side[w]
        d = deg[v]
        if side[v]:
            own[v] = c
            cut += d - c
            if c * n1 < d * k1:
                bad[1] += 1
            h1.append((2 * c - d) * n + v)
        else:
            c = d - c
            own[v] = c
            if c * n1 < d * k0:
                bad[0] += 1
            h0.append((2 * c - d) * n + v)
    if not bad[1]:
        return start.mask, []
    heapify(h0)
    heapify(h1)

    cur = 1
    moves: list[MoveRecord] = []
    for _ in range(2 * g.m + 2):
        if not bad[cur]:
            break
        h_old = heaps[cur]
        while True:
            key = h_old[0]
            u = key % n
            if side[u] == cur and key == (2 * own[u] - deg[u]) * n + u:
                break
            heappop(h_old)
        # S := (V \ S) | {u}: the other side becomes S and u joins it
        o = own[u]
        d = deg[u]
        cut_before = cut
        cut -= d - 2 * o
        moves.append(tuple.__new__(MoveRecord, (u, o, d - o, cut_before, cut)))
        old = cur
        cur ^= 1
        k_old = sm1[old]
        k_new = sm1[cur]
        h_new = heaps[cur]
        if o * n1 < d * k_old:
            bad[old] -= 1
        o = d - o
        own[u] = o
        # u passes on its new side: its gain was >= 1, or 0 with k_new = n/2 - 1
        side[u] = cur
        heappush(h_new, (2 * o - d) * n + u)
        # own moves by one, so the test flips iff own*(n-1) - deg*k lands
        # in [0, n-1) after a gain or in [-(n-1), 0) after a loss
        for w in adj[u]:
            d = deg[w]
            if side[w] == cur:
                o = own[w] + 1
                own[w] = o
                if 0 <= o * n1 - d * k_new < n1:
                    bad[cur] -= 1
                heappush(h_new, (2 * o - d) * n + w)
            else:
                o = own[w] - 1
                own[w] = o
                if -n1 <= o * n1 - d * k_old < 0:
                    bad[old] += 1
                heappush(h_old, (2 * o - d) * n + w)
    else:
        raise VerificationFailed("local search exceeded its 2m+1 move bound")

    return int(side.translate(_DIGITS[cur])[::-1], 2), moves


def approx_ratio_bound(g: Graph):
    """Guaranteed ratio of the half-size search, 2 - 2/(max_deg + 1); returns
    a fractions.Fraction."""
    from fractions import Fraction  # loaded on first use: import pdskit stays cheap

    delta = g.max_degree
    return Fraction(2 * delta, delta + 1)


def decide_pds_at_least_k(g: Graph, k: int, cap: int | None = None) -> bool:
    """Is there a PDS with at least k vertices?

    For k up to ceil(n/2) the answer is always yes and comes with a live
    run of the local search; beyond that the question is settled by the
    maximum-PDS enumeration, stopped once it has tried size k.
    """
    require_connected(g)
    n = g.n
    if not 2 <= k < n:
        raise InvalidArgument(f"need 2 <= k < n, got k={k}, n={n}")
    if k <= (n + 1) // 2:
        s, _ = half_pds(g)
        if len(s) < k:
            raise VerificationFailed(f"local search returned {len(s)} vertices, below k={k}")
        return True
    exact._require_within_cap(g, cap)
    return bool(exact._descend(g, k)[0])
