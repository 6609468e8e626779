"""Exhaustive solvers: maximum PDS, PDS extension, maximum independent set.

Everything here enumerates bitmask subsets, so instances are capped: at
the default cap of 24 vertices the slowest of twenty random connected
graphs across densities took 0.30 s (ROADMAP item 7), and the hard cap
of 63 keeps every mask within one machine word.  Each entry point takes
a cap= that overrides the default.

The maximum-PDS search decides each size by the set T of vertices it
drops, a few where the members are many.  It picks T depth first, from
the highest vertex down, and cuts a branch as soon as a member, or a
vertex the picks left can no longer drop, has more neighbours in T than
its bound allows (see _drop).  Its count of subsets checked is
arithmetic: the number of subsets a search that tests every subset in
turn would decide, not the number of nodes visited.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .errors import InstanceTooLarge, InvalidArgument, NoPds
from .graph import Graph, VertexSet, _mask_component, adjacency_masks, require_connected
from .pds import pds_size_upper_bound

DEFAULT_CAP = 24
HARD_CAP = 63


def resolve_cap(cap: int | None = None) -> int:
    if cap is None:
        cap = DEFAULT_CAP
    if not 2 <= cap <= HARD_CAP:
        raise InstanceTooLarge(f"enumeration cap must be in [2, {HARD_CAP}], got {cap}")
    return cap


def _require_within_cap(g: Graph, cap: int | None) -> None:
    cap = resolve_cap(cap)
    if g.n > cap:
        raise InstanceTooLarge(f"n={g.n} exceeds the enumeration cap {cap}")


def _colex_rank(mask: int) -> int:
    """Position of mask among the masks of its bit count in ascending
    numeric order: sum C(c_i, i) over its bits c_1 < c_2 < ..."""
    rank = 0
    i = 0
    while mask:
        low = mask & -mask
        i += 1
        rank += comb(low.bit_length() - 1, i)
        mask ^= low
    return rank


class ExactResult(NamedTuple):
    """Size, first witness, every optimum (with all_optima) and the number
    of subsets a one-by-one test would have decided on the way; the search
    computes that count, it does not visit them all."""

    size: int
    witness: VertexSet
    optima: tuple[VertexSet, ...] | None
    subsets_checked: int


def _slack(deg, n1: int, size: int) -> tuple[list[int], list[int]]:
    """allow[u], the most neighbours a member u may have outside S at this
    size, and the same numbers as bit slices: bit u of slices[i] is bit i
    of allow[u].  inside * (n - size) >= (deg - inside) * (size - 1) iff
    inside * (n - 1) >= deg * (size - 1)."""
    allow = [d - (d * (size - 1) + n1 - 1) // n1 for d in deg]
    return allow, [
        sum((a >> i & 1) << u for u, a in enumerate(allow))
        for i in range(max(allow).bit_length())
    ]


def _drop(
    adjm, allow, slices, over, t, kept, top, r, full, hits, connected_only, all_optima
) -> bool:
    """Append to hits the qualifying masks full ^ T for the dropped sets T
    that add r vertices below top to t, trying the next pick v in
    descending order, so T descends and hits ascend.  Every vertex >= top
    outside t, and every vertex of kept, is a member.  slices hold each
    vertex's slack, allow[u] less u's neighbours in t, as bit slices (see
    _slack); over marks the vertices whose slack has gone below 0, and no
    member is among them.  True means stop."""
    tight = ~over  # slack 0: a member here may lose no more neighbours
    for s in slices:
        tight &= ~s
    if r == 1:  # the last pick v keeps every other vertex below top
        rest = (1 << top) - 1 & ~kept
        cand = over & rest or rest  # one vertex over its bound must go
        tight &= ~t
        while cand:
            v = cand.bit_length() - 1
            cand ^= 1 << v
            s = full ^ t ^ 1 << v
            if not adjm[v] & tight and (not connected_only or _mask_component(adjm, s) == s):
                hits.append(s)
                if not all_optima:
                    return True
        return False
    for v in range(top - 1, r - 2, -1):
        bit = 1 << v
        if kept & bit:
            continue
        if not adjm[v] & tight & kept:  # else dropping v puts a member over
            # subtract 1 from the slack of v's neighbours, one borrow ripple
            # over the slices; the borrow out marks those that pass below 0
            b = adjm[v] & ~over
            child = []
            for s in slices:
                child.append(s ^ b)
                b &= ~s
            b |= over  # every vertex over its bound below v must go too
            if (b & bit - 1).bit_count() < r and _drop(
                adjm, allow, child, b, t | bit, kept, v, r - 1, full, hits,
                connected_only, all_optima,
            ):
                return True
        # v is a member for every later pick, with r picks among the v
        # vertices below it: v - r of them stay, so at least all but v - r
        # of its lower neighbours go
        if over & bit or (adjm[v] & (t | bit - 1)).bit_count() + r - v > allow[v]:
            return False
        kept |= bit
    return False


def _descend(
    g: Graph, stop: int, connected_only: bool = False, all_optima: bool = False
) -> tuple[list[int], int]:
    """The search behind max_pds_exact, stopped after size stop: each size
    in turn, the dropped sets T of n - size vertices in descending order.

    Returns (hits, subsets decided); hits holds the first qualifying mask
    of the largest size that has one (every such mask with all_optima),
    in ascending numeric order, and is empty when no size down to stop
    qualifies.  The count is arithmetic, the masks a test of every mask in
    turn would decide: all C(n, size) of a size searched to its end, and
    for the size that stops at its first hit, the masks up to the hit, as
    many as its colex rank plus one.
    """
    n = g.n
    adjm = adjacency_masks(g)
    checked = 0
    for size in range(min(pds_size_upper_bound(g), n - 1), stop - 1, -1):
        hits: list[int] = []
        allow, slices = _slack(g.deg, n - 1, size)
        if _drop(
            adjm, allow, slices, 0, 0, 0, n, n - size, (1 << n) - 1, hits,
            connected_only, all_optima,
        ):
            return hits, checked + _colex_rank(hits[0]) + 1
        checked += comb(n, size)
        if hits:
            return hits, checked
    return [], checked


def max_pds_exact(
    g: Graph,
    connected_only: bool = False,
    all_optima: bool = False,
    cap: int | None = None,
) -> ExactResult:
    """Maximum PDS by descending-size enumeration.

    Sizes run from the degree bound down to 2; within a size, masks ascend
    numerically, so the reported witness is the lexicographically smallest
    optimum.  connected_only additionally requires the induced subgraph to
    be connected.  Raises NoPds when nothing qualifies (only K2 in the
    connected world).  The search cuts whole families of masks at once
    (see _descend); subsets_checked is computed, not counted, and equals
    the number a one-by-one test of the masks would report.
    """
    cap = resolve_cap(cap)  # a bad cap is reported before a disconnected graph
    require_connected(g)
    _require_within_cap(g, cap)
    n = g.n
    hits, checked = _descend(g, 2, connected_only, all_optima)
    if not hits:
        raise NoPds(f"no subset with 2 <= |S| < {n} is a PDS")
    witness = VertexSet(n, hits[0])
    optima = tuple(VertexSet(n, h) for h in hits) if all_optima else None
    return ExactResult(witness.size, witness, optima, checked)


def pds_extension(
    g: Graph, base: VertexSet, cap: int | None = None
) -> VertexSet | None:
    """Smallest strict superset of base that is a PDS, or None.

    base itself need not be a PDS.  Supersets are tried by increasing
    size; within a size, added vertices ascend in mask order.  The search
    is _drop's, with base's vertices members from the start, so it drops
    only free vertices.
    """
    _require_within_cap(g, cap)
    n = g.n
    if len(base) >= n:
        raise InvalidArgument("base must be a strict subset of the vertices")
    adjm = adjacency_masks(g)
    for size in range(max(len(base) + 1, 2), n):
        hits: list[int] = []
        allow, slices = _slack(g.deg, n - 1, size)
        if _drop(
            adjm, allow, slices, 0, 0, base.mask, n, n - size, (1 << n) - 1, hits,
            False, False,
        ):
            return VertexSet(n, hits[0])
    return None


def _grow_independent(adjm, best: list[int], allowed: int, size: int, chosen: int) -> None:
    """max_independent_set_exact's branch and bound; a closure calling itself leaks a cycle."""
    if size + allowed.bit_count() <= best[0]:
        return
    # locate the busiest remaining vertex; lowest id wins ties
    pick, pick_deg = -1, -1
    m = allowed
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        d = (adjm[v] & allowed).bit_count()
        if d > pick_deg:
            pick, pick_deg = v, d
    if pick_deg <= 0:
        total = size + allowed.bit_count()
        if total > best[0]:
            best[0] = total
            best[1] = chosen | allowed
        return
    bit = 1 << pick
    _grow_independent(adjm, best, allowed & ~(adjm[pick] | bit), size + 1, chosen | bit)
    _grow_independent(adjm, best, allowed & ~bit, size, chosen)


def max_independent_set_exact(
    g: Graph, cap: int | None = None
) -> tuple[int, VertexSet]:
    """Maximum independent set by branch and bound (deterministic witness)."""
    _require_within_cap(g, cap)
    n = g.n
    best = [0, 0]
    _grow_independent(adjacency_masks(g), best, (1 << n) - 1, 0, 0)
    return best[0], VertexSet(n, best[1])
