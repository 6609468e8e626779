"""Exhaustive solvers: maximum PDS, PDS extension, maximum independent set.

Everything here enumerates bitmask subsets, so instances are capped: the
default cap of 24 vertices keeps worst cases in the seconds range, the
hard cap of 63 keeps every mask within one machine word.  Each entry
point takes a cap= that overrides the default.

The maximum-PDS search picks the members of each size depth first, from
the highest vertex down, and cuts every prefix of picks that already
leaves some member with too few neighbours (see _descend).  Its count of
subsets checked is arithmetic: the number of subsets a search that tests
every subset in turn would decide, not the number of nodes visited.
"""

from __future__ import annotations

from math import comb
from operator import sub
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


def _bounds(deg, n1: int, size: int) -> tuple[list[int], list[int]]:
    """need[u], the fewest neighbours u in S may have inside S at this size,
    and allow[u] = deg(u) - need[u], the most outside: inside * (n - size)
    >= (deg - inside) * (size - 1) iff inside * (n - 1) >= deg * (size - 1)."""
    need = [(d * (size - 1) + n1 - 1) // n1 for d in deg]
    return need, list(map(sub, deg, need))


def _pick(adjm, need, allow, out, s, tight, c, r, hits, connected_only, all_optima) -> bool:
    """Append to hits the qualifying masks that add r members below c to s
    (all >= c), trying the next member v in ascending order, so hits ascend.
    out[u] counts member u's neighbours left out, the non-members >= c, and
    may not pass allow[u]; tight marks the members at that bound.  True
    means stop; out is restored otherwise."""
    if r == 1:  # the last pick v leaves out every other vertex below c
        cand = (1 << c) - 1
        m = s
        while m:
            u = m.bit_length() - 1
            m ^= 1 << u
            short = need[u] - (adjm[u] & s).bit_count()
            if short > 1:
                return False
            if short == 1:
                cand &= adjm[u]
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            if (adjm[v] & s).bit_count() >= need[v] and (
                not connected_only or _mask_component(adjm, s | low) == s | low
            ):
                hits.append(s | low)
                if not all_optima:
                    return True
        return False
    # picking v next leaves out (v, c): leave out c-1, c-2, ... until the
    # next would put a tight member over its bound; w is then the lowest v
    w = c - 1
    while w >= r and not adjm[w] & tight:
        m = adjm[w] & s
        while m:
            u = m.bit_length() - 1
            m ^= 1 << u
            out[u] += 1
            if out[u] == allow[u]:
                tight |= 1 << u
        w -= 1
    for v in range(w, c):
        m = adjm[v] & s if v > w else 0  # v is no longer left out
        while m:
            u = m.bit_length() - 1
            m ^= 1 << u
            if out[u] == allow[u]:
                tight ^= 1 << u
            out[u] -= 1
        inside = (adjm[v] & s).bit_count()
        ov = (adjm[v] >> v + 1).bit_count() - inside  # v's neighbours left out
        if inside + r > need[v] and ov <= allow[v]:
            out[v] = ov
            tv = tight | (ov == allow[v]) << v
            if _pick(
                adjm, need, allow, out, s | 1 << v, tv, v, r - 1, hits, connected_only, all_optima
            ):
                return True
    return False


def _descend(
    g: Graph, stop: int, connected_only: bool = False, all_optima: bool = False
) -> tuple[list[int], int]:
    """The search behind max_pds_exact, stopped after size stop.

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
        need, allow = _bounds(g.deg, n - 1, size)
        if _pick(adjm, need, allow, [0] * n, 0, 0, n, size, hits, connected_only, all_optima):
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
    is _pick's on a relabelling that keeps the order of the free vertices
    and puts base above them, so base is the prefix every pick extends.
    """
    _require_within_cap(g, cap)
    n = g.n
    if len(base) >= n:
        raise InvalidArgument("base must be a strict subset of the vertices")
    order = [v for v in range(n) if not base.mask >> v & 1] + base.members()
    label = [0] * n
    for i, v in enumerate(order):
        label[v] = i
    adjm = [sum(1 << label[w] for w in g.adj[v]) for v in order]
    deg = [g.deg[v] for v in order]
    c = n - len(base)
    s = (1 << n) - (1 << c)
    for size in range(max(len(base) + 1, 2), n):
        hits: list[int] = []
        need, allow = _bounds(deg, n - 1, size)
        tight = sum(1 << u for u in range(c, n) if not allow[u])
        if _pick(adjm, need, allow, [0] * n, s, tight, c, size + c - n, hits, False, False):
            return VertexSet.from_ids(n, [v for i, v in enumerate(order) if hits[0] >> i & 1])
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
