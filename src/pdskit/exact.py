"""Exhaustive solvers: maximum PDS, PDS extension, maximum independent set.

Everything here enumerates bitmask subsets, so instances are capped: the
default cap of 24 vertices keeps worst cases in the seconds range, the
hard cap of 63 keeps every mask within one machine word.  The env var
PDSKIT_CAP overrides the default.

The maximum-PDS search goes through the subsets of each size in ascending
numeric order, but when a subset fails it skips the run of later subsets
that the same violating vertex rules out (see _descend).  Its count of
subsets checked covers the skipped ones too: it is the number of subsets
decided, the same as a search that tests every subset would report.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import comb
from typing import Iterator

from .errors import InstanceTooLarge, InvalidSubsetSize, NoPds
from .graph import Graph, VertexSet, require_connected
from .pds import pds_size_upper_bound

DEFAULT_CAP = 24
HARD_CAP = 63


def resolve_cap(cap: int | None = None) -> int:
    if cap is None:
        env = os.environ.get("PDSKIT_CAP")
        if env is not None and env.strip():
            try:
                cap = int(env)
            except ValueError as exc:
                raise InstanceTooLarge(f"PDSKIT_CAP must be an integer, got {env!r}") from exc
        else:
            cap = DEFAULT_CAP
    if not 2 <= cap <= HARD_CAP:
        raise InstanceTooLarge(f"enumeration cap must be in [2, {HARD_CAP}], got {cap}")
    return cap


def adjacency_masks(g: Graph) -> tuple[int, ...]:
    """Neighbourhood of every vertex as a bitmask: bit w of entry v is set
    iff vw is an edge.  Costs about n^2/16 bytes, so only the capped
    solvers here build it."""
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return tuple(masks)


def ksubset_masks(n: int, k: int) -> Iterator[int]:
    """All k-subsets of {0..n-1} as bitmasks in ascending numeric order."""
    if k == 0:
        yield 0
        return
    m = (1 << k) - 1  # already past top when k > n
    top = 1 << n
    while m < top:
        yield m
        low = m & -m
        ripple = m + low
        m = (((ripple ^ m) >> 2) // low) | ripple


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


def _mask_is_pds(adjm, deg, smask: int, co: int, sm1: int) -> bool:
    m = smask
    while m:
        low = m & -m
        u = low.bit_length() - 1
        m ^= low
        inside = (adjm[u] & smask).bit_count()
        if inside * co < (deg[u] - inside) * sm1:
            return False
    return True


def _mask_connected(adjm, smask: int) -> bool:
    seen = smask & -smask
    frontier = seen
    while frontier:
        reach = 0
        m = frontier
        while m:
            low = m & -m
            reach |= adjm[low.bit_length() - 1]
            m ^= low
        frontier = reach & smask & ~seen
        seen |= frontier
    return seen == smask


@dataclass(frozen=True)
class ExactResult:
    """Size, first witness, every optimum (with all_optima) and the number
    of subsets decided on the way, whether tested on their own or ruled
    out together with a run of others."""

    size: int
    witness: VertexSet
    optima: tuple[VertexSet, ...] | None
    subsets_checked: int


def _descend(
    g: Graph, stop: int, connected_only: bool = False, all_optima: bool = False
) -> tuple[list[int], int]:
    """The search behind max_pds_exact, stopped after size stop.

    Returns (hits, subsets decided); hits holds the first qualifying mask
    of the largest size that has one (every such mask with all_optima),
    and is empty when no size down to stop qualifies.

    Masks of one size ascend numerically, but one violator decides a whole
    run of them.  A member u fails when fewer than need[u] of its
    neighbours are in S.  Let p = low(u), the lowest of u and its
    neighbours: every mask of the size that agrees with S on bits p and
    up contains u with the same neighbours inside, so it fails too.  Those
    masks are consecutive; their bits below p, j of them, run through all
    j-subsets of {0..p-1}.  The search jumps to the last of the run (those
    j bits at p-j..p-1) and steps on from there.  To make runs long it
    tries the last violator first, which often fails again, and then the
    vertices by descending low(u).

    The masks decided are those a test of every mask in turn would visit:
    all C(n, size) of a size searched to its end, and for the size that
    stops at its first hit, the hit and the masks before it, as many as
    its colex rank.  Hits and count are those of testing every mask.
    """
    n = g.n
    adjm = adjacency_masks(g)
    deg = g.deg
    # (low(u), u, neighbours, degree) as masks, by descending low(u)
    base = sorted(
        [((m | 1 << u) & -(m | 1 << u), 1 << u, m, deg[u]) for u, m in enumerate(adjm)],
        reverse=True,
    )
    n1 = n - 1
    checked = 0
    top = 1 << n
    for size in range(min(pds_size_upper_bound(g), n1), stop - 1, -1):
        sm1 = size - 1
        # u in S fails iff inside * (n - size) < (deg - inside) * sm1,
        # i.e. iff inside * (n - 1) < deg * sm1, i.e. iff inside < need
        tests = [(b, a, -(-d * sm1 // n1), p) for p, b, a, d in base]
        lbit, lam, lneed, lp = tests[0]  # tried first: the last violator found
        hits: list[int] = []
        smask = (1 << size) - 1
        while smask < top:
            if smask & lbit and (lam & smask).bit_count() < lneed:
                p = lp
            else:
                for bit, am, need, p in tests:
                    if smask & bit and (am & smask).bit_count() < need:
                        lbit, lam, lneed, lp = bit, am, need, p
                        break
                else:
                    p = 1  # no violator: a run of this mask alone
                    if not connected_only or _mask_connected(adjm, smask):
                        hits.append(smask)
                        if not all_optima:
                            return hits, checked + _colex_rank(smask) + 1
            below = smask & (p - 1)
            if below:
                smask ^= below ^ (p - (p >> below.bit_count()))
            low_bit = smask & -smask
            ripple = smask + low_bit
            smask = (((ripple ^ smask) >> 2) // low_bit) | ripple
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
    connected world).  One violator rules out a whole run of masks at
    once (see _descend); subsets_checked counts every mask decided, so it
    equals the number a one-by-one test would report.
    """
    cap = resolve_cap(cap)
    require_connected(g)
    n = g.n
    if n > cap:
        raise InstanceTooLarge(f"n={n} exceeds the enumeration cap {cap}")
    hits, checked = _descend(g, 2, connected_only, all_optima)
    if not hits:
        raise NoPds(f"no subset with 2 <= |S| < {n} is a PDS")
    size = hits[0].bit_count()
    witness = VertexSet(n, hits[0], size)
    optima = tuple(VertexSet(n, h, size) for h in hits) if all_optima else None
    return ExactResult(size, witness, optima, checked)


def pds_extension(
    g: Graph, base: VertexSet, cap: int | None = None
) -> VertexSet | None:
    """Smallest strict superset of base that is a PDS, or None.

    base itself need not be a PDS.  Supersets are tried by increasing
    size; within a size, added vertices ascend in mask order.
    """
    cap = resolve_cap(cap)
    n = g.n
    if n > cap:
        raise InstanceTooLarge(f"n={n} exceeds the enumeration cap {cap}")
    if len(base) >= n:
        raise InvalidSubsetSize("base must be a strict subset of the vertices")
    adjm = adjacency_masks(g)
    deg = g.deg
    base_mask = base.mask
    free = [v for v in range(n) if not base_mask >> v & 1]
    for size in range(max(len(base) + 1, 2), n):
        extra = size - len(base)
        co = n - size
        sm1 = size - 1
        for small in ksubset_masks(len(free), extra):
            smask = base_mask
            m = small
            while m:
                low = m & -m
                smask |= 1 << free[low.bit_length() - 1]
                m ^= low
            if _mask_is_pds(adjm, deg, smask, co, sm1):
                return VertexSet(n, smask, size)
    return None


def max_independent_set_exact(
    g: Graph, cap: int | None = None
) -> tuple[int, VertexSet]:
    """Maximum independent set by branch and bound (deterministic witness)."""
    cap = resolve_cap(cap)
    n = g.n
    if n > cap:
        raise InstanceTooLarge(f"n={n} exceeds the enumeration cap {cap}")
    adjm = adjacency_masks(g)
    best = [0, 0]

    def grow(allowed: int, size: int, chosen: int) -> None:
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
        grow(allowed & ~(adjm[pick] | bit), size + 1, chosen | bit)
        grow(allowed & ~bit, size, chosen)

    grow((1 << n) - 1, 0, 0)
    return best[0], VertexSet(n, best[1], best[0])
