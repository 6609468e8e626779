"""Exhaustive solvers: maximum PDS, PDS extension, maximum independent set.

Everything here enumerates bitmask subsets, so instances are capped: the
default cap of 24 vertices keeps worst cases in the seconds range, the
hard cap of 63 keeps every mask within one machine word.  The env var
PDSKIT_CAP overrides the default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
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
    size: int
    witness: VertexSet
    optima: tuple[VertexSet, ...] | None
    subsets_checked: int


def _descend(
    g: Graph, stop: int, connected_only: bool = False, all_optima: bool = False
) -> tuple[list[int], int]:
    """The search behind max_pds_exact, stopped after size stop.

    Returns (hits, subsets checked); hits holds the first qualifying mask
    of the largest size that has one (every such mask with all_optima),
    and is empty when no size down to stop qualifies.
    """
    n = g.n
    adjm = adjacency_masks(g)
    deg = g.deg
    checked = 0
    top = 1 << n
    for size in range(min(pds_size_upper_bound(g), n - 1), stop - 1, -1):
        co = n - size
        sm1 = size - 1
        hits: list[int] = []
        smask = (1 << size) - 1
        while smask < top:
            checked += 1
            if _mask_is_pds(adjm, deg, smask, co, sm1) and (
                not connected_only or _mask_connected(adjm, smask)
            ):
                hits.append(smask)
                if not all_optima:
                    break
            low = smask & -smask
            ripple = smask + low
            smask = (((ripple ^ smask) >> 2) // low) | ripple
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
    connected world).
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
