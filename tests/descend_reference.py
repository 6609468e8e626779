"""The original one-mask-at-a-time searches of ``pdskit.exact``.

Kept only as test oracles: ``pdskit.exact._descend``, which searches
each size's dropped vertices and cuts every branch that cannot qualify,
must return the same hits, in the same order, and the same count of
subsets decided on every input, and ``pdskit.exact.pds_extension`` the
same superset as ``extension_scan``.
"""

from __future__ import annotations

from typing import Iterator

from pdskit import Graph, VertexSet
from pdskit.exact import _mask_component, adjacency_masks
from pdskit.pds import pds_size_upper_bound


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


def mask_is_pds(adjm, deg, smask: int, co: int, sm1: int) -> bool:
    m = smask
    while m:
        low = m & -m
        u = low.bit_length() - 1
        m ^= low
        inside = (adjm[u] & smask).bit_count()
        if inside * co < (deg[u] - inside) * sm1:
            return False
    return True


def descend_scan(
    g: Graph, stop: int, connected_only: bool = False, all_optima: bool = False
) -> tuple[list[int], int]:
    """Sizes from the degree bound down to stop, every mask of a size tested in turn."""
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
            if mask_is_pds(adjm, deg, smask, co, sm1) and (
                not connected_only or _mask_component(adjm, smask) == smask
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


def extension_scan(g: Graph, base: VertexSet) -> VertexSet | None:
    """Supersets of base by increasing size, each size's added vertices
    tested in ascending mask order."""
    n = g.n
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
            if mask_is_pds(adjm, deg, smask, co, sm1):
                return VertexSet(n, smask)
    return None
