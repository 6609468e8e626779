"""The original one-mask-at-a-time descending search of ``pdskit.exact``.

Kept only as a test oracle: the block-skipping ``pdskit.exact._descend``
must return the same hits and the same count of subsets decided on every
input.
"""

from __future__ import annotations

from pdskit import Graph
from pdskit.exact import _mask_connected, _mask_is_pds, adjacency_masks
from pdskit.pds import pds_size_upper_bound


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
