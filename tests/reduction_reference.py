"""The original restart loop of ``SplitReduction.normalize_pds``.

Kept only as a test oracle: the one-pass ``normalize_pds`` must return the
same set, or raise the same error, on every PDS of a split target.
"""

from __future__ import annotations

from pdskit import InvalidArgument, VerificationFailed, VertexSet, check_pds
from pdskit.reductions import SplitReduction


def normalize_pds_restart(inst: SplitReduction, s: VertexSet) -> VertexSet:
    """Add the core, then evict the smaller endpoint of the first edge whose
    endpoints are both inside, rescanning the edges from the start after
    every eviction."""
    if not check_pds(inst.target, s).holds:
        raise InvalidArgument("normalize_pds needs a PDS of the target")
    inside = set(s.members())
    budget = sum(1 for eid in inst.edge_ids.values() if eid not in inside)
    inside.update(range(inst.core_size))
    while True:
        offender = None
        for (u, v), _eid in inst.edge_ids.items():
            if inst.source_ids[u] in inside and inst.source_ids[v] in inside:
                offender = (u, v)
                break
        if offender is None:
            break
        if budget <= 0:
            raise VerificationFailed("edge-block transfer loop exceeded its bound")
        budget -= 1
        u, v = offender
        inside.discard(min(inst.source_ids[u], inst.source_ids[v]))
    return VertexSet.from_ids(inst.target.n, inside)
