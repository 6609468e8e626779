"""The proportional density predicate and its direct consequences.

A set S with 2 <= |S| < n is a proportionally dense subgraph (PDS) when
every u in S has an inside degree share at least as large as its global
one:  d_S(u) / (|S|-1) >= deg(u) / (n-1).  All checks use the equivalent
cross-multiplied form  d_S(u) * |V\\S|  >=  d_{V\\S}(u) * (|S|-1)  so no
floating point is involved.
"""

from __future__ import annotations

from itertools import compress
from typing import NamedTuple

from .errors import InvalidArgument, VerificationFailed
from .graph import MEMBER_BITS, Graph, VertexSet, induced_connected, member_table


class PdsVerdict(NamedTuple):
    """Outcome of a full PDS check; unsatisfied lists (u, d_S(u), d_out(u))."""

    holds: bool
    unsatisfied: tuple[tuple[int, int, int], ...]


def check_pds(g: Graph, s: VertexSet) -> PdsVerdict:
    """Check every member of s, in ascending order; collect all violators.

    Inside degrees are popcounts over member_table's list of s when g holds
    its neighbour masks (a capped exact solver or the small-graph search
    builds them) and n <= MEMBER_BITS, else sums over g.adj and s's flags.
    No check builds the masks: that costs more (4.5 against 3.0 us, n = 7).
    """
    n = g.n
    size = s.size
    if s.n != n:
        raise InvalidArgument(f"set lives on {s.n} vertices, graph has {n}")
    if not 2 <= size < n:
        raise InvalidArgument(f"need 2 <= |S| < n, got |S|={size}, n={n}")
    co = n - size
    sm1 = size - 1
    deg = g.deg
    masks = g._masks
    bad: list[tuple[int, int, int]] = []
    if masks is not None and n <= MEMBER_BITS:
        mask = s.mask
        for u in member_table(n)[mask]:
            inside = (masks[u] & mask).bit_count()
            outside = deg[u] - inside
            if inside * co < outside * sm1:
                bad.append((u, inside, outside))
        # tuple.__new__ skips the verdict's Python-level __new__, 0.15 us a call
        return tuple.__new__(PdsVerdict, (not bad, tuple(bad)))
    flags = s.flags()
    adj = g.adj
    for u in compress(range(n), flags):
        inside = 0
        for w in adj[u]:
            inside += flags[w]
        outside = deg[u] - inside
        if inside * co < outside * sm1:
            bad.append((u, inside, outside))
    return tuple.__new__(PdsVerdict, (not bad, tuple(bad)))


def recheck(g: Graph, s: VertexSet, what: str, connected: bool = False) -> bool:
    """Independent re-check of a solver's answer.

    Raises VerificationFailed unless s is a PDS of g, and also unless s
    induces a connected subgraph when connected is set.  Returns whether
    it does.
    """
    if not check_pds(g, s).holds:
        raise VerificationFailed(f"{what} failed the re-check")
    linked = induced_connected(g, s)
    if connected and not linked:
        raise VerificationFailed(f"{what} is not connected")
    return linked


def pds_size_upper_bound(g: Graph) -> int:
    """Largest size any PDS of a connected graph can have:
    floor((n * (max_deg - 1) + 1) / max_deg)."""
    n = g.n
    delta = g.max_degree
    if delta == 0:
        raise InvalidArgument(f"the bound needs a connected graph; {n} vertices, no edges")
    return (n * (delta - 1) + 1) // delta


def is_inclusionwise_maximal(g: Graph, s: VertexSet, cap: int | None = None) -> bool:
    """True when no strict superset of s is a PDS (s itself must be one);
    cap is pds_extension's enumeration cap."""
    from . import exact  # local import: exact builds on this module

    if not check_pds(g, s).holds:
        raise InvalidArgument("maximality is only defined for sets that are a PDS")
    return exact.pds_extension(g, s, cap=cap) is None
