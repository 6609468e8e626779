"""Timing suites; each returns CSV-ready rows (generation is not timed)."""

from __future__ import annotations

import math
import time

from . import approx, cubic, exact, generators
from .errors import UnknownSuite

APPROX_SIZES = (256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072)
CUBIC_SIZES = (1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000)
EXACT_SIZES = (16, 18, 20, 22, 24)
ENUM_SIZES = (3, 4, 5, 6, 7, 8)


def _best_of(fn, repeats: int, fresh=None) -> float:
    """Least wall time of fn() over repeats; with fresh, of fn(fresh()),
    where fresh() runs untimed."""
    best = math.inf
    for _ in range(repeats):
        args = () if fresh is None else (fresh(),)
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def approx_scaling(
    sizes: tuple[int, ...] = APPROX_SIZES, seed: int = 0, repeats: int = 3
) -> list[dict]:
    """Local search on random connected graphs with m = 4n."""
    rows = []
    for i, n in enumerate(sizes):
        g = generators.random_connected(n, 4 * n, seed=seed + i)
        result = {}

        def run(g=g, result=result):
            result["out"] = approx.half_pds(g)

        seconds = _best_of(run, repeats)
        _, trace = result["out"]
        rows.append({"n": n, "m": g.m, "seconds": seconds, "moves": trace.iterations})
    return rows


def cubic_scaling(
    sizes: tuple[int, ...] = CUBIC_SIZES, seed: int = 0, repeats: int = 3
) -> list[dict]:
    """Cycle-plus-chords solver: seconds with verification off (the solve
    alone), verified_seconds on the default verify=True path."""
    rows = []
    for i, n in enumerate(sizes):
        g = cubic.random_cubic_cycle(n, seed=seed + i)
        seconds = _best_of(
            lambda g=g: cubic.solve_hamiltonian_cubic(g, verify=False), repeats
        )
        # a new instance per repeat: each verified solve builds its own
        # neighbour table, as a one-off solve does
        verified = _best_of(
            cubic.solve_hamiltonian_cubic,
            repeats,
            fresh=lambda g=g: cubic.CubicCycleGraph(g.n, g.chord),
        )
        rows.append({"n": n, "seconds": seconds, "verified_seconds": verified})
    return rows


def exact_scaling(
    sizes: tuple[int, ...] = EXACT_SIZES, seed: int = 0, repeats: int = 3
) -> list[dict]:
    """Every maximum connected PDS on random connected graphs with m = 3n/2."""
    rows = []
    for i, n in enumerate(sizes):
        g = generators.random_connected(n, 3 * n // 2, seed=seed + i)
        result = {}

        def run(g=g, result=result):
            result["out"] = exact.max_pds_exact(g, connected_only=True, all_optima=True)

        seconds = _best_of(run, repeats)
        res = result["out"]
        rows.append(
            {
                "n": n,
                "m": g.m,
                "size": res.size,
                "subsets_checked": res.subsets_checked,
                "seconds": seconds,
            }
        )
    return rows


def enum_scaling(
    sizes: tuple[int, ...] = ENUM_SIZES, seed: int = 0, repeats: int = 3
) -> list[dict]:
    """Cold enumeration of the connected graphs on n vertices, every
    smaller n included; the enumeration is exhaustive, so seed is unused."""

    def cold(n: int) -> int:
        generators._connected_cache.clear()
        return n

    rows = []
    for n in sizes:
        seconds = _best_of(
            generators._connected_masks, repeats, fresh=lambda n=n: cold(n)
        )
        rows.append(
            {"n": n, "graphs": len(generators._connected_masks(n)), "seconds": seconds}
        )
    return rows


SUITES = {
    "approx-scaling": approx_scaling,
    "cubic-scaling": cubic_scaling,
    "exact-scaling": exact_scaling,
    "enum-scaling": enum_scaling,
}


def run_suite(name: str, **kwargs) -> list[dict]:
    if name not in SUITES:
        raise UnknownSuite(f"no suite named {name!r}; have {sorted(SUITES)}")
    return SUITES[name](**kwargs)


def fit_loglog(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Least-squares slope and r^2 of log(y) against log(x)."""
    if len(set(xs)) < 2:
        raise ValueError("a fit needs at least two distinct sizes")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    k = len(lx)
    mx = sum(lx) / k
    my = sum(ly) / k
    sxx = sum((x - mx) ** 2 for x in lx)
    sxy = sum((x - mx) * (y - my) for x, y in zip(lx, ly))
    syy = sum((y - my) ** 2 for y in ly)
    slope = sxy / sxx
    r2 = sxy * sxy / (sxx * syy) if syy else 1.0
    return slope, r2
