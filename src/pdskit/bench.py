"""Timing suites; each returns CSV-ready rows with n and seconds (generation is not timed)."""

from __future__ import annotations

import math
import time

from . import approx, cubic, exact, generators
from .errors import InvalidArgument, UnknownName

APPROX_SIZES = (256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072)
CUBIC_SIZES = (1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000)
EXACT_SIZES = (16, 18, 20, 22, 24)
ENUM_SIZES = (3, 4, 5, 6, 7, 8)


def _best_of(fn, repeats: int) -> tuple[float, object]:
    """(least wall time of fn() over repeats, what the last call returned)."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def approx_scaling(
    sizes: tuple[int, ...] = APPROX_SIZES, seed: int = 0, repeats: int = 3
) -> list[dict]:
    """Local search on random connected graphs with m = 4n."""
    rows = []
    for i, n in enumerate(sizes):
        g = generators.random_connected(n, 4 * n, seed=seed + i)
        seconds, (_, trace) = _best_of(lambda: approx.half_pds(g), repeats)
        rows.append({"n": n, "m": g.m, "seconds": seconds, "moves": trace.iterations})
    return rows


def cubic_scaling(
    sizes: tuple[int, ...] = CUBIC_SIZES, seed: int = 0, repeats: int = 3
) -> list[dict]:
    """Cycle-plus-chords solver from a chord table: a fresh instance, whose
    checks build the chord tags, and one solve with its re-check."""
    rows = []
    for i, n in enumerate(sizes):
        chord = cubic.random_cubic_cycle(n, seed=seed + i).chord
        seconds, _ = _best_of(
            lambda: cubic.solve_hamiltonian_cubic(cubic.CubicCycleGraph(n, chord)), repeats
        )
        rows.append({"n": n, "seconds": seconds})
    return rows


def exact_scaling(
    sizes: tuple[int, ...] = EXACT_SIZES, seed: int = 0, repeats: int = 3
) -> list[dict]:
    """Every maximum connected PDS on random connected graphs with m = 3n/2."""
    rows = []
    for i, n in enumerate(sizes):
        g = generators.random_connected(n, 3 * n // 2, seed=seed + i)
        seconds, res = _best_of(
            lambda: exact.max_pds_exact(g, connected_only=True, all_optima=True), repeats
        )
        rows.append({"n": n, "m": g.m, "size": res.size,
                     "subsets_checked": res.subsets_checked, "seconds": seconds})
    return rows


def enum_scaling(
    sizes: tuple[int, ...] = ENUM_SIZES, seed: int = 0, repeats: int = 3
) -> list[dict]:
    """Cold enumeration of the connected graphs on n vertices, every
    smaller n included; the enumeration is exhaustive, so seed is unused.
    Each repeat fills an empty cache of its own, not the module's."""
    rows = []
    for n in sizes:
        seconds, reps = _best_of(lambda: generators._connected_masks(n, {}), repeats)
        rows.append({"n": n, "graphs": len(reps), "seconds": seconds})
    return rows


# name -> (suite, exponential).  Enumeration grows exponentially in n, and
# the exact search follows each instance's optimum: neither is a power of n,
# so their seconds get a semilog fit, the others a log-log one
SUITES = {
    "approx-scaling": (approx_scaling, False),
    "cubic-scaling": (cubic_scaling, False),
    "exact-scaling": (exact_scaling, True),
    "enum-scaling": (enum_scaling, True),
}


def run_suite(name: str, **kwargs) -> list[dict]:
    if name not in SUITES:
        raise UnknownName(f"no suite named {name!r}; have {sorted(SUITES)}")
    if kwargs.get("repeats", 1) < 1:
        raise InvalidArgument(f"repeats must be at least 1, got {kwargs['repeats']}")
    return SUITES[name][0](**kwargs)


def fit_loglog(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Least-squares slope and r^2 of log(y) against log(x)."""
    return fit_semilog([math.log(x) for x in xs], ys)


def fit_semilog(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """Least-squares slope and r^2 of log(y) against x; e**slope is the
    growth factor of y per unit of x."""
    if len(set(xs)) < 2:
        raise ValueError("a fit needs at least two distinct sizes")
    ly = [math.log(y) for y in ys]
    k = len(xs)
    mx = sum(xs) / k
    my = sum(ly) / k
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ly))
    syy = sum((y - my) ** 2 for y in ly)
    slope = sxy / sxx
    r2 = sxy * sxy / (sxx * syy) if syy else 1.0
    return slope, r2
