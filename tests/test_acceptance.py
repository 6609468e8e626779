"""End-to-end acceptance suite.

One test per numbered criterion; each emits a single PASS/FAIL line that
the terminal summary repeats after the run.  Thresholds (sizes, time
budgets, the slope tolerance) are pinned in the assertions themselves.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from pdskit import (
    CubicCycleGraph,
    all_connected_graphs,
    all_cubic_cycles,
    approx_ratio_bound,
    check_pds,
    decide_pds_at_least_k,
    fixture,
    fixture_names,
    half_pds,
    induced_connected,
    max_independent_set_exact,
    max_pds_exact,
    max_pds_size_cubic,
    pds_size_upper_bound,
    random_connected,
    random_cubic_cycle,
    solve_hamiltonian_cubic,
    split_reduction,
    bipartite_reduction,
    is_star,
    VertexSet,
)
from pdskit.bench import fit_loglog, run_suite
from pdskit.exact import adjacency_masks
from pdskit.generators import _canonical_key

from .conftest import record_acceptance
from .cubic_reference import to_graph
from .descend_reference import ksubset_masks, mask_is_pds


def report(num: int, title: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:>2}: {title} — {detail}"
    record_acceptance(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sweep():
    """Every connected graph with 3 <= n <= 8 (one per isomorphism class,
    12111 graphs) together with its exact optimum.  The lone 2-vertex
    graph carries no PDS at all and is vacuous for both criteria."""
    graphs = []
    for n in range(3, 9):
        graphs.extend(all_connected_graphs(n))
    opts = [max_pds_exact(g).size for g in graphs]
    return graphs, opts


def test_criterion_01_cubic_fixture():
    g = fixture("cubic10").graph
    t0 = time.perf_counter()
    size = max_pds_exact(g).size
    conn = max_pds_exact(g, connected_only=True).size
    elapsed = time.perf_counter() - t0
    ok = size == 7 and conn == 5 and elapsed < 1.0
    report(
        1,
        "10-vertex cubic fixture exact optima",
        ok,
        f"max={size} (want 7), connected={conn} (want 5), {elapsed:.3f}s < 1s",
    )


def test_criterion_02_caterpillar_fixture():
    g = fixture("caterpillar15").graph
    t0 = time.perf_counter()
    size = max_pds_exact(g).size
    conn = max_pds_exact(g, connected_only=True).size
    elapsed = time.perf_counter() - t0
    ok = size == 12 and conn == 8 and elapsed < 5.0
    report(
        2,
        "15-vertex caterpillar exact optima",
        ok,
        f"max={size} (want 12), connected={conn} (want 8), {elapsed:.3f}s < 5s",
    )


def test_criterion_03_exceptional_pair():
    t0 = time.perf_counter()
    results = {}
    for name in ("exc8_paired", "exc8_alternating"):
        rec = fixture(name)
        has5 = decide_pds_at_least_k(rec.graph, 5)
        outcome = solve_hamiltonian_cubic(CubicCycleGraph(8, rec.chords))
        results[name] = (has5, outcome.exceptional)
    elapsed = time.perf_counter() - t0
    ok = (
        results["exc8_paired"] == (False, "paired")
        and results["exc8_alternating"] == (False, "alternating")
        and elapsed < 1.0
    )
    report(
        3,
        "8-vertex exceptions have no size-5 PDS and are flagged",
        ok,
        f"{results}, {elapsed:.3f}s < 1s",
    )


def test_criterion_04_local_search_guarantee():
    violations = 0
    cases = 0
    for i in range(500):
        rng = random.Random(i)
        n = rng.randint(3, 200)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 4 * n))
        g = random_connected(n, m, seed=i)
        s, _ = half_pds(g, seed=i)
        cases += 1
        if not (check_pds(g, s).holds and len(s) in ((n + 1) // 2, (n + 1) // 2 + 1)):
            violations += 1
    for name in fixture_names():
        g = fixture(name).graph
        s, _ = half_pds(g)
        cases += 1
        if not (
            check_pds(g, s).holds
            and len(s) in ((g.n + 1) // 2, (g.n + 1) // 2 + 1)
        ):
            violations += 1
    report(
        4,
        "local search: verified PDS of size ceil(n/2) or +1",
        violations == 0,
        f"{cases} runs (500 random n<=200 + {len(fixture_names())} fixtures), {violations} violations",
    )


def test_criterion_05_degree_upper_bound(sweep):
    graphs, opts = sweep
    violations = sum(
        1 for g, opt in zip(graphs, opts) if opt > pds_size_upper_bound(g)
    )
    report(
        5,
        "optimum <= floor((n(max_deg-1)+1)/max_deg) on all n<=8",
        violations == 0,
        f"{len(graphs)} graphs, {violations} violations",
    )


def test_criterion_06_approximation_ratio(sweep):
    graphs, opts = sweep
    runs = 0
    violations = 0
    worst = Fraction(0)
    for g, opt in zip(graphs, opts):
        bound = approx_ratio_bound(g)
        half = (g.n + 1) // 2
        for ids in combinations(range(g.n), half):
            s, _ = half_pds(g, init=VertexSet.from_ids(g.n, ids))
            runs += 1
            ratio = Fraction(opt, len(s))
            worst = max(worst, ratio)
            if ratio > bound:
                violations += 1
    report(
        6,
        "ratio opt/found <= 2 - 2/(max_deg+1) for every init",
        violations == 0,
        f"{runs} runs over {len(graphs)} graphs, worst ratio {worst}, {violations} violations",
    )


def test_criterion_07_split_correspondence():
    t0 = time.perf_counter()
    checked = 0
    mismatches = 0
    for n in range(2, 7):
        for g in all_connected_graphs(n):
            if is_star(g):
                continue
            inst = split_reduction(g)
            alpha, _ = max_independent_set_exact(g)
            result = max_pds_exact(inst.target).size
            checked += 1
            if result != inst.core_size + alpha:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and checked == 137 and elapsed < 600
    report(
        7,
        "split reduction: optimum = |edges| + 2 + alpha, all non-star n<=6",
        ok,
        f"{checked} graphs, {mismatches} mismatches, {elapsed:.1f}s < 600s",
    )


def _has_pds_of_at_least(g, lo: int) -> bool:
    ub = min(pds_size_upper_bound(g), g.n - 1)
    adjm, deg = adjacency_masks(g), g.deg
    for size in range(ub, lo - 1, -1):
        co, sm1 = g.n - size, size - 1
        for smask in ksubset_masks(g.n, size):
            if mask_is_pds(adjm, deg, smask, co, sm1):
                return True
    return False


def test_criterion_08_bipartite_correspondence():
    checked = 0
    equivalence_breaks = 0
    identity_breaks = 0
    for n in range(2, 6):
        for g in all_connected_graphs(n):
            if is_star(g):
                continue
            alpha, _ = max_independent_set_exact(g)
            for k in range(1, n - 1):
                inst = bipartite_reduction(g, k)
                if inst.target.n > 24:
                    continue
                checked += 1
                ell = inst.filler_count
                if (ell + k - 1) * (n - k) != (n - k - 1) * (ell + g.m + k - 1):
                    identity_breaks += 1
                if _has_pds_of_at_least(inst.target, inst.threshold) != (alpha >= k):
                    equivalence_breaks += 1
    ok = checked > 0 and equivalence_breaks == 0 and identity_breaks == 0
    report(
        8,
        "bipartite reduction: PDS >= threshold iff alpha >= k, size identity exact",
        ok,
        f"{checked} (graph, k) instances, {equivalence_breaks} equivalence breaks, "
        f"{identity_breaks} identity breaks",
    )


def test_criterion_09_cubic_optimality():
    exceptional_keys = {
        _canonical_key(8, adjacency_masks(fixture(name).graph))
        for name in ("exc8_paired", "exc8_alternating")
    }
    failures = []
    counts = {}
    for n in (6, 8, 10, 12):
        total = exceptional = 0
        target = max_pds_size_cubic(n)
        for inst in all_cubic_cycles(n):
            total += 1
            out = solve_hamiltonian_cubic(inst)  # the solve re-checks the set
            g = to_graph(inst)
            if out.exceptional is not None:
                exceptional += 1
                if n != 8 or _canonical_key(8, adjacency_masks(g)) not in exceptional_keys:
                    failures.append(f"stray exception at n={n}")
                elif max_pds_exact(g, connected_only=True).size >= target:
                    failures.append(f"false exception at n={n}")
            elif max_pds_exact(g, connected_only=True).size != target:
                failures.append(f"suboptimal answer at n={n}")
        counts[n] = (total, exceptional)
    for n in (14, 16):
        for seed in range(200):
            inst = random_cubic_cycle(n, seed=seed)
            out = solve_hamiltonian_cubic(inst)
            if out.exceptional is not None:
                failures.append(f"stray exception at n={n} seed={seed}")
                continue
            g = to_graph(inst)
            if max_pds_exact(g, connected_only=True).size != len(out.pds):
                failures.append(f"suboptimal answer at n={n} seed={seed}")
        counts[n] = (200, 0)
    ok = not failures and counts[8][1] == 6
    detail = (
        "exhaustive "
        + ", ".join(f"n={n}: {c[0]} inst/{c[1]} exc" for n, c in counts.items())
        + (f"; failures: {failures[:3]}" if failures else "; all optimal, exceptions only the two n=8 graphs")
    )
    report(9, "cycle-plus-chords solver matches the exact connected optimum", ok, detail)


def test_criterion_10_linear_scaling():
    rows = run_suite(
        "cubic-scaling", sizes=(10**3, 10**4, 10**5, 10**6), seed=0, repeats=3
    )
    slope, r2 = fit_loglog([r["n"] for r in rows], [r["seconds"] for r in rows])
    ok = 0.85 <= slope <= 1.15 and r2 >= 0.98
    report(
        10,
        "cubic solver wall-clock fits log-log slope 1.0 +/- 0.15",
        ok,
        f"slope {slope:.3f} in [0.85, 1.15], r^2 {r2:.3f} >= 0.98 on n=1e3..1e6",
    )


def test_criterion_11_declared_hardness_facts():
    """The inapproximability constant and the hardness statements are not
    decidable by running code at desk scale; the package declares them in
    its documentation and substitutes the exhaustive small-instance
    equivalences of criteria 5-9."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text()
    ok = "1.0026028" in text and "NP-hard" in text
    report(
        11,
        "hardness facts declared as documentation, not reproduced",
        ok,
        "README records the inapproximability constant and hardness statements",
    )
