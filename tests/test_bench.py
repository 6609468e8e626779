import inspect
import json
import math
from pathlib import Path

import pytest

from pdskit import InstanceTooLarge, InvalidArgument, UnknownName, bench, generators
from pdskit.bench import (
    approx_scaling,
    cubic_scaling,
    enum_scaling,
    exact_scaling,
    fit_loglog,
    fit_semilog,
    run_suite,
)
from pdskit.exact import DEFAULT_CAP, HARD_CAP
from pdskit.generators import _connected_cache


class TestSuites:
    def test_approx_rows(self):
        rows = approx_scaling(sizes=(32, 64), seed=1, repeats=1)
        assert [r["n"] for r in rows] == [32, 64]
        for r in rows:
            assert set(r) == {"n", "m", "seconds", "moves"}
            assert r["m"] == 4 * r["n"]
            assert r["seconds"] > 0 and r["moves"] >= 0

    def test_cubic_rows(self):
        rows = cubic_scaling(sizes=(100, 200), seed=1, repeats=1)
        assert [r["n"] for r in rows] == [100, 200]
        for r in rows:
            assert set(r) == {"n", "seconds"}
            assert r["seconds"] > 0

    def test_exact_rows(self):
        rows = exact_scaling(sizes=(8, 10), seed=1, repeats=1)
        assert [r["n"] for r in rows] == [8, 10]
        for r in rows:
            assert set(r) == {"n", "m", "size", "subsets_checked", "seconds"}
            assert r["m"] == 3 * r["n"] // 2
            assert 2 <= r["size"] < r["n"] and r["subsets_checked"] >= 1
            assert r["seconds"] > 0
        (again,) = run_suite("exact-scaling", sizes=(8,), seed=1, repeats=1)["rows"]
        assert {**again, "seconds": 0} == {**rows[0], "seconds": 0}

    def test_exact_sizes_run_to_the_hard_cap(self):
        # the hard cap, not the default, bounds the sizes
        (row,) = exact_scaling(sizes=(DEFAULT_CAP + 1,), repeats=1)
        assert row["n"] == DEFAULT_CAP + 1
        with pytest.raises(
            InstanceTooLarge, match=f"^n={HARD_CAP + 1} exceeds the enumeration cap {HARD_CAP}$"
        ):
            exact_scaling(sizes=(HARD_CAP + 1,), repeats=1)

    def test_enum_rows(self, monkeypatch):
        before = dict(_connected_cache)
        rows = enum_scaling(sizes=(3, 5), repeats=1)
        assert rows == [
            {"n": 3, "graphs": 2, "seconds": rows[0]["seconds"]},
            {"n": 5, "graphs": 21, "seconds": rows[1]["seconds"]},
        ]
        assert all(r["seconds"] > 0 for r in rows)
        # every repeat starts from an empty cache of the suite's own
        entries = []
        real = generators._connected_masks

        def spy(n, cache=_connected_cache):
            entries.append((n, len(cache)))
            return real(n, cache)

        monkeypatch.setattr(generators, "_connected_masks", spy)
        (again,) = run_suite("enum-scaling", sizes=(4,), repeats=2)["rows"]
        assert again["graphs"] == 6
        assert [size for n, size in entries if n == 4] == [0, 0]
        # and the module cache is left as it was
        assert _connected_cache == before

    def test_run_suite_dispatch(self):
        report = run_suite("cubic-scaling", sizes=(100,), seed=0, repeats=1)
        assert sorted(report) == ["cpu_count", "fit", "python", "rows", "suite"]
        assert report["suite"] == "cubic-scaling" and len(report["rows"]) == 1
        assert report["fit"] is None  # one row has no fit

    def test_unknown_suite(self):
        with pytest.raises(UnknownName, match="no suite named ''"):
            run_suite("")
        with pytest.raises(UnknownName, match="no suite named 'nope'"):
            run_suite("nope")

    @pytest.mark.parametrize("name", sorted(bench.SUITES))
    @pytest.mark.parametrize("repeats", [0, -2])
    def test_repeats_below_one_refused_before_any_work(self, monkeypatch, name, repeats):
        def refuse(**kwargs):
            raise AssertionError("the suite ran")

        monkeypatch.setitem(bench.SUITES, name, (refuse, bench.SUITES[name][1]))
        with pytest.raises(InvalidArgument, match=f"^repeats must be at least 1, got {repeats}$"):
            run_suite(name, sizes=(32,), repeats=repeats)


class TestApproxScaling:
    def test_local_search_is_subquadratic(self):
        # a scan of all n vertices per move fits a slope near 2 here
        rows = approx_scaling(sizes=(2048, 8192, 32768), repeats=3)
        slope, _ = fit_loglog([r["n"] for r in rows], [r["seconds"] for r in rows])
        assert slope < 1.6, rows


class TestFit:
    def test_exact_power_law(self):
        xs = [10, 100, 1000, 10000]
        ys = [3e-6 * x**1.25 for x in xs]
        slope, r2 = fit_loglog(xs, ys)
        assert math.isclose(slope, 1.25, rel_tol=1e-9)
        assert math.isclose(r2, 1.0, abs_tol=1e-12)

    def test_linear(self):
        xs = [2**i for i in range(4, 10)]
        slope, r2 = fit_loglog(xs, [5e-7 * x for x in xs])
        assert math.isclose(slope, 1.0, rel_tol=1e-9) and r2 > 0.999

    def test_exact_exponential(self):
        xs = [3, 4, 5, 6, 7, 8]
        slope, r2 = fit_semilog(xs, [2e-4 * 7.5**x for x in xs])
        assert math.isclose(math.exp(slope), 7.5, rel_tol=1e-9)
        assert math.isclose(r2, 1.0, abs_tol=1e-12)


class TestCommittedBaselines:
    """The BENCH_<suite>.json files at the repository root, written by
    `pdskit bench --suite <suite> --output BENCH_<suite>.json` at the
    defaults; only their layout is checked, never their numbers."""

    ROOT = Path(__file__).resolve().parent.parent

    @pytest.mark.parametrize(
        "suite", ["approx-scaling", "cubic-scaling", "exact-scaling", "enum-scaling"]
    )
    def test_file_loads_with_its_keys(self, suite):
        report = json.loads((self.ROOT / f"BENCH_{suite}.json").read_text())
        assert sorted(report) == ["cpu_count", "fit", "python", "rows", "suite"]
        assert report["suite"] == suite
        assert isinstance(report["python"], str) and isinstance(report["cpu_count"], int)
        kind = "semilog" if bench.SUITES[suite][1] else "loglog"
        assert sorted(report["fit"]) == ["kind", "r2", "slope"] and report["fit"]["kind"] == kind
        sizes = inspect.signature(bench.SUITES[suite][0]).parameters["sizes"].default
        assert [row["n"] for row in report["rows"]] == list(sizes)
        # each row has the columns a fresh run of the suite gives
        cols = list(run_suite(suite, sizes=sizes[:1], repeats=1)["rows"][0])
        assert all(list(row) == cols for row in report["rows"])
