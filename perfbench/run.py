"""pdskit benchmark: one workload, one seed, one line of JSON metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Set-up (interpreter start, `import pdskit`, seeded input generation and
writing the input files) runs SETUPS times in fresh processes; setup_s is
the median.  Then timed passes over the inputs repeat, each in a fresh
interpreter so that no in-process cache (such as the enumeration cache
of pdskit.generators) carries over, until --seconds have gone by.  The
first pass's outputs are checked in one more process; every later pass
must reproduce them byte for byte (timing fields aside).

Every set-up and pass is bracketed by two runs of the reference routine
in speed.py, and its time is reported at the routine's nominal speed.

With --trace 0 the end-to-end metrics are printed; with --trace 1 passes
alternate between untraced and traced, and the per-layer metrics are
printed, with the tracing overhead as traced minus untraced wall_s.
Human-readable lines come first; the last line of stdout is the JSON
result.  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "workloads.py"
WORKLOADS = ("cubic-verified", "approx-large", "exact-batch", "small-sweep")
SETUPS = 5
MIN_PASSES = 3
RUN_LIMIT_S = 170  # a whole run, checks included; passes stop early to keep it


class ChildFailed(Exception):
    pass


class Run:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.limit = time.perf_counter() + RUN_LIMIT_S
        self.work = ROOT / ".perfbench" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.problems: list[str] = []

    def child(self, step: str, *flags: str) -> tuple[float, dict, float]:
        """Run one workloads.py step, killed if the run's time limit passes.

        Returns (seconds, its JSON, peak RSS in MB); the peak RSS is the
        child's ru_maxrss, read by the parent from wait4."""
        args = [sys.executable, str(CHILD), step, self.workload]
        args += [str(self.seed)] if step == "setup" else []
        args += [str(self.work), *flags]
        with open(self.work / "child.err", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=err)
            watchdog = threading.Timer(max(self.limit - start, 0.0), proc.kill)
            watchdog.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
                proc.stdout.close()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise ChildFailed(f"{step} exited {proc.returncode}; see {self.work / 'child.err'}")
        return elapsed, json.loads(out), usage.ru_maxrss / 1024

    def set_up(self) -> list[float]:
        """Seconds of each set-up, at nominal speed."""
        times, digests = [], set()
        for _ in range(SETUPS):
            before = speed.reference_seconds()
            elapsed, out, _ = self.child("setup")
            times.append(speed.rescale(elapsed, before, speed.reference_seconds()))
            digests.add(out["digest"])
        if len(digests) != 1:
            self.problems.append("set-up gave different inputs for one seed")
        return times

    def passes(self, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
        """Untraced and traced passes; traced ones alternate with untraced."""
        plain: list[dict] = []
        traced: list[dict] = []
        deadline = time.perf_counter() + seconds
        while True:
            tracing = trace and len(traced) < len(plain)
            flags = ["--trace"] if tracing else ([] if plain else ["--keep"])
            if tracing and not traced:
                flags.append("--peak")
            took, out, rss_mb = self.child("pass", *flags)
            out["rss_mb"] = rss_mb
            out["scaled_wall_s"] = speed.rescale(out["wall_s"], *out["reference_s"])
            (traced if tracing else plain).append(out)
            done = len(traced) >= 2 if trace else len(plain) >= MIN_PASSES
            now = time.perf_counter()
            if now >= deadline and done:
                break
            # leave room for one more pass and the check, which costs about as much
            if now + 3 * took > self.limit and plain and (traced or not trace):
                break
        return plain, traced

    def check(self, passes: list[dict]) -> tuple[int, int]:
        """(attempted, failed) operations over all passes."""
        _, verdict, _ = self.child("check")
        self.problems += verdict["problems"]
        kept = passes[0]["digest"]
        attempted = failed = 0
        for out in passes:
            attempted += out["ops"]
            if out["digest"] == kept:
                failed += verdict["failed"]
            else:
                failed += out["ops"]
                self.problems.append("a pass gave outputs that differ from the checked pass")
        return attempted, failed


def layer_metrics(run: Run, traced: list[dict], wall: float) -> dict:
    from tracing import COUNTS, EXACT_COUNTS, TIMES

    counts = [t["counts"] for t in traced]
    for name in EXACT_COUNTS:
        if len({c.get(name, 0) for c in counts}) != 1:
            run.problems.append(f"count {name} differs between traced passes")
    for t in traced:
        t["scaled"] = {k: speed.rescale(v, *t["reference_s"]) for k, v in t["layers"].items()}
    metrics = {name: (statistics.median(t["scaled"][name] for t in traced), "s") for name in TIMES}
    for name in COUNTS:
        metrics[name] = (counts[0].get(name, 0), "count")
    metrics["graph.build_peak_mb"] = (traced[0]["build_peak_mb"], "MB")

    def rate(count: str, layer: str) -> float:
        return statistics.median(
            t["counts"].get(count, 0) / t["scaled"][layer] if t["scaled"][layer] else 0.0
            for t in traced
        )

    metrics["approx.moves_per_s"] = (rate("approx.moves", "approx.search_s"), "1/s")
    metrics["exact.subsets_per_s"] = (rate("exact.subsets_checked", "exact.solve_s"), "1/s")
    calls = counts[0].get("approx.calls", 0)
    search = metrics["approx.search_s"][0]
    metrics["approx.call_us"] = (search / calls * 1e6 if calls else 0.0, "us")
    traced_wall = statistics.median(t["scaled_wall_s"] for t in traced)
    metrics["trace.overhead_s"] = (traced_wall - wall, "s")
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int, list[str]]:
    """Returns (metrics, attempted, failed, problems)."""
    run = Run(workload, seed)
    setups = run.set_up()
    plain, traced = run.passes(seconds, trace)
    attempted, failed = run.check(plain + traced)
    (run.work / "passes.json").write_text(json.dumps({"setup_s": setups, "plain": plain, "traced": traced}))
    walls = sorted(p["scaled_wall_s"] for p in plain)
    raw = sorted(p["wall_s"] for p in plain)
    print(f"wall_s over {len(walls)} passes: " + " ".join(f"{w:.4f}" for w in walls))
    print(f"unscaled wall_s over {len(raw)} passes: " + " ".join(f"{w:.4f}" for w in raw))
    wall = statistics.median(walls)
    if trace:
        return layer_metrics(run, traced, wall), attempted, failed, run.problems
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in plain), "MB"),
        "ok_ratio": (1 - failed / attempted, "1"),
    }
    return metrics, attempted, failed, run.problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "pdskit" / "__init__.py").is_file():
        print(f"error: no pdskit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        metrics, attempted, failed, problems = measure(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except (ChildFailed, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {attempted} operations, {failed} failed")
    if not args.trace:
        print(f"failed_ratio {failed / attempted} 1")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    correct = not problems and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
