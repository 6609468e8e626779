"""Inputs, passes and output checks of the pdskit benchmark workloads.

run.py starts this file as a child process, one process per step:

    workloads.py setup WORKLOAD SEED DIR   write the seeded inputs into DIR
    workloads.py pass WORKLOAD DIR [--keep] [--trace] [--peak]
    workloads.py check WORKLOAD DIR        check the outputs a --keep pass wrote

Every step prints one JSON object on stdout.  A pass runs each input
once through the package's public entry points, closed loop in one
thread, and times only that loop; answers are checked by the separate
check step, which builds its graphs from the input text itself.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import pdskit  # noqa: E402
import speed  # noqa: E402
from pdskit import approx, cli, cubic, exact, generators, graph, pds, reductions  # noqa: E402

CUBIC_N = 100_000
APPROX_N, APPROX_M, APPROX_GRAPHS = 2048, 8192, 4
EXACT_SHAPES = [(n, m) for n in (20, 22, 24) for m in (n - 1, 3 * n // 2)]
EXACT_PER_SHAPE = 3
EXACT_BASE_SEED = 150
SWEEP_SIZES = (3, 4, 5, 6, 7)

# (size, subsets_checked) of every exact-batch instance.  The graphs are
# fixed and the seed only reorders their edge lists: a random relabelling
# moved the per-subset cost of an instance by up to a third, which would
# make wall_s differ from seed to seed for reasons other than the program.
EXACT_PINNED = [
    (16, 4845), (16, 4845), (16, 4845), (13, 136629), (15, 20349), (15, 20349),
    (19, 1540), (18, 8855), (17, 26334), (16, 109802), (16, 108262), (15, 271491),
    (18, 177100), (19, 53130), (20, 10626), (20, 12650), (18, 177100), (18, 189750),
]
SWEEP_GRAPHS = {3: 2, 4: 6, 5: 21, 6: 112, 7: 853}  # OEIS A001349
SWEEP_HALF_CALLS = 32_347
SWEEP_SPLIT = 137
SWEEP_BIPARTITE = 45


# --- setup -----------------------------------------------------------------


def _shuffled_edge_list(g: graph.Graph, rng: random.Random) -> str:
    """Edge-list text of g with its lines in random order and each edge
    written either way round; every such text parses to the same graph."""
    lines = [f"{u} {v}" if rng.getrandbits(1) else f"{v} {u}" for u, v in g.edges]
    rng.shuffle(lines)
    return "\n".join([f"{g.n} {g.m}", *lines]) + "\n"


def setup(workload: str, seed: int) -> dict[str, str]:
    """Input file name -> text, generated from the seed alone."""
    if workload == "cubic-verified":
        return {"cubic.txt": cubic.emit_cubic(cubic.random_cubic_cycle(CUBIC_N, seed=seed))}
    rng = random.Random(seed)
    if workload == "approx-large":
        return {
            f"approx{i}.txt": graph.emit_graph(
                generators.random_connected(APPROX_N, APPROX_M, seed=rng.getrandbits(64))
            )
            for i in range(APPROX_GRAPHS)
        }
    if workload == "exact-batch":
        files = {}
        for i in range(len(EXACT_SHAPES) * EXACT_PER_SHAPE):
            n, m = EXACT_SHAPES[i // EXACT_PER_SHAPE]
            g = generators.random_connected(n, m, seed=EXACT_BASE_SEED + i)
            files[f"exact{i:02d}.txt"] = _shuffled_edge_list(g, rng)
        return files
    if workload == "small-sweep":
        return {"sweep.json": json.dumps({"sizes": SWEEP_SIZES, "order_seed": seed}) + "\n"}
    raise SystemExit(f"unknown workload {workload!r}")


# --- passes ----------------------------------------------------------------


def _argv(workload: str, path: str) -> list[str]:
    if workload == "cubic-verified":
        return ["cubic", path, "--json"]
    if workload == "approx-large":
        return ["approx", path, "--json", "--trace"]
    return ["exact", path, "--connected", "--all-optima", "--json"]


def cli_pass(workload: str, files: list[Path], tracer) -> tuple[float, list]:
    calls = [_argv(workload, str(p)) for p in files]
    outputs = []
    start = perf_counter()
    for op, argv in enumerate(calls):
        if tracer is not None:
            tracer.op = op
        buf = io.StringIO()
        try:
            with redirect_stdout(buf):
                code = cli.main(argv)
        except Exception as exc:  # an uncaught error is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        outputs.append([code, buf.getvalue()])
    return perf_counter() - start, outputs


def sweep_pass(spec: dict, tracer) -> tuple[float, dict]:
    """Criteria 5-8 of the acceptance suite through the module APIs."""
    order = random.Random(spec["order_seed"])
    records = []
    start = perf_counter()
    for n in spec["sizes"]:
        graphs = list(generators.all_connected_graphs(n))
        order.shuffle(graphs)
        half = (n + 1) // 2
        starts = [graph.VertexSet.from_ids(n, ids) for ids in combinations(range(n), half)]
        for g in graphs:
            if tracer is not None:
                tracer.op = len(records)
            rec = {"n": n, "edges": g.edges, "opt": exact.max_pds_exact(g).size}
            found = []
            for init in starts:
                s, _ = approx.half_pds(g, init=init)
                found.append((len(s), pds.check_pds(g, s).holds))
            rec["half"] = found
            if n <= 6 and not graph.is_star(g):
                inst = reductions.split_reduction(g)
                alpha, _ = exact.max_independent_set_exact(g)
                target_opt = exact.max_pds_exact(inst.target).size
                rec["split"] = (inst.core_size, alpha, target_opt)
                if n <= 5:
                    rec["bipartite"] = bip = []
                    for k in range(1, n - 1):
                        inst = reductions.bipartite_reduction(g, k)
                        if inst.target.n <= 24:
                            bip.append((k, approx.decide_pds_at_least_k(inst.target, inst.threshold)))
            records.append(rec)
    return perf_counter() - start, {"records": records}


def _sweep_ops(records: list) -> int:
    ops = len(SWEEP_SIZES)  # one enumeration per size
    for rec in records:
        ops += 1 + 2 * len(rec["half"])
        if "split" in rec:
            ops += 3
        ops += 2 * len(rec.get("bipartite", ()))
    return ops


def _normalise(workload: str, outputs) -> str:
    """Canonical text of a pass's outputs, without its timing fields."""
    if workload == "small-sweep":
        return json.dumps(outputs, sort_keys=True)
    rows = []
    for code, text in outputs:
        try:
            obj = json.loads(text)
            obj.pop("seconds", None)
        except json.JSONDecodeError:
            obj = text
        rows.append([code, obj])
    return json.dumps(rows, sort_keys=True)


def run_pass(workload: str, d: Path, keep: bool, trace: bool, peak: bool) -> dict:
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    spec = files = None
    if workload == "small-sweep":
        spec = json.loads((d / "inputs" / "sweep.json").read_text())
    else:
        files = sorted((d / "inputs").glob("*.txt"))
    before = speed.reference_seconds()
    if spec is not None:
        wall, outputs = sweep_pass(spec, tracer)
    else:
        wall, outputs = cli_pass(workload, files, tracer)
    after = speed.reference_seconds()
    ops = _sweep_ops(outputs["records"]) if spec is not None else len(outputs)
    result = {"wall_s": wall, "reference_s": [before, after], "ops": ops}
    if tracer is not None:
        result["layers"] = tracer.layer_seconds()
        result["counts"] = dict(tracer.counts)
        if peak:
            result["build_peak_mb"] = tracer.build_peak_mb()
        spans = [list(s) for s in tracer.spans]
        (d / "spans.json").write_text(json.dumps(spans))
    text = _normalise(workload, outputs)
    result["digest"] = hashlib.sha256(text.encode()).hexdigest()
    if keep:
        (d / "outputs.json").write_text(json.dumps(outputs))
    return result


# --- checks ----------------------------------------------------------------


def _read_graph(text: str) -> graph.Graph:
    rows = [list(map(int, line.split())) for line in text.splitlines() if line.strip()]
    return graph.Graph(rows[0][0], [tuple(r) for r in rows[1:]])


def _read_cubic(text: str) -> graph.Graph:
    rows = [list(map(int, line.split())) for line in text.splitlines() if line.strip()]
    n = rows[0][0]
    return graph.Graph(n, [(v, (v + 1) % n) for v in range(n)] + [tuple(r) for r in rows[1:]])


def _check_set(g: graph.Graph, ids: list[int]) -> list[str]:
    s = graph.VertexSet.from_ids(g.n, ids)
    if len(s) != len(ids):
        return ["set repeats a vertex"]
    problems = []
    if not pds.check_pds(g, s).holds:
        problems.append("set fails check_pds")
    if not graph.induced_connected(g, s):
        problems.append("set is not connected")
    return problems


def _check_cubic(g, out) -> list[str]:
    target = (2 * g.n + 1) // 3
    members = len(out.get("set") or ())
    if out.get("size") != target or members != target:
        return [f"size {out.get('size')} with {members} members, want {target}"]
    return _check_set(g, out["set"])


def _check_approx(g, out) -> list[str]:
    half = (g.n + 1) // 2
    ids = out["set"]
    if out["size"] != len(ids) or len(ids) not in (half, half + 1):
        return [f"size {out['size']} is not ceil(n/2) or ceil(n/2)+1"]
    s = graph.VertexSet.from_ids(g.n, ids)
    if len(s) != len(ids):
        return ["set repeats a vertex"]
    problems = []
    if not pds.check_pds(g, s).holds:
        problems.append("set fails check_pds")
    trace = out["trace"]
    if len(trace) != out["moves"]:
        problems.append(f"trace has {len(trace)} moves, report says {out['moves']}")
    if any(a["cut_after"] != b["cut_before"] for a, b in zip(trace, trace[1:])):
        problems.append("trace cuts do not chain")
    if out["connected"] != graph.induced_connected(g, s):
        problems.append("connected flag is wrong")
    return problems


def _check_exact(g, out, pinned) -> list[str]:
    size = out["size"]
    problems = _check_set(g, out["witness"])
    optima = out["optima"] or []
    if not optima or optima[0] != out["witness"]:
        problems.append("witness is not the first optimum")
    for ids in optima:
        if len(ids) != size or _check_set(g, ids):
            problems.append(f"optimum {ids} fails")
            break
    top = min(pds.pds_size_upper_bound(g), g.n - 1)
    if size > top:
        problems.append(f"size {size} above the degree bound {top}")
    # with --all-optima every subset from the bound down to the optimum is tried
    want = sum(comb(g.n, k) for k in range(size, top + 1))
    if out["subsets_checked"] != want:
        problems.append(f"subsets_checked {out['subsets_checked']}, want {want}")
    if (size, out["subsets_checked"]) != pinned:
        problems.append(f"(size, subsets_checked) differ from the pinned {pinned}")
    return problems


def _check_output(workload: str, raw: str, code, text: str, i: int) -> list[str]:
    if code != 0:
        return [f"exit {code}"]
    out = json.loads(text)
    if out.get("verified") is not True:
        return ["output is not marked verified"]
    if workload == "cubic-verified":
        return _check_cubic(_read_cubic(raw), out)
    if workload == "approx-large":
        return _check_approx(_read_graph(raw), out)
    return _check_exact(_read_graph(raw), out, EXACT_PINNED[i])


def _check_cli(workload: str, d: Path, outputs: list) -> tuple[int, list[str]]:
    files = sorted((d / "inputs").glob("*.txt"))
    failed, problems = 0, []
    if len(outputs) != len(files):
        return max(len(files), 1), ["wrong number of outputs"]
    for i, (path, (code, text)) in enumerate(zip(files, outputs)):
        try:
            found = _check_output(workload, path.read_text(), code, text, i)
        except (KeyError, TypeError, ValueError, pdskit.PdsKitError) as exc:
            found = [f"malformed output: {exc!r}"]
        if found:
            failed += 1
            problems += [f"{path.name}: {p}" for p in found]
    return failed, problems


def _check_sweep(outputs: dict) -> tuple[int, list[str]]:
    failed, problems = 0, []
    per_n: dict[int, int] = {}
    half_calls = split = bip = 0
    for rec in outputs["records"]:
        n = rec["n"]
        per_n[n] = per_n.get(n, 0) + 1
        g = graph.Graph(n, [tuple(e) for e in rec["edges"]])
        opt = rec["opt"]
        if opt > pds.pds_size_upper_bound(g):
            failed += 1
            problems.append(f"n={n}: optimum {opt} above the degree bound")
        bound = approx.approx_ratio_bound(g)
        half = (n + 1) // 2
        for size, holds in rec["half"]:
            half_calls += 1
            # a float opt/size can exceed 5/3 by rounding; compare exactly
            if not holds or size not in (half, half + 1) or Fraction(opt, size) > bound:
                failed += 1
                problems.append(f"n={n}: local search gave size {size}, holds {holds}")
        if "split" in rec:
            split += 1
            core, alpha, target_opt = rec["split"]
            if target_opt != core + alpha:
                failed += 1
                problems.append(f"n={n}: split optimum {target_opt} != {core} + {alpha}")
            for k, answer in rec.get("bipartite", ()):
                bip += 1
                if answer != (alpha >= k):
                    failed += 1
                    problems.append(f"n={n}, k={k}: bipartite answer {answer}, alpha {alpha}")
    counts = {
        "graphs per n": (per_n, SWEEP_GRAPHS),
        "local searches": (half_calls, SWEEP_HALF_CALLS),
        "split instances": (split, SWEEP_SPLIT),
        "bipartite instances": (bip, SWEEP_BIPARTITE),
    }
    for what, (got, want) in counts.items():
        if got != want:
            failed += 1
            problems.append(f"{what}: {got}, want {want}")
    return failed, problems


def check(workload: str, d: Path) -> dict:
    outputs = json.loads((d / "outputs.json").read_text())
    if workload == "small-sweep":
        failed, problems = _check_sweep(outputs)
    else:
        failed, problems = _check_cli(workload, d, outputs)
    return {"failed": failed, "problems": problems[:20]}


def main(argv: list[str]) -> int:
    if Path(pdskit.__file__).resolve().parent != SRC / "pdskit":
        print(f"pdskit was imported from {pdskit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    step, workload, rest = argv[0], argv[1], argv[2:]
    if step == "setup":
        seed, d = int(rest[0]), Path(rest[1])
        files = setup(workload, seed)
        (d / "inputs").mkdir(parents=True, exist_ok=True)
        digest = hashlib.sha256()
        for name, text in sorted(files.items()):
            (d / "inputs" / name).write_text(text)
            digest.update(name.encode() + b"\0" + text.encode())
        result = {"digest": digest.hexdigest()}
    elif step == "pass":
        flags = set(rest[1:])
        result = run_pass(workload, Path(rest[0]), "--keep" in flags, "--trace" in flags, "--peak" in flags)
    elif step == "check":
        result = check(workload, Path(rest[0]))
    else:
        print(f"unknown step {step!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
