"""Command line interface.

Exit codes: 0 success; 1 negative answer (set is not a PDS, no extension,
exceptional cubic instance, invalid certificate); 2 usage or input error;
3 internal verification failure (a solver emitted a set that did not
survive the independent re-check).

Graph arguments accept a file path (edge-list text or JSON), "-" for
stdin, or a fixture name such as cubic10 or path7.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
import time
from pathlib import Path

from . import bench as bench_mod
from . import cubic as cubic_mod
from .approx import half_pds
from .errors import (
    InvalidInstance,
    NoPds,
    ParseError,
    PdsKitError,
    UnknownName,
    VerificationFailed,
)
from .exact import max_independent_set_exact, max_pds_exact, pds_extension
from .generators import fixture, fixture_names, random_connected
from .graph import (
    Graph,
    VertexSet,
    _json_object,
    emit_graph,
    graph_from_json,
    graph_to_json,
    induced_connected,
    parse_graph,
    set_from_json,
)
from .pds import check_pds, recheck
from .reductions import (
    ReductionCertificate,
    bipartite_reduction,
    certificate_from_json,
    certificate_to_json,
    split_reduction,
    verify_certificate,
)


# the most searches approx --restarts runs; each costs up to O(n*m)
MAX_RESTARTS = 1000


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _read_source(arg: str) -> str:
    """The text of file arg, or of stdin for "-"; FileNotFoundError when
    there is no such file, ParseError when the bytes are not UTF-8."""
    try:
        if arg == "-":
            text = sys.stdin.read()
            # under the POSIX locale stdin decodes bytes that are not UTF-8
            # to lone surrogates instead of failing; re-encoding finds them
            text.encode()
            return text
        p = Path(arg)
        if p.exists():
            return p.read_text(encoding="utf-8")
    except UnicodeError as exc:
        name = "stdin" if arg == "-" else arg
        raise ParseError(f"{name}: not UTF-8 text (first bad byte at offset {exc.start})") from None
    raise FileNotFoundError(arg)


def _load(arg: str, parse, from_fixture) -> tuple[object, str]:
    """(object, input digest) of file arg, or of stdin for "-", read by
    parse; a name that is no file goes to from_fixture, which returns
    (object, text to digest).  The text is gone once this returns."""
    try:
        raw = _read_source(arg)
    except FileNotFoundError:
        try:
            obj, raw = from_fixture(arg)
        except UnknownName:
            raise ParseError(f"{arg}: not a file, and no such fixture") from None
        return obj, _digest(raw)
    digest = _digest(raw)
    return parse(raw), digest


def _graph_fixture(arg: str) -> tuple[Graph, str]:
    g = fixture(arg).graph
    return g, emit_graph(g)


def _parse_any_graph(raw: str) -> Graph:
    return graph_from_json(raw) if raw.lstrip().startswith("{") else parse_graph(raw)


def _load_graph(arg: str) -> tuple[Graph, str]:
    """(graph, input digest) of an edge-list or JSON file, or a fixture."""
    return _load(arg, _parse_any_graph, _graph_fixture)


def _cubic_fixture(arg: str) -> tuple[cubic_mod.CubicCycleGraph, str]:
    rec = fixture(arg)
    if rec.chords is None:
        raise InvalidInstance(f"fixture {arg!r} carries no cycle-plus-chords form")
    inst = cubic_mod.CubicCycleGraph(rec.graph.n, rec.chords)
    return inst, cubic_mod.emit_cubic(inst)


def _parse_ids(text: str) -> list[int]:
    try:
        return [int(t) for t in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ParseError(f"bad vertex list {text!r}") from exc


def _report(args, code: int, human: list[str], **fields) -> int:
    """Print {"command": ..., **fields} as one JSON line under --json, or
    else the human lines; returns the exit code."""
    if args.json:
        print(json.dumps({"command": args.command, **fields}))
    else:
        print(*human, sep="\n")
    return code


def _set_lines(s: VertexSet, limit: int = 200) -> list[str]:
    if s.n <= limit:
        return ["set " + " ".join(map(str, s.members()))]
    return [f"set omitted ({len(s)} vertices; use --json)"]


# --- subcommands ----------------------------------------------------------


def cmd_verify(args) -> int:
    g, digest = _load_graph(args.graph)
    if args.set is not None:
        s = VertexSet.from_ids(g.n, _parse_ids(args.set))
    else:
        s = set_from_json(_read_source(args.set_file), g.n)
    verdict = check_pds(g, s)
    connected = induced_connected(g, s) if len(s) else False
    ok = verdict.holds and (connected or not args.connected)
    human = [f"pds {str(verdict.holds).lower()}", f"connected {str(connected).lower()}"]
    human += [f"violated by {u}: inside {di}, outside {do}" for u, di, do in verdict.unsatisfied]
    unsatisfied = [{"vertex": u, "inside": di, "outside": do} for u, di, do in verdict.unsatisfied]
    return _report(
        args, 0 if ok else 1, human,
        input_digest=digest, holds=verdict.holds, connected=connected, unsatisfied=unsatisfied,
    )


def cmd_exact(args) -> int:
    if args.extend is not None and (args.connected or args.all_optima):
        raise ParseError("exact --extend takes neither --connected nor --all-optima")
    g, digest = _load_graph(args.graph)
    if args.extend is not None:
        base = VertexSet.from_ids(g.n, _parse_ids(args.extend))
        ext = pds_extension(g, base, cap=args.cap)
        if ext is None:
            return _report(args, 1, ["no extension"], input_digest=digest, extension=None)
        recheck(g, ext, "extension")
        return _report(
            args, 0, [f"extension of size {len(ext)}", *_set_lines(ext)],
            input_digest=digest, extension=ext.members(), verified=True,
        )
    t0 = time.perf_counter()
    res = max_pds_exact(
        g, connected_only=args.connected, all_optima=args.all_optima, cap=args.cap
    )
    elapsed = time.perf_counter() - t0
    connected = recheck(g, res.witness, "exact witness", args.connected)
    human = [f"size {res.size}", *_set_lines(res.witness)]
    if res.optima:
        human.append(f"optima {len(res.optima)}")
    human.append(f"subsets checked {res.subsets_checked}")
    return _report(
        args, 0, human,
        input_digest=digest, size=res.size, witness=res.witness.members(), connected=connected,
        optima=[s.members() for s in res.optima] if res.optima else None,
        subsets_checked=res.subsets_checked, seconds=elapsed, verified=True,
    )


def cmd_approx(args) -> int:
    if not 1 <= args.restarts <= MAX_RESTARTS:
        raise ParseError(f"--restarts must be in [1, {MAX_RESTARTS}], got {args.restarts}")
    if args.init is not None and args.seed is not None:
        raise ParseError("approx --init takes no --seed")
    g, digest = _load_graph(args.graph)
    init = (
        VertexSet.from_ids(g.n, _parse_ids(args.init)) if args.init is not None else None
    )
    # every search from the one given start makes the same moves
    runs = 1 if init is not None else args.restarts
    best = None
    t0 = time.perf_counter()
    for i in range(runs):
        if args.seed is not None:
            seed = args.seed + i
        else:
            seed = i if runs > 1 else None
        s, trace = half_pds(g, init=init, seed=seed)
        if best is None or len(s) > len(best[0]):
            best = (s, trace)
    elapsed = time.perf_counter() - t0
    s, trace = best
    connected = recheck(g, s, "local search output")
    fields = {
        "input_digest": digest, "size": len(s), "set": s.members(), "connected": connected,
        "moves": trace.iterations, "restarts": runs, "seconds": elapsed, "verified": True,
    }
    if args.trace:
        fields["trace"] = [
            {"vertex": mv.vertex, "inside": mv.inside_degree, "outside": mv.outside_degree,
             "cut_before": mv.cut_before, "cut_after": mv.cut_after}
            for mv in trace.moves
        ]
    human = [f"size {len(s)}", *_set_lines(s), f"connected {str(connected).lower()}"]
    return _report(args, 0, human + [f"moves {trace.iterations}"], **fields)


def cmd_cubic(args) -> int:
    if (args.input is not None) + (args.random is not None) + args.sweep8 > 1:
        raise ParseError("cubic takes only one of an input, --random N and --sweep8")
    if args.find_cycle and (args.random is not None or args.sweep8):
        raise ParseError("cubic --find-cycle needs an input, not --random N or --sweep8")
    if args.seed is not None and (args.input is not None or args.sweep8):
        raise ParseError("cubic --seed needs --random N")
    if args.sweep8:
        solve = cubic_mod.solve_hamiltonian_cubic
        kinds = [solve(inst).exceptional for inst in cubic_mod.all_cubic_cycles(8)]
        counts = {k: kinds.count(k) for k in ("paired", "alternating")}
        human = [f"instances {len(kinds)}", *(f"exceptional {k} {c}" for k, c in counts.items())]
        return _report(args, 0, human, instances=len(kinds), exceptional=counts)

    order: list[int] | None = None
    if args.random is not None:
        inst = cubic_mod.random_cubic_cycle(args.random, seed=args.seed)
        digest = _digest(cubic_mod.emit_cubic(inst))
    elif args.input is None:
        raise ParseError("cubic needs an input, --random N, or --sweep8")
    elif args.find_cycle:
        g, digest = _load_graph(args.input)
        inst, order = cubic_mod._cubic_from_graph(g)
    else:
        inst, digest = _load(args.input, cubic_mod.parse_cubic, _cubic_fixture)

    fields = {"input_digest": digest, "n": inst.n}
    t0 = time.perf_counter()
    outcome = cubic_mod.solve_hamiltonian_cubic(inst)
    fields.update(seconds=time.perf_counter() - t0, verified=True)
    del inst  # the instance goes before the answer's set is emitted
    if outcome.exceptional:
        human = [f"exceptional {outcome.exceptional}", "no PDS of target size"]
        return _report(args, 1, human, **fields, exceptional=outcome.exceptional)
    s = outcome.pds
    if order is not None:
        # translate cycle positions back to the labels the user supplied
        s = VertexSet.from_ids(s.n, (order[v] for v in s.members()))
        fields["cycle"] = order
    return _report(
        args, 0, [f"size {len(s)}", *_set_lines(s)],
        **fields, size=len(s), set=s.members() if s.n <= 100_000 else None,
    )


def cmd_reduce(args) -> int:
    if args.kind == "split" and args.k is not None:
        raise ParseError("split reduction takes no --k")
    g, digest = _load_graph(args.graph)
    if args.kind == "split":
        inst = split_reduction(g)
        head = {"target": graph_to_json(inst.target), "anchors": list(inst.anchors)}
        tail = {"core_size": inst.core_size}
        human = [f"core size {inst.core_size}"]
    else:
        if args.k is None:
            raise ParseError("bipartite reduction needs --k")
        inst = bipartite_reduction(g, args.k)
        head = {
            "k": args.k, "target": graph_to_json(inst.target), "filler_count": inst.filler_count
        }
        tail = {"threshold": inst.threshold}
        human = [f"filler {inst.filler_count}", f"threshold {inst.threshold}"]
    fields = {
        "kind": args.kind,
        "input_digest": digest,
        **head,
        "edge_block": [[list(e), i] for e, i in inst.edge_ids.items()],
        "source_block": list(inst.source_ids),
        **tail,
    }
    human.insert(0, f"target n {inst.target.n} m {inst.target.m}")
    if args.certificate:
        alpha, is_set = max_independent_set_exact(g, cap=args.cap)
        if args.kind == "bipartite" and alpha < args.k:
            raise NoPds(f"alpha(G) = {alpha} < k = {args.k}: no certificate exists")
        cert = ReductionCertificate(
            kind=args.kind, direction="forward", k=getattr(inst, "k", None),
            independent_set=is_set, pds=inst.embed_independent_set(is_set),
        )
        problems = verify_certificate(inst, cert)
        if problems:
            raise VerificationFailed("; ".join(problems))
        text = json.dumps(certificate_to_json(inst, cert), indent=2) + "\n"
        Path(args.certificate).write_text(text)
        fields.update(certificate=args.certificate, alpha=alpha)
        human += [f"alpha {alpha}", f"certificate written to {args.certificate}"]
    return _report(args, 0, human, **fields)


def cmd_certify(args) -> int:
    obj = _json_object(_read_source(args.file), "kind", "direction")
    inst, cert = certificate_from_json(obj)
    problems = verify_certificate(inst, cert)
    return _report(
        args, 0 if not problems else 1, [f"valid {str(not problems).lower()}", *problems],
        kind=cert.kind, direction=cert.direction, valid=not problems, problems=problems,
    )


def cmd_gen(args) -> int:
    modes = (args.list, args.fixture is not None, args.random is not None, args.cubic is not None)
    if sum(modes) > 1:
        raise ParseError("gen takes only one of --list, --fixture, --random and --cubic")
    if args.json and (args.list or args.cubic is not None):
        raise ParseError("gen --json needs --fixture or --random")
    if args.seed is not None and (args.list or args.fixture is not None):
        raise ParseError("gen --seed needs --random or --cubic")
    if args.list:
        for name in fixture_names():
            print(name)
        print("star<N> path<N> cycle<N>")
        return 0
    if args.cubic is not None:
        inst = cubic_mod.random_cubic_cycle(args.cubic, seed=args.seed)
        sys.stdout.write(cubic_mod.emit_cubic(inst))
        return 0
    if args.fixture is not None:
        g = fixture(args.fixture).graph
    elif args.random is not None:
        n, m = args.random
        g = random_connected(n, m, seed=args.seed)
    else:
        raise ParseError("gen needs --list, --fixture, --random or --cubic")
    if args.json:
        print(json.dumps(graph_to_json(g)))
    else:
        sys.stdout.write(emit_graph(g))
    return 0


def cmd_bench(args) -> int:
    if args.repeats < 1:
        raise ParseError(f"--repeats must be at least 1, got {args.repeats}")
    kwargs = {"seed": args.seed, "repeats": args.repeats}
    if args.sizes is not None:
        sizes = _parse_ids(args.sizes)
        if not sizes or len(set(sizes)) < len(sizes):
            raise ParseError(f"--sizes must list distinct sizes, got {args.sizes!r}")
        kwargs["sizes"] = tuple(sizes)
    rows = bench_mod.run_suite(args.suite, **kwargs)
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    lines += [",".join(str(r[c]) for c in cols) for r in rows]
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    if len(rows) > 1:
        xs, ys = [r["n"] for r in rows], [r["seconds"] for r in rows]
        if bench_mod.SUITES[args.suite][1]:  # exponential
            slope, r2 = bench_mod.fit_semilog(xs, ys)
            line = f"per-vertex growth seconds x{math.exp(slope):.2f} r2 {r2:.3f}"
        else:
            slope, r2 = bench_mod.fit_loglog(xs, ys)
            line = f"log-log slope seconds {slope:.3f} r2 {r2:.3f}"
        print(line, file=sys.stderr)
    return 0


# --- parser ---------------------------------------------------------------


def _verify_args(sp) -> None:
    sp.add_argument("graph")
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--set", help="comma separated vertex ids")
    grp.add_argument("--set-file", help='JSON file {"set": [...]}')
    sp.add_argument(
        "--connected", action="store_true", help="also require a connected subgraph"
    )


def _exact_args(sp) -> None:
    sp.add_argument("graph")
    sp.add_argument("--connected", action="store_true")
    sp.add_argument("--all-optima", action="store_true")
    sp.add_argument("--cap", type=int, default=None, help="enumeration cap override")
    sp.add_argument("--extend", help="find a PDS strictly containing these ids")


def _approx_args(sp) -> None:
    sp.add_argument("graph")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--init", help="explicit initial set (comma separated ids)")
    sp.add_argument(
        "--restarts",
        type=int,
        default=1,
        help=f"seeded searches, 1 to {MAX_RESTARTS}; with --init the one search runs once",
    )
    sp.add_argument("--trace", action="store_true", help="include the move trace")


def _cubic_args(sp) -> None:
    sp.add_argument("input", nargs="?", help="cycle-format file or fixture name")
    sp.add_argument("--random", type=int, metavar="N", help="random instance size")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument(
        "--find-cycle",
        action="store_true",
        help="input is an edge list; search a Hamiltonian cycle first (n <= 24)",
    )
    sp.add_argument("--sweep8", action="store_true", help="solve all n=8 instances")


def _reduce_args(sp) -> None:
    sp.add_argument("graph")
    sp.add_argument("--kind", choices=("split", "bipartite"), required=True)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument(
        "--certificate",
        metavar="FILE",
        help="also compute a maximum independent set and write a certificate",
    )
    sp.add_argument("--cap", type=int, default=None)


def _certify_args(sp) -> None:
    sp.add_argument("file")


def _gen_args(sp) -> None:
    sp.add_argument("--list", action="store_true", help="list fixture names")
    sp.add_argument("--fixture")
    sp.add_argument("--random", nargs=2, type=int, metavar=("N", "M"))
    sp.add_argument("--cubic", type=int, metavar="N")
    sp.add_argument("--seed", type=int, default=None)


def _bench_args(sp) -> None:
    sp.add_argument("--suite", required=True)
    sp.add_argument("--output")
    sp.add_argument("--sizes", help="comma separated instance sizes")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--repeats", type=int, default=3)


# command -> (help line, handler, its options), in the order --help lists them
COMMANDS = {
    "verify": ("check whether a set is a PDS", cmd_verify, _verify_args),
    "exact": ("exhaustive maximum PDS", cmd_exact, _exact_args),
    "approx": ("half-size local search", cmd_approx, _approx_args),
    "cubic": ("Hamiltonian cubic solver", cmd_cubic, _cubic_args),
    "reduce": ("independent-set reductions", cmd_reduce, _reduce_args),
    "certify": ("verify a reduction certificate", cmd_certify, _certify_args),
    "gen": ("emit graphs", cmd_gen, _gen_args),
    "bench": ("timing suites (CSV)", cmd_bench, _bench_args),
}


@functools.cache  # built once per process and command: parse_args leaves it unchanged
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The pdskit parser.  Given one of COMMANDS, it holds only that
    command's subparser, two parsers built instead of nine, and parses an
    argv that starts with that command as the full parser does, with the
    same usage, help and error text.  -h, a typo or no command needs the
    full parser, built with command None."""
    import argparse  # loaded on first use: import pdskit.cli stays cheap

    p = argparse.ArgumentParser(
        prog="pdskit",
        description="Proportionally dense subgraph toolkit",
    )
    names = COMMANDS if command is None else (command,)
    # the full parser's usage lists the choices; a partial one would list
    # only its own, so it is given the full list to print
    extra = {} if command is None else {"metavar": "{" + ",".join(COMMANDS) + "}"}
    sub = p.add_subparsers(dest="command", required=True, **extra)
    for name in names:
        help_text, handler, add_options = COMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        if name != "bench":
            sp.add_argument("--json", action="store_true", help="emit a JSON report")
        add_options(sp)
        sp.set_defaults(func=handler)
    return p


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except VerificationFailed as exc:
        print(f"error: verification failed: {exc}", file=sys.stderr)
        return 3
    except NoPds as exc:
        print(f"negative: {exc}", file=sys.stderr)
        return 1
    except PdsKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
