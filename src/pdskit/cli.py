"""Command line interface.

Exit codes: 0 success; 1 negative answer (set is not a PDS, no extension,
exceptional cubic instance, invalid certificate); 2 usage or input error;
3 internal verification failure (a solver emitted a set that did not
survive the independent re-check, or a cubic chord pattern that the
theorem rules out).

Graph arguments accept a file path (edge-list text or JSON), "-" for
stdin, or a fixture name such as cubic10 or path7.  cubic reads only
cycle-plus-chords text, or a fixture with a chord table.  The text
itself tells the three formats apart, and a command refuses unread the
ones it does not take.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re
import sys
import time
from itertools import chain, compress
from pathlib import Path

from . import bench as bench_mod
from . import cubic as cubic_mod
from .approx import half_pds
from .errors import (
    InvalidArgument,
    NoPds,
    ParseError,
    PdsKitError,
    UnknownName,
    VerificationFailed,
)
from .exact import (
    _require_within_cap,
    max_independent_set_exact,
    max_pds_exact,
    pds_extension,
    resolve_cap,
)
from .generators import fixture, fixture_chords, fixture_names, random_connected
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
    raise FileNotFoundError(f"{arg}: no such file")


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


# a line's leading space, blank lines included, and the rest of that line
_LINE = re.compile(r"\s*([^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*)")


def _head(raw: str) -> list[str] | None:
    """None (JSON) when raw's first non-space character is "{", else the
    tokens of its first line that is neither blank nor a '#' comment: one
    (n) for cycle-plus-chords text, any other count for an edge list.
    Reads raw up to that line and copies only that line."""
    m = _LINE.match(raw)
    if raw.startswith("{", m.start(1)):
        return None
    while raw.startswith("#", m.start(1)):
        m = _LINE.match(raw, m.end())
    return m[1].split()


def _parse_any_graph(raw: str) -> Graph:
    head = _head(raw)
    if head is None:
        return graph_from_json(raw)
    if len(head) == 1:
        raise ParseError(
            'a one-token header starts cycle-plus-chords text, which pdskit cubic reads;'
            ' an edge list starts with "n m"'
        )
    return parse_graph(raw)


def _load_graph(arg: str) -> tuple[Graph, str]:
    """(graph, input digest) of an edge-list or JSON file, or a fixture."""
    return _load(arg, _parse_any_graph, _graph_fixture)


_CUBIC_ONLY = ('cubic reads cycle-plus-chords text ("n", then n/2 chord lines);'
               " pdskit exact --connected solves a graph")


def _parse_cubic_input(raw: str) -> cubic_mod.CubicCycleGraph:
    """The instance of cycle-plus-chords text; any other text is refused unread."""
    if len(_head(raw) or ()) != 1:  # graph JSON, or an edge list
        raise ParseError(_CUBIC_ONLY)
    return cubic_mod.parse_cubic(raw)


def _cubic_fixture(arg: str) -> tuple[cubic_mod.CubicCycleGraph, str]:
    """A chord fixture's instance, from the name alone: no graph is built."""
    chords = fixture_chords(arg)
    if chords is None:
        raise ParseError(_CUBIC_ONLY)
    inst = cubic_mod.CubicCycleGraph(len(chords), chords)
    return inst, cubic_mod.emit_cubic(inst)


def _check_output(path: str | None) -> None:
    """Refuse, before any work, an output path whose directory is missing
    or that is a directory itself, so that a failed run writes no file."""
    if path and (Path(path).is_dir() or not Path(path).parent.is_dir()):
        raise InvalidArgument(f"{path}: not a file in an existing directory")


def _parse_ids(flag: str, text: str) -> list[int]:
    """The comma or space separated ids of option flag, all distinct."""
    try:
        ids = [int(t) for t in text.replace(",", " ").split()]
        if len(set(ids)) == len(ids):
            return ids
    except ValueError:
        pass
    raise ParseError(f"{flag} must list distinct integers, got {text!r}")


SET_BLOCK = 4096  # vertices per json.dumps of a VertexSet's members


def _report(args, code: int, human: list[str], **fields) -> int:
    """Print {"command": ..., **fields} as one JSON line under --json, or
    else the human lines; returns the exit code.  A VertexSet field is
    written as the list of its members.

    The line is written one field at a time, with the bytes of
    print(json.dumps(...)): each key and each other value through json.dumps,
    and a set one block of SET_BLOCK vertices with a member at a time, read
    off its flags, so neither its member list nor the line is built."""
    if not args.json:
        print(*human, sep="\n")
        return code
    write = sys.stdout.write
    sep = "{"  # the first field opens the object
    for key, value in chain([("command", args.command)], fields.items()):
        write(f"{sep}{json.dumps(key)}: ")
        sep = ", "
        if not isinstance(value, VertexSet):
            write(json.dumps(value))
            continue
        flags, comma = value.flags(), ""
        write("[")
        for lo in range(0, value.n, SET_BLOCK):
            chunk = flags[lo : lo + SET_BLOCK]
            if 1 in chunk:  # a block of members only is its range
                ids = range(lo, lo + len(chunk))
                write(comma + json.dumps(list(compress(ids, chunk) if 0 in chunk else ids))[1:-1])
                comma = ", "
        write("]")
    write("}\n")
    return code


def _set_lines(s: VertexSet) -> list[str]:
    if s.n <= 200:
        return ["set " + " ".join(map(str, s.members()))]
    return [f"set omitted ({len(s)} vertices; use --json)"]


# --- subcommands ----------------------------------------------------------


def cmd_verify(args) -> int:
    ids = _parse_ids("--set", args.set) if args.set is not None else None
    g, digest = _load_graph(args.graph)
    if ids is not None:
        s = VertexSet.from_ids(g.n, ids)
    else:
        s = set_from_json(_read_source(args.set_file), g.n)
    verdict = check_pds(g, s)
    connected = induced_connected(g, s)
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
    ids = _parse_ids("--extend", args.extend) if args.extend is not None else None
    resolve_cap(args.cap)
    g, digest = _load_graph(args.graph)
    if ids is not None:
        base = VertexSet.from_ids(g.n, ids)
        ext = pds_extension(g, base, cap=args.cap)
        if ext is None:
            return _report(args, 1, ["no extension"], input_digest=digest, extension=None)
        recheck(g, ext, "extension")
        return _report(
            args, 0, [f"extension of size {len(ext)}", *_set_lines(ext)],
            input_digest=digest, extension=ext, verified=True,
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
        input_digest=digest, size=res.size, witness=res.witness, connected=connected,
        optima=[s.members() for s in res.optima] if res.optima else None,
        subsets_checked=res.subsets_checked, seconds=elapsed, verified=True,
    )


def cmd_approx(args) -> int:
    if args.init is not None and args.seed is not None:
        raise ParseError("approx --init takes no --seed")
    ids = _parse_ids("--init", args.init) if args.init is not None else None
    g, digest = _load_graph(args.graph)
    init = VertexSet.from_ids(g.n, ids) if ids is not None else None
    t0 = time.perf_counter()
    s, trace = half_pds(g, init=init, seed=args.seed)
    elapsed = time.perf_counter() - t0
    connected = recheck(g, s, "local search output")
    fields = {
        "input_digest": digest, "size": len(s), "set": s, "connected": connected,
        "moves": trace.iterations, "seconds": elapsed, "verified": True,
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
    if (args.input is not None) == args.sweep8:
        raise ParseError("cubic takes exactly one of an input and --sweep8")
    if args.sweep8:
        solve = cubic_mod.solve_hamiltonian_cubic
        kinds = [solve(inst).exceptional for inst in cubic_mod.all_cubic_cycles(8)]
        counts = {k: kinds.count(k) for k in ("paired", "alternating")}
        human = [f"instances {len(kinds)}", *(f"exceptional {k} {c}" for k, c in counts.items())]
        return _report(args, 0, human, instances=len(kinds), exceptional=counts)

    inst, digest = _load(args.input, _parse_cubic_input, _cubic_fixture)
    fields = {"input_digest": digest, "n": inst.n}
    t0 = time.perf_counter()
    outcome = cubic_mod.solve_hamiltonian_cubic(inst)
    fields.update(seconds=time.perf_counter() - t0, verified=True)
    del inst  # the instance goes before the answer's set is emitted
    if outcome.exceptional:
        human = [f"exceptional {outcome.exceptional}", "no PDS of target size"]
        return _report(args, 1, human, **fields, exceptional=outcome.exceptional)
    s = outcome.pds
    return _report(
        args, 0, [f"size {len(s)}", *_set_lines(s)],
        **fields, size=len(s), set=s if s.n <= 100_000 else None,
    )


def cmd_reduce(args) -> int:
    if args.cap is not None and not args.certificate:
        raise ParseError("reduce --cap needs --certificate")
    resolve_cap(args.cap)
    _check_output(args.certificate)
    g, digest = _load_graph(args.graph)
    if args.certificate:  # the MIS's cap refuses the source before the target is built
        _require_within_cap(g, args.cap)
    inst = split_reduction(g) if args.k is None else bipartite_reduction(g, args.k)
    if inst.k is None:  # --k names the reduction
        head = {"target": graph_to_json(inst.target), "anchors": list(inst.anchors)}
        tail = {"core_size": inst.core_size}
        human = [f"core size {inst.core_size}"]
    else:
        head = {
            "k": inst.k, "target": graph_to_json(inst.target), "filler_count": inst.filler_count
        }
        tail = {"threshold": inst.threshold}
        human = [f"filler {inst.filler_count}", f"threshold {inst.threshold}"]
    fields = {
        "kind": inst.kind,
        "input_digest": digest,
        **head,
        "edge_block": [[list(e), i] for e, i in inst.edge_ids.items()],
        "source_block": list(inst.source_ids),
        **tail,
    }
    human.insert(0, f"target n {inst.target.n} m {inst.target.m}")
    if args.certificate:
        alpha, is_set = max_independent_set_exact(g, cap=args.cap)
        if inst.k is not None and alpha < inst.k:
            raise NoPds(f"alpha(G) = {alpha} < k = {inst.k}: no certificate exists")
        cert = ReductionCertificate("forward", is_set, inst.embed_independent_set(is_set))
        if problems := verify_certificate(inst, cert):
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
        kind=inst.kind, direction=cert.direction, valid=not problems, problems=problems,
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
        print(*fixture_names(), "star<N> path<N> cycle<N>", sep="\n")
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
    if args.seed is not None and args.suite == "enum-scaling":
        raise ParseError("enum-scaling takes no --seed")
    _check_output(args.output)
    kwargs = {"repeats": args.repeats}
    if args.seed is not None:  # else each suite keeps its own default
        kwargs["seed"] = args.seed
    if args.sizes is not None:
        sizes = _parse_ids("--sizes", args.sizes)
        if not sizes:
            raise ParseError(f"--sizes must list distinct integers, got {args.sizes!r}")
        kwargs["sizes"] = tuple(sizes)
    report = bench_mod.run_suite(args.suite, **kwargs)
    text = json.dumps(report, indent=1) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    fit = report["fit"]
    if fit:
        slope = fit["slope"]
        line = (f"per-vertex growth seconds x{math.exp(slope):.2f}" if fit["kind"] == "semilog"
                else f"log-log slope seconds {slope:.3f}")
        print(f"{line} r2 {fit['r2']:.3f}", file=sys.stderr)
    return 0


# --- parser ---------------------------------------------------------------


def _verify_args(sp) -> None:
    sp.add_argument("graph")
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--set", help="comma separated vertex ids")
    grp.add_argument("--set-file", help='JSON file {"set": [...]}')
    sp.add_argument("--connected", action="store_true", help="also require a connected subgraph")


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
    sp.add_argument("--trace", action="store_true", help="include the move trace")


def _cubic_args(sp) -> None:
    sp.add_argument("input", nargs="?", help='cycle-plus-chords text: "n", then n/2 lines "u v"')
    sp.add_argument("--sweep8", action="store_true", help="solve all n=8 instances")


def _reduce_args(sp) -> None:
    sp.add_argument("graph")
    sp.add_argument("--k", type=int, default=None, help="bipartite reduction for k (default split)")
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
    sp.add_argument("--output", help="file for the JSON report (default stdout)")
    sp.add_argument("--sizes", help="comma separated instance sizes")
    sp.add_argument("--seed", type=int, default=None)
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
    "bench": ("timing suites (JSON report)", cmd_bench, _bench_args),
}


@functools.cache  # built once per process: parse_args leaves it unchanged
def build_parser():
    """The argparse.ArgumentParser for every pdskit command."""
    import argparse  # loaded on first use: import pdskit.cli stays cheap

    p = argparse.ArgumentParser(prog="pdskit", description="Proportionally dense subgraph toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, add_options) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if name != "bench":
            sp.add_argument("--json", action="store_true", help="emit a JSON report")
        add_options(sp)
        sp.set_defaults(func=handler)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
    except (PdsKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
