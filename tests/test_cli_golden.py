"""Golden CLI transcripts: the exit code, stdout and stderr of each solver
command, in text and in --json, pinned byte for byte.

The JSON reports lose their "seconds" key, the one timing field, and the
temporary directory reads as {tmp} everywhere.  After a deliberate change
to the output, rewrite the transcripts with

    PYTHONPATH=src python -m tests.test_cli_golden
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from pdskit import emit_graph, fixture
from pdskit.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

# each runs twice, as written and with --json appended
ARGV = [
    ["verify", "k4", "--set", "0,1,2"],
    ["verify", "path4", "--set", "0,3"],
    ["verify", "cubic10", "--set", "0,1,2,5,6,7,8", "--connected"],
    ["verify", "k4", "--set-file", "{tmp}/set.json"],
    ["exact", "cycle5"],
    ["exact", "cubic10", "--connected", "--all-optima"],
    ["exact", "k4", "--extend", "0,1"],
    ["exact", "path4", "--extend", "0,1"],
    ["approx", "caterpillar15", "--trace", "--seed", "2"],
    ["approx", "path7", "--init", "0,1,2,3"],
    ["cubic", "prism6"],
    ["cubic", "exc8_paired"],
    ["cubic", "--random", "30", "--seed", "7"],
    ["cubic", "--sweep8"],
    ["cubic", "{tmp}/prism.txt", "--find-cycle"],
    ["cubic", "{tmp}/prism.txt"],
    ["cubic", "{tmp}/cycle.txt"],
    ["cubic", "caterpillar15"],
    ["cubic"],
    ["cubic", "prism6", "--no-verify"],
    ["cubic", "{tmp}/bad.txt"],
    ["cubic", "no_such_thing"],
    ["reduce", "demo5", "--certificate", "{tmp}/split.json"],
    ["reduce", "demo5", "--k", "2", "--certificate", "{tmp}/bip.json"],
    ["reduce", "k4", "--k", "2", "--certificate", "{tmp}/none.json"],
    ["certify", "{tmp}/cert.json"],
    ["certify", "{tmp}/tampered.json"],
    ["exact", "{tmp}/bad.txt"],
    ["exact", "no_such_thing"],
    ["gen", "--fixture", "path4"],
]
CASES = [(argv, as_json) for argv in ARGV for as_json in (False, True)]


def _inputs(tmp: Path) -> None:
    (tmp / "set.json").write_text('{"set": [0, 1, 2]}')
    (tmp / "prism.txt").write_text(emit_graph(fixture("prism6").graph))
    (tmp / "cycle.txt").write_text("6\n0 3\n1 4\n2 5\n")
    (tmp / "bad.txt").write_text("3 2\n0 1\n1 zebra\n")
    with contextlib.redirect_stdout(io.StringIO()):
        main(["reduce", "demo5", "--k", "2",
              "--certificate", str(tmp / "cert.json")])
    obj = json.loads((tmp / "cert.json").read_text())
    obj["independent_set"] = [0, 1]
    (tmp / "tampered.json").write_text(json.dumps(obj))


def _call(tmp: Path, argv: list[str], as_json: bool) -> dict:
    argv = [a.replace("{tmp}", str(tmp)) for a in argv] + (["--json"] if as_json else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = (s.getvalue().replace(str(tmp), "{tmp}") for s in (out, err))
    if as_json and out:
        report = json.loads(out)
        report.pop("seconds", None)
        out = json.dumps(report) + "\n"
    return {"code": code, "stdout": out, "stderr": err}


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    _inputs(d)
    return d


@pytest.fixture(scope="module")
def golden():
    return {(tuple(c["argv"]), c["json"]): c["result"] for c in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize(
    "argv, as_json", CASES, ids=[" ".join(a) + (" --json" if j else "") for a, j in CASES]
)
def test_transcript(tmp, golden, argv, as_json):
    assert _call(tmp, argv, as_json) == golden[tuple(argv), as_json]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        _inputs(Path(d))
        cases = [
            {"argv": argv, "json": as_json, "result": _call(Path(d), argv, as_json)}
            for argv, as_json in CASES
        ]
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"{len(cases)} transcripts written to {GOLDEN}", file=sys.stderr)
