"""CLI transcript: every subcommand's exit code, stdout and stderr, pinned.

tests/data/cli_transcript.jsonl holds one JSON object per line: the argv,
the LINEMETRIC_MAX_N value the command ran under (or null), its exit code,
stdout and stderr, with the JSON report's timing_ms line removed.  The
commands run in CASES order in one directory and name their files
relatively, so no temporary path enters the text, and a certificate that
one command writes with --emit is read back by a later --verify-only.  A
change to any verdict, margin, message or exit code fails here.  After a
deliberate change to the output, rebuild the file with

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from linemetric import HalfLinePair, Perm, SymZMat, Word, synthesize
from linemetric.certificates import base_certificate
from linemetric.cli import main
from linemetric.core import parse_matrix_json
from linemetric.line_metrics import cut_metric, embed, perm_metric

TRANSCRIPT = Path(__file__).parent / "data" / "cli_transcript.jsonl"


def write_inputs() -> None:
    """The matrix files the cases read, written to the current directory."""
    mats = {
        "separated.json": perm_metric(Perm.parse("2,4,1,3,5")),
        "half.json": perm_metric(Perm.identity(4)).scale(Fraction(1, 2)),
        "embedded.json": embed([0, Fraction(1, 3), 2, Fraction(7, 2), 5]),
        "cut.json": cut_metric(Word.parse("101100")),
        "cut11.json": cut_metric(Word.parse("10110100101")),
        "nonline.json": SymZMat(3, {(1, 2): 1, (2, 3): 1, (1, 3): 3}),
        "id4.json": perm_metric(Perm.identity(4)),
        "id5.json": perm_metric(Perm.identity(5)),
        "id13.json": perm_metric(Perm.identity(13)),
        "alt.json": base_certificate("C_10101").matrix,
    }
    for name, mat in mats.items():
        Path(name).write_text(json.dumps(mat.to_json()))
    # a certificate whose matrix is negated fails its own pair
    cert = synthesize(HalfLinePair(Perm.parse("2,4,1,3,6,5"), Word.parse("011010"))).to_json()
    cert["matrix"] = SymZMat.of_pairs(*parse_matrix_json(cert["matrix"])).scale(-1).to_json()
    Path("negated.json").write_text(json.dumps(cert))
    dup = base_certificate("C_1001").matrix.to_json()
    dup["entries"].append([1, 3, "5"])
    texts = {
        "dup.json": json.dumps(dup),
        "n2000.json": '{"n": 2000, "entries": []}',
        "n201.json": '{"n": 201, "entries": []}',
        "huge.json": '{"n": 1000000000, "entries": []}',
        "zero.json": '{"n": 2, "entries": [[1, 2, "1/0"]]}',
        "overflow.json": '{"n": 1e400}',
        "nesting.json": "[" * 100000 + "]" * 100000,
        "nonint.json": (
            '{"n": 4.9, "entries": [[1.7, 2, "1"], [2, 3.2, "1"], [3, 4, "1"], [true, 4, "-1"]]}'
        ),
        "float.json": (
            '{"n": 4, "entries": [[1, 2, "1"], [2, 3, 0.12345678901234567891], [3, 4, "1"]]}'
        ),
        "condition.json": json.dumps(
            {"matrix": perm_metric(Perm.identity(4)).to_json(), "condition": [1]}
        ),
    }
    for name, text in texts.items():
        Path(name).write_text(text)


def _both(*argv):
    """A command in text mode and in --json mode."""
    return [(list(argv), None), ([*argv, "--json"], None)]


def _cases() -> list:
    cases = []
    # edges
    for argv in (
        ["edges", "3"],
        ["edges", "3", "--count-only"],
        ["edges", "4"],
        ["edges", "4", "--count-only"],
        ["edges", "5", "--at", "2,4,1,3,5"],
        ["edges", "5", "--at", "2,4,1,3,5", "--count-only"],
        ["edges", "6", "--at", "3,1,4,2,6,5"],
        ["edges", "7", "--count-only"],
    ):
        cases += _both(*argv)
    # certify: synthesis, --emit, --verify-only of the emitted file, non-edges
    for n, pi, u, file in (
        (4, "1,2,3,4", "1001", "c4.json"),
        (5, "3,1,4,2,5", "01101", "c5.json"),
        (5, "1,2,3,4,5", "11001", "c5id.json"),
        (6, "2,4,1,3,6,5", "011010", "c6.json"),
        (6, "1,2,3,4,5,6", "101010", "c6alt.json"),
    ):
        pair = ["certify", str(n), "--pi", pi, "--u", u]
        cases += _both(*pair, "--emit", file)
        cases += _both(*pair, "--verify-only", file)
    for argv in (
        ["certify", "4", "--u", "1001"],
        ["certify", "4", "--pi", "1,2,3,4", "--u", "1101"],
        ["certify", "5", "--u", "10100"],
        ["certify", "6", "--pi", "2,4,1,3,6,5", "--u", "010110"],
        ["certify", "6", "--u", "110100"],
        # a negated certificate, a certificate of another word, bare matrices
        ["certify", "6", "--pi", "2,4,1,3,6,5", "--u", "011010", "--verify-only", "negated.json"],
        ["certify", "4", "--u", "1000", "--verify-only", "c4.json"],
        ["certify", "4", "--u", "1001", "--verify-only", "id4.json"],
        ["certify", "5", "--u", "10101", "--verify-only", "alt.json"],
    ):
        cases += _both(*argv)
    # check-metric on the four kinds of metric
    for name in ("separated", "half", "embedded", "cut", "cut11", "nonline"):
        cases += _both("check-metric", "--matrix", f"{name}.json")
        cases += _both("check-metric", "--matrix", f"{name}.json", "--spreading", "--facet")
    cases += _both("check-metric", "--matrix", "half.json", "--spreading", "--facet", "--scale", "1/2")
    cases += _both("check-metric", "--matrix", "embedded.json", "--facet", "--scale", "1/3")
    cases += _both("check-metric", "--matrix", "separated.json", "--spreading", "--scale", "2")
    # crosscheck
    cases += _both("crosscheck", "4")
    cases += _both("crosscheck", "5", "--full")
    cases += _both("crosscheck", "4", "--oracle")
    # usage errors
    for argv in (
        [],
        ["certify", "4"],
        ["edges", "99"],
        ["edges", "4", "--at", "1,1,2,3"],
        ["edges", "4", "--at", "1,2,3"],
        ["certify", "2", "--u", "10"],
        ["certify", "13", "--u", "1000000000000"],
        ["certify", "13", "--u", "1010000000000"],
        ["certify", "4", "--u", "100"],
        ["crosscheck", "2"],
        ["crosscheck", "7"],
        ["crosscheck", "7", "--oracle"],
        ["certify", "4", "--u", "12"],
        ["certify", "4", "--u", "0000"],
        ["certify", "4", "--pi", "1,1,2,3", "--u", "1001"],
        ["edges", "4", "--at", "x"],
        ["certify", "4", "--u", "1001", "--pi", "١,2,3,4"],
        ["certify", "4", "--u", "1001", "--pi", "1,2,3,4,"],
        ["edges", "4", "--at", "1, 2,3,4"],
        ["edges", "4", "--at", "+1,2,3,0_4"],
        ["certify", "4", "--u", "1001", "--verify-only", "dup.json"],
        ["certify", "4", "--u", "1001", "--verify-only", "id5.json"],
        ["certify", "4", "--u", "1001", "--verify-only", "condition.json"],
        ["certify", "4", "--u", "1001", "--emit", "missing/c.json"],
        ["check-metric", "--matrix", "nope.json"],
        ["check-metric", "--matrix", "id4.json", "--scale", "1/0"],
        ["check-metric", "--matrix", "id4.json", "--scale", "-1"],
        ["check-metric", "--matrix", "id13.json", "--spreading"],
        ["check-metric", "--matrix", "n2000.json", "--spreading"],
        ["check-metric", "--matrix", "n201.json", "--facet"],
    ):
        cases.append((argv, None))
    for token in ("+4", "٤", "1_0", " 5"):
        cases.append((["edges", token, "--count-only"], None))
        cases.append((["certify", token, "--u", "1001"], None))
        cases.append((["crosscheck", token, "--full"], None))
    for name in ("huge", "zero", "overflow", "nesting", "nonint", "float"):
        cases.append((["check-metric", "--matrix", f"{name}.json"], None))
        cases.append((["certify", "4", "--u", "1001", "--verify-only", f"{name}.json"], None))
    cases.append((["check-metric", "--matrix", "huge.json", "--spreading"], None))
    # LINEMETRIC_MAX_N
    for value in ("x", "2", "1_3", "١٣", "+13", " 13 "):
        cases.append((["certify", "5", "--u", "11001"], value))
    cases.append((["certify", "5", "--u", "10100"], "x"))
    cases.append((["check-metric", "--matrix", "id4.json", "--spreading"], "x"))
    cases.append((["edges", "4", "--count-only"], "x"))
    cases.append((["check-metric", "--matrix", "id13.json", "--spreading"], "13"))
    cases.append((["certify", "13", "--u", "1010000000000"], "13"))
    cases.append((["crosscheck", "7", "--oracle"], "5"))
    # --verify-only on non-edges: the verdict names the ridge, from pi and from pi-
    for u in ("1101", "0010"):
        cases += _both("certify", "4", "--u", u, "--verify-only", "id4.json")
    return cases


CASES = _cases()
_TIMING = re.compile(r'  "timing_ms": \d+,\n')


def _run(argv: list, max_n) -> dict:
    """One main() call under LINEMETRIC_MAX_N=max_n (unset when None)."""
    saved = os.environ.pop("LINEMETRIC_MAX_N", None)
    if max_n is not None:
        os.environ["LINEMETRIC_MAX_N"] = max_n
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.environ.pop("LINEMETRIC_MAX_N", None)
        if saved is not None:
            os.environ["LINEMETRIC_MAX_N"] = saved
    return {
        "argv": argv,
        "max_n": max_n,
        "exit": code,
        "stdout": _TIMING.sub("", out.getvalue()),
        "stderr": err.getvalue(),
    }


def transcript() -> list:
    """Run every case in the current directory, after writing its inputs."""
    write_inputs()
    return [_run(argv, max_n) for argv, max_n in CASES]


def test_cli_transcript(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    want = [json.loads(line) for line in TRANSCRIPT.read_text().splitlines()]
    got = transcript()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w, f"output changed for {w['argv']} (LINEMETRIC_MAX_N={w['max_n']})"


if __name__ == "__main__":
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            lines = [json.dumps(entry, ensure_ascii=False) for entry in transcript()]
        finally:
            os.chdir(here)
    TRANSCRIPT.parent.mkdir(exist_ok=True)
    TRANSCRIPT.write_text("".join(line + "\n" for line in lines))
    print(f"{len(lines)} commands written to {TRANSCRIPT}", file=sys.stderr)
