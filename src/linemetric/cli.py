"""Command-line surface: enumeration, certification, membership, cross-checks.

Exit codes are stable: 0 success, 2 verification failure, 3 synthesis
requested for a non-edge pair, 64 usage error (bad arguments, input files
or LINEMETRIC_MAX_N), 70 internal error (a failed internal consistency
check, such as a synthesized certificate that does not verify, or a
ValueError raised inside the library rather than by an input check).
Errors print one line on stderr, never a traceback.  All numeric output
is exact rational text.

Each command returns its exit code, results and output lines, and prints
nothing; main alone checks N against the exhaustion bound, times the
command and prints the lines, or with --json a run report that wraps the
results with the command echo, timing and library version.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time

from . import __version__
from .core import (
    Perm,
    SymZMat,
    Word,
    _decimal,
    _quote,
    exhaustion_bound,
    pair_indices,
    parse_matrix_json,
    parse_rat,
    perm_classes,
    raised_bound,
    require_exhaustible,
    word_classes,
)
from .edge_theory import (
    HalfLinePair,
    classify,
    enumerate_edges_at,
    non_edge_witness,
    verify_certificate,
)
from .certificates import NonEdgeError, synthesize
from .line_metrics import analyze_metric, qn_facet_value, spreading_check
from .oracle import oracle_bound, oracle_classify

EXIT_OK = 0
EXIT_VERIFY_FAIL = 2
EXIT_NON_EDGE = 3
EXIT_USAGE = 64
EXIT_SOFTWARE = 70

# check-metric's membership analysis is quadratic in n
DEFAULT_METRIC_BOUND = 200
_CONDITIONS = ("farkas", "plain")


class _Usage(Exception):
    pass


@contextlib.contextmanager
def _reading_input():
    """Report a ValueError raised while reading the command's input as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise _Usage(str(exc)) from None


def metric_bound() -> int:
    """Largest n check-metric analyses without --spreading; LINEMETRIC_MAX_N may raise it."""
    return raised_bound(DEFAULT_METRIC_BOUND)


def _positional_n(text: str) -> int:
    """The positional N, in ASCII digits only, as for --pi and LINEMETRIC_MAX_N."""
    n = _decimal(text)
    if n is None:
        raise argparse.ArgumentTypeError(f"N must be a decimal integer, got {_quote(text)}")
    return n


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def cmd_edges(args) -> tuple[int, dict, list[str]]:
    n = args.n
    with _reading_input():
        pi = Perm.parse(args.at) if args.at else Perm.identity(n)
    if pi.n != n:
        raise _Usage(f"permutation {args.at} does not have length {n}")
    verdicts = enumerate_edges_at(pi)
    formula = 2 ** (n - 1) - n if n >= 4 else None
    results = {
        "at": str(pi),
        "edges": [{"u": str(v.pair.u), "reason": v.reason} for v in verdicts],
        "count": len(verdicts),
        "formula": formula,
    }
    if args.count_only:
        lines = [f"{len(verdicts)}" + (f" (formula: {formula})" if formula is not None else "")]
    else:
        lines = [f"{v.pair.u} ({v.reason})" for v in verdicts]
    ok = formula is None or len(verdicts) == formula
    return EXIT_OK if ok else EXIT_VERIFY_FAIL, results, lines


def _load_matrix(path: str, check_n) -> tuple[SymZMat, str | None]:
    """Load a matrix file: either bare matrix JSON or a full certificate.

    check_n(n) sees the file's n before the matrix is built, which holds all
    n(n-1)/2 entries, and refuses a size by raising _Usage.
    """
    try:
        with open(path) as fh:
            obj = json.load(fh)
        condition = None
        if "matrix" in obj:
            obj, condition = obj["matrix"], obj.get("condition")
        n, entries = parse_matrix_json(obj)
        check_n(n)
        return SymZMat.of_pairs(n, entries), condition
    except (OSError, ValueError, KeyError, TypeError, ArithmeticError, RecursionError) as exc:
        raise _Usage(f"cannot read matrix file {path}: {exc}")


def cmd_certify(args) -> tuple[int, dict, list[str]]:
    n = args.n
    with _reading_input():
        pi = Perm.parse(args.pi) if args.pi else Perm.identity(n)
        u = Word.parse(args.u)
        if pi.n != n or u.n != n:
            raise _Usage(f"pair sizes do not match n={n}")
        pair = HalfLinePair(pi, u)

    verdict = classify(pair)
    if args.verify_only:
        def check_n(size):
            if size != n:
                raise _Usage(f"dimension mismatch: matrix {size} vs pair {n}")

        mat, condition = _load_matrix(args.verify_only, check_n)
        # only a missing or null condition tries both systems
        if condition is not None and condition not in _CONDITIONS:
            raise _Usage(f"unknown condition {_quote(condition)}")
        conditions = _CONDITIONS if condition is None else [condition]
        report = None
        for cond in conditions:
            report = verify_certificate(mat, pair, cond)
            if report.passed:
                break
        results = {**verdict.to_json(), **report.to_json()}
        lines = [
            f"{'pass' if report.passed else 'fail'} ({report.condition} condition)",
            f"margins: perm_min={report.perm_min} cut_min={report.cut_min} target={report.target}",
        ]
        if report.offender:
            lines.append(f"offender: {report.offender}")
        return EXIT_OK if report.passed else EXIT_VERIFY_FAIL, results, lines

    try:
        cert = synthesize(pair)
    except NonEdgeError as exc:
        w = exc.witness.to_json()
        lines = [f"not an edge: {w['word_used']} is over the ridge (k={w['k']})", w["identity"]]
        return EXIT_NON_EDGE, {"non_edge": w}, lines
    except RuntimeError as exc:
        return EXIT_VERIFY_FAIL, {"error": str(exc)}, [f"synthesis failed: {exc}"]
    cert_json = cert.to_json()
    if args.emit:
        try:
            with open(args.emit, "w") as fh:
                fh.write(json.dumps(cert_json, indent=2))
        except OSError as exc:
            raise _Usage(f"cannot write certificate file {args.emit}: {exc}")
    r = cert.report
    results = {**verdict.to_json(), "margins": r.margins_json(), "certificate": cert_json}
    lines = [
        f"pass ({cert.condition} condition)",
        f"margins: perm_min={r.perm_min} cut_min={r.cut_min} target={r.target}",
        f"construction: {' -> '.join(cert.construction)}",
    ]
    if args.emit:
        lines.append(f"certificate written to {args.emit}")
    return EXIT_OK, results, lines


def cmd_check_metric(args) -> tuple[int, dict, list[str]]:
    def check_n(n):
        if args.spreading:
            with _reading_input():
                require_exhaustible(n)
        elif n > metric_bound():
            raise _Usage(
                f"too large: n={n} exceeds the metric bound {metric_bound()} "
                "(set LINEMETRIC_MAX_N to raise it)"
            )

    mat, _ = _load_matrix(args.matrix, check_n)
    if args.scale != "1":
        try:
            eps = parse_rat(args.scale)
        except (ValueError, ZeroDivisionError):
            eps = 0
        if eps <= 0:
            raise _Usage("--scale must be a positive rational")
        mat = mat.scale(1 / eps)
    n = mat.n
    info = analyze_metric(mat)
    results: dict = {"n": n, "line_embeddable": info.embeddable, "separated": info.separated}
    lines = []
    if not info.embeddable:
        lines.append(f"E_{n}: no")
    else:
        lines.append(f"E_{n}: yes")
        if info.separated:
            xs = "(" + ",".join(map(str, info.witness)) + ")"
            lines.append(f"E_{n}^b: yes, pi={info.pi}, x={xs}")
            results["pi"] = str(info.pi)
            results["x"] = list(map(str, info.witness))
        else:
            low = min(range(len(mat.ints)), key=mat.ints.__getitem__)
            k, l = pair_indices(n)[low]
            v = mat.get(k, l)
            lines.append(f"E_{n}^b: no (entry ({k},{l})={v} < 1)")
            results["min_entry"] = {"pair": [k, l], "value": str(v)}
    if args.spreading:
        rep = spreading_check(mat)
        results["spreading_violations"] = len(rep.strong)
        if not rep.strong:
            lines.append("spreading: ok")
        else:
            first = rep.strong[0]
            subset = "{" + ",".join(str(j) for j in sorted(first.subset)) + "}"
            lines.append(
                f"spreading: {len(rep.strong)} violations "
                f"(first: i={first.i} S={subset} sum={first.lhs} < {first.rhs})"
            )
    if args.facet:
        slack = qn_facet_value(mat)
        results["facet_slack"] = str(slack)
        lines.append(f"facet slack: {slack}")
    return EXIT_OK, results, lines


def cmd_crosscheck(args) -> tuple[int, dict, list[str]]:
    n = args.n
    run_oracle = args.oracle or not args.full
    run_full = args.full or not args.oracle
    if run_oracle and n > oracle_bound():
        raise _Usage(f"oracle sweep needs n <= {oracle_bound()} (set LINEMETRIC_MAX_N)")
    results: dict = {}
    lines = []
    ok = True

    if run_oracle:
        total = agree = 0
        disagreements = []
        for pair in (HalfLinePair(pi, u) for pi in perm_classes(n) for u in word_classes(n)):
            total += 1
            if classify(pair).is_edge == oracle_classify(pair).is_edge:
                agree += 1
            else:
                disagreements.append(pair.to_json())
        results["oracle"] = {"pairs": total, "agree": agree, "disagreements": disagreements}
        lines.append(f"pairs: {total} canonical; agree: {agree}/{total}")
        ok = ok and agree == total

    if run_full:
        pi = Perm.identity(n)
        certified = witnessed = edges = nonedges = 0
        for u in word_classes(n):
            pair = HalfLinePair(pi, u)
            if classify(pair).is_edge:
                edges += 1
                cert = synthesize(pair)
                if cert.report.passed:
                    certified += 1
            else:
                nonedges += 1
                if non_edge_witness(pair).holds():
                    witnessed += 1
        results["full"] = {
            "edges": edges,
            "certified": certified,
            "non_edges": nonedges,
            "witnessed": witnessed,
        }
        lines.append(
            f"edges certified: {certified}/{edges}; non-edges witnessed: {witnessed}/{nonedges}"
        )
        ok = ok and certified == edges and witnessed == nonedges

    lines.append("result: " + ("PASS" if ok else "FAIL"))
    return EXIT_OK if ok else EXIT_VERIFY_FAIL, results, lines


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process and shared by every
    main() call; it holds no per-call state, and callers must not change it."""
    parser = _Parser(prog="linemetric", description=__doc__)
    parser.add_argument("--version", action="version", version=f"linemetric {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("edges", help="enumerate unbounded edge words at a vertex")
    p.add_argument("n", type=_positional_n)
    p.add_argument("--at", help="vertex permutation, e.g. 1,3,2 (default identity)")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_edges)

    p = sub.add_parser("certify", help="synthesize or verify an edge certificate")
    p.add_argument("n", type=_positional_n)
    p.add_argument("--pi", help="vertex permutation (default identity)")
    p.add_argument("--u", required=True, help="cut word, e.g. 1001")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--emit", help="write the certificate JSON here")
    mode.add_argument("--verify-only", help="verify the matrix in this JSON file instead")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("check-metric", help="membership and validity checks for a metric")
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.add_argument("--spreading", action="store_true")
    p.add_argument("--facet", action="store_true")
    p.add_argument(
        "--scale",
        default="1",
        help="separation threshold to normalize to 1 before checking (rational, default 1)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check_metric)

    p = sub.add_parser("crosscheck", help="classifier-vs-oracle and synthesis sweeps")
    p.add_argument("n", type=_positional_n)
    p.add_argument("--oracle", action="store_true", help="oracle agreement sweep")
    p.add_argument("--full", action="store_true", help="synthesize-and-verify sweep")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_crosscheck)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.  Safe to call repeatedly in
    one process: the parser is built on the first call and reused."""
    try:
        args = build_parser().parse_args(argv)
        # a malformed LINEMETRIC_MAX_N is a usage error for every command
        with _reading_input():
            bound = exhaustion_bound()
        if "n" in args and not 3 <= args.n <= bound:
            raise _Usage(f"n must be between 3 and {bound}")
        started = time.perf_counter()
        code, results, lines = args.func(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AssertionError, ValueError) as exc:
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_SOFTWARE
    if args.json:
        inputs = {k: v for k, v in vars(args).items() if v is not None}
        del inputs["func"], inputs["json"]
        report = {
            "command": inputs.pop("command"),
            "inputs": inputs,
            "results": results,
            "timing_ms": int((time.perf_counter() - started) * 1000),
            "version": __version__,
        }
        print(json.dumps(report, indent=2))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
