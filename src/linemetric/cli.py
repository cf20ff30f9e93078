"""Command-line surface: enumeration, certification, membership, cross-checks.

Exit codes are stable: 0 success, 2 verification failure, 3 synthesis
requested for a non-edge pair, 64 usage error.  All numeric output is
exact rational text; JSON mode wraps results in a run report with the
command echo and library version.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .core import Perm, SymZMat, Word, format_rat
from .edge_theory import (
    HalfLinePair,
    classify,
    enumerate_edges_at,
    exhaustion_bound,
    non_edge_witness,
    verify_for_pair,
)
from .certificates import NonEdgeError, synthesize
from .line_metrics import analyze_metric, qn_facet_value, spreading_check
from .oracle import oracle_bound, oracle_classify

EXIT_OK = 0
EXIT_VERIFY_FAIL = 2
EXIT_NON_EDGE = 3
EXIT_USAGE = 64


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def _report(args: argparse.Namespace, results, started: float) -> dict:
    inputs = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    inputs.pop("json", None)
    return {
        "command": inputs.pop("command"),
        "inputs": inputs,
        "results": results,
        "timing_ms": int((time.perf_counter() - started) * 1000),
        "version": __version__,
    }


def _emit(args, results, started: float, lines):
    if args.json:
        print(json.dumps(_report(args, results, started), indent=2))
    else:
        for line in lines:
            print(line)


def cmd_edges(args) -> int:
    started = time.perf_counter()
    n = args.n
    if not 3 <= n <= exhaustion_bound():
        raise _Usage(f"n must be between 3 and {exhaustion_bound()}")
    pi = Perm.parse(args.at) if args.at else Perm.identity(n)
    if pi.n != n:
        raise _Usage(f"permutation {args.at} does not have length {n}")
    edges = enumerate_edges_at(pi)
    verdicts = [classify(HalfLinePair(pi, u)) for u in edges]
    formula = 2 ** (n - 1) - n if n >= 4 else None
    results = {
        "at": str(pi),
        "edges": [{"u": str(u), "reason": v.reason} for u, v in zip(edges, verdicts)],
        "count": len(edges),
        "formula": formula,
    }
    if args.count_only:
        line = f"{len(edges)} (formula: {formula})" if formula is not None else f"{len(edges)}"
        lines = [line]
    else:
        lines = [f"{u} ({v.reason})" for u, v in zip(edges, verdicts)]
    _emit(args, results, started, lines)
    if formula is not None and len(edges) != formula:
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def _load_matrix(path: str) -> tuple[SymZMat, str | None]:
    """Load a matrix file: either bare matrix JSON or a full certificate."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
        if "matrix" in obj:
            return SymZMat.from_json(obj["matrix"]), obj.get("condition")
        return SymZMat.from_json(obj), None
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise _Usage(f"cannot read matrix file {path}: {exc}")


def cmd_certify(args) -> int:
    started = time.perf_counter()
    n = args.n
    pi = Perm.parse(args.pi) if args.pi else Perm.identity(n)
    u = Word.parse(args.u)
    if pi.n != n or u.n != n:
        raise _Usage(f"pair sizes do not match n={n}")
    pair = HalfLinePair(pi, u)

    verdict = classify(pair)
    if args.verify_only:
        mat, condition = _load_matrix(args.verify_only)
        conditions = [condition] if condition else ["farkas", "plain"]
        report = None
        for cond in conditions:
            report = verify_for_pair(mat, pair, cond)
            if report.passed:
                break
        results = {**verdict.to_json(), **report.to_json()}
        lines = [
            f"{'pass' if report.passed else 'fail'} ({report.condition} condition)",
            f"margins: perm_min={format_rat(report.perm_min)} "
            f"cut_min={format_rat(report.cut_min)} target={format_rat(report.target)}",
        ]
        if report.offender:
            lines.append(f"offender: {report.offender}")
        _emit(args, results, started, lines)
        return EXIT_OK if report.passed else EXIT_VERIFY_FAIL

    try:
        cert = synthesize(pair)
    except NonEdgeError as exc:
        w = exc.witness
        results = {"non_edge": w.to_json()}
        _emit(
            args,
            results,
            started,
            [
                f"not an edge: {w.word_used} is over the ridge (k={w.k})",
                w.to_json()["identity"],
            ],
        )
        return EXIT_NON_EDGE
    except RuntimeError as exc:
        _emit(args, {"error": str(exc)}, started, [f"synthesis failed: {exc}"])
        return EXIT_VERIFY_FAIL
    if args.emit:
        with open(args.emit, "w") as fh:
            json.dump(cert.to_json(), fh, indent=2)
    r = cert.report
    results = {**verdict.to_json(), "margins": r.margins_json(), "certificate": cert.to_json()}
    lines = [
        f"pass ({cert.condition} condition)",
        f"margins: perm_min={format_rat(r.perm_min)} "
        f"cut_min={format_rat(r.cut_min)} target={format_rat(r.target)}",
        f"construction: {' -> '.join(cert.construction)}",
    ]
    if args.emit:
        lines.append(f"certificate written to {args.emit}")
    _emit(args, results, started, lines)
    return EXIT_OK


def cmd_check_metric(args) -> int:
    started = time.perf_counter()
    try:
        with open(args.matrix) as fh:
            mat = SymZMat.from_json(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise _Usage(f"cannot read matrix file {args.matrix}: {exc}")
    if args.scale != "1":
        eps = Fraction(args.scale)
        if eps <= 0:
            raise _Usage("--scale must be a positive rational")
        mat = mat.scale(Fraction(1) / eps)
    n = mat.n
    info = analyze_metric(mat)
    results: dict = {"n": n, "line_embeddable": info.embeddable, "separated": info.separated}
    lines = []
    if not info.embeddable:
        lines.append(f"E_{n}: no")
    else:
        lines.append(f"E_{n}: yes")
        if info.separated:
            xs = "(" + ",".join(format_rat(v) for v in info.witness) + ")"
            lines.append(f"E_{n}^b: yes, pi={info.pi}, x={xs}")
            results["pi"] = str(info.pi)
            results["x"] = [format_rat(v) for v in info.witness]
        else:
            k, l = min(
                ((k, l) for k in range(1, n + 1) for l in range(k + 1, n + 1)),
                key=lambda p: mat.get(*p),
            )
            v = mat.get(k, l)
            lines.append(f"E_{n}^b: no (entry ({k},{l})={format_rat(v)} < 1)")
            results["min_entry"] = {"pair": [k, l], "value": format_rat(v)}
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
                f"(first: i={first.i} S={subset} sum={format_rat(first.lhs)} < {format_rat(first.rhs)})"
            )
    if args.facet:
        slack = qn_facet_value(mat)
        results["facet_slack"] = format_rat(slack)
        lines.append(f"facet slack: {format_rat(slack)}")
    _emit(args, results, started, lines)
    return EXIT_OK


def _canonical_pairs(n: int):
    from .core import perm_classes, word_classes

    for pi in perm_classes(n):
        for u in word_classes(n):
            yield HalfLinePair(pi, u)


def cmd_crosscheck(args) -> int:
    started = time.perf_counter()
    n = args.n
    run_oracle = args.oracle or not args.full
    run_full = args.full or not args.oracle
    if not 3 <= n <= exhaustion_bound():
        raise _Usage(f"n must be between 3 and {exhaustion_bound()}")
    if run_oracle and n > oracle_bound():
        raise _Usage(f"oracle sweep needs n <= {oracle_bound()} (set LINEMETRIC_MAX_N)")
    results: dict = {}
    lines = []
    ok = True

    if run_oracle:
        total = agree = 0
        disagreements = []
        for pair in _canonical_pairs(n):
            total += 1
            if classify(pair).is_edge == oracle_classify(pair).is_edge:
                agree += 1
            else:
                disagreements.append(pair.to_json())
        results["oracle"] = {"pairs": total, "agree": agree, "disagreements": disagreements}
        lines.append(f"pairs: {total} canonical; agree: {agree}/{total}")
        ok = ok and agree == total

    if run_full:
        from .core import word_classes

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
    _emit(args, results, started, lines)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def build_parser() -> _Parser:
    parser = _Parser(prog="linemetric", description=__doc__)
    parser.add_argument("--version", action="version", version=f"linemetric {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("edges", help="enumerate unbounded edge words at a vertex")
    p.add_argument("n", type=int)
    p.add_argument("--at", help="vertex permutation, e.g. 1,3,2 (default identity)")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_edges)

    p = sub.add_parser("certify", help="synthesize or verify an edge certificate")
    p.add_argument("n", type=int)
    p.add_argument("--pi", help="vertex permutation (default identity)")
    p.add_argument("--u", required=True, help="cut word, e.g. 1001")
    p.add_argument("--emit", help="write the certificate JSON here")
    p.add_argument("--verify-only", help="verify the matrix in this JSON file instead")
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
    p.add_argument("n", type=int)
    p.add_argument("--oracle", action="store_true", help="oracle agreement sweep")
    p.add_argument("--full", action="store_true", help="synthesize-and-verify sweep")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_crosscheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
