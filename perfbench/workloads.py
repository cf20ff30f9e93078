"""Seeded inputs, closed-loop ops and output checks for each workload.

A workload is a generator of ``Op``s.  The loop in ``worker.py`` times
``op.call()``, runs ``op.check`` on its result (outside the timed part)
and sends back whether the op passed, so the generator can decide the
next request.  The package is driven only through ``cli.main``,
``classify`` and ``oracle_classify``, looked up at call time so that the
tracer's wrappers are used when tracing is on.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    # returns a failure message, or None when the output is correct
    check: Callable[[object], Optional[str]]


class Api:
    """The package's public entry points, plus untraced references for checks."""

    def __init__(self):
        import linemetric
        import linemetric.cli

        self.lm = linemetric
        # bound before any tracing is installed, so checks record no spans
        self.reference_classify = linemetric.classify

    def cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.lm.cli.main(argv)
        return code, out.getvalue()


def _dist(x) -> tuple:
    """Upper triangle of |x_k - x_l|, the line metric of the point x."""
    return tuple(abs(x[k] - x[l]) for k in range(len(x)) for l in range(k + 1, len(x)))


def _json_results(text: str) -> dict:
    return json.loads(text)["results"]


# ---------------------------------------------------------------- certify


def _class_walk(n: int) -> list[tuple]:
    """Every word class of [n] (words starting with 1) in one fixed order.

    The classes are sorted by slope count and walked with a stride coprime
    to their number, so any run of consecutive classes holds each slope
    count in proportion.
    """
    classes = [(1,) + tuple((t >> i) & 1 for i in range(n - 1)) for t in range(2 ** (n - 1) - 1)]
    classes.sort(key=lambda b: (sum(x != y for x, y in zip(b, b[1:])), b))
    m = len(classes)
    step = max(1, int(m * 0.618))
    while math.gcd(step, m) != 1:
        step += 1
    return [classes[i * step % m] for i in range(m)]


def _carried_class(pi, bits) -> tuple:
    """The word class of pi(U): where the package carries the pair (pi, U)
    to the identity vertex, and what its certify cost and oracle memo
    entry depend on."""
    moved = [0] * len(pi)
    for j, b in enumerate(bits):
        moved[pi[j] - 1] = b
    return tuple(moved) if moved[0] else tuple(1 - b for b in moved)


def _class_walk_pairs(rng: random.Random, n: int):
    """Endless seeded (vertex, word) pairs of [n] whose classes follow ``_class_walk``.

    Drawing the classes at random gave run-to-run spreads of 11-13% at
    n=8, where a run holds about 18 pairs, so every run walks the same
    classes.  The seed draws the vertex uniformly and takes U as the
    preimage of the class or of its complement, by a coin.
    """
    for word in itertools.cycle(_class_walk(n)):
        pi = rng.sample(range(1, n + 1), n)
        flip = rng.randrange(2)
        yield pi, [word[v - 1] ^ flip for v in pi]


def _identity_holds(nonedge: dict, pi: list[int], bits: list[int]) -> Optional[str]:
    """Recheck the conic identity M(chi^W) = M(chi^prefix) + M(pi') - M(pi)."""
    word = [int(c) for c in nonedge["word_used"]]
    prefix = [int(c) for c in nonedge["prefix"]]
    pi_prime = [int(v) for v in nonedge["pi_prime"].split(",")]
    if word != bits and word != [1 - b for b in bits]:
        return f"witness word {nonedge['word_used']} is neither U nor its complement"
    lhs = _dist(word)
    rhs = [c + a - b for c, a, b in zip(_dist(prefix), _dist(pi_prime), _dist(pi))]
    if list(lhs) != rhs:
        return "conic identity does not hold"
    return None


def certify_ops(api: Api, rng: random.Random, workdir: Path, sizes: tuple, stats: dict):
    """Per pair: certify --emit F; for an edge, re-verify F, then verify -F.

    The sizes cycle in a fixed order so every run has the same n-mix.
    """
    cert_file = workdir / "cert.json"
    neg_file = workdir / "negated.json"
    streams = [_class_walk_pairs(rng, n) for n in sizes]
    index = 0
    while True:
        n = sizes[index % len(sizes)]
        pi, bits = next(streams[index % len(sizes)])
        index += 1
        pi_text, u_text = ",".join(map(str, pi)), "".join(map(str, bits))
        pair = api.lm.HalfLinePair(api.lm.Perm(pi), api.lm.Word(bits))
        is_edge = api.reference_classify(pair).is_edge
        stats["edge" if is_edge else "non_edge"] += 1
        base = ["certify", str(n), "--pi", pi_text, "--u", u_text, "--json"]

        def check_certify(result, is_edge=is_edge, pi=pi, bits=bits):
            code, text = result
            if code != (0 if is_edge else 3):
                return f"certify {pi} {bits}: exit {code}, classify says edge={is_edge}"
            res = _json_results(text)
            if is_edge:
                if res.get("is_edge") is not True or "certificate" not in res:
                    return f"certify {pi} {bits}: no certificate in the report"
                return None
            return _identity_holds(res["non_edge"], pi, bits)

        ok = yield Op("certify", lambda a=base + ["--emit", str(cert_file)]: api.cli(a), check_certify)
        if not (ok and is_edge):
            continue

        def check_verify(result, want, pi=pi, bits=bits):
            code, text = result
            passed = _json_results(text).get("passed")
            if code != want or passed is not (want == 0):
                return f"verify-only {pi} {bits}: exit {code} passed={passed}, wanted exit {want}"
            return None

        ok = yield Op(
            "verify",
            lambda a=base + ["--verify-only", str(cert_file)]: api.cli(a),
            lambda r: check_verify(r, 0),
        )
        if not ok:
            continue
        cert = json.loads(cert_file.read_text())
        cert["matrix"]["entries"] = [
            [k, l, str(-Fraction(v))] for k, l, v in cert["matrix"]["entries"]
        ]
        neg_file.write_text(json.dumps(cert))
        yield Op(
            "verify-negated",
            lambda a=base + ["--verify-only", str(neg_file)]: api.cli(a),
            lambda r: check_verify(r, 2),
        )


# ----------------------------------------------------------------- oracle


def oracle_ops(api: Api, rng: random.Random, workdir: Path, sizes: tuple, stats: dict):
    """classify(pair) against oracle_classify(pair) over every canonical pair.

    Sizes run in increasing order and the sweep repeats once finished (with
    a warm memo).  After each full size the edge total must equal
    (n!/2)(2^(n-1) - n).  The first pair of a word class costs an LP solve
    (0.5-4 s at n=6) and the rest of its class hits the memo.  The classes
    are first met in ``_class_walk`` order, so every run solves the same
    LPs in the same order.  After each solve come as many memo hits as
    there are pairs per class, drawn at random from the classes solved so
    far, so the hit mix a run sees does not hinge on where its window ends.
    """
    from linemetric.core import perm_classes, word_classes

    sweeps = []
    for n in sizes:
        pairs = [api.lm.HalfLinePair(pi, u) for pi in perm_classes(n) for u in word_classes(n)]
        if len(pairs) != math.factorial(n) // 2 * (2 ** (n - 1) - 1):
            raise RuntimeError(f"canonical pair count at n={n} is {len(pairs)}")
        rng.shuffle(pairs)
        by_class = {}
        for pair in pairs:
            by_class.setdefault(_carried_class(pair.pi.images, pair.u.bits), []).append(pair)
        order, solved = [], []
        gap = len(pairs) // len(by_class) - 1
        for c in _class_walk(n):
            order.append(by_class[c][0])
            solved.extend(by_class[c][1:])
            rng.shuffle(solved)
            order.extend(solved[-gap:])
            del solved[-gap:]
        sweeps.append((n, order + solved))
    while True:
        for n, pairs in sweeps:
            edges = 0
            want = math.factorial(n) // 2 * (2 ** (n - 1) - n)
            for i, pair in enumerate(pairs):

                def call(pair=pair):
                    return api.lm.classify(pair).is_edge, api.lm.oracle_classify(pair).is_edge

                def check(result, pair=pair, last=i == len(pairs) - 1):
                    nonlocal edges
                    mine, oracle = result
                    edges += mine
                    stats["edge" if mine else "non_edge"] += 1
                    if mine != oracle:
                        return f"classify={mine} but oracle={oracle} at {pair.to_json()}"
                    if last and edges != want:
                        return f"n={n}: {edges} edges, formula gives {want}"
                    return None

                yield Op(f"oracle-n{n}", call, check)


# ----------------------------------------------------------------- metric

METRIC_KINDS = ("separated", "embedded", "cut", "perturbed")


def _metric(rng: random.Random, n: int, kind: str) -> tuple[list, Optional[list]]:
    """(upper-triangle entries, embedding or None) of a metric of the given kind.

    separated: a line metric with every gap >= 1; embedded: a line metric
    with a gap below 1; cut: a cut semimetric; perturbed: a separated metric
    with one entry moved by 1/3, which no point of the line realises, since
    every other entry stays in (1/2)Z.
    """
    if kind == "cut":
        bits = [0] * n
        while sum(bits) in (0, n):  # a uniformly random proper word
            bits = [rng.randrange(2) for _ in range(n)]
        return list(_dist(bits)), bits
    steps = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
    if kind == "embedded":
        steps = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    gaps = [rng.choice(steps) for _ in range(n - 1)]
    if kind == "embedded":
        gaps[rng.randrange(n - 1)] = rng.choice(steps[:2])
    line = [sum(gaps[:i], Fraction(0)) for i in range(n)]
    order = rng.sample(range(n), n)
    x = [line[order[j]] for j in range(n)]
    entries = list(_dist(x))
    if kind == "perturbed":
        entries[rng.randrange(len(entries))] += Fraction(1, 3)
        return entries, None
    return entries, x


def _check_metric(result, n: int, kind: str, entries: list) -> Optional[str]:
    code, text = result
    if code != 0:
        return f"check-metric {kind} n={n}: exit {code}"
    res = _json_results(text)
    embeddable = kind != "perturbed"
    separated = kind == "separated"
    if res["line_embeddable"] is not embeddable or res["separated"] is not separated:
        return (
            f"check-metric {kind} n={n}: embeddable={res['line_embeddable']} "
            f"separated={res['separated']}"
        )
    slack = 2 * sum(entries) - 2 * math.comb(n + 1, 3)
    if Fraction(res["facet_slack"]) != slack:
        return f"check-metric {kind} n={n}: facet slack {res['facet_slack']}, expected {slack}"
    if separated:
        x = [Fraction(v) for v in res["x"]]
        ranks = sorted(range(n), key=lambda j: x[j])
        images = [0] * n
        for rank, j in enumerate(ranks, start=1):
            images[j] = rank
        if list(_dist(x)) != entries or ",".join(map(str, images)) != res["pi"]:
            return f"check-metric {kind} n={n}: witness x or pi does not realise the metric"
        if res["spreading_violations"] != 0:
            return f"check-metric {kind} n={n}: separated metric violates spreading"
    elif kind == "cut" and res["spreading_violations"] == 0:
        return f"check-metric cut n={n}: no spreading violation reported"
    elif kind == "embedded" and Fraction(res["min_entry"]["value"]) >= 1:
        return f"check-metric embedded n={n}: min entry {res['min_entry']} is not below 1"
    return None


def metric_ops(api: Api, rng: random.Random, workdir: Path, sizes: tuple, stats: dict):
    """check-metric --spreading --facet on seeded metric files.

    Files are written up front, in blocks holding every (n, kind) once in a
    seeded order, so every run has the same size and kind mix.
    """
    pool = []
    for block in range(4):
        combos = [(n, kind) for n in sizes for kind in METRIC_KINDS]
        rng.shuffle(combos)
        for n, kind in combos:
            entries, _ = _metric(rng, n, kind)
            path = workdir / f"metric-{len(pool)}.json"
            triples = [
                [k, l, str(v)]
                for (k, l), v in zip(
                    ((k, l) for k in range(1, n + 1) for l in range(k + 1, n + 1)), entries
                )
                if v != 0
            ]
            path.write_text(json.dumps({"n": n, "entries": triples}))
            pool.append((n, kind, entries, path))
    while True:
        for n, kind, entries, path in pool:
            stats[kind] += 1
            argv = ["check-metric", "--matrix", str(path), "--spreading", "--facet", "--json"]
            yield Op(
                f"metric-{kind}",
                lambda a=argv: api.cli(a),
                lambda r, n=n, kind=kind, entries=entries: _check_metric(r, n, kind, entries),
            )


# name -> (op generator, input sizes, tiny input sizes for smoke tests)
WORKLOADS = {
    "certify-large": (certify_ops, (8,), (6,)),
    "certify-small": (certify_ops, (4, 5, 6), (4, 5)),
    "oracle-sweep": (oracle_ops, (5, 6), (4,)),
    "metric-check": (metric_ops, (8, 9, 10, 11), (5, 6)),
}
