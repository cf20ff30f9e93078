"""Spans recorded from outside the package, around its public functions.

Each traced function is replaced, in every ``linemetric`` module that
holds a reference to it, by a wrapper that records one span per call.
Calls inside the defining module go through the same module global, so
they are caught as well.  Nothing inside the package is edited; the
wrappers are removed again by ``Tracer.uninstall``.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict


def rebind(original, replacement) -> list:
    """Point every ``linemetric`` module attribute that is ``original`` at
    ``replacement``.  Returns the (module, name) bindings changed."""
    changed = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "linemetric" or modname.startswith("linemetric.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed.append((module, attr))
    return changed


def _verify_attrs(args, kwargs, result, before):
    return {"n": args[0].n, "passed": bool(result.passed)}


def _oracle_probe(args, kwargs):
    # An LP solve is a call that grew the oracle's memo; the memo is only read.
    return len(sys.modules["linemetric.oracle"]._cache)


def _oracle_attrs(args, kwargs, result, before):
    return {"miss": _oracle_probe(args, kwargs) > before}


def _spreading_attrs(args, kwargs, result, before):
    return {"violations": len(result.strong) + len(result.weak)}


# (defining module, function, span name, probe before the call, attributes after it)
TARGETS = (
    ("linemetric.edge_theory", "verify_certificate", "edge_theory.verify", None, _verify_attrs),
    ("linemetric.edge_theory", "classify", "edge_theory.classify", None, None),
    ("linemetric.edge_theory", "non_edge_witness", "edge_theory.non_edge_witness", None, None),
    ("linemetric.certificates", "synthesize", "certificates.synthesize", None, None),
    ("linemetric.certificates", "lift", "certificates.lift", None, None),
    ("linemetric.certificates", "induct_alternating", "certificates.induct_alternating", None, None),
    ("linemetric.core", "conjugate", "core.conjugate", None, None),
    ("linemetric.cli", "main", "cli.main", None, None),
    ("linemetric.oracle", "oracle_classify", "oracle.oracle_classify", _oracle_probe, _oracle_attrs),
    ("linemetric.line_metrics", "spreading_check", "line_metrics.spreading_check", None, _spreading_attrs),
    ("linemetric.line_metrics", "analyze_metric", "line_metrics.analyze_metric", None, None),
    ("linemetric.line_metrics", "recover_embedding", "line_metrics.recover_embedding", None, None),
    ("linemetric.line_metrics", "qn_facet_value", "line_metrics.qn_facet_value", None, None),
)

OP_SPAN = "bench.op"
# spans kept for the spans file; aggregates cover every span regardless
MAX_KEPT_SPANS = 200_000


class Tracer:
    """Span recorder.  Every span updates the per-layer aggregates; the first
    ``MAX_KEPT_SPANS`` are also kept as (id, name, start, end, parent, op id,
    attrs) for the spans file."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op_id = 0
        self._stack: list[list] = []  # [span id, time covered by child spans]
        self._next_id = 1
        self._undo: list[tuple] = []
        self._calls = defaultdict(int)
        self._self_s = defaultdict(float)
        self._counts = defaultdict(float)

    def _record(self, name, fn, args, kwargs, probe=None, annotate=None):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        before = probe(args, kwargs) if probe else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
        dur = end - start
        if parent is not None:
            parent[1] += dur
        attrs = annotate(args, kwargs, result, before) if annotate else None
        self._aggregate(name, dur, dur - frame[1], attrs)
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((sid, name, start, end, parent[0] if parent else 0, self.op_id, attrs))
        else:
            self.dropped += 1
        return result

    def _aggregate(self, name, dur, own, attrs):
        self._calls[name] += 1
        self._self_s[name] += own
        if name == "edge_theory.verify":
            self._self_s[f"edge_theory.verify.n{attrs['n']}"] += own
            self._counts["verify_passed"] += attrs["passed"]
        elif name == "oracle.oracle_classify":
            side = "miss" if attrs["miss"] else "hit"
            self._counts[side] += 1
            self._counts[f"{side}_s"] += dur
        elif name == "line_metrics.spreading_check":
            self._counts["violations"] += attrs["violations"]

    def run_op(self, op_id: int, call):
        self.op_id = op_id
        return self._record(OP_SPAN, call, (), {})

    def install(self):
        for modname, fname, span, probe, annotate in TARGETS:
            original = getattr(sys.modules[modname], fname)

            @functools.wraps(original)
            def wrapper(*args, _fn=original, _span=span, _probe=probe, _ann=annotate, **kwargs):
                return self._record(_span, _fn, args, kwargs, _probe, _ann)

            self._undo.extend((m, a, original) for m, a in rebind(original, wrapper))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def layer_metrics(self) -> dict:
        """Per-layer counts, self times and ratios; see BENCHMARK.json."""

        def ratio(num, den):
            return num / den if den else 0.0

        calls, self_s, counts = self._calls, self._self_s, self._counts
        out = {}
        for _, _, span, _, _ in TARGETS:
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.self_s"] = self_s[span]
        for n in (4, 5, 6, 7, 8):
            out[f"edge_theory.verify.n{n}.self_s"] = self_s[f"edge_theory.verify.n{n}"]
        out["edge_theory.verify.pass_ratio"] = ratio(
            counts["verify_passed"], calls["edge_theory.verify"]
        )
        out["oracle.lp_solves"] = int(counts["miss"])
        out["oracle.cache_hit_ratio"] = ratio(counts["hit"], calls["oracle.oracle_classify"])
        out["oracle.miss.total_s"] = counts["miss_s"]
        out["oracle.hit.total_s"] = counts["hit_s"]
        out["line_metrics.spreading_check.violations"] = int(counts["violations"])
        out[f"{OP_SPAN}.calls"] = calls[OP_SPAN]
        out[f"{OP_SPAN}.self_s"] = self_s[OP_SPAN]
        return out

    def write_spans(self, path, origin: float):
        """One JSON object per kept span, times in seconds since ``origin``."""
        with gzip.open(path, "wt") as fh:
            for sid, name, start, end, parent, op, attrs in self.spans:
                row = {
                    "id": sid,
                    "name": name,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                    "parent": parent,
                    "op": op,
                }
                if attrs:
                    row.update(attrs)
                fh.write(json.dumps(row) + "\n")
