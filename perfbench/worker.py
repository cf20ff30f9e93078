"""One measured run of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object on its last stdout line.
Set-up (importing the package, generating the seeded inputs, writing
input files) is timed from ``--launched``, the parent's monotonic clock
reading just before it started this process.  Then a single caller issues
ops in a closed loop for ``--seconds`` seconds.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it.

    That is the 11th-largest sample; with fewer than 11 samples the largest.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - 11, 0)
    return ordered[k], 100.0 * (k + 1) / n


def closed_loop(ops, op, seconds: float, tracer=None) -> dict:
    """Issue ``op``, then the ops ``ops`` yields, until ``seconds`` have passed.

    Wall-clock throughput counts the ops that completed inside the window
    plus the share of the op in flight at the deadline that fell inside
    it; that op is still finished, checked and counted as attempted.  CPU
    throughput divides every attempted op by the loop's CPU time.  Each
    op's CPU time is kept beside its wall time, so time the scheduler gave
    to other processes shows as the gap between the two.
    """
    wall, cpu, failures = [], [], []
    attempted = failed = 0
    done = 0.0
    cpu0 = time.process_time()
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        attempted += 1
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = tracer.run_op(attempted, op.call) if tracer else op.call()
            error = None
        except Exception as exc:  # a raising op is a failed op, not a stopped run
            result, error = None, f"{op.kind}: raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        c1 = time.process_time()
        wall.append(t1 - t0)
        cpu.append(c1 - c0)
        done += 1.0 if t1 <= deadline else (deadline - t0) / (t1 - t0)
        if error is None:
            error = op.check(result)
        if error is not None:
            failed += 1
            if len(failures) < 20:
                failures.append(error)
        op = ops.send(error is None)
    tail, tail_pct = tail_latency(wall)
    cpu_tail, _ = tail_latency(cpu)
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "throughput_ops_s": done / seconds,
        "throughput_cpu_ops_s": attempted / (time.process_time() - cpu0),
        "latency_p50_ms": 1000 * statistics.median(wall),
        "latency_tail_ms": 1000 * tail,
        "latency_tail_percentile": tail_pct,
        "latency_samples": len(wall),
        "latency_p50_cpu_ms": 1000 * statistics.median(cpu),
        "latency_tail_cpu_ms": 1000 * cpu_tail,
        "wall_s": time.perf_counter() - start,
        "cpu_s": time.process_time() - cpu0,
        "start": start,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
        launched: float, setup_only: bool = False, spans_path=None) -> dict:
    from workloads import WORKLOADS, Api

    generator, sizes, tiny_sizes = WORKLOADS[workload]
    api = Api()
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        stats = collections.Counter()
        ops = generator(api, random.Random(f"{workload}/{seed}"), workdir,
                        tiny_sizes if tiny else sizes, stats)
        first = next(ops)
        setup_s = time.monotonic() - launched
        out = {"setup_s": setup_s}
        if setup_only:
            return out

        tracer = None
        if trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            out.update(closed_loop(ops, first, seconds, tracer))
        finally:
            if tracer:
                tracer.uninstall()
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        total = sum(stats.values())
        out["shares"] = {k: v / total for k, v in sorted(stats.items())}
        out["sizes"] = list(tiny_sizes if tiny else sizes)
        if tracer:
            out["layers"] = tracer.layer_metrics()
            out["spans_kept"] = len(tracer.spans)
            out["spans_dropped"] = tracer.dropped
            if spans_path:
                tracer.write_spans(spans_path, out["start"])
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--launched", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--spans")
    a = p.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    out = run(a.workload, a.seed, a.seconds, bool(a.trace), a.tiny, a.launched,
              a.setup_only, a.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
