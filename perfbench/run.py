"""linemetric benchmark: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload certify-large --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each measured run is a fresh interpreter (``worker.py``), so
the oracle's memo starts cold, as it does for every CLI call.

--trace 0  prints the end-to-end metrics: the bounded ones on the worker's
           CPU clock, and beside them the same figures on the wall clock.
           The worker is also started set-up-only four times; ``setup_s``
           is the median of the five set-up times.
--trace 1  prints the per-layer metrics.  An untraced and a traced worker
           each measure half the window with the same seed; the traced one
           wraps the package's public functions (``spans.py``) and writes
           its spans to ``.perfbench/``.

Every result is stamped with the interpreter, gmpy2 availability, nproc,
commit and seed.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170
# printed beside the bounded CPU-clock metrics; see perfbench/WORKLOADS.md
WALL_METRICS = (("throughput_ops_s", "ops/s"), ("latency_p50_ms", "ms"), ("latency_tail_ms", "ms"))
# either one changes which requests the package accepts
REFUSED_ENV = ("LINEMETRIC_MAX_N", "LINEMETRIC_SKIP_N6")


def stamp(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "linemetric").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def worker(args, seconds: float, trace: bool = False, setup_only: bool = False, spans=None) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    if spans:
        cmd += ["--spans", str(spans)]
    launched = time.monotonic()
    proc = subprocess.run(
        cmd + ["--launched", repr(launched)],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description="linemetric benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="smallest input sizes, for smoke tests")
    args = p.parse_args()

    refused = [name for name in REFUSED_ENV if name in os.environ]
    if refused:
        print(f"perfbench: refusing to run with {', '.join(refused)} set", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "linemetric" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; have {names}", file=sys.stderr)
        return 64
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"stamp": stamp(args)}

    if args.trace:
        half = args.seconds / 2
        plain = worker(args, half)
        traced = worker(args, half, trace=True, spans=OUT / f"spans-{tag}.jsonl.gz")
        layers = dict(traced["layers"])
        layers["trace.overhead_ratio"] = (
            traced["throughput_cpu_ops_s"] / plain["throughput_cpu_ops_s"]
        )
        run = dict(traced)
        for key in ("attempted", "failed", "failures"):
            run[key] = plain[key] + traced[key]
        wanted = spec["per_layer"]
        values = layers
        report.update(untraced=plain, traced=traced)
    else:
        setups = [worker(args, 0, setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        run = worker(args, args.seconds)
        setups.append(run["setup_s"])
        values = dict(run, setup_s=statistics.median(setups))
        wanted = spec["end_to_end"]
        report.update(run=run, setup_samples=setups)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed_ratio = run["failed"] / run["attempted"]
    report["metrics"] = metrics
    report["failed_ratio"] = failed_ratio
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=2))

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ratio':44s} {failed_ratio:.6g} 1 ({run['failed']}/{run['attempted']})")
    if not args.trace:
        print("  wall clock, not bounded:")
        for name, unit in WALL_METRICS:
            print(f"  {name:44s} {run[name]:.6g} {unit}")
        print(f"  the tails are p{run['latency_tail_percentile']:.2f} "
              f"of {run['latency_samples']} samples")
    print(f"  wall_s {run['wall_s']:.3f}  cpu_s {run['cpu_s']:.3f}  shares {run['shares']}")
    for message in run["failures"]:
        print(f"  FAILED: {message}")
    print("stamp " + json.dumps(report["stamp"]))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
