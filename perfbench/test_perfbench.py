"""Smoke tests for the benchmark itself.

    python3 -m pytest perfbench

Every workload runs at its tiny sizes with a fixed seed and must print
every metric BENCHMARK.json names; a planted wrong verdict must show up
as a failed op.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
import worker  # noqa: E402


def bench(*args, cwd=ROOT, env=None):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, env=env, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _flip_first(original, field):
    """A stub of ``original`` that negates ``field`` of its first answer."""
    first = []

    def stub(arg, *rest, **kw):
        verdict = original(arg, *rest, **kw)
        if not first:
            first.append(arg)
        if arg == first[0]:
            return dataclasses.replace(verdict, **{field: not getattr(verdict, field)})
        return verdict

    return stub


@pytest.mark.parametrize(
    "workload, module, function, field",
    [
        ("certify-small", "edge_theory", "classify", "is_edge"),
        ("certify-large", "edge_theory", "classify", "is_edge"),
        ("oracle-sweep", "edge_theory", "classify", "is_edge"),
        ("metric-check", "line_metrics", "analyze_metric", "separated"),
    ],
)
def test_planted_wrong_verdict_counts_as_failed(workload, module, function, field):
    import linemetric

    original = getattr(getattr(linemetric, module), function)
    changed = spans.rebind(original, _flip_first(original, field))
    try:
        out = worker.run(workload, seed=7, seconds=1, trace=False, tiny=True,
                         launched=time.monotonic())
    finally:
        for mod, attr in changed:
            setattr(mod, attr, original)
    assert out["failed"] >= 1, out
    assert out["failed"] < out["attempted"]


def test_tracer_restores_the_package():
    import linemetric
    import linemetric.cli

    before = (linemetric.classify, linemetric.cli.main, linemetric.cli.synthesize)
    tracer = spans.Tracer()
    tracer.install()
    assert linemetric.cli.main is not before[1]
    tracer.uninstall()
    assert (linemetric.classify, linemetric.cli.main, linemetric.cli.synthesize) == before


def test_tail_latency_leaves_ten_samples_beyond():
    value, pct = worker.tail_latency([float(v) for v in range(100)])
    assert value == 89.0 and pct == 90.0


@pytest.mark.parametrize("name", ["LINEMETRIC_MAX_N", "LINEMETRIC_SKIP_N6"])
def test_refuses_env_that_changes_accepted_requests(name):
    env = dict(os.environ, **{name: "5"})
    proc = bench("--workload", "certify-small", "--seed", "1", "--seconds", "1",
                 "--trace", "0", "--tiny", env=env)
    assert proc.returncode != 0 and proc.stdout == ""


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "certify-small", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
