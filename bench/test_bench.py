"""Smoke test of the benchmark on one-second runs, each a single cycle of
its workload.  It is not part of tier-1
(pytest's testpaths is tests/); run it with

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py")]
    cmd += [str(a) for a in args]
    return subprocess.run(
        cmd, capture_output=True, text=True, timeout=170, cwd=cwd
    )


def tiny(workload, trace=0, seed=3, cwd=ROOT):
    """A one-second run: a single cycle of the workload."""
    return bench(
        "--workload", workload, "--seed", seed, "--seconds", 1,
        "--trace", trace, cwd=cwd,
    )


def copy_bench(tmp_path, sources=True):
    """The benchmark, with limitlab's sources or without, in tmp_path."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    if sources:
        shutil.copytree(
            ROOT / "src", tmp_path / "src",
            ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
        )
    return tmp_path


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def printed(proc):
    """{name: (value, unit)} of the metric lines printed before the result."""
    out = {}
    for line in proc.stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) == 3:
            try:
                out[parts[0]] = (float(parts[1]), parts[2])
            except ValueError:
                pass
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_named_with_units(workload):
    proc = tiny(workload)
    result = result_of(proc)
    lines = printed(proc)
    for metric in SPEC["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert lines[name][1] == unit
    assert lines["fail_share"] == (0.0, "ratio")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 10


def test_wrong_expectation_counts_as_failure(tmp_path):
    root = copy_bench(tmp_path)
    path = root / "bench" / "config" / "age.expect.json"
    expect = json.loads(path.read_text())
    expect["classify/omega_pair"]["level"] = "Antichain"
    path.write_text(json.dumps(expect))
    proc = tiny("age", cwd=root)
    result = result_of(proc)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert printed(proc)["fail_share"][0] > 0
    assert result["metrics"]["pass_share"]["value"] < 1


def test_same_seed_same_digest():
    digests = []
    for _ in range(2):
        proc = tiny("matrix", seed=5)
        result_of(proc)
        digests += [l for l in proc.stdout.splitlines() if l.startswith("digest ")]
    assert len(digests) == 2 and digests[0] == digests[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    proc = tiny(workload, trace=1)
    result = result_of(proc)
    names = [m["name"] for m in SPEC["per_layer"]]
    assert list(result["metrics"]) == names
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in names:
        assert result["metrics"][name]["unit"] == units[name]
    # the traced cycle failed nothing, and the doubling-round stage formula
    # matched the traced stream-stage counts
    assert result["correct"], proc.stderr
    assert result["metrics"]["trace.overhead_s"]["value"] != 0
    assert any(l.startswith("prediction ") for l in proc.stdout.splitlines())


def test_without_sources_exits_nonzero_without_result(tmp_path):
    proc = tiny("matrix", cwd=copy_bench(tmp_path, sources=False))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
