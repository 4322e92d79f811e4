"""Smoke test of the benchmark at tiny sizes (about half a minute).

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_last_line_holds_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
    if trace:
        # Span self times plus the gaps between operations account for the
        # traced wall time.
        assert abs(result["metrics"]["trace.unaccounted_s"]["value"]) < 1e-3
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_one_command_prints_every_operation_figure():
    proc = _bench("--workload", "all", "--seed", "2", "--seconds", "1",
                  "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    names = [name for ops in workloads.OP_METRICS.values() for _, name, _ in ops]
    names += ["codes_s", "setup_s", "peak_rss_mib", "failed_frac"]
    printed = {line.split()[0] for line in proc.stdout.splitlines()[:-1] if line.strip()}
    assert set(names) <= printed
    results = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(results) == sorted(workloads.WORKLOADS)


def _flip_fqz_byte(directory):
    path = os.path.join(directory, "w-b64.fqz")
    with open(path, "r+b") as fh:
        fh.seek(os.path.getsize(path) // 2)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte[0] ^ 0xFF]))


def test_corrupted_output_counts_as_failed():
    rec = run.run_workload("tensor", 1, 0, 0, size="tiny", tamper=_flip_fqz_byte)
    assert rec["result"]["failed"] >= 1
    assert not rec["result"]["correct"]
    assert rec["op_metrics"]["failed_frac"]["median"] > 0
    assert any(f["op"] == "quantize_b64" for f in rec["failures"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "codes", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
