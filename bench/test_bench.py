"""Self-test of the benchmark: tiny sizes, run with

    python -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import repeat
import run
import tracing
import workloads

BENCHMARK_JSON = workloads.ROOT / "BENCHMARK.json"


def _bench(*args, cwd=workloads.ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    spec = json.loads(BENCHMARK_JSON.read_text())
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    result = _result(_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                            "--trace", trace, "--smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        if trace == "0":
            assert metric["value"] > 0, name


def test_benchmark_json_matches_the_harness():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER


def _nan_value(lines):
    cells = lines[-1].split(",")
    cells[4] = "nan"  # dist_wtilde_sq of the final round
    lines[-1] = ",".join(cells)
    return lines


def _truncated(lines):
    return lines[:-1]


@pytest.mark.parametrize("corrupt", [_nan_value, _truncated], ids=["nan", "truncated"])
def test_corrupted_trace_drives_failed_frac_above_zero(corrupt, tmp_path, monkeypatch, capsys):
    write = repeat.diagnostics.write_trace_csv

    def write_corrupted(path, rows):
        write(path, rows)
        path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n")

    monkeypatch.setattr(repeat.diagnostics, "write_trace_csv", write_corrupted)
    bad = repeat.run("ridge-n100", "smoke", 5, "untraced", tmp_path / "bad")
    monkeypatch.undo()
    assert not bad["ok"] and not bad["checks"]["reference"]

    real_repeat = run.run_repeat
    calls = []

    def one_bad_repeat(name, size, seed, mode, out, timeout):
        calls.append(out)
        if len(calls) == 2:
            return dict(bad, mode=mode, out=out)
        return real_repeat(name, size, seed, mode, out, timeout)

    monkeypatch.setattr(run, "run_repeat", one_bad_repeat)
    assert run.main(["--workload", "ridge-n100", "--seed", "5", "--seconds", "1",
                     "--trace", "0", "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["failed"] == 1 and not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(workloads.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "ridge-n100", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
