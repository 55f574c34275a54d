"""Smoke test of the benchmark at a tiny input size.

Not part of the tier-1 suite (pytest collects only tests/ by default).
Run it from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_name_and_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seconds", "0.5",
         "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _units("per_layer" if trace else "end_to_end")
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_divergence_is_counted_not_fatal():
    import run
    import workloads as wl

    base = wl.WORKLOADS["audio_ar2"]

    def oversized_mu(seed):
        cfg = base.config(seed)
        return replace(cfg, adapt=replace(cfg.adapt, mu=1e9))

    diverging = replace(base, config=oversized_mu)
    result, details = run.measure(diverging, seed=105, seconds=0.2, trace=False, tiny=True)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    assert details["ungated"]["failed_frac"]["value"] == 1.0
    assert all(f.startswith("DivergenceError") for f in details["ungated"]["failures"])
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py"):
        (bench / name).write_text((HERE / name).read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "audio_ar2", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
