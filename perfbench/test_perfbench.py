"""Tests of the stage benchmark itself, on tiny meshes (--smoke sizes).

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
import time
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from polydarcy import recovery  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke(name, tmp_path, trace=False):
    return bench.run(name, seed=3, seconds=0.0, trace=trace, src=ROOT / "src",
                     out_dir=tmp_path, smoke=True)


def test_workload_names_agree():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(bench.WORKLOADS) == list(bench.SMOKE) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(bench.SMOKE))
def test_every_metric_emitted_with_its_unit(name, trace, tmp_path):
    result, record = smoke(name, tmp_path, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {key: m["unit"] for key, m in result["metrics"].items()}
    assert emitted == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        assert math.isfinite(metric["value"])
    assert record["env"]["seed"] == 3
    assert {"python", "numpy", "scipy", "nproc", "blas_threads"} <= set(record["env"])


def test_trace_restores_every_function(tmp_path):
    originals = [(module, attr, getattr(module, attr))
                 for module, attr, _ in bench.trace_targets()]
    _, record = smoke("pipeline-k1", tmp_path, trace=True)
    names = {span["name"] for span in record["spans"]}
    assert {name for _, _, name in bench.trace_targets()} - names <= {
        "linsolve.refine", "linsolve.dense_fallback"}
    for module, attr, fn in originals:
        assert getattr(module, attr) is fn


def test_tracer_self_time_and_restore_on_error():
    mod = types.SimpleNamespace()

    def inner():
        time.sleep(0.02)

    def outer(fail=False):
        mod.inner()
        if fail:
            raise ValueError("boom")

    mod.inner, mod.outer = inner, outer
    tracer = spans.Tracer([(mod, "inner", "inner"), (mod, "outer", "outer")])
    with pytest.raises(ValueError):
        with tracer.recording(op=1):
            mod.outer()
            mod.outer(fail=True)
    assert mod.inner is inner and mod.outer is outer
    stats = tracer.summary(op=1)
    assert stats["outer"].count == 2 and stats["inner"].count == 2
    assert [s.parent for s in tracer.spans] == [-1, 0, -1, 2]
    assert stats["outer"].self_s < 0.5 * stats["inner"].total_s
    assert stats["outer"].total_s == pytest.approx(
        stats["outer"].self_s + stats["inner"].total_s)


def test_injected_solver_failure_counts(tmp_path, monkeypatch):
    real = recovery.recover_velocity
    calls = []

    def flaky(system, *args, **kwargs):
        calls.append(system)
        if len(calls) == 2:  # the first level after the one-mesh warm-up
            raise recovery.RecoveryError("injected")
        return real(system, *args, **kwargs)

    monkeypatch.setattr(recovery, "recover_velocity", flaky)
    result, record = smoke("pipeline-k1", tmp_path)
    # The failed first level also leaves the final-level order uncomputable.
    assert result["attempted"] == 1 + 3 and result["failed"] == 2
    assert not result["correct"]
    assert result["metrics"]["pass_fraction"]["value"] == 2 / 4
    assert any("injected" in f for f in record["passes"][1]["failures"])


def test_warmup_failure_counts_but_is_not_timed(tmp_path, monkeypatch):
    real = recovery.recover_velocity
    calls = []

    def flaky(system, *args, **kwargs):
        calls.append(system)
        if len(calls) == 1:
            raise recovery.RecoveryError("injected")
        return real(system, *args, **kwargs)

    monkeypatch.setattr(recovery, "recover_velocity", flaky)
    result, record = smoke("solve-k3", tmp_path)
    warmup, timed = record["passes"][0], record["passes"][1:]
    assert warmup["warmup"] and warmup["failed"] == 1
    assert timed and not any(p["warmup"] or p["failed"] for p in timed)
    assert result["failed"] == 1 and not result["correct"]
    assert result["metrics"]["solve_case_s"]["value"] == timed[0]["solve_case_s"]


def test_error_ceiling_gate(tmp_path, monkeypatch):
    strict = replace(bench.SMOKE["solve-k3"], error_ceiling=1e-12)
    monkeypatch.setitem(bench.SMOKE, "solve-k3", strict)
    result, _ = smoke("solve-k3", tmp_path)
    assert result["failed"] == 1 and not result["correct"]


def test_same_seed_same_meshes():
    workload = bench.SMOKE["pipeline-k1"]
    first, second = bench.make_meshes(workload, 11), bench.make_meshes(workload, 11)
    for a, b in zip(first, second):
        assert np.array_equal(a.vertices, b.vertices)
        assert all(np.array_equal(x, y) for x, y in zip(a.cells, b.cells))


def _cli(cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-k3", "--seed", "5",
         "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_cli_prints_result_as_last_line():
    out = _cli(ROOT)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    env = json.loads(lines[-2])["env"]
    assert env["seed"] == 5
    assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == run.BLAS_THREADS


def test_cli_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _cli(tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
