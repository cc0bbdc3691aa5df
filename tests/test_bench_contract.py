"""The library API that the stage benchmark in ``perfbench/`` drives.

The benchmark's own tests live outside the tier-1 test paths, so this file
imports ``perfbench/bench.py`` as it is and checks the two things a change
to the library can break: the attributes the traced run wraps, and one
smoke-sized pass of the pipeline workload.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import bench as module
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def test_trace_targets_exist_and_are_callable(bench):
    for module, attr, span in bench.trace_targets():
        assert callable(getattr(module, attr, None)), (module.__name__, attr, span)


def test_pipeline_smoke_pass_succeeds(bench, tmp_path):
    workload = bench.SMOKE["pipeline-k1"]
    meshes = bench.make_meshes(workload, seed=2026)
    case = bench.cases.get_case(bench.CASE)
    result = bench.run_pass(workload, meshes, case, tmp_path)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] == len(workload.sizes)
