"""Demo scripts: every module imports, and the patch-test demo runs."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polydarcy

DEMOS = Path(__file__).resolve().parents[1] / "demos"
DEMO_FILES = sorted(DEMOS.glob("*.py"))


@pytest.mark.parametrize("path", DEMO_FILES, ids=lambda p: p.stem)
def test_demo_imports(path):
    # importing runs the module's top level, so a public name the demo
    # imports from polydarcy and the package no longer has fails here
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_patch_test_demo_runs():
    # the child imports the package under test, not an older installed copy
    package_root = str(Path(polydarcy.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / "05_patch_test.py")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "all errors sit at rounding level" in proc.stdout
