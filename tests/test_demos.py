"""The demos run to completion, each in its own process from an empty working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", [
    "01_build_a_graph.py",
    "02_synthetic_network_and_split.py",
    "03_train_link_prediction.py",
    "04_supplier_criticality.py",
    "05_export_for_visualization.py",
])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stdout
    assert not any(tmp_path.iterdir())  # demos write only into their own temporary directories
