"""The narrative demo scripts run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# demo -> the files it writes to its working directory
DEMOS = {
    "01_geometries.py": {"demo_w33.json"},
    "02_protocols.py": {"demo_p2.jsonl", "demo_p2.truth.json"},
    "03_eavesdropper.py": set(),
    "04_coalitions.py": {"demo_sweep.csv"},
}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert {p.name for p in tmp_path.iterdir()} == DEMOS[demo]
