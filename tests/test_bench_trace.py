"""The bench's traced mode still runs against the package.

`bench/child.py trace` wraps public functions of `tdual` from outside `src/`
and reads `len(cells.quotient_quiver(n).composition)`, so a change to the
quiver's shape can break it while every unit test passes.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MARKER = "BENCH-CHILD "


def test_bench_child_trace_runs_verify():
    """One traced `verify --n 3`: no error, the known stale target, both counts 220."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), "trace", "--", "verify", "--n", "3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    line = proc.stderr.strip().splitlines()[-1]
    assert line.startswith(MARKER), proc.stderr
    info = json.loads(line[len(MARKER):])
    assert info["error"] is None
    # The bench still lists a function that the oracle no longer has.
    assert info["missing"] == ["oracle.hom_dim_detail"]
    counts = info["counts"]
    assert counts["cells.composition_entries"] == counts["bundles.compositions_checked"] == 220
