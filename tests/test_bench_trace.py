"""The bench's traced mode still runs against the package.

`bench/child.py trace` wraps public functions of `tdual` from outside `src/`
and reads `len(cells.quotient_quiver(n).composition)`, the `.simplices` of
each shrunk oracle pair, the rows passed to `oracle.matrix_rank_exact` and the
`n` and `density` arguments of `branes.check_exactness`, so a change to those
shapes can break it while every unit test passes.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from tdual import cells

ROOT = Path(__file__).resolve().parents[1]
MARKER = "BENCH-CHILD "


def _trace(*argv):
    """Run `bench/child.py trace -- ARGV` and return its BENCH-CHILD record."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), "trace", "--", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    line = proc.stderr.strip().splitlines()[-1]
    assert line.startswith(MARKER), proc.stderr
    return json.loads(line[len(MARKER):])


def test_bench_child_trace_runs_verify():
    """One traced `verify --n 3`: no error, the known stale target, both counts 220."""
    info = _trace("verify", "--n", "3")
    assert info["error"] is None
    # The bench still lists a function that the oracle no longer has.
    assert info["missing"] == ["oracle.hom_dim_detail"]
    counts = info["counts"]
    assert counts["cells.composition_entries"] == counts["bundles.compositions_checked"] == 220


def test_bench_child_trace_runs_oracle():
    """One traced `oracle --n 2`: the bench reads `.simplices` of each shrunk
    pair and the row list given to `matrix_rank_exact`, so the oracle's work
    counts must come through unchanged."""
    info = _trace("oracle", "--n", "2")
    assert info["error"] is None
    assert info["missing"] == ["oracle.hom_dim_detail"]
    counts = info["counts"]
    assert counts["oracle.region_pair.calls"] == 81
    assert counts["oracle.simplices"] == 1622
    assert counts["oracle.rank_entries"] == 7188


def test_bench_child_trace_runs_branes():
    """One traced `branes --n 2`: the bench reads the `n` and `density`
    arguments of `check_exactness`, now called once for all levels, and the
    sample count of every `check_graph` report."""
    info = _trace("branes", "--n", "2")
    assert info["error"] is None
    assert info["missing"] == ["oracle.hom_dim_detail"]
    counts = info["counts"]
    assert counts["branes.check_exactness.points"] == 20**2
    assert counts["branes.check_graph.samples"] == 1782


def test_bench_child_trace_runs_geometry():
    """One traced `geometry --n 2`: no error, and no target missing but the known stale one."""
    info = _trace("geometry", "--n", "2")
    assert info["error"] is None
    assert info["missing"] == ["oracle.hom_dim_detail"]


def test_bench_child_trace_runs_quiver():
    """One traced `quiver --n 2`: the bench reads `len(composition)` of the cell quiver."""
    info = _trace("quiver", "--n", "2")
    assert info["error"] is None
    assert info["missing"] == ["oracle.hom_dim_detail"]
    assert info["counts"]["cells.composition_entries"] == len(cells.quotient_quiver(2).composition) == 36
