"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion; each test also prints a human-readable verdict (visible with -s).
"""
from __future__ import annotations

import cmath
import itertools
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from tdual import branes, bundles, cells, geometry, oracle

from test_cells import hom_basis
from test_geometry import ProjectivePoint, mirror_coordinates, moment_map


def _verdict(criterion: str, detail: str) -> None:
    print(f"[PASS] {criterion}: {detail}")


def test_criterion_1_verify_cli_n1_to_n4_under_10s():
    """`verify --n N` exits 0 for N = 1..4, each run under ten seconds."""
    times = []
    for n in range(1, 5):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "tdual.cli", "verify", "--n", str(n)],
            capture_output=True,
            text=True,
        )
        dt = time.perf_counter() - t0
        assert proc.returncode == 0, proc.stderr
        body = json.loads(proc.stdout)
        assert body["pass"] is True
        assert dt < 10.0, f"verify --n {n} took {dt:.1f}s"
        times.append(dt)
    _verdict(
        "criterion 1 (verify CLI, n=1..4)",
        "exit 0 each; slowest run " + f"{max(times):.2f}s < 10s",
    )


def test_criterion_2_hom_dimensions_binomial_n_up_to_6():
    """Hom dims equal binomial(j-i+n, n); 0 backward; the (2,-2,-1) value is 3."""
    for n in range(1, 7):
        for i in range(-n - 1, 0):
            for j in range(-n - 1, 0):
                dim = len(hom_basis(i, j, n))
                if j < i:
                    assert dim == 0, (n, i, j, dim)
                else:
                    assert dim == math.comb(j - i + n, n), (n, i, j, dim)
            assert len(hom_basis(i, i, n)) == 1
    assert len(hom_basis(-2, -1, 2)) == 3
    _verdict(
        "criterion 2 (hom dimensions, n=1..6)",
        "all binomial, backward all zero, pinned value 3 at n=2 (-2 -> -1)",
    )


def test_criterion_3_strong_exceptionality_n1_to_n5():
    """The quotient quiver is strong exceptional for n = 1..5."""
    for n in range(1, 6):
        q = cells.quotient_quiver(n)
        assert cells.is_strong_exceptional(q), n
    _verdict("criterion 3 (strong exceptionality, n=1..5)", "holds at every n")


def test_criterion_4_cohomology_oracle_matches_and_is_stable():
    """Oracle Betti profiles equal the combinatorial dims for n = 1, 2.

    Two different shrink margins must give identical profiles, and the whole
    double sweep must finish within sixty seconds.
    """
    t0 = time.perf_counter()
    for n in (1, 2):
        for i in range(-n - 1, 0):
            for j in range(-n - 1, 0):
                first = oracle.oracle_hom_dim(i, j, n, Fraction(1, 8))
                second = oracle.oracle_hom_dim(i, j, n, Fraction(1, 16))
                assert first == second, (n, i, j, first, second)
                expected = len(hom_basis(i, j, n))
                assert first[0] == expected, (n, i, j, first, expected)
                assert all(v == 0 for v in first[1:]), (n, i, j, first)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    _verdict(
        "criterion 4 (cohomology oracle, n=1,2)",
        f"matches binomial dims at eps=1/8 and 1/16, {elapsed:.1f}s < 60s",
    )


def test_criterion_5_section_exactness_to_1e9():
    """The two-form vanishes on every section to 1e-9 over a 20^n grid, n<=3."""
    worst = 0.0
    for n in (1, 2, 3):
        levels = range(-n - 1, 0)
        for k, rep in zip(levels, branes.check_exactness(n, levels, density=20, tol=1e-9)):
            assert rep.passed, (n, k, rep.max_deviation)
            worst = max(worst, rep.max_deviation)
    _verdict(
        "criterion 5 (exactness on sections, n<=3)",
        f"worst deviation {worst:.2e} <= 1e-9",
    )


def test_criterion_6_potential_graph_and_scaling_defect():
    """Rescaled potentials pass the graph check at 1e-7 with step 1e-5.

    The unscaled lift must fail for k <= -2, and its finite-difference
    gradient must be exactly the log radii divided by -k.
    """
    density = {1: 100, 2: 12, 3: 6}
    worst = 0.0
    for n in (1, 2, 3):
        for k in range(-n - 1, 0):
            rep = branes.check_graph(n, k, density=density[n], fd_step=1e-5, tol=1e-7)
            assert rep.passed, (n, k, rep.max_deviation)
            worst = max(worst, rep.max_deviation)
    for n in (1, 2, 3):
        for k in range(-n - 1, -1):
            rep = branes.check_graph(
                n, k, density=density[n], fd_step=1e-5, tol=1e-7, literal_scaling=True
            )
            assert not rep.passed, (n, k)
            fd = np.asarray(rep.witness["fd_gradient"])
            target = np.asarray(rep.witness["log_radii"])
            assert np.allclose((-k) * fd, target, atol=1e-5), (n, k)
    _verdict(
        "criterion 6 (gradient graph checks)",
        f"rescaled worst dev {worst:.2e} <= 1e-7; literal fails by factor -k",
    )


def test_criterion_7_mirror_coordinates_to_1e12():
    """-log|z_j|/(2 pi) equals the moment coordinate to 1e-12, 1000 fibers."""
    worst = 0.0
    for n in (1, 2, 3):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            r = tuple(rng.uniform(0.2, 3.0, n))
            gamma = tuple(rng.uniform(0.0, 1.0, n))
            z = mirror_coordinates(geometry.MirrorPoint(r, gamma))
            base = ProjectivePoint((1 + 0j,) + tuple(complex(v) for v in r))
            phi = moment_map(base).x
            dev = max(
                abs(-math.log(abs(zj)) / (2 * math.pi) - pj)
                for zj, pj in zip(z, phi)
            )
            worst = max(worst, dev)
    assert worst < 1e-12
    _verdict(
        "criterion 7 (mirror coordinates, n<=3)",
        f"worst deviation {worst:.2e} < 1e-12 over 1000 fibers per n",
    )


def test_criterion_8_critical_points_n1_to_n4():
    """n+1 critical points, gradient residual < 1e-10, the expected values."""
    for n in range(1, 5):
        pts = geometry.superpotential_critical_points(n)
        assert len(pts) == n + 1
        scale = (n + 1) * math.exp(-2 * math.pi / (n + 1))
        expected = {
            scale * cmath.exp(2j * math.pi * m / (n + 1)) for m in range(n + 1)
        }
        for point, value in pts:
            grad = geometry.superpotential_gradient(point)
            assert math.sqrt(sum(abs(g) ** 2 for g in grad)) < 1e-10
            assert min(abs(value - w) for w in expected) < 1e-12
        # all n+1 values distinct, so the set matches exactly
        values = [v for _, v in pts]
        assert all(
            abs(values[a] - values[b]) > 1e-3
            for a in range(len(values))
            for b in range(a + 1, len(values))
        )
    _verdict(
        "criterion 8 (critical points, n=1..4)",
        "n+1 points, residuals < 1e-10, values (n+1) zeta exp(-2 pi/(n+1))",
    )


def test_criterion_9_separation_probe_positive():
    """Seeded probes near every face midpoint stay strictly separated."""
    smallest = math.inf
    for n in (1, 2):
        points = branes.domain_face_midpoints(n)
        reps = branes.separation_probe(n, points, delta_probe=0.05, num_samples=10_000, seed=0)
        for s, rep in zip(points, reps):
            assert rep.passed, (n, s)
            assert rep.witness["min_defect"] > 0.0
            smallest = min(smallest, rep.witness["min_defect"])
    _verdict(
        "criterion 9 (separation probes, n=1,2)",
        f"minimum defect {smallest:.4f} > 0 across all face midpoints",
    )
