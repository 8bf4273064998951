"""The batch kernels of check_exactness and check_graph against per-point loops.

check_exactness takes a list of levels and shares one radii grid among them;
every level's report must still equal its own per-point loop.

The loops below evaluate one grid point at a time through the single-point
API (section_tangent_frame, defined here, and symplectic_form_eval,
brane_log_radii and potential_value), exactly as the checks did before they
were batched.  section_gamma_unreduced, the level-k section itself, is the
reference of test_branes.py.  The
batch kernels promise the same arithmetic in the same order, so maximum
deviations and witnesses must agree with `==`, not within a tolerance.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from tdual import branes
from tdual.branes import LiftedCell
from tdual.geometry import MirrorPoint, TangentVector, symplectic_form_eval


def section_gamma_unreduced(k: int, r: tuple[float, ...] | np.ndarray) -> tuple[float, ...]:
    """Angular coefficients k * r_j^2 / (1 + sum r_i^2), before mod-1 reduction.

    This is both the lift of the level-k section and the angular part of the
    level-k connection; it is exactly k times the level-1 value.
    """
    rr = np.asarray(r, dtype=float)
    s = (rr * rr).sum()
    return tuple(float(v) for v in k * rr * rr / (1.0 + s))


def section_tangent_frame(n: int, k: int, r: np.ndarray) -> list[TangentVector]:
    """Tangent vectors of the level-k section along the radii directions.

    The i-th frame vector is the image of d/dr_i under the parametrization
    r -> (y = log r, gamma = k gamma^(1)(r)): its y-part is e_i / r_i and its
    angular part is k * d(gamma^(1))/dr_i.
    """
    s = float((r * r).sum())
    frame = []
    for i in range(n):
        y_part = np.zeros(n)
        y_part[i] = 1.0 / r[i]
        g_part = -2.0 * r[i] * r * r / (1.0 + s) ** 2
        g_part[i] += 2.0 * r[i] / (1.0 + s)
        frame.append(TangentVector(tuple(y_part), tuple(k * g_part)))
    return frame


def exactness_per_point(n, k, density, r_min=0.2, r_max=3.0):
    axis = np.linspace(r_min, r_max, density)
    max_dev, worst = 0.0, None
    for r in itertools.product(axis, repeat=n):
        rr = np.asarray(r)
        base = MirrorPoint(tuple(rr), (0.0,) * n)
        frame = section_tangent_frame(n, k, rr)
        for i in range(n):
            for j in range(i + 1, n):
                val = abs(symplectic_form_eval(base, frame[i], frame[j]))
                if val >= max_dev:
                    max_dev, worst = val, {"r": list(r), "pair": [i, j]}
    return max_dev, worst


def graph_per_point(n, k, a, density, fd_step, literal_scaling):
    cell = LiftedCell(k, a)
    max_dev, worst = 0.0, None
    for g in cell.interior_grid(density):
        expected = cell.brane_log_radii(g)
        fd = np.empty(n)
        for i in range(n):
            step = np.zeros(n)
            step[i] = fd_step
            fd[i] = (
                branes.potential_value(cell, g + step, literal_scaling)
                - branes.potential_value(cell, g - step, literal_scaling)
            ) / (2 * fd_step)
        dev = float(np.max(np.abs(fd - expected)))
        if dev >= max_dev:
            max_dev = dev
            worst = {"gamma": list(g), "fd_gradient": list(fd), "log_radii": list(expected)}
    return max_dev, worst


EXACTNESS_DENSITY = {1: 20, 2: 20, 3: 12, 4: 8}
GRAPH_DENSITY = {1: 100, 2: 12, 3: 6, 4: 6}


@pytest.mark.parametrize(
    "n,k", [(n, k) for n in range(1, 5) for k in range(-n - 1, 0)]
)
def test_exactness_batch_equals_per_point(n, k):
    density = EXACTNESS_DENSITY[n]
    [rep] = branes.check_exactness(n, [k], density=density)
    assert (rep.max_deviation, rep.witness) == exactness_per_point(n, k, density)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exactness_levels_share_one_grid(n):
    """One call over every level gives each level's per-point result."""
    density = EXACTNESS_DENSITY[n]
    levels = range(-n - 1, 0)
    reps = branes.check_exactness(n, levels, density=density)
    assert [rep.parameters["k"] for rep in reps] == list(levels)
    for k, rep in zip(levels, reps):
        assert (rep.max_deviation, rep.witness) == exactness_per_point(n, k, density)


@pytest.mark.parametrize("n,k,density", [(4, -5, 14), (8, -1, 2), (9, -1, 2)])
def test_exactness_batch_equals_per_point_large_grids(n, k, density):
    # n = 4, density 14 spans three chunks, and its witness changes if
    # (1 + |r|^2) ** 2 is taken as a product instead of libm pow.  From n = 8
    # on, numpy sums a point's coordinates pairwise, not left to right.
    if n == 4:
        assert density**n > 2 * branes.CHUNK_POINTS
    [rep] = branes.check_exactness(n, [k], density=density)
    assert (rep.max_deviation, rep.witness) == exactness_per_point(n, k, density)


@pytest.mark.parametrize(
    "n,k,literal",
    [(n, k, lit) for n in range(1, 5) for k in range(-n - 1, 0) for lit in (False, True)],
)
def test_graph_batch_equals_per_point(n, k, literal):
    for a, fd_step in itertools.product([(0,) * n, (-n,) + (0,) * (n - 1)], [1e-5, 1e-6]):
        rep = branes.check_graph(
            n, k, a, density=GRAPH_DENSITY[n], fd_step=fd_step, literal_scaling=literal
        )
        expected = graph_per_point(n, k, a, GRAPH_DENSITY[n], fd_step, literal)
        assert (rep.max_deviation, rep.witness) == expected


def test_base_potential_rows_match_scalar_formula():
    # The single-point formula as written before base_potential took rows.
    rng = np.random.default_rng(5)
    for n in range(1, 5):
        u = -rng.dirichlet(np.ones(n + 1), size=500)[:, :n]
        for row, value in zip(u, branes.base_potential(u)):
            s = float(row.sum())
            scalar = float(0.5 * (row * np.log(-row)).sum() - 0.5 * (1.0 + s) * math.log1p(s))
            assert value == scalar
            assert branes.base_potential(row) == scalar


def test_witness_rule_across_many_chunks(monkeypatch):
    # Tiny chunks put a chunk boundary between almost every pair of points.
    monkeypatch.setattr(branes, "CHUNK_POINTS", 7)
    for n in (2, 3):
        for k, rep in zip(range(-n - 1, 0), branes.check_exactness(n, range(-n - 1, 0), density=9)):
            assert (rep.max_deviation, rep.witness) == exactness_per_point(n, k, 9)
    for n, k in [(2, -1), (3, -2)]:
        rep = branes.check_graph(n, k, density=8, literal_scaling=True)
        assert (rep.max_deviation, rep.witness) == graph_per_point(
            n, k, (0,) * n, 8, 1e-5, True
        )


def test_exactness_rejects_empty_grid():
    for density in (0, -1):
        with pytest.raises(ValueError):
            branes.check_exactness(2, [-1], density=density)


def test_exactness_vacuous_at_n1():
    reps = branes.check_exactness(1, [-2, -1], density=5)
    assert [rep.parameters["k"] for rep in reps] == [-2, -1]
    for rep in reps:
        assert rep.passed and rep.max_deviation == 0.0 and rep.witness is None


def test_graph_rejects_empty_grid():
    # one point per axis sits on the sum constraint and is dropped
    for n in (1, 2):
        with pytest.raises(ValueError):
            branes.check_graph(n, -1, density=1)
    with pytest.raises(ValueError):
        branes.check_graph(2, -1, density=0)


def test_potential_value_rows_name_first_outside_point():
    cell = LiftedCell(-1, (0, 0))
    pts = np.array([[-0.3, -0.3], [-0.2, 0.1], [0.5, -0.1]])
    with pytest.raises(ValueError, match=r"-0\.2"):
        branes.potential_value(cell, pts)
    values = branes.potential_value(cell, pts[:1])
    assert values.shape == (1,)
    assert values[0] == branes.potential_value(cell, pts[0])
