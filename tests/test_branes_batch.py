"""The batch kernels of check_exactness and check_graph against per-point loops.

check_exactness takes a list of levels and shares one radii grid among them;
every level's report must still equal its own per-point loop.

The loops below evaluate one grid point at a time through the single-point
API (section_tangent_frame, defined here, and symplectic_form_eval,
brane_log_radii and potential_value), exactly as the checks did before they
were batched.  The graph loop takes its samples from product_grid, the whole
product grid filtered as `interior_grid` did before its pruned walk.
section_gamma_unreduced, the level-k section itself, is the reference of
test_branes.py.  The batch kernels promise the same arithmetic in the same
order, so maximum deviations and witnesses must agree with `==`, not within a
tolerance.
"""
from __future__ import annotations

import itertools
import math
import tracemalloc

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


def product_grid(n, density, tail=4):
    """The u-coordinate samples of `interior_grid` as it was before its pruned walk.

    Every row of `itertools.product(axis, repeat=n)` is built and kept iff its
    float sum passes -1 + GRAPH_MARGIN.  The product is listed one prefix of
    its first n - tail axes at a time, each followed by the product of the
    last `tail` axes, so that n = 7 at density 12 fits in memory; the rows,
    their order and their float sums are those of the whole product.
    """
    margin = branes.GRAPH_MARGIN
    axis = np.linspace(-1.0 + margin, -margin, density)
    tail = min(tail, n)
    block = np.array(list(itertools.product(axis, repeat=tail))).reshape(-1, tail)
    kept = [np.empty((0, n))]
    for prefix in itertools.product(axis, repeat=n - tail):
        pts = np.concatenate([np.broadcast_to(prefix, (len(block), n - tail)), block], axis=1)
        kept.append(pts[pts.sum(axis=1) > -1.0 + margin])
    return np.concatenate(kept)


def graph_per_point(n, k, a, density, fd_step, literal_scaling):
    cell = LiftedCell(k, a)
    max_dev, worst = 0.0, None
    for g in np.asarray(a, dtype=float) + (-k) * product_grid(n, density):
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
    # n = 4, density 14 spans more than two chunks, and its witness changes if
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
        with pytest.raises(ValueError, match="leaves no interior samples"):
            branes.check_graph(n, -1, density=1)
    for n in (1, 2, 8):
        with pytest.raises(ValueError, match="leaves no interior samples"):
            branes.check_graph(n, -1, density=0)


def test_graph_rejects_a_negative_density():
    for n in (1, 2, 8):
        with pytest.raises(ValueError, match="non-negative"):
            branes.check_graph(n, -1, density=-1)
        with pytest.raises(ValueError, match="non-negative"):
            LiftedCell(-2, (0,) * n).interior_grid(-6)


# Every (n, density) that `cli.run_branes` asks for, where the product grid fits.
CLI_GRAPH_DENSITY = {1: 100, 2: 12, **{n: 6 for n in range(3, 8)}}
# Pairs where some rows sum to the bound -1 + GRAPH_MARGIN in exact arithmetic
# (18 divides (n - 1)(density - 1)), so rounding decides them; pruning a
# prefix that reaches the bound within 1e-12 would drop rows at (4, 7) and (4, 13).
ON_THE_BOUND = [(2, 19), (3, 10), (4, 7), (4, 13), (7, 4)]


@pytest.mark.parametrize(
    "n,density",
    sorted({(n, d) for n in range(1, 8) for d in (1, 2, 6, 12)} | set(CLI_GRAPH_DENSITY.items()) | set(ON_THE_BOUND)),
)
def test_walk_equals_product_grid(n, density):
    """The pruned walk gives the product grid's rows, in its order, byte for byte."""
    want = product_grid(n, density)
    got = branes._unit_grid(n, density)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    for k, a in [(-1, (0,) * n), (-n - 1, (-n,) + (0,) * (n - 1))]:
        cell = LiftedCell(k, a)
        assert cell.interior_grid(density).tobytes() == (np.asarray(a, dtype=float) + (-k) * want).tobytes()


@pytest.mark.parametrize("n", range(8, branes.MAX_N + 1))
def test_walk_past_the_product_grid(n):
    """At density 6, where `run_branes` samples n >= 3, the walk's rows lie on
    the axis, pass the filter, and come in product order, each once.  Axis
    point m is -0.95 + 0.18 m, so a row's sum passes -0.95 iff
    sum(m) > 95 (n - 1) / 18; for n <= 18 that bound is at least 1/18 from
    every integer, far beyond rounding, so the count of such m, a coefficient
    sum of (1 + x + ... + x^5)^n, is the number of product rows the float
    filter keeps, and the walk keeps them all."""
    axis = np.linspace(-1.0 + branes.GRAPH_MARGIN, -branes.GRAPH_MARGIN, 6)
    rows = branes._unit_grid(n, 6)
    m = np.searchsorted(axis, rows)
    assert np.array_equal(axis[m], rows)
    assert np.all(rows.sum(axis=1) > -1.0 + branes.GRAPH_MARGIN)
    keys = m @ 6 ** np.arange(n - 1, -1, -1)
    assert np.all(np.diff(keys) > 0)  # product order, each row once
    counts = [1]
    for _ in range(n):
        counts = [sum(counts[max(0, s - 5):s + 1]) for s in range(len(counts) + 5)]
    assert len(rows) == sum(counts[95 * (n - 1) // 18 + 1:])


def test_interior_grid_is_a_new_array_over_a_read_only_cache():
    cell = LiftedCell(-1, (0, 0))
    first = cell.interior_grid(12)
    want = first.copy()
    first[:] = 0.0
    assert np.array_equal(cell.interior_grid(12), want)
    assert cell.interior_grid(12) is not cell.interior_grid(12)
    cached = branes._unit_grid(2, 12)
    assert not cached.flags.writeable
    with pytest.raises(ValueError):
        cached[0, 0] = 0.0
    assert np.array_equal(cached, want)


def test_check_graph_at_n8_keeps_165_samples_per_level():
    reps = [branes.check_graph(8, k, density=6) for k in range(-9, 0)]
    assert [rep.parameters["samples"] for rep in reps] == [165] * 9
    assert all(rep.passed for rep in reps)
    branes._unit_grid.cache_clear()
    tracemalloc.start()
    try:
        LiftedCell(-1, (0,) * 8).interior_grid(6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the whole product grid held 1,679,616 rows, 107 MB


def test_potential_value_rows_name_first_outside_point():
    cell = LiftedCell(-1, (0, 0))
    pts = np.array([[-0.3, -0.3], [-0.2, 0.1], [0.5, -0.1]])
    with pytest.raises(ValueError, match=r"-0\.2"):
        branes.potential_value(cell, pts)
    values = branes.potential_value(cell, pts[:1])
    assert values.shape == (1,)
    assert values[0] == branes.potential_value(cell, pts[0])
