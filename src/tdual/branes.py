"""Lagrangian sections of the dual fibration and their generating potentials.

For each integer level k the dual fibration carries a section

    gamma^(k)(r) = k * gamma^(1)(r),    gamma^(1)_j(r) = r_j^2 / (1 + sum r_i^2),

whose graph over the radii space is the brane of level k; the same data shows
up as the angular part of a unitary connection with weight function
h_k(r) = (1 + sum r_i^2)^{-k}.

For negative k the section is, on suitable cells of the covering torus
(R/(n+1)Z)^n, the graph of the differential of a potential.  The building
block is the level -1 potential on the open simplex {g_i < 0, sum g_i > -1}:

    f(g) = 1/2 sum_i g_i log(-g_i) - 1/2 (1 + sum_j g_j) log(1 + sum_j g_j),

whose gradient is y_i = 1/2 log(-g_i / (1 + sum g)) = log r_i.  On the cell
with corner offset a and level k < 0 we use the rescaled lift

    f_{k,a}(g) = (-k) * f((g - a) / (-k)),

which again satisfies grad f_{k,a} = log r along the level-k section.  The
unscaled composition f((g - a)/(-k)) — available via ``literal_scaling`` —
produces log(r)/(-k) instead and therefore fails the graph property by the
factor -k whenever k <= -2; `check_graph` exposes both behaviours.

All checks report through :class:`tdual.report.CheckReport`.  `check_exactness`
takes every level at once and `separation_probe` every probe point, and each
shares its radii grid or flowed sample among them; each of their reports is
the one a call with a single level or point would give.  Both walk their grid
or sample CHUNK_POINTS rows at a time, so their memory does not grow with the
grid's density or the sample count.  `check_graph` runs once per cell, and
every cell takes its samples from one grid per (n, density) in unit-cell
coordinates: `_unit_grid` builds it by a pruned walk over the product grid,
which never lists the rows outside the shrunk simplex, and caches it
read-only.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable

import numpy as np

from . import geometry
from .cells import CellObject
from .geometry import _last_argmax, _row_sums
from .report import CheckReport

# Grid points, or probe samples, evaluated at once by the batch kernels: their
# arrays hold this many rows, whatever the grid's size or the sample count.
CHUNK_POINTS = 1 << 12

# Per-constraint slack, in unit-cell coordinates, of the graph-check samples.
GRAPH_MARGIN = 0.05

R_RANGE = (0.2, 3.0)  # the fiber radii that the exactness grid spans, ends included

# The largest n the sweep supports: the graph samples need GRAPH_MARGIN below
# 1/(n+1), and the two-form arithmetic needs n <= geometry.MAX_N.
MAX_N = min(math.ceil(1 / GRAPH_MARGIN) - 2, geometry.MAX_N)


@functools.lru_cache(maxsize=8)
def _unit_grid(n: int, density: int) -> np.ndarray:
    """The rows of `itertools.product(axis, repeat=n)` whose sum exceeds -1 + GRAPH_MARGIN, in that order.

    `axis` holds `density` points from -1 + GRAPH_MARGIN to -GRAPH_MARGIN.
    The walk appends one coordinate at a time, in product order, and drops
    every prefix that cannot meet the sum bound: its sum, with each coordinate
    still to come at the axis's largest value, does not pass the bound less
    1e-9.  Rounding moves a sum of n such floats by far less than that,
    so no row the filter keeps is dropped, and only the survivors are ever
    built (165 of the 1,679,616 product rows at n = 8, density 6).  They pass
    the product grid's own float filter, so the rows are exactly its rows.
    The array is cached and shared by every caller, so it is read-only.
    """
    bound = -1.0 + GRAPH_MARGIN
    axis = np.linspace(bound, -GRAPH_MARGIN, density)
    top = axis[-1] if density else 0.0
    rows, sums = np.empty((1, 0)), np.zeros(1)
    for j in range(n):
        sums = (sums[:, None] + axis).ravel()
        keep = sums + (n - 1 - j) * top > bound - 1e-9
        rows = np.concatenate([np.repeat(rows, density, axis=0), np.tile(axis, len(rows))[:, None]], axis=1)[keep]
        sums = sums[keep]
    rows = rows[rows.sum(axis=1) > bound]
    rows.flags.writeable = False
    return rows


def base_potential(u: np.ndarray) -> float | np.ndarray:
    """Level -1 potential on the open simplex {u_i < 0, sum u_i > -1}.

    `u` is one point, or an array of points along its last axis; one point
    gives a float, several give an array of values.
    """
    s = u.sum(axis=-1)
    # math.log1p, not np.log1p: numpy's vector kernel differs from libm in the
    # last bit for some inputs, and reports must not depend on batching.
    log1p = np.array([math.log1p(v) for v in s.ravel().tolist()]).reshape(s.shape)
    value = 0.5 * (u * np.log(-u)).sum(axis=-1) - 0.5 * (1.0 + s) * log1p
    return float(value) if u.ndim == 1 else value


class LiftedCell(CellObject):
    """A cell of the covering torus, as `CellObject`, carrying a lifted potential.

    The cell of level k and corner offset a is described through its
    standard lift to R^n.  Its points are in bijection with the radii space
    via u = (g - a)/(-k) and r_i = sqrt(-u_i / (1 + sum u)).
    """

    def to_unit(self, gamma: np.ndarray) -> np.ndarray:
        """Map a cell point to the level -1 domain: u = (gamma - a) / (-k)."""
        return (gamma - np.asarray(self.offset, dtype=float)) / (-self.level)

    def constraint_slacks(self, gamma: tuple[float, ...] | np.ndarray) -> np.ndarray:
        """Positive parts required for membership: (a_i - g_i ..., sum slack).

        Returns n+1 numbers per point (along the last axis), one per defining
        inequality; the point lies in the open cell iff all are positive.
        """
        g = np.asarray(gamma, dtype=float)
        a = np.asarray(self.offset, dtype=float)
        total = (g - a).sum(axis=-1) - self.level
        return np.concatenate([a - g, total[..., None]], axis=-1)

    def require_inside(self, points: tuple[float, ...] | np.ndarray) -> None:
        """Raise ValueError naming the first point, in row order, outside the open cell."""
        pts = np.asarray(points, dtype=float)
        inside = np.all(self.constraint_slacks(pts) > 0.0, axis=-1)
        if not np.all(inside):
            bad = pts.reshape(-1, self.n)[np.argmin(np.ravel(inside))]
            raise ValueError(f"point {tuple(bad)} lies outside the open cell {self}")

    def interior_grid(self, density: int) -> np.ndarray:
        """Deterministic sample grid with per-constraint slack GRAPH_MARGIN in u.

        The points of the product grid of `density` points per axis on the
        margin-shrunk simplex in u-coordinates that respect the sum
        constraint, in product order (`_unit_grid`), mapped back to cell
        coordinates g = a + (-k) u.  The u-grid depends only on n and
        `density`, so every cell shares one cached copy; the result is a new
        array for each call.
        """
        if not GRAPH_MARGIN < 1.0 / (self.n + 1):
            raise ValueError(f"the graph margin {GRAPH_MARGIN} must lie below 1/(n+1)")
        return np.asarray(self.offset, dtype=float) + (-self.level) * _unit_grid(self.n, density)

    def brane_log_radii(self, gamma: tuple[float, ...] | np.ndarray) -> np.ndarray:
        """Parametric route to y = log r at the section point over `gamma`.

        Solves the section equation for the radii: with u = (g - a)/(-k),
        r_i^2 = -u_i / (1 + sum u), so y_i = 1/2 log(-u_i / (1 + sum u)).
        `gamma` is one point or an array of points along its last axis.
        """
        g = np.asarray(gamma, dtype=float)
        self.require_inside(g)
        u = self.to_unit(g)
        return 0.5 * np.log(-u / (1.0 + u.sum(axis=-1, keepdims=True)))


def potential_value(
    cell: LiftedCell,
    gamma: tuple[float, ...] | np.ndarray,
    literal_scaling: bool = False,
) -> float | np.ndarray:
    """Evaluate the cell's potential at an interior point (or rows of points).

    The default is the rescaled lift (-k) * f((g - a)/(-k)) whose gradient is
    log r along the brane; ``literal_scaling=True`` evaluates the bare
    composition f((g - a)/(-k)) instead (gradient log(r)/(-k)).

    Raises ValueError if any point lies outside the open cell.
    """
    g = np.asarray(gamma, dtype=float)
    cell.require_inside(g)
    value = base_potential(cell.to_unit(g))
    return value if literal_scaling else (-cell.level) * value


def check_graph(
    n: int,
    k: int,
    a: tuple[int, ...] | None = None,
    density: int = 12,
    fd_step: float = 1e-5,
    tol: float = 1e-7,
    literal_scaling: bool = False,
) -> CheckReport:
    """Check that the potential's gradient reproduces the brane's log radii.

    Central finite differences of the potential (step `fd_step`) are compared
    against the parametric values y = log r at a deterministic interior grid;
    its per-constraint slack GRAPH_MARGIN in u-coordinates must keep the
    samples at least 2 * fd_step away from the cell boundary.  The witness is
    the last sample of largest deviation.  An empty grid raises ValueError.
    """
    a = (0,) * n if a is None else tuple(a)
    if len(a) != n:
        raise ValueError(f"offset must have length n={n}: {a}")
    cell = LiftedCell(k, a)
    if (-k) * GRAPH_MARGIN < 2 * fd_step:
        raise ValueError("sample margin too small for the requested fd step")
    samples = cell.interior_grid(density)
    if len(samples) == 0:
        raise ValueError(f"density {density} leaves no interior samples in {cell}")
    # Row 2i (2i+1) of `steps` moves a sample by +fd_step (-fd_step) along axis i.
    steps = np.zeros((2 * n, n))
    steps[0::2][np.diag_indices(n)] = fd_step
    steps[1::2][np.diag_indices(n)] = -fd_step
    rows = max(1, CHUNK_POINTS // (2 * n))
    worst = None
    max_dev = 0.0
    for start in range(0, len(samples), rows):
        g = samples[start:start + rows]
        expected = cell.brane_log_radii(g)
        values = potential_value(cell, g[:, None, :] + steps, literal_scaling)
        fd = (values[:, 0::2] - values[:, 1::2]) / (2 * fd_step)
        dev = np.abs(fd - expected).max(axis=1)
        p = _last_argmax(dev)
        if dev[p] >= max_dev:
            max_dev = float(dev[p])
            worst = {"gamma": list(g[p]), "fd_gradient": list(fd[p]), "log_radii": list(expected[p])}
    return CheckReport(
        check="branes.graph",
        parameters={
            "n": n,
            "k": k,
            "a": list(cell.offset),
            "density": density,
            "fd_step": fd_step,
            "tol": tol,
            "margin": GRAPH_MARGIN,
            "literal_scaling": literal_scaling,
            "samples": len(samples),
        },
        max_deviation=max_dev,
        witness=worst,
        passed=max_dev <= tol,
    )


def check_exactness(
    n: int,
    levels: Iterable[int],
    density: int = 20,
    tol: float = 1e-9,
) -> list[CheckReport]:
    """Check that the reference two-form vanishes on the section of each level.

    Returns one report per level k in `levels`.  Each evaluates the form on
    all pairs of section tangent vectors over a `density`-per-axis grid of
    radii spanning R_RANGE.  For n = 1 there are no pairs and the check
    passes vacuously with deviation 0.  The witness is the last (point, pair)
    of largest deviation, points in `itertools.product` order.

    The section's tangent frame maps d/dr_i to y-part e_i / r_i and angular
    part k * d(gamma^(1))/dr_i.  On that frame the form has the closed value
    (2 pi)^n ((1/r_i) k g_j[i] - k g_i[j] (1/r_j)), with
    g_i[j] = (-2 r_i) r_j r_j / (1 + sum r^2)^2; it is evaluated here on
    CHUNK_POINTS grid points at a time, in the same operation order as
    `symplectic_form_eval` on a per-point frame, so the maximum is the
    per-point value bit for bit.
    The grid and the level-free products g_i[j] are built once per chunk and
    shared by all levels.
    """
    if density < 1:
        raise ValueError(f"density must be a positive integer, got {density}")
    axis = np.linspace(*R_RANGE, density)
    levels = list(levels)
    pairs = list(itertools.combinations(range(n), 2))
    scale = (2 * math.pi) ** n
    max_dev = [0.0] * len(levels)
    worst = [None] * len(levels)
    total = density**n if pairs else 0
    for start in range(0, total, CHUNK_POINTS):
        flat = np.arange(start, min(start + CHUNK_POINTS, total))
        r = axis[np.stack(np.unravel_index(flat, (density,) * n), axis=1)]
        d = 1.0 + (r * r).sum(axis=1)  # row sums: the same summation order as one point
        r = np.ascontiguousarray(r.T)  # r[i] is coordinate i
        # Python's float power is libm pow, which differs from d * d in the
        # last bit for some d; the per-point frame uses it.
        d2 = np.array([v**2 for v in d.tolist()])
        inv = 1.0 / r
        m2 = -2.0 * r
        # g[p] = (g_j[i], g_i[j]) of pair p = (i, j), before the factor k.
        g = [(m2[j] * r[i] * r[i] / d2, m2[i] * r[j] * r[j] / d2) for i, j in pairs]
        vals = np.empty((len(d), len(pairs)))
        for level, k in enumerate(levels):
            for p, (i, j) in enumerate(pairs):
                vals[:, p] = np.abs(scale * (inv[i] * (k * g[p][0]) - (k * g[p][1]) * inv[j]))
            point, pair = divmod(_last_argmax(vals.ravel()), len(pairs))
            if vals[point, pair] >= max_dev[level]:
                max_dev[level] = float(vals[point, pair])
                worst[level] = {"r": list(r[:, point]), "pair": list(pairs[pair])}
    return [
        CheckReport(
            check="branes.exactness",
            parameters={
                "n": n,
                "k": k,
                "density": density,
                "tol": tol,
                "r_range": list(R_RANGE),
            },
            max_deviation=dev,
            witness=witness,
            passed=dev <= tol,
        )
        for k, dev, witness in zip(levels, max_dev, worst)
    ]


def wrap_to_half(v: np.ndarray) -> np.ndarray:
    """Reduce each component to the representative in [-1/2, 1/2).

    x - floor(x) is the same real number as Python's x % 1.0, rounded once,
    and +0.0 at integers, so this equals (v + 0.5) % 1.0 - 0.5 bit for bit.
    """
    x = v + 0.5
    x -= np.floor(x)
    x -= 0.5
    return x


def separation_probe(
    n: int,
    points: Iterable[tuple[float, ...]],
    delta_probe: float = 0.05,
    num_samples: int = 10_000,
    seed: int = 0,
) -> list[CheckReport]:
    """Probe that short flows keep the level -1 brane off the fiber over each point s.

    An intersection of the flowed fiber torus over s (time t1) with the flowed
    level -1 brane (time t2) would force, over some brane point gamma, the
    angular equation s = gamma + (t2 - t1) y/|y| on the torus, with
    y = grad f(gamma).  The probe samples gamma uniformly on the brane's
    domain simplex and times 0 <= t1 <= t2 < delta_probe, and reports, for
    each s in `points`, the minimum torus distance between s and the flowed
    gamma ("defect"); a strictly positive minimum means no intersection among
    the samples.

    Each s should lie on the domain's boundary (the fibers over interior
    points are met at time 0).  Sampling is seeded for reproducibility: sample
    i's weight is draws (n + 1) i to (n + 1) i + n of stream `seed`, a sample
    whose log radii vanish (the barycentre) is dropped, and kept sample j's
    times are draws 2j and 2j + 1 of stream seed + 1.  The sample is drawn and
    flowed CHUNK_POINTS samples at a time, once for every point, so memory is
    O(CHUNK_POINTS * (n + len(points))) whatever `num_samples` is, and each
    report is the one a single-point call would give.  The witness is the
    first sample of least defect.  A probe that keeps no sample fails, with no
    witness.
    """
    if not 0 < delta_probe < 0.5:
        raise ValueError("delta_probe must lie in (0, 1/2)")
    if num_samples < 1:
        raise ValueError("num_samples must be a positive integer")
    svs = [np.asarray(s, dtype=float) for s in points]
    if any(sv.shape != (n,) for sv in svs):
        raise ValueError(f"probe point must have length n={n}")
    min_defects = [math.inf] * len(svs)
    witnesses: list[dict | None] = [None] * len(svs)
    kept = 0  # samples kept in earlier chunks: kept sample i takes draws 2i and 2i + 1 of stream seed + 1
    for start in range(0, num_samples, CHUNK_POINTS):
        # A flat Dirichlet weight per sample from n + 1 draws of stream `seed`.
        rows = min(CHUNK_POINTS, num_samples - start)
        w = geometry.uniform_draws(seed, (rows, n + 1), start * (n + 1))
        np.log1p(np.negative(w, out=w), out=w)  # minus exponential variates
        w /= -_row_sums(w)[:, None]  # minus a flat Dirichlet weight: its first n entries are uniform on {g_i < 0, sum g > -1}
        y = 0.5 * np.log(-w[:, :n] / (1.0 + w[:, :n].sum(axis=1, keepdims=True)))
        norms = np.linalg.norm(y, axis=1)
        ok = norms > 0  # a sample at the barycentre has no flow direction
        w, y, norms = w[ok], y[ok], norms[ok]
        if len(w) == 0:
            continue
        gammas = w[:, :n]
        times = geometry.uniform_draws(seed + 1, (len(gammas), 2), 2 * kept)
        kept += len(gammas)
        times *= delta_probe
        t1s = np.minimum(times[:, 0], times[:, 1])
        dts = np.maximum(times[:, 0], times[:, 1]) - t1s
        flowed = gammas + dts[:, None] * y / norms[:, None]
        for p, sv in enumerate(svs):
            defects = np.linalg.norm(wrap_to_half(sv[None, :] - flowed), axis=1)
            k = int(np.argmin(defects))
            if defects[k] < min_defects[p]:  # strict: the first least sample wins, as one argmin would pick it
                min_defects[p] = float(defects[k])
                witnesses[p] = {
                    "min_defect": min_defects[p],
                    "gamma": list(gammas[k]),
                    "t1": float(t1s[k]),
                    "t2": float(t1s[k] + dts[k]),
                }
    return [
        CheckReport(
            check="branes.separation",
            parameters={
                "n": n,
                "s": list(sv),
                "delta_probe": delta_probe,
                "num_samples": num_samples,
                "seed": seed,
            },
            max_deviation=None,
            witness=witness,
            passed=witness is not None and witness["min_defect"] > 0.0,
        )
        for sv, witness in zip(svs, witnesses)
    ]


def domain_face_midpoints(n: int) -> list[tuple[float, ...]]:
    """Midpoints of the n+1 boundary faces of the level -1 domain simplex.

    For n = 1 the domain is an arc whose boundary is the single torus point 0,
    returned once.
    """
    if n == 1:
        return [(0.0,)]
    mids = []
    interior = -1.0 / n  # barycentric value on a face: the remaining mass
    for i in range(n):
        mid = [interior] * n
        mid[i] = 0.0
        mids.append(tuple(mid))
    mids.append(tuple([-1.0 / n] * n))  # face sum g = -1
    return mids
