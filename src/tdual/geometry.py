"""Moment-map geometry of projective space and its dual torus fibration.

Projective space carries the torus-invariant map

    phi(z_0 : ... : z_n) = (|z_1|^2, ..., |z_n|^2) / sum_i |z_i|^2

onto the closed simplex {x_i >= 0, sum x_i <= 1}.  Over an interior point x
the fiber is an n-torus of radii r_j = sqrt(x_j / (1 - sum x_i)); the dual
fibration replaces each fiber torus by its dual and is coordinatized by pairs
(r, gamma) with gamma in (R/Z)^n.  The complex coordinates of the dual total
space,

    z_j = exp(-2 pi r_j^2 / (1 + sum r_i^2) + 2 pi i gamma_j),

take values in the punctured unit disc, and carry the potential

    W(z) = z_1 + ... + z_n + e^{-2 pi} / (z_1 ... z_n),

whose critical points all lie on the equal-coordinate locus.  In the
logarithmic coordinates y_j = log r_j with angles gamma_j, the reference
two-form is (2 pi)^n sum_i dy_i ^ dgamma_i.

Everything here is plain floating-point numerics; exact-arithmetic work lives
in :mod:`tdual.oracle`.  The ``check_*`` functions at the end are the checks of
the ``geometry`` command; each reports through :class:`tdual.report.CheckReport`.
The seeded ones draw all their samples at once from `uniform_draws`, a
counter-based SplitMix64 stream, row by row.

The checks work on whole (samples x n) float64 arrays, and their reports are
the ones a loop over samples with per-sample scalar functions would give, bit
for bit.  Those scalar functions (`moment_map`, `fiber_radii_from_moment`,
`mirror_coordinates` and their point types) live in the tests, as the
references the array checks are compared against.  numpy does only what
IEEE 754 rounds exactly as Python floats do: + - * /, sqrt, abs, floor and
comparisons, in the per-sample order and grouping.  Row sums are column adds
from left to right, which is the order of `sum` on Python 3.11 (3.12's `sum`
compensates).  Every libm call stays a Python call per element: squares as
`v ** 2` (libm `pow`, which can differ from v * v), and `cmath.exp`, `abs` of
a complex (libm `hypot`) and `math.log`, whose numpy forms differ in the last
bit.  Witnesses are the last sample of maximal deviation, the loop's `>=`
rule.  Reports agree on every input the checks build, and no guard of the
scalar references fires on those inputs, so the array forms keep none.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .report import CheckReport

# The largest n whose two-form arithmetic stays finite.  Every value of the
# form carries the factor (2 pi)^n.  check_two_form_algebra evaluates it on
# sums of at most 2n products of up to three normal samples, each below
# sqrt(106 log 2) < 2^4 in size (Box-Muller on 53-bit uniforms), and scales
# by 10 (2 pi)^n; for n < 2^9 all of that stays below (2 pi)^n * 2^38, which
# must not overflow a float.
MAX_N = int((sys.float_info.max_exp - 38) / math.log2(2 * math.pi))

RESIDUAL_TOL = 1e-10  # the largest gradient norm `check_critical_points` accepts

DRAW_CHUNK = 1 << 15  # draws that `uniform_draws` mixes at once: 256 KiB, so its temporaries stay in cache


@dataclass(frozen=True)
class MirrorPoint:
    """A point of the dual fibration: radii r with angles gamma in [0, 1)^n."""

    r: tuple[float, ...]
    gamma: tuple[float, ...]

    def __post_init__(self) -> None:
        rv = tuple(float(v) for v in self.r)
        gv = tuple(float(v) % 1.0 for v in self.gamma)
        if len(rv) != len(gv):
            raise ValueError("r and gamma must have the same length")
        if any(v <= 0 for v in rv):
            raise ValueError(f"fiber radii must be positive: {rv}")
        object.__setattr__(self, "r", rv)
        object.__setattr__(self, "gamma", gv)

    @property
    def n(self) -> int:
        return len(self.r)


@dataclass(frozen=True)
class TangentVector:
    """Tangent vector at a mirror point, in (y, gamma) components."""

    y: tuple[float, ...]
    gamma: tuple[float, ...]

    def __post_init__(self) -> None:
        yv = tuple(float(v) for v in self.y)
        gv = tuple(float(v) for v in self.gamma)
        if len(yv) != len(gv):
            raise ValueError("y and gamma components must have the same length")
        object.__setattr__(self, "y", yv)
        object.__setattr__(self, "gamma", gv)

    @property
    def n(self) -> int:
        return len(self.y)


def _coordinates_and_product(z: tuple[complex, ...] | np.ndarray) -> tuple[list[complex], complex]:
    """z's coordinates as complex numbers and their product; ValueError where one vanishes."""
    zs = [complex(c) for c in z]
    if any(c == 0 for c in zs):
        raise ValueError("superpotential undefined where a coordinate vanishes")
    prod = 1.0 + 0j
    for c in zs:
        prod *= c
    return zs, prod


def superpotential(z: tuple[complex, ...] | np.ndarray) -> complex:
    """W(z) = z_1 + ... + z_n + e^{-2 pi} / (z_1 ... z_n).

    Raises ValueError if any coordinate vanishes.

    >>> abs(superpotential((1.0, 1.0)) - (2 + math.exp(-2 * math.pi))) < 1e-15
    True
    """
    zs, prod = _coordinates_and_product(z)
    return sum(zs) + math.exp(-2 * math.pi) / prod


def superpotential_gradient(z: tuple[complex, ...] | np.ndarray) -> tuple[complex, ...]:
    """Holomorphic gradient (dW/dz_1, ..., dW/dz_n); dW/dz_j = 1 - e^{-2 pi}/(z_j prod z)."""
    zs, prod = _coordinates_and_product(z)
    return tuple(1.0 - math.exp(-2 * math.pi) / (c * prod) for c in zs)


def superpotential_critical_points(n: int) -> list[tuple[tuple[complex, ...], complex]]:
    """All critical points of W for given n, with their critical values.

    On the equal-coordinate locus z_j = z the critical equations collapse to
    z^{n+1} = e^{-2 pi}, giving the n+1 points z = zeta * e^{-2 pi/(n+1)} over
    the (n+1)-th roots of unity zeta, with value W = (n+1) z.
    `check_critical_points` checks their residuals against the gradient.

    Returns a list of (point, value) pairs ordered by root index.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    radius = math.exp(-2 * math.pi / (n + 1))
    zvals = [radius * cmath.exp(2j * math.pi * l / (n + 1)) for l in range(n + 1)]
    return [((z,) * n, (n + 1) * z) for z in zvals]


def symplectic_form_eval(base: MirrorPoint, u: TangentVector, v: TangentVector) -> float:
    """Evaluate (2 pi)^n sum_i (dy_i ^ dgamma_i) on a pair of tangent vectors.

    The form is constant in (y, gamma) coordinates, so `base` fixes only the
    dimension; it is retained in the signature because the vectors live in its
    tangent space.

    >>> p = MirrorPoint((1.0,), (0.0,))
    >>> symplectic_form_eval(p, TangentVector((1.0,), (0.0,)),
    ...                      TangentVector((0.0,), (1.0,)))
    6.283185307179586
    """
    n = base.n
    if u.n != n or v.n != n:
        raise ValueError("tangent vectors must match the base dimension")
    total = 0.0
    for uy, ug, vy, vg in zip(u.y, u.gamma, v.y, v.gamma):
        total += uy * vg - ug * vy
    return (2 * math.pi) ** n * total


def uniform_draws(seed: int, shape: tuple[int, ...], start: int = 0) -> np.ndarray:
    """Draws start, start + 1, ... of stream `seed`, as floats in [0, 1) of the given shape, in C order.

    Draw i is output i + 1 of SplitMix64 (Steele, Lea and Flood, 2014) from
    the state `seed mod 2**64`: the standard mixer applied to
    state + (i + 1) * 0x9E3779B97F4A7C15, all mod 2**64.  Each draw keeps the
    output's top 53 bits times 2**-53, so it is exact and lies on that grid.
    Since draw i depends only on i, a call's draws are the matching slice of
    any longer call, so a caller can take a long stream piece by piece.  The
    bits are mixed in the result's own memory, DRAW_CHUNK draws at a time, so
    every temporary stays that small.

    >>> hex(int(uniform_draws(0, (1,))[0] * 2**53) << 11)
    '0xe220a8397b1dc800'
    """
    out = np.empty(shape)
    flat = out.reshape(-1)
    for i in range(0, flat.size, DRAW_CHUNK):
        u = flat[i : i + DRAW_CHUNK]
        x = u.view(np.uint64)
        x[:] = np.arange(start + i + 1, start + i + 1 + len(x), dtype=np.uint64)
        x *= 0x9E3779B97F4A7C15
        x += seed % 2**64
        x ^= x >> 30
        x *= 0xBF58476D1CE4E5B9
        x ^= x >> 27
        x *= 0x94D049BB133111EB
        x ^= x >> 31
        x >>= 11
        u[:] = x
        u *= 2.0**-53
    return out


def _last_argmax(values: np.ndarray) -> int:
    """Index of the last maximum of a 1-D array: a running-maximum loop's `>=` rule."""
    return values.size - 1 - int(np.argmax(values[::-1]))


def _row_sums(a: np.ndarray, start: float = 0.0) -> np.ndarray:
    """Row sums of a 2-D array, each `start` + a[0] + a[1] + ... added left to right.

    With start 0.0 this is Python 3.11's `sum` of the row's floats, sign of
    zero included (3.12 switched `sum` to compensated addition).
    """
    total = start + a[:, 0]
    for j in range(1, a.shape[1]):
        total += a[:, j]
    return total


def _moment_of_radii(r: np.ndarray) -> np.ndarray:
    """Moment map of the points [1 : r_1 : ... : r_n], one per row of r > 0.

    |complex(r)| is r exactly, and its square is libm `pow`, as in a scalar
    map over the complex coordinates.
    """
    sq = np.array([v ** 2 for v in r.ravel().tolist()]).reshape(r.shape)
    return sq / _row_sums(sq, start=1.0)[:, None]


def _moment_grid(n: int, density: int = 10) -> list[tuple[float, ...]]:
    """Points of (axis)^n with coordinate sum below 0.98, in `itertools.product` order.

    The axis climbs from 0.05 in steps of `step`, so a point whose axis indices
    sum to more than `bound` lies a whole step past 0.98.  The walk drops such a
    prefix with all its completions, and tests every point it reaches by the
    float sum itself.
    """
    axis = np.linspace(0.05, 0.95, density).tolist()
    step = axis[1] - axis[0] if density > 1 else 1.0  # one point: index sums stay 0
    bound = math.floor((0.98 - n * axis[0]) / step) + 1
    grid = []

    def walk(prefix: tuple[float, ...], index_sum: int) -> None:
        if len(prefix) == n:
            if sum(prefix) < 0.98:
                grid.append(prefix)
            return
        for k, a in enumerate(axis):
            if index_sum + k > bound:
                break
            walk(prefix + (a,), index_sum + k)

    walk((), 0)
    return grid


def check_moment_round_trip(n: int, tol: float) -> CheckReport:
    """The moment map after the fiber radii r_j = sqrt(x_j / (1 - sum x)) must be the identity.

    An empty grid (n >= 20, where n * 0.05 >= 0.98) fails instead of passing.
    """
    grid = _moment_grid(n)
    x = np.array(grid, dtype=float).reshape(len(grid), n)
    r = np.sqrt(x / (1.0 - _row_sums(x))[:, None])
    dev = np.abs(_moment_of_radii(r) - x).max(axis=1)
    max_dev, witness = 0.0, None
    if grid:
        p = _last_argmax(dev)
        max_dev, witness = float(dev[p]), {"x": list(grid[p])}
    return CheckReport(
        check="geometry.moment_round_trip",
        parameters={"n": n, "tol": tol, "grid_points": len(grid)},
        max_deviation=max_dev,
        witness=witness,
        passed=bool(grid) and max_dev <= tol,
    )


def check_mirror_modulus(n: int, tol: float, seed: int, num: int = 1000) -> CheckReport:
    """-log|z_j| / 2 pi must equal the moment coordinate of the fiber."""
    # One row per sample, r in [0.2, 3) then gamma in [0, 1), as MirrorPoint keeps it.
    low, high = np.array([0.2] * n + [0.0] * n), np.array([3.0] * n + [1.0] * n)
    sample = low + (high - low) * uniform_draws(seed, (num, 2 * n))
    r, gamma = sample[:, :n], sample[:, n:]
    re = -2 * math.pi * r * r / (1 + _row_sums(r * r))[:, None]
    im = 2 * math.pi * gamma
    log_modulus = [math.log(abs(cmath.exp(complex(a, b)))) for a, b in zip(re.ravel().tolist(), im.ravel().tolist())]
    dev = np.abs(-np.array(log_modulus).reshape(r.shape) / (2 * math.pi) - _moment_of_radii(r)).max(axis=1)
    max_dev, witness = 0.0, None
    if num:
        p = _last_argmax(dev)
        max_dev, witness = float(dev[p]), {"r": r[p].tolist(), "gamma": gamma[p].tolist()}
    return CheckReport(
        check="geometry.mirror_modulus",
        parameters={"n": n, "tol": tol, "samples": num, "seed": seed},
        max_deviation=max_dev,
        witness=witness,
        passed=num > 0 and max_dev <= tol,
    )


def check_two_form_algebra(n: int, tol: float, seed: int, num: int = 200) -> CheckReport:
    """Antisymmetry and bilinearity of the reference two-form on random vectors."""
    # Per sample row: u, v and w (y part, then gamma part), then the scalar c,
    # each a Box-Muller normal from a pair of draws.
    pairs = uniform_draws(seed + 1, (num, 6 * n + 1, 2))
    rows = np.sqrt(-2 * np.log1p(-pairs[..., 0])) * np.cos(2 * math.pi * pairs[..., 1])
    uy, ug, vy, vg, wy, wg = (rows[:, a : a + n] for a in range(0, 6 * n, n))
    c = rows[:, 6 * n :]
    factor = (2 * math.pi) ** n

    def ev(ay: np.ndarray, ag: np.ndarray, by: np.ndarray, bg: np.ndarray) -> np.ndarray:
        # symplectic_form_eval, one pair of tangent vectors per row
        return factor * _row_sums(ay * bg - ag * by)

    scale = factor * 10
    uv = ev(uy, ug, vy, vg)
    dev = np.abs(uv + ev(vy, vg, uy, ug)) / scale
    combo = ev(c * uy + wy, c * ug + wg, vy, vg)
    dev = np.maximum(dev, np.abs(combo - c[:, 0] * uv - ev(wy, wg, vy, vg)) / scale)
    max_dev = float(dev.max()) if num else 0.0
    return CheckReport(
        check="geometry.two_form_algebra",
        parameters={"n": n, "tol": tol, "samples": num, "seed": seed},
        max_deviation=max_dev,
        passed=num > 0 and max_dev <= tol,
    )


def check_critical_points(n: int) -> CheckReport:
    """Count, residuals, distinctness and values of the potential's critical points.

    Each value must have the modulus (n+1) e^{-2 pi/(n+1)} and equal W at its
    point; the report holds the residuals, values and gap, not W itself.
    """
    pts = superpotential_critical_points(n)
    ok = len(pts) == n + 1
    max_residual = 0.0
    expected_mag = (n + 1) * math.exp(-2 * math.pi / (n + 1))
    value_dev = w_dev = 0.0
    for point, value in pts:
        grad = superpotential_gradient(point)
        max_residual = max(max_residual, math.sqrt(sum(abs(g) ** 2 for g in grad)))
        value_dev = max(value_dev, abs(abs(value) - expected_mag))
        w_dev = max(w_dev, abs(superpotential(point) - value))
    min_gap = min(
        abs(pts[a][1] - pts[b][1])
        for a in range(len(pts))
        for b in range(a + 1, len(pts))
    )
    value_tol = 1e-12 * expected_mag + 1e-15
    ok = ok and max_residual < RESIDUAL_TOL and min_gap > 1e-6 and value_dev <= value_tol and w_dev <= value_tol
    return CheckReport(
        check="geometry.critical_points",
        parameters={"n": n, "residual_tol": RESIDUAL_TOL},
        max_deviation=max_residual,
        witness={
            "count": len(pts),
            "values": [v for _, v in pts],
            "min_value_gap": min_gap,
        },
        passed=ok,
    )
