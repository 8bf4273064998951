"""Tests for the moment map, mirror coordinates, two-form and potential."""
from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from tdual import geometry
from tdual.geometry import MirrorPoint, TangentVector, symplectic_form_eval
from tdual.report import CheckReport

E_MINUS_PI = 0.04321391826377226
E_MINUS_2PI = 0.0018674427317079893


# The per-sample scalar forms of the geometry checks.  The checks work on
# whole sample arrays; these are the references they are compared against
# bit for bit here and in test_acceptance.py.


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of complex projective n-space in homogeneous coordinates.

    `homogeneous` holds n+1 complex entries, not all zero.

    >>> ProjectivePoint((2, 2)).homogeneous
    ((2+0j), (2+0j))
    """

    homogeneous: tuple[complex, ...]

    def __post_init__(self) -> None:
        coords = tuple(complex(c) for c in self.homogeneous)
        if len(coords) < 2:
            raise ValueError("need at least two homogeneous coordinates")
        if all(c == 0 for c in coords):
            raise ValueError("homogeneous coordinates must not all vanish")
        object.__setattr__(self, "homogeneous", coords)


@dataclass(frozen=True)
class MomentImage:
    """A point x of the closed moment simplex {x_i >= 0, sum x_i <= 1}."""

    x: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.x)
        if any(v < 0 for v in vals):
            raise ValueError(f"moment coordinates must be nonnegative: {vals}")
        if sum(vals) > 1 + 1e-15:
            raise ValueError(f"moment coordinates must sum to at most 1: {vals}")
        object.__setattr__(self, "x", vals)

    @property
    def n(self) -> int:
        return len(self.x)

    def is_interior(self) -> bool:
        return all(v > 0 for v in self.x) and sum(self.x) < 1


def moment_map(p: ProjectivePoint) -> MomentImage:
    """Image of a projective point under the torus moment map.

    Returns (|z_1|^2, ..., |z_n|^2) / sum_{i=0}^{n} |z_i|^2.

    >>> moment_map(ProjectivePoint((1, 1))).x
    (0.5,)
    >>> moment_map(ProjectivePoint((1, 1, 1))).x
    (0.3333333333333333, 0.3333333333333333)
    """
    sq = [abs(c) ** 2 for c in p.homogeneous]
    total = sum(sq)
    return MomentImage(tuple(v / total for v in sq[1:]))


def fiber_radii_from_moment(x: MomentImage) -> tuple[float, ...]:
    """Radii of the fiber torus over an interior moment point.

    Inverts the restriction of the moment map to a fiber with all |z_j| = r_j
    and z_0 = 1:  r_j = sqrt(x_j / (1 - sum_i x_i)).  Raises ValueError on the
    boundary of the simplex, where the fiber degenerates.

    >>> fiber_radii_from_moment(MomentImage((0.5,)))
    (1.0,)
    """
    if not x.is_interior():
        raise ValueError(f"moment point must be interior to the simplex: {x.x}")
    rest = 1.0 - sum(x.x)
    return tuple(math.sqrt(v / rest) for v in x.x)


def mirror_coordinates(m: MirrorPoint) -> tuple[complex, ...]:
    """Complex coordinates z_j = exp(-2 pi r_j^2/(1 + sum r_i^2) + 2 pi i gamma_j).

    Each |z_j| lies in (0, 1), and -log|z_j| / (2 pi) recovers the j-th moment
    coordinate of the underlying fiber.
    """
    s = sum(v * v for v in m.r)
    return tuple(
        cmath.exp(complex(-2 * math.pi * rj * rj / (1 + s), 2 * math.pi * gj))
        for rj, gj in zip(m.r, m.gamma)
    )


def test_projective_point_validation():
    with pytest.raises(ValueError):
        ProjectivePoint((1.0 + 0j,))
    with pytest.raises(ValueError):
        ProjectivePoint((0j, 0j))


def test_moment_map_center_and_boundary():
    center = moment_map(ProjectivePoint((1 + 0j, 1 + 0j, 1 + 0j)))
    assert center.x == pytest.approx((1 / 3, 1 / 3))
    assert center.is_interior()
    edge = moment_map(ProjectivePoint((1 + 0j, 0j)))
    assert edge.x == pytest.approx((0.0,))
    assert not edge.is_interior()


def test_moment_image_validation():
    with pytest.raises(ValueError):
        MomentImage((-0.1,))
    with pytest.raises(ValueError):
        MomentImage((0.7, 0.7))


def test_fiber_radii_unit_at_symmetric_point():
    fiber = fiber_radii_from_moment(MomentImage((0.5,)))
    assert fiber == pytest.approx((1.0,))
    with pytest.raises(ValueError):
        fiber_radii_from_moment(MomentImage((0.0,)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_moment_fiber_round_trip(n):
    """fiber radii -> projective point -> moment map returns the start point."""
    axis = np.linspace(0.05, 0.9, 10)
    count = 0
    for x in itertools.product(axis, repeat=n):
        if sum(x) >= 0.95:
            continue
        count += 1
        fiber = fiber_radii_from_moment(MomentImage(x))
        point = ProjectivePoint(
            (1 + 0j,) + tuple(complex(r) for r in fiber)
        )
        back = moment_map(point)
        assert max(abs(a - b) for a, b in zip(back.x, x)) < 1e-12
    assert count > 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mirror_modulus_matches_moment_coordinate(n):
    """-log|z_j|/(2 pi) recovers the moment coordinate of the fiber's base."""
    rng = np.random.default_rng(42)
    for _ in range(200):
        r = tuple(rng.uniform(0.2, 3.0, n))
        gamma = tuple(rng.uniform(0.0, 1.0, n))
        z = mirror_coordinates(geometry.MirrorPoint(r, gamma))
        base = ProjectivePoint((1 + 0j,) + tuple(complex(v) for v in r))
        phi = moment_map(base).x
        for zj, pj in zip(z, phi):
            assert abs(-math.log(abs(zj)) / (2 * math.pi) - pj) < 1e-12


def test_mirror_coordinates_at_unit_radii():
    # r = (1, 1), gamma = 0: each z_j = exp(-2 pi / 3)
    point = geometry.MirrorPoint((1.0, 1.0), (0.0, 0.0))
    z = mirror_coordinates(point)
    expected = math.exp(-2 * math.pi / 3)
    assert z == pytest.approx((expected, expected))


def test_mirror_coordinate_phase():
    point = geometry.MirrorPoint((1.0,), (0.25,))
    (z,) = mirror_coordinates(point)
    assert z.real == pytest.approx(0.0, abs=1e-15)
    assert z.imag == pytest.approx(math.exp(-math.pi))
    assert abs(z) == pytest.approx(E_MINUS_PI)


def test_superpotential_value_example():
    assert geometry.superpotential((1 + 0j,)) == pytest.approx(1 + E_MINUS_2PI)
    with pytest.raises(ValueError):
        geometry.superpotential((0j, 1 + 0j))


def test_superpotential_gradient_zero_at_equal_coordinates():
    for n in (1, 2, 3):
        w = cmath.exp(-2 * math.pi / (n + 1))
        grad = geometry.superpotential_gradient((w,) * n)
        assert max(abs(g) for g in grad) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_critical_points_match_polynomial_roots(n):
    """Critical points coincide with roots of t**(n+1) = exp(-2 pi).

    At a critical point all coordinates are equal (to t, say); the remaining
    scalar equation is the polynomial above, which numpy can solve on its own.
    """
    pts = geometry.superpotential_critical_points(n)
    assert len(pts) == n + 1

    poly = [1.0] + [0.0] * n + [-math.exp(-2 * math.pi)]
    roots = sorted(np.roots(poly), key=lambda t: (round(t.real, 12), round(t.imag, 12)))
    firsts = sorted(
        (p[0] for p, _ in pts), key=lambda t: (round(t.real, 12), round(t.imag, 12))
    )
    for a, b in zip(firsts, roots):
        assert abs(a - b) < 1e-12

    for point, value in pts:
        # equal coordinates, gradient residual, and the closed-form value
        assert max(abs(c - point[0]) for c in point) < 1e-15
        grad = geometry.superpotential_gradient(point)
        assert math.sqrt(sum(abs(g) ** 2 for g in grad)) < 1e-10
        assert abs(value - (n + 1) * point[0]) < 1e-14
        assert abs(abs(value) - (n + 1) * math.exp(-2 * math.pi / (n + 1))) < 1e-14


def test_critical_values_n1_are_plus_minus_two_e_minus_pi():
    values = sorted(v.real for _, v in geometry.superpotential_critical_points(1))
    assert values[0] == pytest.approx(-2 * E_MINUS_PI)
    assert values[1] == pytest.approx(2 * E_MINUS_PI)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_critical_values_are_checked_against_w(n, monkeypatch):
    """Values rotated by a root of unity keep their modulus and stay distinct,
    so only W at each point tells them from the true critical values."""
    pts = geometry.superpotential_critical_points(n)
    root = cmath.exp(2j * math.pi / (n + 1))
    rotated = [(point, value * root) for point, value in pts]
    monkeypatch.setattr(geometry, "superpotential_critical_points", lambda n: rotated)
    rep = geometry.check_critical_points(n)
    assert rep.witness["min_value_gap"] > 1e-6
    assert not rep.passed
    monkeypatch.undo()
    assert geometry.check_critical_points(n).passed


def test_critical_point_residual_gate(monkeypatch):
    """A residual over RESIDUAL_TOL fails the check and is reported, not raised."""
    residuals = [
        math.sqrt(sum(abs(g) ** 2 for g in geometry.superpotential_gradient(point)))
        for point, _ in geometry.superpotential_critical_points(2)
    ]
    monkeypatch.setattr(geometry, "RESIDUAL_TOL", 1e-300)
    rep = geometry.check_critical_points(2)
    assert not rep.passed
    assert rep.max_deviation == max(residuals) > 1e-300
    assert rep.parameters["residual_tol"] == 1e-300


def test_symplectic_form_value():
    base = geometry.MirrorPoint((1.0,), (0.0,))
    u = geometry.TangentVector((1.0,), (0.0,))
    v = geometry.TangentVector((0.0,), (1.0,))
    assert geometry.symplectic_form_eval(base, u, v) == pytest.approx(2 * math.pi)
    assert geometry.symplectic_form_eval(base, v, u) == pytest.approx(-2 * math.pi)


def test_symplectic_form_bilinear_antisymmetric():
    rng = np.random.default_rng(5)
    n = 3
    base = geometry.MirrorPoint((1.0,) * n, (0.0,) * n)
    ev = geometry.symplectic_form_eval
    for _ in range(50):
        u = geometry.TangentVector(tuple(rng.normal(size=n)), tuple(rng.normal(size=n)))
        v = geometry.TangentVector(tuple(rng.normal(size=n)), tuple(rng.normal(size=n)))
        w = geometry.TangentVector(tuple(rng.normal(size=n)), tuple(rng.normal(size=n)))
        c = float(rng.normal())
        assert ev(base, u, v) == pytest.approx(-ev(base, v, u))
        combo = geometry.TangentVector(
            tuple(c * a + b for a, b in zip(u.y, w.y)),
            tuple(c * a + b for a, b in zip(u.gamma, w.gamma)),
        )
        assert ev(base, combo, v) == pytest.approx(
            c * ev(base, u, v) + ev(base, w, v), abs=1e-9
        )


MASK64 = 2**64 - 1


def splitmix64(state: int):
    """The raw outputs of SplitMix64 from `state`, one Python int at a time (Steele, Lea and Flood 2014)."""
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def normal_rows(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """Box-Muller normals of `shape`, each from a pair of consecutive draws of stream `seed`."""
    pairs = geometry.uniform_draws(seed, (*shape, 2))
    return np.sqrt(-2 * np.log1p(-pairs[..., 0])) * np.cos(2 * math.pi * pairs[..., 1])


def dirichlet_rows(draws: np.ndarray) -> np.ndarray:
    """Flat Dirichlet rows: the exponential variates -log1p(-u) of each row of draws over their sum."""
    e = -np.log1p(-draws)
    return e / e.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("chunk", [geometry.DRAW_CHUNK, 7])
@pytest.mark.parametrize("seed", [0, 1, 7, 2**63 + 5, 2**64 - 1])
def test_uniform_draws_equal_scalar_splitmix64(seed, chunk, monkeypatch):
    """Draw i is the top 53 bits of output i + 1 from the state seed mod 2**64, times 2**-53, in chunks of any size."""
    monkeypatch.setattr(geometry, "DRAW_CHUNK", chunk)
    num = 300
    expected = [(z >> 11) * 2**-53 for z, _ in zip(splitmix64(seed), range(num))]
    assert geometry.uniform_draws(seed, (num,)).tolist() == expected
    assert geometry.uniform_draws(seed + 2**64, (num,)).tolist() == expected


def test_uniform_draws_start_at_the_first_output_of_seed_0():
    assert next(splitmix64(0)) == 0xE220A8397B1DCDAF
    assert geometry.uniform_draws(0, (1,)).tolist() == [(0xE220A8397B1DCDAF >> 11) * 2**-53]


@pytest.mark.parametrize("chunk", [geometry.DRAW_CHUNK, 7])
@pytest.mark.parametrize("a, b", [(1, 1), (3, 5), (7, 2), (0, 4), (250, 9)])
@pytest.mark.parametrize("seed", [0, 7])
def test_uniform_draws_of_a_shape_are_a_prefix_on_the_53_bit_grid(seed, a, b, chunk, monkeypatch):
    monkeypatch.setattr(geometry, "DRAW_CHUNK", chunk)
    draws = geometry.uniform_draws(seed, (a, b))
    longer = geometry.uniform_draws(seed, (a * b + 17,))
    assert draws.shape == (a, b) and draws.dtype == np.float64
    assert draws.tolist() == longer[: a * b].reshape(a, b).tolist()
    assert ((0 <= longer) & (longer < 1)).all()
    assert (longer * 2**53 == np.floor(longer * 2**53)).all()
    assert len(set(longer.tolist())) == len(longer)


@pytest.mark.parametrize("seed", [0, 7])
def test_sampled_distributions(seed):
    """Smoke test: flat Dirichlet rows sum to 1 with means 1/(n+1); Box-Muller normals are standard."""
    for n in (1, 2, 3, 5):
        w = dirichlet_rows(geometry.uniform_draws(seed, (20_000, n + 1)))
        assert np.abs(w.sum(axis=1) - 1).max() < 1e-12
        assert np.abs(w.mean(axis=0) - 1 / (n + 1)).max() < 0.01
    z = normal_rows(seed + 1, (1000, 200))
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1) < 0.03


def test_symplectic_form_dimension_mismatch():
    base = geometry.MirrorPoint((1.0, 1.0), (0.0, 0.0))
    u = geometry.TangentVector((1.0,), (0.0,))
    with pytest.raises(ValueError):
        geometry.symplectic_form_eval(base, u, u)


def test_mirror_point_stores_angles_mod_one():
    p = geometry.MirrorPoint((1.0,), (1.75,))
    q = geometry.MirrorPoint((1.0,), (-0.25,))
    assert p.gamma == pytest.approx(q.gamma)
    (zp,) = mirror_coordinates(p)
    (zq,) = mirror_coordinates(q)
    assert abs(zp - zq) < 1e-15


# The geometry checks run on whole sample arrays.  These references are the
# per-sample loops they replaced, kept verbatim (with the product-and-filter
# grid) but for the draws, which they take from the same stream, so the array
# forms must give the same reports bit for bit.


def _reference_moment_grid(n: int, density: int = 10) -> list[tuple[float, ...]]:
    axis = np.linspace(0.05, 0.95, density).tolist()
    return [
        x
        for x in itertools.product(axis, repeat=n)
        if sum(x) < 0.98
    ]


def _reference_moment_round_trip(n: int, tol: float) -> CheckReport:
    max_dev = 0.0
    witness = None
    grid = _reference_moment_grid(n)
    for x in grid:
        image = MomentImage(x)
        fiber = fiber_radii_from_moment(image)
        point = ProjectivePoint((1.0 + 0j,) + tuple(complex(r) for r in fiber))
        back = moment_map(point)
        dev = max(abs(a - b) for a, b in zip(back.x, image.x))
        if dev >= max_dev:
            max_dev = dev
            witness = {"x": list(x)}
    return CheckReport(
        check="geometry.moment_round_trip",
        parameters={"n": n, "tol": tol, "grid_points": len(grid)},
        max_deviation=max_dev,
        witness=witness,
        passed=max_dev <= tol,
    )


def _reference_mirror_modulus(n: int, tol: float, seed: int, num: int = 1000) -> CheckReport:
    low, high = [0.2] * n + [0.0] * n, [3.0] * n + [1.0] * n
    max_dev = 0.0
    witness = None
    # One row per sample, r then gamma.
    for draws in geometry.uniform_draws(seed, (num, 2 * n)).tolist():
        row = [a + (b - a) * u for a, b, u in zip(low, high, draws)]
        r, gamma = tuple(row[:n]), tuple(row[n:])
        point = MirrorPoint(r, gamma)
        z = mirror_coordinates(point)
        fiber_point = ProjectivePoint((1.0 + 0j,) + tuple(complex(v) for v in r))
        phi = moment_map(fiber_point).x
        dev = max(
            abs(-math.log(abs(zj)) / (2 * math.pi) - pj) for zj, pj in zip(z, phi)
        )
        if dev >= max_dev:
            max_dev = dev
            witness = {"r": list(r), "gamma": list(gamma)}
    return CheckReport(
        check="geometry.mirror_modulus",
        parameters={"n": n, "tol": tol, "samples": num, "seed": seed},
        max_deviation=max_dev,
        witness=witness,
        passed=max_dev <= tol,
    )


def _reference_two_form_algebra(n: int, tol: float, seed: int, num: int = 200) -> CheckReport:
    base = MirrorPoint((1.0,) * n, (0.0,) * n)
    max_dev = 0.0
    # Per sample row: u, v and w (y part, then gamma part), then the scalar c.
    for row in normal_rows(seed + 1, (num, 6 * n + 1)).tolist():
        u, v, w = (TangentVector(tuple(row[a : a + n]), tuple(row[a + n : a + 2 * n])) for a in range(0, 6 * n, 2 * n))
        c = row[6 * n]
        ev = symplectic_form_eval
        scale = (2 * math.pi) ** n * 10
        dev = abs(ev(base, u, v) + ev(base, v, u)) / scale
        combo = TangentVector(
            tuple(c * a + b for a, b in zip(u.y, w.y)),
            tuple(c * a + b for a, b in zip(u.gamma, w.gamma)),
        )
        dev = max(dev, abs(ev(base, combo, v) - c * ev(base, u, v) - ev(base, w, v)) / scale)
        max_dev = max(max_dev, dev)
    return CheckReport(
        check="geometry.two_form_algebra",
        parameters={"n": n, "tol": tol, "samples": num, "seed": seed},
        max_deviation=max_dev,
        passed=max_dev <= tol,
    )


def _same_report(new: CheckReport, ref: CheckReport) -> None:
    assert new.to_dict() == ref.to_dict()
    assert json.dumps(new.to_dict(), indent=2) == json.dumps(ref.to_dict(), indent=2)  # also the sign of every zero


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_moment_round_trip_equals_per_sample_reference(n):
    _same_report(geometry.check_moment_round_trip(n, 1e-12), _reference_moment_round_trip(n, 1e-12))


@pytest.mark.parametrize("num", [1, 7, None])
@pytest.mark.parametrize("seed", [0, 1, 7, 123456, 2**31 - 1])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_seeded_checks_equal_per_sample_reference(n, seed, num):
    size = {} if num is None else {"num": num}
    _same_report(
        geometry.check_mirror_modulus(n, 1e-12, seed, **size),
        _reference_mirror_modulus(n, 1e-12, seed, **size),
    )
    _same_report(
        geometry.check_two_form_algebra(n, 1e-12, seed, **size),
        _reference_two_form_algebra(n, 1e-12, seed, **size),
    )


@pytest.mark.parametrize(
    "n, density",
    [(n, 10) for n in range(1, 7)] + [(n, d) for n in range(1, 5) for d in (1, 2, 3, 7, 13)],
)
def test_pruned_moment_grid_equals_product_and_filter(n, density):
    assert geometry._moment_grid(n, density) == _reference_moment_grid(n, density)


@pytest.mark.parametrize("n", [20, 21, 40])
def test_moment_round_trip_fails_on_an_empty_grid(n):
    """For n >= 20 no grid point has sum below 0.98: no pass on zero samples."""
    assert geometry._moment_grid(n) == []
    rep = geometry.check_moment_round_trip(n, 1e-12)
    assert rep.parameters["grid_points"] == 0
    assert rep.witness is None
    assert not rep.passed


def test_seeded_checks_fail_on_zero_samples():
    assert not geometry.check_mirror_modulus(2, 1e-12, 0, num=0).passed
    assert not geometry.check_two_form_algebra(2, 1e-12, 0, num=0).passed


def test_moment_of_radii_equals_scalar_moment_map():
    """Squares go through libm `pow`, as in moment_map.  On glibc each of these
    radii has r**2 != r*r, so a product in place of the power changes digits."""
    radii = [0.44575008292656293, 2.719848221629056, 1.9818580512458366, 0.9333039340971008, 2.480559805511111]
    rows = [(a, b) for a in radii for b in (0.5, 1.0, 1.7)] + [(b, a) for a in radii for b in (0.5, 1.0, 1.7)]
    expected = [list(moment_map(ProjectivePoint((1 + 0j,) + tuple(complex(v) for v in row))).x) for row in rows]
    assert geometry._moment_of_radii(np.array(rows)).tolist() == expected
