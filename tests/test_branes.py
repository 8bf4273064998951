"""Tests for weighted sections, lifted potentials and separation probes."""
from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest

from tdual import branes, cli, geometry
from tdual.branes import LiftedCell
from tdual.geometry import MirrorPoint, TangentVector, symplectic_form_eval

from test_branes_batch import section_gamma_unreduced, section_tangent_frame
from test_geometry import dirichlet_rows

LOG2_OVER_2 = 0.34657359027997264


def test_section_gamma_symmetric_point():
    assert section_gamma_unreduced(1, (1.0, 1.0)) == pytest.approx((1 / 3, 1 / 3))
    assert section_gamma_unreduced(3, (1.0, 1.0)) == pytest.approx((1.0, 1.0))


def test_section_gamma_linear_in_level():
    rng = np.random.default_rng(11)
    for _ in range(20):
        r = tuple(rng.uniform(0.3, 2.5, 3))
        base = section_gamma_unreduced(1, r)
        for k in (-4, -1, 2, 5):
            scaled = section_gamma_unreduced(k, r)
            assert scaled == pytest.approx(tuple(k * v for v in base))


def test_base_potential_frozen_value():
    assert branes.base_potential(np.array([-0.5])) == pytest.approx(LOG2_OVER_2)


def test_potential_value_rescaled_vs_literal():
    cell = LiftedCell(-1, (0,))
    assert branes.potential_value(cell, (-0.5,)) == pytest.approx(LOG2_OVER_2)
    # the two scalings agree at level -1 and differ by the factor -k below it
    deep = LiftedCell(-2, (0,))
    g = (-1.0,)
    lit = branes.potential_value(deep, g, literal_scaling=True)
    assert branes.potential_value(deep, g) == pytest.approx(2 * lit)


def test_potential_value_outside_cell():
    cell = LiftedCell(-1, (0,))
    with pytest.raises(ValueError):
        branes.potential_value(cell, (0.5,))
    with pytest.raises(ValueError):
        branes.potential_value(cell, (-1.5,))


def test_lifted_cell_validation():
    with pytest.raises(ValueError):
        LiftedCell(0, (0,))
    with pytest.raises(ValueError):
        LiftedCell(-3, (0,))
    with pytest.raises(ValueError):
        LiftedCell(-1, (1, 0))
    with pytest.raises(ValueError, match="length n=2"):
        branes.check_graph(2, -1, (0,))


def test_lifted_cell_membership_and_barycenter():
    cell = LiftedCell(-3, (0, -1))
    center = (-1.0, -2.0)  # the barycenter a + k/(n+1) * (1, ..., 1)
    slacks = cell.constraint_slacks(center)
    assert len(slacks) == 3
    assert min(slacks) > 0
    cell.require_inside(center)
    # a face point has one zero slack
    assert sorted(cell.constraint_slacks((0.0, -2.0))) == [0.0, 1.0, 2.0]
    with pytest.raises(ValueError, match="outside the open cell"):
        cell.require_inside((0.0, -2.0))


def test_gradient_vanishes_at_barycenter():
    for n, k in [(1, -1), (1, -2), (2, -3), (3, -2)]:
        cell = LiftedCell(k, (0,) * n)
        g0 = np.full(n, k / (n + 1))  # the barycenter a + k/(n+1) * (1, ..., 1) at a = 0
        h = 1e-6
        for i in range(n):
            delta = np.zeros(n)
            delta[i] = h
            diff = branes.potential_value(cell, g0 + delta) - branes.potential_value(
                cell, g0 - delta
            )
            assert abs(diff / (2 * h)) < 1e-8


def test_brane_log_radii_matches_section():
    """The potential's target graph inverts the section's angular map."""
    rng = np.random.default_rng(3)
    for n, k in [(1, -2), (2, -1), (2, -3), (3, -4)]:
        cell = LiftedCell(k, (0,) * n)
        for _ in range(20):
            r = rng.uniform(0.3, 2.0, n)
            # the level k section sits at gamma = k r^2/(1+|r|^2) (mod 1);
            # its standard lift into the cell with offset 0 is the same value
            gamma = np.asarray(section_gamma_unreduced(k, r))
            y = cell.brane_log_radii(gamma)
            assert y == pytest.approx(np.log(r), abs=1e-12)


@pytest.mark.parametrize(
    "n,k",
    [(1, -1), (1, -2), (2, -1), (2, -2), (2, -3), (3, -4)],
)
def test_check_graph_rescaled_passes(n, k):
    density = {1: 60, 2: 12, 3: 6}[n]
    rep = branes.check_graph(n, k, density=density)
    assert rep.passed, rep.max_deviation
    assert rep.max_deviation < 1e-7


@pytest.mark.parametrize("n,k", [(1, -2), (2, -2), (2, -3)])
def test_check_graph_literal_fails_below_level_minus_one(n, k):
    density = {1: 60, 2: 10}[n]
    rep = branes.check_graph(n, k, density=density, literal_scaling=True)
    assert not rep.passed
    # the defect is exactly the missing factor -k: fd of the literal lift
    # returns y/(-k), so scaling it back by -k recovers the log radii
    w = rep.witness
    fd = np.asarray(w["fd_gradient"])
    target = np.asarray(w["log_radii"])
    assert (-k) * fd == pytest.approx(target, abs=1e-6)


def test_check_graph_level_minus_one_literal_agrees():
    rep = branes.check_graph(1, -1, density=60, literal_scaling=True)
    assert rep.passed


def test_check_graph_margin_guard():
    with pytest.raises(ValueError):
        branes.check_graph(1, -1, fd_step=0.1)


def test_section_tangent_frame_shapes():
    frame = section_tangent_frame(2, -3, np.array([1.0, 2.0]))
    assert len(frame) == 2
    assert frame[0].y == pytest.approx((1.0, 0.0))
    assert frame[1].y == pytest.approx((0.0, 0.5))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_check_exactness_all_levels(n):
    levels = range(-n - 1, 0)
    reps = branes.check_exactness(n, levels, density=12)
    assert [rep.parameters["k"] for rep in reps] == list(levels)
    for k, rep in zip(levels, reps):
        assert rep.passed, (n, k, rep.max_deviation)
        if n == 1:
            assert rep.max_deviation == 0.0


def test_exactness_detects_wrong_angular_part():
    """A frame with a corrupted angular part must not look exact."""
    r = np.array([0.8, 1.7])
    frame = section_tangent_frame(2, -2, r)
    bad = [
        TangentVector(v.y, tuple(2.0 * g for g in v.gamma)) if i == 0 else v
        for i, v in enumerate(frame)
    ]
    base = MirrorPoint(tuple(r), (0.0, 0.0))
    assert abs(symplectic_form_eval(base, bad[0], bad[1])) > 1e-3


def test_wrap_to_half():
    v = branes.wrap_to_half(np.array([0.75, -0.5, 0.49, 1.25]))
    assert v == pytest.approx([-0.25, -0.5, 0.49, 0.25])


def test_wrap_to_half_equals_float_remainder_bit_for_bit():
    """x - floor(x) and Python's x % 1.0 agree in value and in the sign of zero."""
    edge = [0.0, -0.0, 1.0, -1.0, 3.0, -7.0, 2.0**52, -(2.0**52)]
    edge += [s * k + 0.5 for k in (0, 1, 2, 5, 1000) for s in (1, -1)]
    edge += [-1e-20, 1e-20, -0.5 - 1e-17, 1e15 + 0.3, -(1e15 + 0.3), 0.5 - 2.0**-54]
    rng = np.random.default_rng(3)
    v = np.concatenate([edge, rng.uniform(-3, 3, 1000), rng.normal(0, 1e6, 200)])
    got = branes.wrap_to_half(v)
    want = (v + 0.5) % 1.0 - 0.5
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert got.tolist() == [(x + 0.5) % 1.0 - 0.5 for x in v.tolist()]
    assert np.array_equal(v[: len(edge)], edge)  # the input is left as it was


@pytest.mark.parametrize("n", [1, 2])
def test_separation_probe_positive_at_face_midpoints(n):
    points = branes.domain_face_midpoints(n)
    reps = branes.separation_probe(n, points, delta_probe=0.05, num_samples=2000, seed=0)
    assert len(reps) == len(points)
    for rep in reps:
        assert rep.passed
        assert rep.witness["min_defect"] > 0


def test_separation_probe_deterministic_per_seed():
    [a] = branes.separation_probe(2, [(0.0, -0.5)], num_samples=500, seed=4)
    [b] = branes.separation_probe(2, [(0.0, -0.5)], num_samples=500, seed=4)
    assert a.witness["min_defect"] == b.witness["min_defect"]
    [c] = branes.separation_probe(2, [(0.0, -0.5)], num_samples=500, seed=5)
    assert c.witness["min_defect"] != a.witness["min_defect"]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 7])
def test_separation_probe_shares_one_sample(n, seed):
    """Each report of a many-point call is the report of a one-point call."""
    points = branes.domain_face_midpoints(n) + [(-0.25,) * n]
    reps = branes.separation_probe(n, points, num_samples=800, seed=seed)
    for s, rep in zip(points, reps, strict=True):
        [single] = branes.separation_probe(n, [s], num_samples=800, seed=seed)
        assert json.dumps(rep.to_dict(), indent=2) == json.dumps(single.to_dict(), indent=2)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 7])
def test_separation_probe_draws_from_the_seeded_stream(n, seed, monkeypatch):
    """Row i of stream `seed` gives sample i's flat Dirichlet weight, and row i
    of stream seed + 1 its flow times, scaled and sorted.  Each witness is the
    first sample of least defect among those rows, when the probe draws and
    flows the default CHUNK_POINTS samples at a time (one chunk, then two with
    a partial last one), 7 at a time (800 is no multiple of 7) and one at a
    time."""
    delta = 0.05
    points = branes.domain_face_midpoints(n) + [(-0.25,) * n]
    default = branes.CHUNK_POINTS
    for chunk, num in [(default, 800), (default, default + 5), (7, 800), (1, 800)]:
        gammas = -dirichlet_rows(geometry.uniform_draws(seed, (num, n + 1)))[:, :n]
        times = np.sort(geometry.uniform_draws(seed + 1, (num, 2)) * delta, axis=1)
        y = 0.5 * np.log(-gammas / (1.0 + gammas.sum(axis=1, keepdims=True)))
        flowed = gammas + (times[:, 1] - times[:, 0])[:, None] * y / np.linalg.norm(y, axis=1)[:, None]
        monkeypatch.setattr(branes, "CHUNK_POINTS", chunk)
        for s, rep in zip(points, branes.separation_probe(n, points, delta, num, seed), strict=True):
            defects = np.linalg.norm(branes.wrap_to_half(np.array(s) - flowed), axis=1)
            row = int(np.argmin(defects))
            assert rep.witness["gamma"] == gammas[row].tolist(), (chunk, num)
            assert rep.witness["t1"] == times[row, 0], (chunk, num)
            assert rep.witness["t2"] == times[row, 0] + (times[row, 1] - times[row, 0]), (chunk, num)
            assert rep.witness["min_defect"] == pytest.approx(defects[row], rel=1e-12), (chunk, num)


def equal_rows_at(rows, seed, num):
    """`geometry.uniform_draws` with [0.3, 0.3] planted at the given rows of stream `seed`'s
    first `num` pairs; the other rows of that stream are its pairs in order, and every other
    stream is left as it is.  Equal draws put an n = 1 weight at the barycentre (-1/2, -1/2)
    exactly, where the log radii vanish."""
    draws = geometry.uniform_draws

    def planted(s, shape, start=0):
        if s != seed:
            return draws(s, shape, start)
        stream = draws(s, (num - len(rows), 2))
        for row in sorted(rows):
            stream = np.insert(stream, row, [0.3, 0.3], axis=0)
        return stream.ravel()[start:start + math.prod(shape)].reshape(shape)

    return planted


@pytest.mark.parametrize("row", [0, 137, 399])
def test_separation_probe_drops_a_sample_without_flow_direction(row, monkeypatch):
    """A sample at the barycentre has no flow direction.  It is dropped, and
    kept sample j takes flow-time pair j: each report equals the one of a
    single-chunk call whose weight stream lacks that row.  At 7 samples a
    chunk, rows 0 and 137 lie before later chunks, whose flow times must
    start at twice the samples kept in the chunks before them."""
    seed, num = 3, 400
    points = branes.domain_face_midpoints(1) + [(-0.25,), (-0.6,), (-0.9,)]
    want = branes.separation_probe(1, points, num_samples=num - 1, seed=seed)
    monkeypatch.setattr(geometry, "uniform_draws", equal_rows_at([row], seed, num))
    for chunk in (branes.CHUNK_POINTS, 7):
        monkeypatch.setattr(branes, "CHUNK_POINTS", chunk)
        got = branes.separation_probe(1, points, num_samples=num, seed=seed)
        for g, w in zip(got, want, strict=True):
            assert g.parameters["num_samples"] == num
            assert (g.witness, g.passed) == (w.witness, w.passed), chunk
            assert g.witness["min_defect"] > 0


def test_separation_probe_fails_when_it_keeps_no_sample(monkeypatch, capsys):
    """When every sample lies at the barycentre, no check passes on zero
    samples: each report fails with no witness, and the command exits 1 with
    its report and no traceback."""
    seed, num = 3, 5
    monkeypatch.setattr(geometry, "uniform_draws", equal_rows_at(range(num), seed, num))
    points = branes.domain_face_midpoints(1) + [(-0.25,)]
    for rep in branes.separation_probe(1, points, num_samples=num, seed=seed):
        assert (rep.witness, rep.passed) == (None, False)
        assert "witness" not in rep.to_dict()
    monkeypatch.setenv("TDUAL_SEED", str(seed))
    assert cli.main(["branes", "--n", "1", "--samples", str(num)]) == 1
    out, err = capsys.readouterr()
    [probe] = [c for c in json.loads(out)["checks"] if c["check"] == "branes.separation"]
    assert probe["pass"] is False and "witness" not in probe
    assert err == ""


def test_separation_probe_memory_does_not_grow_with_the_sample_count():
    """A million samples are drawn and flowed CHUNK_POINTS at a time, so the
    traced peak stays under 8 MiB, a third of the 24 MB that the million
    samples' weights alone would take at once."""
    points = branes.domain_face_midpoints(2)
    tracemalloc.start()
    try:
        reps = branes.separation_probe(2, points, num_samples=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(rep.passed for rep in reps)
    assert peak < 8 * 2**20


def test_separation_probe_rejects_a_short_point():
    with pytest.raises(ValueError, match="length n=2"):
        branes.separation_probe(2, [(0.0, -0.5), (0.0,)])


def test_separation_probe_rejects_zero_samples():
    with pytest.raises(ValueError, match="num_samples"):
        branes.separation_probe(2, [(0.0, -0.5)], num_samples=0)


def test_domain_face_midpoints():
    assert branes.domain_face_midpoints(1) == [(0.0,)]
    mids = branes.domain_face_midpoints(2)
    assert len(mids) == 3
    assert (0.0, -0.5) in mids
    assert (-0.5, 0.0) in mids
    assert (-0.5, -0.5) in mids


def test_gradient_norm_grows_toward_boundary():
    """|grad f| increases monotonically along a ray approaching a face."""
    cell = LiftedCell(-1, (0, 0))
    start = np.array([-1 / 3, -1 / 3])
    norms = []
    for m in range(1, 14):
        g = start.copy()
        g[0] = -(2.0 ** (-m)) / 3.0  # first coordinate runs to the face g_0 = 0
        norms.append(float(np.linalg.norm(cell.brane_log_radii(g))))
    tail = norms[-10:]
    assert all(b > a for a, b in zip(tail, tail[1:]))
    assert tail[-1] > 4.0
